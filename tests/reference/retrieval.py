"""Two-layer retrieval one request at a time, with dict accumulation.

The semantic baseline the vectorised
``TwoLayerRetriever.expand_keys_batch``/``retrieve_batch`` are asserted
against: every key and every ad is merged through a python dict, so
what "max over expansion paths" and "sum over retrieval paths" mean is
readable off the code.
"""

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.graph.schema import Relation
from repro.retrieval.two_layer import (
    RetrievalResult,
    TwoLayerRetriever,
    _fermi,
)


def expand_keys_looped(retriever: TwoLayerRetriever, query: int,
                       preclick_items: Sequence[int]
                       ) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Layer 1: expanded (query-key, item-key) score maps."""
    indices, expansion_k = retriever.indices, retriever.expansion_k
    query_keys: Dict[int, float] = {}
    item_keys: Dict[int, float] = {}
    if retriever.keep_original_query:
        query_keys[query] = 1.0

    def absorb(keys: Dict[int, float], ids: np.ndarray,
               dists: np.ndarray, base: float) -> None:
        scores = base * _fermi(dists, retriever.radius, retriever.temperature)
        for node, score in zip(ids, scores):
            node = int(node)
            keys[node] = max(keys.get(node, 0.0), float(score))

    if Relation.Q2Q in indices:
        ids, dists = indices[Relation.Q2Q].lookup(query, expansion_k)
        absorb(query_keys, ids, dists, 1.0)
    if Relation.Q2I in indices:
        ids, dists = indices[Relation.Q2I].lookup(query, expansion_k)
        absorb(item_keys, ids, dists, 1.0)
    for item in preclick_items:
        item = int(item)
        item_keys[item] = max(item_keys.get(item, 0.0), 1.0)
        if Relation.I2Q in indices:
            ids, dists = indices[Relation.I2Q].lookup(item, expansion_k)
            absorb(query_keys, ids, dists, 1.0)
        if Relation.I2I in indices:
            ids, dists = indices[Relation.I2I].lookup(item, expansion_k)
            absorb(item_keys, ids, dists, 1.0)
    return query_keys, item_keys


def retrieve_looped(retriever: TwoLayerRetriever, query: int,
                    preclick_items: Sequence[int] = (),
                    k: int = 20) -> RetrievalResult:
    """Both layers for one request, per-key dict accumulation."""
    query_keys, item_keys = expand_keys_looped(retriever, query,
                                               preclick_items)
    ad_scores: Dict[int, float] = {}

    def gather(index_relation: Relation, keys: Dict[int, float]) -> None:
        if index_relation not in retriever.indices or not keys:
            return
        index = retriever.indices[index_relation]
        key_ids = np.fromiter(keys, dtype=np.int64, count=len(keys))
        key_scores = np.fromiter(keys.values(), dtype=np.float64,
                                 count=len(keys))
        ids, dists = index.lookup_batch(key_ids, retriever.ads_per_key)
        hop = _fermi(dists, retriever.radius, retriever.temperature)
        path_scores = key_scores[:, None] * hop
        for row in range(ids.shape[0]):
            for ad, score in zip(ids[row], path_scores[row]):
                ad = int(ad)
                ad_scores[ad] = ad_scores.get(ad, 0.0) + float(score)

    gather(Relation.Q2A, query_keys)
    gather(Relation.I2A, item_keys)

    num_keys = len(query_keys) + len(item_keys)
    if not ad_scores:
        return RetrievalResult(ads=np.empty(0, dtype=np.int64),
                               scores=np.empty(0), num_keys=num_keys)
    ads = np.fromiter(ad_scores, dtype=np.int64, count=len(ad_scores))
    scores = np.fromiter(ad_scores.values(), dtype=np.float64,
                         count=len(ad_scores))
    order = np.argsort(-scores)[:k]
    return RetrievalResult(ads=ads[order], scores=scores[order],
                           num_keys=num_keys)
