"""Two-layer online ad retrieval (paper §IV-C-2, Fig. 6).

Given an online request — a query ``q`` plus the user's pre-click items
``P`` — the retrieval proceeds in two index-lookup layers:

1. **key expansion**: ``q`` is expanded through Q2Q and Q2I, each
   pre-click item through I2Q and I2I, producing a set of related
   query-keys and item-keys with expansion scores;
2. **ad retrieval**: every key is looked up in Q2A or I2A; candidate
   ads accumulate scores from all keys that retrieved them.

Scores are converted from distances with the same Fermi–Dirac link
function used in training, multiplied along the two hops, and summed
over paths — so an ad reachable through several strong keys ranks
higher.  Compared with single-hop embedding retrieval this covers far
more traffic (the paper's motivation for the design).

The hot path is fully vectorised: :meth:`TwoLayerRetriever.retrieve_batch`
serves a whole micro-batch of requests through flattened
``(request, key, score)`` / ``(request, ad, score)`` triples aggregated
with ``np.unique`` + ``np.bincount``, and :meth:`~TwoLayerRetriever.retrieve`
and :meth:`~TwoLayerRetriever.expand_keys` are thin single-request
wrappers over it.  The original per-key dict accumulation is the oracle
the batch path is tested against (``tests/reference/retrieval.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.schema import Relation
from repro.retrieval.index import IndexSet


def _fermi(dist: np.ndarray, radius: float = 1.0,
           temperature: float = 5.0) -> np.ndarray:
    """Fermi–Dirac link function ``1 / (1 + exp(-t (r - d)))``.

    Evaluated as ``exp(-logaddexp(0, t (d - r)))`` so large distances
    underflow smoothly to 0.0 instead of overflowing ``exp``.
    """
    exponent = temperature * (np.asarray(dist, dtype=np.float64) - radius)
    return np.exp(-np.logaddexp(0.0, exponent))


@dataclasses.dataclass
class RetrievalResult:
    """Ranked ads for one request."""

    ads: np.ndarray          # ad ids, best first
    scores: np.ndarray       # aggregated path scores
    num_keys: int            # size of the expanded key set (layer 1)

    def top(self, k: int) -> np.ndarray:
        return self.ads[:k]


@dataclasses.dataclass
class KeyExpansion:
    """Layer-1 output for one request: unique keys, max-merged scores.

    The arrays are what the serving engine caches per request
    signature; :meth:`TwoLayerRetriever.gather_batch` consumes them.
    """

    query_keys: np.ndarray    # int64 unique query-key ids
    query_scores: np.ndarray
    item_keys: np.ndarray     # int64 unique item-key ids
    item_scores: np.ndarray

    @property
    def num_keys(self) -> int:
        return int(self.query_keys.size + self.item_keys.size)


def _group_reduce(requests: np.ndarray, keys: np.ndarray, scores: np.ndarray,
                  num_requests: int, reduce: str
                  ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Aggregate flattened (request, key, score) triples per request.

    Deduplicates by (request, key) through a composite ``np.unique``;
    ``reduce="max"`` keeps the strongest path (layer-1 key merge) and
    ``reduce="sum"`` accumulates over paths (layer-2 ad scoring, via
    ``np.bincount``).  Returns one ``(keys, scores)`` pair per request,
    keys ascending.
    """
    empty = (np.empty(0, dtype=np.int64), np.empty(0))
    if requests.size == 0:
        return [empty] * num_requests
    stride = int(keys.max()) + 1
    composite = requests.astype(np.int64) * stride + keys
    unique, inverse = np.unique(composite, return_inverse=True)
    if reduce == "max":
        merged = np.full(unique.size, -np.inf)
        np.maximum.at(merged, inverse, scores)
    elif reduce == "sum":
        merged = np.bincount(inverse, weights=scores, minlength=unique.size)
    else:
        raise ValueError("unknown reduce %r" % reduce)
    unique_req = unique // stride
    unique_key = unique - unique_req * stride
    bounds = np.searchsorted(unique_req, np.arange(num_requests + 1))
    return [(unique_key[a:b], merged[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])]


class TwoLayerRetriever:
    """Serves requests from a built :class:`IndexSet`."""

    def __init__(self, index_set: IndexSet, expansion_k: int = 10,
                 ads_per_key: int = 10, radius: float = 1.0,
                 temperature: float = 5.0,
                 keep_original_query: bool = True):
        self.indices = index_set
        self.expansion_k = int(expansion_k)
        self.ads_per_key = int(ads_per_key)
        self.radius = float(radius)
        self.temperature = float(temperature)
        self.keep_original_query = bool(keep_original_query)

    # -- layer 1: key expansion ------------------------------------------------

    def expand_keys(self, query: int, preclick_items: Sequence[int]
                    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Expanded (query-key, item-key) score maps for one request
        (wrapper over :meth:`expand_keys_batch`)."""
        expansion = self.expand_keys_batch(np.array([query]),
                                           [preclick_items])[0]
        return (dict(zip(expansion.query_keys.tolist(),
                         expansion.query_scores.tolist())),
                dict(zip(expansion.item_keys.tolist(),
                         expansion.item_scores.tolist())))

    def expand_keys_batch(self, queries: np.ndarray,
                          preclicks: Sequence[Sequence[int]]
                          ) -> List[KeyExpansion]:
        """Vectorised layer 1 for a whole micro-batch of requests.

        All index lookups run batched; duplicate (request, key) pairs
        from different expansion paths are max-merged via ``np.unique``
        over flattened triples.
        """
        queries = np.asarray(queries, dtype=np.int64).ravel()
        num_requests = queries.size
        if len(preclicks) != num_requests:
            raise ValueError("got %d queries but %d pre-click lists"
                             % (num_requests, len(preclicks)))
        request_ids = np.arange(num_requests, dtype=np.int64)

        # triple sinks for the two key namespaces
        q_req: List[np.ndarray] = []
        q_key: List[np.ndarray] = []
        q_score: List[np.ndarray] = []
        i_req: List[np.ndarray] = []
        i_key: List[np.ndarray] = []
        i_score: List[np.ndarray] = []

        def expand(relation: Relation, src_req: np.ndarray,
                   src_keys: np.ndarray, sink_req: List[np.ndarray],
                   sink_key: List[np.ndarray],
                   sink_score: List[np.ndarray]) -> None:
            if relation not in self.indices or src_keys.size == 0:
                return
            ids, dists = self.indices[relation].lookup_batch(
                src_keys, self.expansion_k)
            width = ids.shape[1]
            sink_req.append(np.repeat(src_req, width))
            sink_key.append(ids.ravel().astype(np.int64))
            sink_score.append(
                _fermi(dists, self.radius, self.temperature).ravel())

        if num_requests:
            if self.keep_original_query:
                q_req.append(request_ids)
                q_key.append(queries)
                q_score.append(np.ones(num_requests))
            expand(Relation.Q2Q, request_ids, queries, q_req, q_key, q_score)
            expand(Relation.Q2I, request_ids, queries, i_req, i_key, i_score)

        sizes = np.fromiter((len(p) for p in preclicks), dtype=np.int64,
                            count=num_requests)
        if sizes.sum():
            flat_req = np.repeat(request_ids, sizes)
            flat_items = np.concatenate(
                [np.asarray(list(p), dtype=np.int64) for p in preclicks
                 if len(p)])
            i_req.append(flat_req)
            i_key.append(flat_items)
            i_score.append(np.ones(flat_items.size))
            expand(Relation.I2Q, flat_req, flat_items, q_req, q_key, q_score)
            expand(Relation.I2I, flat_req, flat_items, i_req, i_key, i_score)

        def grouped(reqs, keys, scores):
            if not reqs:
                return [(np.empty(0, dtype=np.int64),
                         np.empty(0))] * num_requests
            return _group_reduce(np.concatenate(reqs), np.concatenate(keys),
                                 np.concatenate(scores), num_requests,
                                 reduce="max")

        return [KeyExpansion(qk, qs, ik, isc)
                for (qk, qs), (ik, isc) in zip(grouped(q_req, q_key, q_score),
                                               grouped(i_req, i_key, i_score))]

    # -- layer 2: ad retrieval ------------------------------------------------------

    def gather_batch(self, expansions: Sequence[KeyExpansion],
                     k: int = 20) -> List[RetrievalResult]:
        """Vectorised layer 2: expanded keys → ranked ads per request.

        Q2A/I2A lookups run batched over all keys of all requests; the
        per-path scores are summed per (request, ad) with
        ``np.unique`` + ``np.bincount`` over flattened triples.
        """
        num_requests = len(expansions)
        req_parts: List[np.ndarray] = []
        ad_parts: List[np.ndarray] = []
        score_parts: List[np.ndarray] = []

        def gather(relation: Relation, key_arrays, score_arrays) -> None:
            if relation not in self.indices:
                return
            sizes = np.fromiter((a.size for a in key_arrays), dtype=np.int64,
                                count=num_requests)
            if sizes.sum() == 0:
                return
            keys = np.concatenate(key_arrays)
            key_scores = np.concatenate(score_arrays)
            request_ids = np.repeat(np.arange(num_requests, dtype=np.int64),
                                    sizes)
            ids, dists = self.indices[relation].lookup_batch(
                keys, self.ads_per_key)
            hop = _fermi(dists, self.radius, self.temperature)
            path_scores = key_scores[:, None] * hop
            width = ids.shape[1]
            req_parts.append(np.repeat(request_ids, width))
            ad_parts.append(ids.ravel().astype(np.int64))
            score_parts.append(path_scores.ravel())

        gather(Relation.Q2A, [e.query_keys for e in expansions],
               [e.query_scores for e in expansions])
        gather(Relation.I2A, [e.item_keys for e in expansions],
               [e.item_scores for e in expansions])

        if not req_parts:
            return [RetrievalResult(ads=np.empty(0, dtype=np.int64),
                                    scores=np.empty(0),
                                    num_keys=e.num_keys) for e in expansions]

        segments = _group_reduce(np.concatenate(req_parts),
                                 np.concatenate(ad_parts),
                                 np.concatenate(score_parts),
                                 num_requests, reduce="sum")
        results = []
        for expansion, (segment_ads, segment_scores) in zip(expansions,
                                                            segments):
            order = np.argsort(-segment_scores)[:k]
            results.append(RetrievalResult(ads=segment_ads[order],
                                           scores=segment_scores[order],
                                           num_keys=expansion.num_keys))
        return results

    def retrieve_batch(self, queries: Sequence[int],
                       preclicks: Optional[Sequence[Sequence[int]]] = None,
                       k: int = 20) -> List[RetrievalResult]:
        """Run both layers for a micro-batch of requests, vectorised."""
        queries = np.asarray(queries, dtype=np.int64).ravel()
        if preclicks is None:
            preclicks = [()] * queries.size
        return self.gather_batch(self.expand_keys_batch(queries, preclicks),
                                 k=k)

    def retrieve(self, query: int, preclick_items: Sequence[int] = (),
                 k: int = 20) -> RetrievalResult:
        """Top-``k`` ads for one request (wrapper over the batch path)."""
        return self.retrieve_batch(np.array([query]), [preclick_items],
                                   k=k)[0]

    def retrieve_items(self, query: int, k: int = 100) -> np.ndarray:
        """Direct Q2I retrieval (used by the offline ranking metrics)."""
        ids, _dists = self.indices[Relation.Q2I].lookup(query, k)
        return ids
