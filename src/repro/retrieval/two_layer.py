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
serves a whole micro-batch of requests, and
:meth:`~TwoLayerRetriever.retrieve` and
:meth:`~TwoLayerRetriever.expand_keys` are thin single-request wrappers
over it.  Distances never change between requests, so the constructor
turns each index's leading columns into a contiguous table of ids and
*link scores* once; a request then costs row gathers and no ``exp``.
Layer 1 max-merges flattened ``(request, key, score)`` triples through
one composite ``np.unique``; layer 2 sums path scores into a dense
``(requests, num_ads)`` array with one weighted ``np.bincount`` and
ranks it with a row-wise ``argpartition``, a block of rows at a time.
A request's result is a pure function of ``(query, pre-clicks, k)`` —
bit-equal whatever batch it rides in — which is what lets the serving
engine cache finished results.  The original per-key dict accumulation
is the oracle the batch path is tested against
(``tests/reference/retrieval.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.schema import Relation
from repro.retrieval.index import LAYER_ONE, LAYER_TWO, IndexSet, InvertedIndex

#: cells of the dense ``(requests, num_ads)`` layer-2 accumulator scored
#: at a time; bounds its memory by this constant instead of by
#: batch size × catalog size
_GATHER_BLOCK_ELEMENTS = 2 ** 18


def _fermi(dist: np.ndarray, radius: float = 1.0,
           temperature: float = 5.0) -> np.ndarray:
    """Fermi–Dirac link function ``1 / (1 + exp(-t (r - d)))``.

    Evaluated through ``exp(-|t (d - r)|)``, which cannot overflow, so
    large distances underflow smoothly to 0.0.
    """
    exponent = temperature * (np.asarray(dist, dtype=np.float64) - radius)
    decay = np.exp(-np.abs(exponent))
    return np.where(exponent >= 0, decay, 1.0) / (1.0 + decay)


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

    :meth:`TwoLayerRetriever.gather_batch` consumes them.
    """

    query_keys: np.ndarray    # int64 unique query-key ids
    query_scores: np.ndarray
    item_keys: np.ndarray     # int64 unique item-key ids
    item_scores: np.ndarray

    @property
    def num_keys(self) -> int:
        return int(self.query_keys.size + self.item_keys.size)


def _group_max(sink: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
               num_requests: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Max-merge a sink of (requests, keys, scores) triples per request.

    Deduplicates by (request, key) through a composite ``np.unique``
    and keeps the strongest path.  Returns one ``(keys, scores)`` pair
    per request, keys ascending.
    """
    if sink:
        requests, keys, scores = (np.concatenate(part) for part in zip(*sink))
    if not sink or keys.size == 0:
        return [(np.empty(0, dtype=np.int64), np.empty(0))] * num_requests
    stride = int(keys.max()) + 1
    composite = requests * stride + keys
    unique, inverse = np.unique(composite, return_inverse=True)
    merged = np.full(unique.size, -np.inf)
    np.maximum.at(merged, inverse, scores)
    unique_req = unique // stride
    unique_key = unique - unique_req * stride
    bounds = np.searchsorted(unique_req, np.arange(num_requests + 1))
    return [(unique_key[a:b], merged[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])]


class TwoLayerRetriever:
    """Serves requests from a built :class:`IndexSet`.

    ``radius`` and ``temperature`` are fixed at construction: the link
    score of every stored distance is computed here, once.
    """

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
        #: per relation, the index cut to the columns a request reads,
        #: contiguous.  The ``distances`` slot of these entries holds
        #: Fermi link scores (larger is better), not distances: they are
        #: for ``lookup_batch`` row gathers here, never to be handed to
        #: code that expects an index
        self._links: Dict[Relation, InvertedIndex] = {}
        for relations, width in ((LAYER_ONE, self.expansion_k),
                                 (LAYER_TWO, self.ads_per_key)):
            for relation in relations:
                if relation in index_set:
                    index = index_set[relation]
                    self._links[relation] = InvertedIndex(
                        relation,
                        np.ascontiguousarray(index.ids[:, :width],
                                             dtype=np.int64),
                        _fermi(index.distances[:, :width], self.radius,
                               self.temperature),
                        index.build_seconds)
        #: width of the dense layer-2 accumulator
        self.num_ads = 1 + max(
            (int(links.ids.max()) for relation, links in self._links.items()
             if relation in LAYER_TWO and links.ids.size), default=-1)

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

        # (request, key, score) triple sinks for the two key namespaces
        query_sink: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        item_sink: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        def expand(relation: Relation, src_req: np.ndarray,
                   src_keys: np.ndarray, sink: list) -> None:
            links = self._links.get(relation)
            if links is None:
                return
            ids, scores = links.lookup_batch(src_keys)
            sink.append((np.repeat(src_req, ids.shape[1]), ids.ravel(),
                         scores.ravel()))

        if num_requests:
            if self.keep_original_query:
                query_sink.append((request_ids, queries,
                                   np.ones(num_requests)))
            expand(Relation.Q2Q, request_ids, queries, query_sink)
            expand(Relation.Q2I, request_ids, queries, item_sink)

        sizes = np.fromiter((len(p) for p in preclicks), dtype=np.int64,
                            count=num_requests)
        if sizes.sum():
            flat_req = np.repeat(request_ids, sizes)
            flat_items = np.fromiter(
                (item for p in preclicks for item in p), dtype=np.int64,
                count=flat_req.size)
            item_sink.append((flat_req, flat_items,
                              np.ones(flat_items.size)))
            expand(Relation.I2Q, flat_req, flat_items, query_sink)
            expand(Relation.I2I, flat_req, flat_items, item_sink)

        return [KeyExpansion(qk, qs, ik, isc)
                for (qk, qs), (ik, isc) in zip(
                    _group_max(query_sink, num_requests),
                    _group_max(item_sink, num_requests))]

    # -- layer 2: ad retrieval ------------------------------------------------------

    def gather_batch(self, expansions: Sequence[KeyExpansion],
                     k: int = 20) -> List[RetrievalResult]:
        """Vectorised layer 2: expanded keys → ranked ads per request.

        Requests are scored a block of rows at a time so the dense
        accumulator stays under ``_GATHER_BLOCK_ELEMENTS`` cells however
        large the catalog is.  Rows never interact, so a request's
        result does not depend on the batch or block it is in.
        """
        rows = max(1, _GATHER_BLOCK_ELEMENTS // max(self.num_ads, 1))
        results: List[RetrievalResult] = []
        for start in range(0, len(expansions), rows):
            results.extend(self._gather_block(expansions[start:start + rows],
                                              k))
        return results

    def _gather_block(self, expansions: Sequence[KeyExpansion],
                      k: int) -> List[RetrievalResult]:
        """Layer 2 for one block of requests.

        Q2A/I2A lookups run batched over all keys of the block; path
        scores are summed per (request, ad) cell by one weighted
        ``np.bincount`` (a request's Q2A paths, then its I2A paths, keys
        ascending — the same order in any batch) and each row's top
        ``k`` is taken with one ``argpartition`` and a ``k``-wide sort.
        """
        num_requests, num_ads = len(expansions), self.num_ads
        width = min(k, num_ads)
        cell_parts: List[np.ndarray] = []
        score_parts: List[np.ndarray] = []
        for relation, key_arrays, score_arrays in (
                (Relation.Q2A, [e.query_keys for e in expansions],
                 [e.query_scores for e in expansions]),
                (Relation.I2A, [e.item_keys for e in expansions],
                 [e.item_scores for e in expansions])):
            links = self._links.get(relation)
            if links is None:
                continue
            keys = np.concatenate(key_arrays)
            if keys.size == 0:
                continue
            ads, hop = links.lookup_batch(keys)
            row_offsets = np.repeat(
                np.arange(num_requests) * num_ads,
                [a.size for a in key_arrays])
            cell_parts.append((ads + row_offsets[:, None]).ravel())
            score_parts.append(
                (np.concatenate(score_arrays)[:, None] * hop).ravel())

        if not cell_parts or width < 1:
            return [RetrievalResult(ads=np.empty(0, dtype=np.int64),
                                    scores=np.empty(0),
                                    num_keys=e.num_keys) for e in expansions]

        cells = np.concatenate(cell_parts)
        shape = (num_requests, num_ads)
        reached = np.bincount(
            cells, minlength=num_requests * num_ads).reshape(shape) > 0
        # negated, so that ascending order is best first; an unreached ad
        # ranks below every reached one, including one whose path scores
        # all underflowed to 0.0
        negated = np.where(reached, -np.bincount(
            cells, weights=np.concatenate(score_parts),
            minlength=num_requests * num_ads).reshape(shape), np.inf)
        top = np.argpartition(negated, width - 1, axis=1)[:, :width]
        rows = np.arange(num_requests)[:, None]
        top_negated = negated[rows, top]
        order = np.argsort(top_negated, axis=1)
        top, top_negated = top[rows, order], top_negated[rows, order]
        top_scores = -top_negated
        counts = np.isfinite(top_negated).sum(axis=1).tolist()
        # copies: a kept (e.g. cached) result must not pin its block
        return [RetrievalResult(ads=top[row, :count].copy(),
                                scores=top_scores[row, :count].copy(),
                                num_keys=expansion.num_keys)
                for row, (expansion, count) in enumerate(zip(expansions,
                                                             counts))]

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
