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

The hot path is :meth:`TwoLayerRetriever.retrieve_batch`.  Keys share
one namespace (query ``q`` is key ``q``, item ``i`` key ``item_base +
i``), and the constructor turns the six indices into three tables of
ids and *link scores* once: what a query reaches (itself, Q2Q, Q2I),
what an item reaches (itself, I2Q, I2I) and what a key retrieves (Q2A
rows over I2A rows).  Layer 1 is two row gathers and one sort of
``(request, key)`` pairs, max-merged by ``np.maximum.reduceat``; layer
2 is one gather per block of rows, summed into a dense ``(requests,
num_ads)`` array by one weighted ``np.bincount`` and ranked by a
row-wise ``argpartition``.  A result is a pure function of ``(query,
pre-clicks, k)``, bit-equal in any batch, so the serving engine can
cache it; ``tests/reference/retrieval.py`` is the per-key oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graph.schema import Relation
from repro.retrieval.index import LAYER_TWO, IndexSet, InvertedIndex

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
class BatchExpansion:
    """Layer-1 output for a micro-batch, flat and sorted by ``(request,
    key)``: request ``r`` owns ``keys[bounds[r]:bounds[r + 1]]``, query
    keys (below ``item_base``) first.  Indexing or iterating yields
    per-request :class:`KeyExpansion` views."""

    requests: np.ndarray     # int64 request of each key
    keys: np.ndarray         # int64 query id, or item_base + item id
    scores: np.ndarray       # max-merged expansion scores
    bounds: List[int]
    item_base: int

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, row: int) -> "KeyExpansion":
        return KeyExpansion(self, range(len(self))[row])


class KeyExpansion(NamedTuple):
    """Layer-1 output for one request: a row of a :class:`BatchExpansion`,
    its unique keys and scores sliced out on access."""

    batch: BatchExpansion
    row: int

    @property
    def num_keys(self) -> int:
        return self.batch.bounds[self.row + 1] - self.batch.bounds[self.row]

    def _part(self, items: bool) -> Tuple[np.ndarray, np.ndarray]:
        keys, base = self.batch.keys, self.batch.item_base
        start, stop = self.batch.bounds[self.row:self.row + 2]
        split = start + int(np.searchsorted(keys[start:stop], base))
        part = slice(split, stop) if items else slice(start, split)
        return keys[part] - base * items, self.batch.scores[part]

    query_keys = property(lambda self: self._part(False)[0])
    query_scores = property(lambda self: self._part(False)[1])
    item_keys = property(lambda self: self._part(True)[0])
    item_scores = property(lambda self: self._part(True)[1])


class TwoLayerRetriever:
    """Serves requests from a built :class:`IndexSet`.

    ``radius`` and ``temperature`` are fixed at construction: the link
    score of every stored distance is computed here, once.  Any subset
    of the six indices serves; each has a row per node of its key type.
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
        query_rows, item_rows = ([index_set[r].num_keys for r in Relation
                                  if r in index_set
                                  and r.source_type.letter == letter]
                                 for letter in "qi")
        #: query ``q`` is key ``q``, item ``i`` key ``item_base + i`` (far
        #: above any query id when no index bounds them)
        self.item_base = base = max(query_rows, default=2 ** 32)

        def links(relation: Relation, width: int, offset: int = 0):
            index = index_set[relation]
            return (index.ids[:, :width].astype(np.int64) + offset,
                    _fermi(index.distances[:, :width], self.radius,
                           self.temperature))

        def table(join, parts) -> InvertedIndex:
            ids, scores = zip(*parts)
            return InvertedIndex(None, join(ids), join(scores), 0.0)

        def reach(rows, offset, relations) -> Optional[InvertedIndex]:
            # row n: node n itself (score 1.0), then its expansions
            return table(np.hstack, [
                (np.arange(rows[0])[:, None] + offset, np.ones((rows[0], 1)))
            ] + [links(r, self.expansion_k, key_offset)
                 for r, key_offset in relations if r in index_set]) \
                if rows else None

        # these tables hold link scores (larger is better) in the
        # ``distances`` slot: never hand one to code expecting an index
        self._from_query = reach(query_rows, 0, ((Relation.Q2Q, 0),
                                                 (Relation.Q2I, base)))
        self._from_item = reach(item_rows, base, ((Relation.I2Q, 0),
                                                  (Relation.I2I, base)))
        ads = [links(r, self.ads_per_key) for r in LAYER_TWO
               if r in index_set]
        self._to_ads = table(np.vstack, ads) if ads else None
        #: with only one of Q2A / I2A, whether the items (keys from
        #: ``item_base`` on) or the queries are what reaches ads
        self._ads_for_items = Relation.I2A in index_set if len(ads) == 1 \
            else None
        #: width of the dense layer-2 accumulator
        self.num_ads = (0 if self._to_ads is None
                        else 1 + int(self._to_ads.ids.max(initial=-1)))

    # -- layer 1: key expansion ------------------------------------------------

    def expand_keys(self, query: int, preclick_items: Sequence[int]
                    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Expanded (query-key, item-key) score maps for one request
        (wrapper over :meth:`expand_keys_batch`)."""
        expansion = self.expand_keys_batch(np.array([query]),
                                           [preclick_items])[0]
        return tuple(dict(zip(keys.tolist(), scores.tolist()))
                     for keys, scores in map(expansion._part, (False, True)))

    def expand_keys_batch(self, queries: np.ndarray,
                          preclicks: Sequence[Sequence[int]]
                          ) -> BatchExpansion:
        """Vectorised layer 1 for a whole micro-batch of requests.

        A row gather each for queries and pre-click items gives
        ``(request, key, score)`` triples; one sort of ``request *
        stride + key`` and a ``np.maximum.reduceat`` over its runs keep
        the strongest path per ``(request, key)``.
        """
        queries = np.asarray(queries, dtype=np.int64).ravel()
        num_requests = queries.size
        if len(preclicks) != num_requests:
            raise ValueError("got %d queries but %d pre-click lists"
                             % (num_requests, len(preclicks)))
        request_ids = np.arange(num_requests, dtype=np.int64)
        items = np.fromiter((item for p in preclicks for item in p),
                            dtype=np.int64)
        item_requests = request_ids.repeat(np.fromiter(
            map(len, preclicks), dtype=np.int64, count=num_requests))
        parts = []
        for table, nodes, owners, offset, first in (
                (self._from_query, queries, request_ids, 0,
                 int(not self.keep_original_query)),
                (self._from_item, items, item_requests, self.item_base, 0)):
            if table is None or not nodes.size:   # untabled: reach itself
                ids, scores = ((nodes + offset)[:, None],
                               np.ones((nodes.size, 1)))
            else:
                ids, scores = table.lookup_batch(nodes)
            ids, scores = ids[:, first:], scores[:, first:]
            parts.append((owners.repeat(ids.shape[1]), ids.ravel(),
                          scores.ravel()))
        requests, keys, scores = (np.concatenate(part) for part in zip(*parts))
        if keys.size == 0:
            return BatchExpansion(requests, keys, scores,
                                  [0] * (num_requests + 1), self.item_base)

        stride = int(keys.max()) + 1
        composite = requests * stride + keys
        # max does not depend on order, so neither a stable sort nor the
        # order inside a run matters: run maxima are bit-equal to a
        # scatter max
        order = composite.argsort()
        composite = composite[order]
        starts = np.concatenate(([True], composite[1:] != composite[:-1])
                                ).nonzero()[0]
        requests, keys = np.divmod(composite[starts], stride)
        return BatchExpansion(
            requests, keys, np.maximum.reduceat(scores[order], starts),
            requests.searchsorted(np.arange(num_requests + 1)).tolist(),
            self.item_base)

    # -- layer 2: ad retrieval ------------------------------------------------------

    def gather_batch(self, expansions: BatchExpansion,
                     k: int = 20) -> List[RetrievalResult]:
        """Vectorised layer 2: expanded keys → ranked ads per request.

        A block of rows at a time, so the dense accumulator stays under
        ``_GATHER_BLOCK_ELEMENTS`` cells however large the catalog is:
        one ad-table gather, path scores summed per (request, ad) cell
        by one weighted ``np.bincount`` (a request's keys ascending, so
        Q2A paths before I2A paths, in any batch), each row's top ``k``
        by one ``argpartition`` and a ``k``-wide sort.  Rows never
        interact: a result does not depend on its batch or block.
        """
        num_ads, width = self.num_ads, min(k, self.num_ads)
        block = max(1, _GATHER_BLOCK_ELEMENTS // max(num_ads, 1))
        results: List[RetrievalResult] = []
        for first in range(0, len(expansions), block):
            bounds = expansions.bounds[first:first + block + 1]
            num_requests = len(bounds) - 1
            num_keys = [b - a for a, b in zip(bounds[:-1], bounds[1:])]
            keys = expansions.keys[bounds[0]:bounds[-1]]
            scores = expansions.scores[bounds[0]:bounds[-1]]
            rows = expansions.requests[bounds[0]:bounds[-1]] - first
            if self._ads_for_items is not None:
                keep = (keys >= self.item_base) == self._ads_for_items
                keys = keys[keep] - self.item_base * self._ads_for_items
                scores, rows = scores[keep], rows[keep]
            if self._to_ads is None or keys.size == 0 or width < 1:
                results.extend(RetrievalResult(
                    ads=np.empty(0, dtype=np.int64), scores=np.empty(0),
                    num_keys=count) for count in num_keys)
                continue

            ads, hop = self._to_ads.lookup_batch(keys)
            cells = (ads + (rows * num_ads)[:, None]).ravel()
            reached = np.bincount(cells, minlength=num_requests * num_ads
                                  ).reshape(-1, num_ads) > 0
            # negated, so that ascending order is best first; an
            # unreached ad ranks below every reached one, including one
            # whose path scores all underflowed to 0.0
            negated = np.where(reached, -np.bincount(
                cells, weights=(scores[:, None] * hop).ravel(),
                minlength=num_requests * num_ads).reshape(-1, num_ads), np.inf)
            top = negated.argpartition(width - 1, axis=1)[:, :width]
            rows = np.arange(num_requests)[:, None]
            top_negated = negated[rows, top]
            order = top_negated.argsort(axis=1)
            top, top_negated = top[rows, order], top_negated[rows, order]
            counts = np.isfinite(top_negated).sum(axis=1).tolist()
            # new arrays: a kept (e.g. cached) result must not pin its block
            results.extend(
                RetrievalResult(ads=top[row, :count].copy(),
                                scores=-top_negated[row, :count],
                                num_keys=keys_in_row)
                for row, (keys_in_row, count) in enumerate(zip(num_keys,
                                                               counts)))
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
