"""Pluggable retrieval backends behind one search interface.

The deployed system (paper §IV-C-1) builds its inverted indices through
one search engine: an exact Mixed-curvature Nearest Neighbour (MNN)
scan.  This module defines the seam every search strategy plugs into,
and the exact scan itself:

- :class:`SearchBackend` — ``build(space)`` freezes a backend over one
  :class:`~repro.retrieval.mnn.RelationSpace`, ``search(src, k)``
  answers batched top-k queries; its ``_clamp_k`` preamble and
  ``_top_k`` tail are shared by every backend;
- :class:`ExactBackend` — the MNN brute-force search (recall 1.0 by
  construction), streaming per-block top-k merges so memory stays
  bounded at large target counts;
- :class:`ShardedBackend` — contiguous target shards over any inner
  backend, merged into one top-k.

:class:`~repro.retrieval.index.IndexSet` takes a backend factory, so
every one of the six relation indices is built through whichever
backend the caller selects.  Product quantisation, which the paper
argues cannot express the attention-weighted metric, is not a backend:
``benchmarks/bench_pq_vs_mnn.py`` measures it as a recall baseline.
"""

from __future__ import annotations

import abc
import time
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.common import drop_retired_planes
from repro.geometry.kernels import pairwise_dist
from repro.retrieval.mnn import RelationSpace
from repro.testing.faults import InjectedTimeout, fault_point


class SearchBackend(abc.ABC):
    """Top-k search over one frozen relation geometry.

    Lifecycle: construct with hyper-parameters, :meth:`build` once with
    a :class:`RelationSpace`, then :meth:`search` any number of times.
    """

    space: Optional[RelationSpace] = None

    @abc.abstractmethod
    def build(self, space: RelationSpace) -> "SearchBackend":
        """Freeze the backend over ``space`` and return ``self``."""

    @abc.abstractmethod
    def search(self, src_indices: np.ndarray, k: int,
               exclude_self: bool = False
               ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, distances)`` of shape ``(B, k)``, ascending distance."""

    @property
    def is_built(self) -> bool:
        return self.space is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise RuntimeError("%s: call build(space) before search()"
                               % type(self).__name__)

    @staticmethod
    def _clamp_k(space: RelationSpace, k: int,
                 exclude_self: bool) -> Tuple[int, bool]:
        """Shared search preamble: effective ``k`` and self-drop flag.

        ``k`` shrinks by one reservable slot when the caller asked to
        exclude the source row; the self row only actually exists (and
        is dropped) for same-type relations.
        """
        if k < 0:
            raise ValueError("k must be >= 0, got %d" % k)
        same = exclude_self and (space.relation.source_type
                                 == space.relation.target_type)
        return min(k, space.num_targets - (1 if exclude_self else 0)), same

    @staticmethod
    def _keep_k(ids: np.ndarray, dists: np.ndarray,
                k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's ``k`` smallest ``dists`` and their ``ids``, unordered."""
        if k < dists.shape[1]:
            keep = np.argpartition(dists, kth=k - 1, axis=1)[:, :k]
            ids = np.take_along_axis(ids, keep, axis=1)
            dists = np.take_along_axis(dists, keep, axis=1)
        return ids, dists

    @classmethod
    def _top_k(cls, ids: np.ndarray, dists: np.ndarray,
               k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Shared search tail: :meth:`_keep_k`, then a stable ascending sort."""
        ids, dists = cls._keep_k(ids, dists, k)
        order = np.argsort(dists, axis=1, kind="stable")
        return (np.take_along_axis(ids, order, axis=1),
                np.take_along_axis(dists, order, axis=1))


class ExactBackend(SearchBackend):
    """Exact top-k search under the attention-weighted mixed metric (MNN).

    Target rows are scored ``block_size`` at a time on the calling
    thread and each block's top-k is merged into a running per-source
    top-k, so peak memory is bounded by one block plus the ``(B, k)``
    result buffer — it does not scale with the full ``(B, N)`` score
    matrix.
    """

    def __init__(self, block_size: int = 2048):
        if int(block_size) < 1:
            raise ValueError("block_size must be >= 1, got %d"
                             % int(block_size))
        self.block_size = int(block_size)
        self.space: Optional[RelationSpace] = None
        #: Widest candidate buffer merged during the last search — the
        #: memory high-water mark, asserted far below N in the tests.
        self.peak_candidate_width = 0

    def build(self, space: RelationSpace) -> "ExactBackend":
        self.space = space
        return self

    def _score_block(self, src_indices: np.ndarray,
                     block: slice) -> np.ndarray:
        """Weighted distances from given sources to one target block."""
        space = self.space
        total = np.zeros((src_indices.size, block.stop - block.start))
        src_w = space.src_weights[src_indices]               # (B, M)
        dst_w = space.dst_weights[block]                     # (W, M)
        for m, kappa in enumerate(space.kappas):
            dists = pairwise_dist(space.src_embeddings[m][src_indices],
                                  space.dst_embeddings[m][block], kappa)
            total += (src_w[:, m:m + 1] + dst_w[:, m]) * dists
        return total

    def search(self, src_indices: np.ndarray, k: int,
               exclude_self: bool = False
               ) -> Tuple[np.ndarray, np.ndarray]:
        self._require_built()
        src_indices = np.asarray(src_indices, dtype=np.int64)
        k, same = self._clamp_k(self.space, k, exclude_self)
        n_targets = self.space.num_targets
        best_ids = np.empty((src_indices.size, 0), dtype=np.int64)
        best_dists = np.empty((src_indices.size, 0))
        self.peak_candidate_width = 0
        for start in range(0, n_targets, self.block_size):
            block = slice(start, min(start + self.block_size, n_targets))
            scores = self._score_block(src_indices, block)
            if same:
                rows = np.nonzero((src_indices >= block.start)
                                  & (src_indices < block.stop))[0]
                scores[rows, src_indices[rows] - block.start] = np.inf
            ids, dists = self._keep_k(
                np.broadcast_to(np.arange(block.start, block.stop),
                                scores.shape), scores, k)
            best_ids = np.concatenate([best_ids, ids], axis=1)
            best_dists = np.concatenate([best_dists, dists], axis=1)
            self.peak_candidate_width = max(self.peak_candidate_width,
                                            best_dists.shape[1])
            best_ids, best_dists = self._keep_k(best_ids, best_dists, k)
        return self._top_k(best_ids, best_dists, k)


class ShardedBackend(SearchBackend):
    """Shard-partitioned search delegating to per-shard inner backends.

    The target space is split into ``num_shards`` contiguous shards;
    each shard is a :meth:`RelationSpace.slice_targets` view handed to
    its own inner backend (``"exact"`` or ``"ivf"`` from
    :data:`BACKENDS`).  Shards build one after another on the calling
    thread, and a search runs every shard in turn, maps shard-local ids
    back to global ids, and merges the per-shard top-k into a global
    top-k.

    Merge semantics: every shard returns its true local top-k (one
    extra candidate when the self row must be dropped, since the self
    row lives in exactly one shard) and the global top-k is taken over
    the union.  Every shard scores in the same metric, so the merged
    distances are comparable: over ``"exact"`` the merge is *exact* —
    bit-identical to the monolithic :class:`ExactBackend` — and over
    ``"ivf"`` each shard's own pruning is the only approximation.

    ``shard_bounds`` (the ``[start, stop)`` target ranges) is exposed
    so index persistence can record the shard layout.

    Degraded mode: a raising or fault-injected shard (``"shard.search"``
    site, context ``shard=i``; a ``hang`` fault counts as a timeout) is
    retried up to ``shard_retries`` times with exponential backoff
    (``shard_backoff * 2**round`` seconds between rounds), and a shard
    that exhausts its retries is *excluded from the merge* rather than
    failing the query.  The merged result is then exactly the top-k
    over the healthy shards — never empty (all shards failing raises),
    never out of order, and narrower than ``k`` only when the healthy
    shards hold fewer candidates.  ``last_failed_shards`` /
    ``last_degraded`` describe the most recent search and ``health()``
    aggregates counters.
    """

    def __init__(self, num_shards: int = 2, inner_backend: str = "exact",
                 inner_kwargs: Optional[dict] = None,
                 shard_retries: int = 0, shard_backoff: float = 0.0):
        if int(num_shards) < 1:
            raise ValueError("num_shards must be >= 1, got %d"
                             % int(num_shards))
        if inner_backend == "sharded":
            raise ValueError("inner_backend cannot itself be 'sharded'")
        if inner_backend not in BACKENDS:
            raise ValueError("unknown inner backend %r (have: %s)"
                             % (inner_backend,
                                ", ".join(sorted(BACKENDS))))
        if int(shard_retries) < 0:
            raise ValueError("shard_retries must be >= 0, got %d"
                             % int(shard_retries))
        if shard_backoff < 0:
            raise ValueError("shard_backoff must be >= 0, got %r"
                             % shard_backoff)
        self.num_shards = int(num_shards)
        self.inner_backend = inner_backend
        self.inner_kwargs = dict(inner_kwargs or {})
        self.shard_retries = int(shard_retries)
        self.shard_backoff = float(shard_backoff)
        self.space: Optional[RelationSpace] = None
        self.shards: List[SearchBackend] = []
        self.shard_bounds: List[Tuple[int, int]] = []
        # degraded-mode bookkeeping
        self.searches = 0
        self.degraded_searches = 0
        self.shard_errors: List[int] = []
        self.shard_timeouts: List[int] = []
        self.last_failed_shards: List[int] = []

    def build(self, space: RelationSpace) -> "ShardedBackend":
        self.space = space
        n = space.num_targets
        shards = min(self.num_shards, max(n, 1))
        edges = np.linspace(0, n, shards + 1).astype(np.int64)
        self.shard_bounds = [(int(a), int(b))
                             for a, b in zip(edges[:-1], edges[1:])]
        self.shards = [
            make_backend(self.inner_backend, **self.inner_kwargs).build(
                space.slice_targets(lo, hi))
            for lo, hi in self.shard_bounds]
        self.shard_errors = [0] * len(self.shards)
        self.shard_timeouts = [0] * len(self.shards)
        return self

    @property
    def last_degraded(self) -> bool:
        return bool(self.last_failed_shards)

    def health(self) -> Dict[str, object]:
        """Degraded-mode counters for stats/monitoring surfaces."""
        return {
            "searches": self.searches,
            "degraded_searches": self.degraded_searches,
            "shard_errors": list(self.shard_errors),
            "shard_timeouts": list(self.shard_timeouts),
            "last_failed_shards": list(self.last_failed_shards),
        }

    def _search_shard(self, shard: int, src_indices: np.ndarray, k: int,
                      same: bool) -> Tuple[np.ndarray, np.ndarray]:
        """One shard's top-k, in global target ids."""
        lo, hi = self.shard_bounds[shard]
        # one extra candidate when the (single) self row may be dropped
        # after the merge
        fetch = min(k + 1, hi - lo) if same else min(k, hi - lo)
        if fetch < 1:
            return (np.zeros((src_indices.size, 0), dtype=np.int64),
                    np.zeros((src_indices.size, 0)))
        fault_point("shard.search", shard=shard)
        ids, dists = self.shards[shard].search(src_indices, fetch)
        return ids + lo, dists

    def search(self, src_indices: np.ndarray, k: int,
               exclude_self: bool = False
               ) -> Tuple[np.ndarray, np.ndarray]:
        self._require_built()
        src_indices = np.asarray(src_indices, dtype=np.int64)
        space = self.space
        self.searches += 1
        self.last_failed_shards = []
        k, same = self._clamp_k(space, k, exclude_self)
        if k < 1:
            return (np.zeros((src_indices.size, 0), dtype=np.int64),
                    np.zeros((src_indices.size, 0)))

        results: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        remaining = list(range(len(self.shards)))
        last_failure: Optional[BaseException] = None
        for round_no in range(self.shard_retries + 1):
            if not remaining:
                break
            if round_no > 0 and self.shard_backoff > 0:
                time.sleep(self.shard_backoff * (2 ** (round_no - 1)))
            failed = []
            for shard in remaining:
                try:
                    results[shard] = self._search_shard(shard, src_indices,
                                                        k, same)
                except Exception as exc:
                    self.shard_errors[shard] += 1
                    if isinstance(exc, (TimeoutError, InjectedTimeout)):
                        self.shard_timeouts[shard] += 1
                    last_failure = exc
                    failed.append(shard)
            remaining = failed

        self.last_failed_shards = remaining
        if remaining:
            self.degraded_searches += 1
        if not results:
            raise RuntimeError(
                "sharded search failed: all %d shard(s) errored (last: %s)"
                % (len(self.shards), last_failure)) from last_failure

        pieces = [results[shard] for shard in sorted(results)]
        all_ids = np.concatenate([p[0] for p in pieces], axis=1)
        all_dists = np.concatenate([p[1] for p in pieces], axis=1)
        if same:
            # the self row lives in one shard, so a row holds it at most
            # once: sort it after every candidate and cut it off (dead
            # shards can leave k or fewer candidates in all)
            is_self = all_ids == src_indices[:, None]
            k = min(k, all_ids.shape[1] - int(is_self.any()))
            keep = np.lexsort((all_dists, is_self))[:, :k]
            all_ids = np.take_along_axis(all_ids, keep, axis=1)
            all_dists = np.take_along_axis(all_dists, keep, axis=1)
        return self._top_k(all_ids, all_dists, k)


#: Registry of selectable backends, keyed by the name ``IndexSet`` and
#: the benchmarks accept ("exact", "sharded"; ``repro.retrieval.ann``
#: adds "ivf").
BACKENDS: Dict[str, Type[SearchBackend]] = {
    "exact": ExactBackend,
    "sharded": ShardedBackend,
}

BackendSpec = Union[str, Type[SearchBackend], Callable[[], SearchBackend]]


def make_backend(name: str, **kwargs) -> SearchBackend:
    """Instantiate a registered backend by name.

    Retired constructor kwargs that published configs and index headers
    carry (the thread pools' ``num_workers``, ``parallelism`` and
    ``shard_timeout``, the graph backend's beam and degree settings) are
    dropped here, and a retired ``inner_backend`` name is replaced.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError("unknown backend %r (have: %s)"
                         % (name, ", ".join(sorted(BACKENDS)))) from None
    return cls(**drop_retired_planes("backend", kwargs))


def resolve_backend_factory(spec: BackendSpec = "exact",
                            **kwargs) -> Callable[[], SearchBackend]:
    """Normalise a backend spec into a zero-argument factory.

    Accepts a registry name (``"exact"``), a backend class, or an
    existing zero-argument factory; ``kwargs`` are forwarded to the
    constructor in the first two cases.
    """
    if isinstance(spec, str):
        return lambda: make_backend(spec, **kwargs)
    if isinstance(spec, type) and issubclass(spec, SearchBackend):
        return lambda: spec(**kwargs)
    if callable(spec):
        if kwargs:
            raise ValueError("kwargs cannot be combined with a ready-made "
                             "backend factory")
        return spec
    raise TypeError("backend spec must be a name, class or factory, got %r"
                    % (spec,))
