"""Pruned ANN search over the mixed-curvature metric: the IVF backend.

Paper §IV-C-1 argues traditional ANN — product quantisation over a flat
concatenation (its ref [31]) — cannot express the attention-weighted
mixed-curvature similarity, and ships exact MNN search instead.  Exact
search holds at the paper's catalog but not at 10–100x.  The backend
here exploits the structure PQ cannot: every κ-stereographic subspace is
*flattened* by ``logmap0`` into a Euclidean tangent space at the
origin, where classic ANN machinery applies, and the candidates that
survive the flat prune are re-scored with the true attention-weighted
geodesic metric — the same per-pair formula the exact scan uses.
The resulting two-phase split is the recall/latency dial:

    tangent-space prune (cheap, metric-blind, dialled by ``nprobe``)
        → manifold re-rank (true metric on ≤ ``rerank_k`` candidates)

:class:`IVFBackend` is inverted-file search: a k-means coarse quantiser
over the tangent projections partitions the targets into ``num_lists``
inverted lists; a query scans its ``nprobe`` nearest lists (expanding
automatically until ``k`` candidates exist) and re-ranks.  ``nprobe >=
num_lists`` with an uncapped re-rank degenerates to the exact search
and is served by an :class:`~repro.retrieval.backend.ExactBackend`, so
it is *bit-identical* to one.  The re-rank and the exact scan share one
distance formula (:func:`~repro.geometry.kernels.mobius_norm`) and one
top-k tail (``SearchBackend._top_k``).

One numeric rule holds: **prune in float32, re-rank in float64.**
Tangent distances only decide which candidates survive, so they are
computed with the norm trick on a float32 shadow copy (the grouped list
matrix); the survivors are then re-scored in float64 by
:func:`candidate_dist`.  Results are therefore metric-true float64
distances, except with ``manifold_rerank=False`` (the tangent-only
diagnostic mode the ANN bench uses to isolate the mixed-curvature
twist), which returns the float32-resolution tangent distances of the
prune as float64.  The backend composes with
:class:`~repro.retrieval.backend.ShardedBackend` via
``inner_backend="ivf"``: per-shard results merge under the sharded
exact-top-k semantics over whatever candidates the shards surface, and
a faulted shard degrades exactly as exact inner shards do.  Builds and
searches are deterministic functions of ``(space, seed)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.kernels import artan_k_numpy, logmap0_numpy, mobius_norm
from repro.retrieval.backend import BACKENDS, ExactBackend, SearchBackend
from repro.retrieval.mnn import RelationSpace
from repro.retrieval.quantization import _kmeans, assign_to_centroids

#: query rows scored per manifold re-rank block — bounds the ``(B, R, d)``
#: candidate gather and its ``(B, R)`` scalar intermediates the same way
#: ``ExactBackend``'s blocked merge bounds the exact scan, so a 100x
#: catalog (larger ``R`` pools) cannot spike memory with the batch size
_RERANK_BLOCK_ROWS = 512


def tangent_projection(embeddings: List[np.ndarray],
                       kappas: List[float]) -> np.ndarray:
    """Concatenated ``logmap0`` tangent coordinates, ``(N, sum d_m)``.

    Each subspace is flattened at the origin with its own curvature, so
    the result is one flat Euclidean vector per node — the coordinate
    system the coarse prune (k-means lists and their scan) operates in.  The attention weights are deliberately *not* folded
    in: they are per-pair quantities (``w'(x) + w'(y)``) that only the
    manifold re-rank can apply.
    """
    return np.concatenate(
        [logmap0_numpy(emb, kappa) for emb, kappa in zip(embeddings, kappas)],
        axis=1)


def candidate_dist(space: RelationSpace, src_indices: np.ndarray,
                   cand_ids: np.ndarray, valid: np.ndarray,
                   block_rows: int = 0) -> np.ndarray:
    """True mixed-metric distances for per-row candidate sets, ``(B, R)``.

    The weighted per-subspace geodesic sum of
    :meth:`~repro.retrieval.backend.ExactBackend._score_block` on
    aligned ``(query, candidate)`` pairs instead of a full pairwise
    block, with the norm from the same
    :func:`~repro.geometry.kernels.mobius_norm` expansion; invalid
    (padding) entries come back ``+inf``.  ``block_rows > 0``
    streams the query rows in blocks of that size, bounding the
    ``(B, R, d)`` candidate gather at ``(block_rows, R, d)``; each
    row's score is independent of the blocking, so the result is
    identical either way.
    """
    src_indices = np.asarray(src_indices, dtype=np.int64)
    if block_rows and 0 < block_rows < src_indices.shape[0]:
        out = np.empty(cand_ids.shape)
        for start in range(0, src_indices.shape[0], block_rows):
            stop = min(start + block_rows, src_indices.shape[0])
            out[start:stop] = candidate_dist(
                space, src_indices[start:stop], cand_ids[start:stop],
                valid[start:stop])
        return out
    safe = np.where(valid, cand_ids, 0)
    src_w = space.src_weights[src_indices]                 # (B, M)
    # the (B, R) gathers use ``np.take``: the same bytes as 2-D fancy
    # indexing, an order of magnitude faster at these index shapes
    total = np.zeros(cand_ids.shape)
    for m, kappa in enumerate(space.kappas):
        x = space.src_embeddings[m][src_indices]           # (B, d)
        y = np.take(space.dst_embeddings[m], safe, axis=0)  # (B, R, d)
        norm = mobius_norm(-np.einsum("bd,brd->br", x, y),
                           space.src_norm2[m][src_indices][:, None],
                           np.take(space.dst_norm2[m], safe), kappa)
        weights = src_w[:, m:m + 1] + np.take(space.dst_weights[:, m], safe)
        total += weights * (2.0 * artan_k_numpy(norm, kappa))
    return np.where(valid, total, np.inf)


class IVFBackend(SearchBackend):
    """Inverted-file search: tangent-space k-means lists + manifold re-rank.

    Build: project every target into the concatenated tangent space,
    train a ``num_lists``-centroid k-means coarse quantiser over it
    (blocked assignment, memory bounded at any catalog size), and
    bucket the targets into inverted lists, stored as one float32
    matrix grouped by list.  Search: rank the lists by centroid
    distance to the query's tangent vector, scan the nearest ``nprobe``
    lists (more when fewer than ``k`` candidates fall out — every query
    always gets a full top-k) into a pool of float32 tangent distances
    tagged with their list, prune the pool to the ``rerank_k``
    tangent-nearest, resolve only those survivors' ids and re-rank
    them in float64 with the true attention-weighted geodesic metric.

    Dials: ``nprobe`` trades recall for scan fraction, ``rerank_k``
    bounds the exact-metric work per query (0 re-ranks every scanned
    candidate).  ``nprobe >= num_lists`` with an uncapped re-rank is
    served by an :class:`ExactBackend` over the same space, so it is
    bit-identical to one.
    """

    def __init__(self, num_lists: int = 0, nprobe: int = 16,
                 rerank_k: int = 0, kmeans_iters: int = 8, seed: int = 0,
                 manifold_rerank: bool = True):
        if int(num_lists) < 0:
            raise ValueError("num_lists must be >= 0 (0 = sqrt heuristic), "
                             "got %d" % int(num_lists))
        if int(nprobe) < 1:
            raise ValueError("nprobe must be >= 1, got %d" % int(nprobe))
        if int(rerank_k) < 0:
            raise ValueError("rerank_k must be >= 0 (0 = re-rank every "
                             "candidate), got %d" % int(rerank_k))
        if int(kmeans_iters) < 1:
            raise ValueError("kmeans_iters must be >= 1, got %d"
                             % int(kmeans_iters))
        self.num_lists = int(num_lists)
        self.nprobe = int(nprobe)
        self.rerank_k = int(rerank_k)
        self.kmeans_iters = int(kmeans_iters)
        self.seed = int(seed)
        self.manifold_rerank = bool(manifold_rerank)
        self.space: Optional[RelationSpace] = None
        self.resolved_lists = 0
        self._centroids: Optional[np.ndarray] = None
        self._centroid_norm2: Optional[np.ndarray] = None
        self._list_sizes: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None
        self._grouped_ids: Optional[np.ndarray] = None
        self._grouped_tangent32: Optional[np.ndarray] = None
        self._grouped_norm2_32: Optional[np.ndarray] = None
        self._row_tags: Optional[np.ndarray] = None
        self._dst_tangent: Optional[np.ndarray] = None
        self._src_tangent: Optional[np.ndarray] = None

    def build(self, space: RelationSpace) -> "IVFBackend":
        self.space = space
        self._dst_tangent = tangent_projection(space.dst_embeddings,
                                               space.kappas)
        self._src_tangent = tangent_projection(space.src_embeddings,
                                               space.kappas)
        n = space.num_targets
        if n == 0:
            self.resolved_lists = 0
            return self
        lists = self.num_lists or max(1, int(round(np.sqrt(n))))
        rng = np.random.default_rng(self.seed)
        self._centroids = _kmeans(rng, self._dst_tangent, min(lists, n),
                                  iterations=self.kmeans_iters)
        self._centroid_norm2 = np.sum(self._centroids ** 2, axis=1)
        self.resolved_lists = self._centroids.shape[0]
        assign = assign_to_centroids(self._dst_tangent, self._centroids)
        counts = np.bincount(assign, minlength=self.resolved_lists)
        order = np.argsort(assign, kind="stable")   # grouped, ascending ids
        # inverted lists as contiguous slices of one grouped float32
        # tangent matrix: the scan is then one sgemm per probed list
        # instead of 3-D fancy-index gathers.  float32 is enough because
        # the scan only prunes; the re-rank recomputes in float64
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        self._grouped_ids = order.astype(np.int64)
        self._grouped_tangent32 = self._dst_tangent[order].astype(np.float32)
        self._grouped_norm2_32 = np.sum(self._grouped_tangent32 ** 2, axis=1)
        self._list_sizes = counts
        # one row's run of list tags (the smallest unsigned dtype that
        # names every list) plus a trailing 0 for its padding
        self._row_tags = np.append(
            np.arange(self.resolved_lists), 0).astype(
                np.min_scalar_type(self.resolved_lists - 1))
        return self

    @property
    def is_exact_dial(self) -> bool:
        """Whether the current dial degenerates to exact search."""
        return (self.manifold_rerank
                and self.nprobe >= self.resolved_lists
                and (self.rerank_k == 0
                     or self.rerank_k >= self.space.num_targets))

    def search(self, src_indices: np.ndarray, k: int,
               exclude_self: bool = False
               ) -> Tuple[np.ndarray, np.ndarray]:
        self._require_built()
        src_indices = np.asarray(src_indices, dtype=np.int64)
        space = self.space
        k, same = self._clamp_k(space, k, exclude_self)
        if k < 1 or src_indices.size == 0:
            return (np.zeros((src_indices.size, max(k, 0)), dtype=np.int64),
                    np.zeros((src_indices.size, max(k, 0))))
        if self.is_exact_dial:
            # full probe + uncapped re-rank scans every candidate under
            # the true metric — exactly the MNN search, so serve it
            # through ExactBackend itself (bit-identical by construction)
            return ExactBackend().build(space).search(
                src_indices, k, exclude_self=exclude_self)
        fetch = min(k + 1, space.num_targets) if same else k
        cand, tangent_d2 = self._scan(src_indices, fetch)
        # _scan already pruned the pool to the rerank_k tangent-nearest;
        # re-rank the survivors (padding: tangent d2 +inf) → top-k
        if self.manifold_rerank:
            scores = candidate_dist(space, src_indices, cand,
                                    tangent_d2 < np.inf,
                                    block_rows=_RERANK_BLOCK_ROWS)
        else:
            scores = tangent_d2
        if same:
            scores = np.where(cand == src_indices[:, None], np.inf, scores)
        return self._top_k(cand, scores, k)

    def _scan(self, src_indices: np.ndarray, fetch: int
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe, scan and prune: the survivors' ids and tangent d2.

        Returns ``(B, P)`` arrays, ``P = max(rerank_k, fetch)`` capped
        at the widest row's pool (the whole pool when ``rerank_k`` is
        0); a padding entry has tangent d2 ``+inf`` (its id is then any
        in-range value).  The pool is scoped to this call, so it is
        freed before the re-rank allocates.
        """
        lists = self.resolved_lists
        b = src_indices.size
        q = self._src_tangent[src_indices]                 # (B, D)
        q_norm2 = np.sum(q * q, axis=1)
        cdist = (q_norm2[:, None] + self._centroid_norm2[None, :]
                 - 2.0 * q @ self._centroids.T)            # (B, L)
        probe_order = np.argsort(cdist, axis=1, kind="stable")
        cum = np.cumsum(self._list_sizes[probe_order], axis=1)
        # expand past nprobe until every query holds >= fetch candidates
        enough = cum >= fetch
        first = np.where(enough.any(axis=1), np.argmax(enough, axis=1),
                         lists - 1)
        probes = np.minimum(np.maximum(self.nprobe, first + 1), lists)
        rows = np.arange(b)
        ranks = np.empty((b, lists), dtype=np.int64)
        ranks[rows[:, None], probe_order] = np.arange(lists)[None, :]
        probed = ranks < probes[:, None]                   # (B, L)
        # a row holds its probed lists back to back, in list order;
        # starts[r, l] is the column where list l begins in row r
        sizes = np.where(probed, self._list_sizes[None, :], 0)
        ends = np.cumsum(sizes, axis=1)
        starts = ends - sizes
        width = max(int(ends[:, -1].max()), 1)
        # the pool holds no ids: each slot is a float32 tangent distance
        # plus the tag of the list it came from (padding: tag 0, d2
        # +inf), and only the survivors of the prune get their ids back
        # (grouped offset + column - the list's first column in that row)
        tangent_d2 = np.full((b, width), np.inf, dtype=np.float32)
        d2_flat = tangent_d2.ravel()                       # view
        tag_runs = np.concatenate([sizes, width - ends[:, -1:]], axis=1)
        tags = np.repeat(np.tile(self._row_tags, b),
                         tag_runs.ravel()).reshape(b, width)
        q32 = q.astype(np.float32)
        # the scan's (row, list) pairs grouped by list, with each pair's
        # query terms and flat pool position gathered once, so every
        # list below reads contiguous slices
        pair_l, pair_r = np.nonzero(probed.T)
        bounds = np.searchsorted(pair_l, np.arange(lists + 1)).tolist()
        pair_q = -2.0 * q32[pair_r]
        pair_qn = np.sum(q32 * q32, axis=1)[pair_r]
        pair_flat = starts[pair_r, pair_l] + pair_r * width
        offsets = self._offsets.tolist()
        within = np.arange(int(self._list_sizes.max()))
        # list-major scan: one contiguous-block sgemm per probed list,
        # scattered into each probing query's row of the pool
        for l in range(lists):
            a, z = bounds[l], bounds[l + 1]
            lo, hi = offsets[l], offsets[l + 1]
            if a == z or hi == lo:
                continue
            block = pair_q[a:z] @ self._grouped_tangent32[lo:hi].T
            block += pair_qn[a:z, None] + self._grouped_norm2_32[lo:hi]
            d2_flat[pair_flat[a:z, None] + within[:hi - lo]] = block
        keep_n = width
        if self.rerank_k > 0:
            keep_n = min(max(self.rerank_k, fetch), width)
        cols = np.broadcast_to(np.arange(width), (b, width))
        if keep_n < width:
            cols = np.argpartition(tangent_d2, kth=keep_n - 1,
                                   axis=1)[:, :keep_n]
        keep = cols + (rows * width)[:, None]              # flat
        kept_d2 = np.take(tangent_d2, keep)
        kept_tag = np.take(tags, keep)
        grouped = (np.take(self._offsets, kept_tag) + cols
                   - np.take(starts, kept_tag + (rows * lists)[:, None]))
        cand = np.take(self._grouped_ids,
                       np.where(kept_d2 < np.inf, grouped, 0))
        return cand, kept_d2.astype(np.float64)


BACKENDS["ivf"] = IVFBackend
