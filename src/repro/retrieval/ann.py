"""Pruned ANN backends over the mixed-curvature metric: IVF and NSW.

Paper §IV-C-1 argues traditional ANN — product quantisation over a flat
concatenation (its ref [31]) — cannot express the attention-weighted
mixed-curvature similarity, and ships exact MNN search instead.  Exact
search holds at the paper's catalog but not at 10–100x.  The backends
here exploit the structure PQ cannot: every κ-stereographic subspace is
*flattened* by ``logmap0`` into a Euclidean tangent space at the
origin, where classic ANN machinery applies, and the candidates that
survive the flat prune are re-scored with the true attention-weighted
geodesic metric — the same per-pair formula the exact searcher uses.
The resulting two-phase split is the recall/latency dial:

    tangent-space prune (cheap, metric-blind, dialled by
    ``nprobe`` / ``ef_search``)
        → manifold re-rank (true metric on ≤ ``rerank_k`` candidates)

- :class:`IVFBackend` — inverted-file search: a k-means coarse
  quantiser over the tangent projections partitions the targets into
  ``num_lists`` inverted lists; a query scans its ``nprobe`` nearest
  lists (expanding automatically until ``k`` candidates exist) and
  re-ranks.  ``nprobe >= num_lists`` with an uncapped re-rank
  degenerates to the exact search and is served by the MNN searcher
  itself, so it is *bit-identical* to
  :class:`~repro.retrieval.backend.ExactBackend`.
- :class:`NSWBackend` — a navigable-small-world graph built by
  chunked incremental insertion with tangent-space edge selection;
  queries run a batched greedy best-first beam search (``ef_search``
  beam slots per query) and re-rank the beam.

Both follow one numeric rule: **prune in float32, re-rank in float64.**
Tangent distances only decide which candidates survive, so they are
computed with the norm trick on float32 shadow copies (IVF's grouped
list matrix, NSW's beam expansions and widening hops); the survivors
are then re-scored in float64 by :func:`candidate_dist`.  Both
therefore return metric-true float64 distances, except with
``manifold_rerank=False`` (the tangent-only diagnostic mode the ANN
bench uses to isolate the mixed-curvature twist), which returns the
float32-resolution tangent distances of the prune as float64.  They
compose with :class:`~repro.retrieval.backend.ShardedBackend` via
``inner_backend="ivf"`` / ``"nsw"``: per-shard results merge under the
sharded exact-top-k semantics over whatever candidates the shards
surface, and a faulted shard degrades exactly as exact inner shards do.
Builds and searches are deterministic functions of ``(space, seed)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.fast import artan_k_numpy, logmap0_numpy
from repro.retrieval.backend import BACKENDS, SearchBackend
from repro.retrieval.mnn import MNNSearcher, RelationSpace
from repro.retrieval.quantization import _kmeans, assign_to_centroids

#: beam entries expanded per vectorised NSW search iteration — trades a
#: few wasted expansions for ~8x fewer Python-level loop iterations
#: (measured: same recall as width 4, ~25% higher queries/sec)
_EXPAND_WIDTH = 8

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
    system the coarse prune (k-means lists, NSW edges, beam search)
    operates in.  The attention weights are deliberately *not* folded
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

    Mirrors the weighted per-subspace geodesic sum of
    :meth:`~repro.retrieval.mnn.MNNSearcher._score_block` on aligned
    ``(query, candidate)`` pairs instead of a full pairwise block;
    invalid (padding) entries come back ``+inf``.  ``block_rows > 0``
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
        # pairwise_mobius_norm expansion on aligned rows
        inner = -np.einsum("bd,brd->br", x, y)
        x2 = space.src_norm2[m][src_indices][:, None]
        y2 = np.take(space.dst_norm2[m], safe)
        coeff_a = 1.0 - 2.0 * kappa * inner - kappa * y2
        coeff_b = 1.0 + kappa * x2
        denom = 1.0 - 2.0 * kappa * inner + kappa * kappa * x2 * y2
        denom = np.where(np.abs(denom) < 1e-15, 1e-15, denom)
        squared = np.maximum(coeff_a * coeff_a * x2
                             + 2.0 * coeff_a * coeff_b * inner
                             + coeff_b * coeff_b * y2, 0.0)
        norm = np.sqrt(squared) / np.abs(denom)
        weights = src_w[:, m:m + 1] + np.take(space.dst_weights[:, m], safe)
        total += weights * (2.0 * artan_k_numpy(norm, kappa))
    return np.where(valid, total, np.inf)


def _rank_candidates(space: RelationSpace, src_indices: np.ndarray,
                     cand: np.ndarray, tangent_d2: np.ndarray, k: int,
                     same: bool, rerank_k: int, manifold_rerank: bool
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Shared tail of both backends: prune → re-rank → top-k.

    ``cand``/``tangent_d2`` are the ``(B, R)`` candidate pool a coarse
    stage produced; an entry is padding exactly where ``tangent_d2`` is
    ``+inf`` (its id is then any in-range value).  ``rerank_k > 0``
    keeps only the tangent-nearest ``max(rerank_k, k + 1)`` candidates
    before the manifold re-rank; 0 re-ranks the whole pool.
    """
    fetch = min(k + 1, space.num_targets) if same else k
    pool = cand.shape[1]
    if rerank_k > 0:
        keep_n = min(max(rerank_k, fetch), pool)
        if keep_n < pool:
            keep = np.argpartition(tangent_d2, kth=keep_n - 1,
                                   axis=1)[:, :keep_n]
            keep = keep + np.arange(0, cand.size, pool)[:, None]  # flat
            cand = np.take(cand, keep)
            tangent_d2 = np.take(tangent_d2, keep)
    if manifold_rerank:
        scores = candidate_dist(space, src_indices, cand,
                                tangent_d2 < np.inf,
                                block_rows=_RERANK_BLOCK_ROWS)
    else:
        scores = tangent_d2
    if same:
        scores = np.where(cand == src_indices[:, None], np.inf, scores)
    if k < scores.shape[1]:
        top = np.argpartition(scores, kth=k - 1, axis=1)[:, :k]
        cand = np.take_along_axis(cand, top, axis=1)
        scores = np.take_along_axis(scores, top, axis=1)
    order = np.argsort(scores, axis=1, kind="stable")
    return (np.take_along_axis(cand, order, axis=1)[:, :k],
            np.take_along_axis(scores, order, axis=1)[:, :k])


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
    served by the exact MNN searcher — bit-identical to
    :class:`ExactBackend`.
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
        self._exact: Optional[MNNSearcher] = None

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
            # through the MNN searcher (bit-identical to ExactBackend)
            if self._exact is None:
                self._exact = MNNSearcher(space)
            return self._exact.search(src_indices, k,
                                      exclude_self=exclude_self)
        fetch = min(k + 1, space.num_targets) if same else k
        cand, tangent_d2 = self._scan(src_indices, fetch)
        return _rank_candidates(space, src_indices, cand, tangent_d2,
                                k, same, self.rerank_k, self.manifold_rerank)

    def _scan(self, src_indices: np.ndarray, fetch: int
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe, scan and prune: the survivors' ids and tangent d2.

        Returns ``(B, P)`` arrays, ``P = max(rerank_k, fetch)`` capped
        at the widest row's pool (the whole pool when ``rerank_k`` is
        0), in the ``cand``/``tangent_d2`` form ``_rank_candidates``
        takes.  The pool is scoped to this call, so it is freed before
        the re-rank allocates.
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


class NSWBackend(SearchBackend):
    """Navigable-small-world graph search with tangent-space edges.

    Build: insert targets in a seeded random order, chunk by chunk; the
    first chunk is linked brute-force, every later chunk runs the
    batched greedy beam search (``ef_construction`` beam) against the
    graph built so far and links each new node to its ``max_degree``
    nearest discovered neighbours (bidirectionally, deduplicated,
    far-edge eviction beyond ``2 * max_degree``).  Search: batched
    greedy best-first beam search seeded from the tangent medoid plus
    a seeded random spread of entry points, ``ef_search`` beam slots
    per query, then the shared tangent-prune → manifold-re-rank tail.
    A query whose beam comes back short (disconnected component) falls
    back to a full tangent scan for that row, so every query always
    gets a full top-k.

    Dials: ``ef_search`` trades recall for hops; ``rerank_k > 0``
    switches on *neighbourhood widening* — the graph neighbours of the
    beam (and, with ``expand_hops > 1``, of the tangent-nearest
    survivors, repeatedly) join the candidate pool, which is pruned to
    the ``rerank_k`` tangent-nearest before the manifold re-rank.  The
    widening is the cheap counter to the tangent/metric mismatch:
    true-metric neighbours that the tangent-blind beam ranks just
    outside ``ef_search`` are almost always within a hop or two of it,
    so the re-rank pool grows ~``max_degree``-fold per hop for one
    vectorised gather each instead of a deeper beam.  ``rerank_k = 0``
    re-ranks exactly the beam (no widening).
    """

    def __init__(self, max_degree: int = 12, ef_construction: int = 48,
                 ef_search: int = 48, rerank_k: int = 0, seed: int = 0,
                 manifold_rerank: bool = True, insert_chunk: int = 256,
                 expand_hops: int = 1):
        if int(max_degree) < 1:
            raise ValueError("max_degree must be >= 1, got %d"
                             % int(max_degree))
        if int(ef_construction) < 1:
            raise ValueError("ef_construction must be >= 1, got %d"
                             % int(ef_construction))
        if int(ef_search) < 1:
            raise ValueError("ef_search must be >= 1, got %d"
                             % int(ef_search))
        if int(rerank_k) < 0:
            raise ValueError("rerank_k must be >= 0 (0 = re-rank every "
                             "candidate), got %d" % int(rerank_k))
        if int(insert_chunk) < 1:
            raise ValueError("insert_chunk must be >= 1, got %d"
                             % int(insert_chunk))
        if int(expand_hops) < 0:
            raise ValueError("expand_hops must be >= 0 (0 = re-rank the "
                             "bare beam), got %d" % int(expand_hops))
        self.max_degree = int(max_degree)
        self.ef_construction = int(ef_construction)
        self.ef_search = int(ef_search)
        self.rerank_k = int(rerank_k)
        self.seed = int(seed)
        self.manifold_rerank = bool(manifold_rerank)
        self.insert_chunk = int(insert_chunk)
        self.expand_hops = int(expand_hops)
        self.space: Optional[RelationSpace] = None
        self._dst_tangent: Optional[np.ndarray] = None
        self._dst_tangent_norm2: Optional[np.ndarray] = None
        self._dst_tangent32: Optional[np.ndarray] = None
        self._dst_tangent32_norm2: Optional[np.ndarray] = None
        self._src_tangent: Optional[np.ndarray] = None
        self._adj: Optional[np.ndarray] = None       # (N, cap), -1 padded
        self._adj_d2: Optional[np.ndarray] = None    # (N, cap), inf padded
        self._deg: Optional[np.ndarray] = None
        self._entries: Optional[np.ndarray] = None

    # -- graph construction --------------------------------------------------

    def _add_edge(self, a: int, b: int, d2: float) -> None:
        """Directed edge ``a -> b``; evicts the farthest when full."""
        if a == b:
            return
        deg = self._deg[a]
        if np.any(self._adj[a, :deg] == b):
            return
        if deg < self._adj.shape[1]:
            self._adj[a, deg] = b
            self._adj_d2[a, deg] = d2
            self._deg[a] = deg + 1
            return
        worst = int(np.argmax(self._adj_d2[a]))
        if d2 < self._adj_d2[a, worst]:
            self._adj[a, worst] = b
            self._adj_d2[a, worst] = d2

    def _select_diverse(self, neighbour_ids: np.ndarray,
                        neighbour_d2: np.ndarray) -> List[int]:
        """Diversity-pruned neighbour selection (the HNSW heuristic).

        Walking candidates nearest-first, a candidate is kept only if
        it is closer to the new node than to every neighbour already
        kept — same-direction near-duplicates are pruned so the edge
        budget buys *coverage* of directions, which is what greedy
        routing needs.  Pruned candidates backfill any remaining slots
        (nearest-first) so nodes keep their full degree.
        """
        cand_t = self._dst_tangent[neighbour_ids]
        norms = np.sum(cand_t * cand_t, axis=1)
        # pairwise candidate-to-candidate d2, one small BLAS per node
        pair = norms[:, None] + norms[None, :] - 2.0 * cand_t @ cand_t.T
        take: List[int] = []
        skipped: List[int] = []
        for j in range(neighbour_ids.size):
            if len(take) == self.max_degree:
                break
            if take and bool(np.any(pair[j, take] < neighbour_d2[j])):
                skipped.append(j)
                continue
            take.append(j)
        if len(take) < self.max_degree:
            take.extend(skipped[:self.max_degree - len(take)])
        return take

    def _link(self, node: int, neighbour_ids: np.ndarray,
              neighbour_d2: np.ndarray) -> None:
        """Bidirectional links from ``node`` to a diverse nearest set."""
        for j in self._select_diverse(neighbour_ids, neighbour_d2):
            other = int(neighbour_ids[j])
            d2 = float(neighbour_d2[j])
            self._add_edge(node, other, d2)
            self._add_edge(other, node, d2)

    def build(self, space: RelationSpace) -> "NSWBackend":
        self.space = space
        self._dst_tangent = tangent_projection(space.dst_embeddings,
                                               space.kappas)
        self._dst_tangent_norm2 = np.sum(self._dst_tangent ** 2, axis=1)
        # float32 shadow copy for the widening hops: the hop distances
        # only *prune* candidates (the re-rank recomputes true metric
        # distances in float64), and halving the gather bytes is where
        # the widening time goes
        self._dst_tangent32 = self._dst_tangent.astype(np.float32)
        self._dst_tangent32_norm2 = np.sum(self._dst_tangent32 ** 2, axis=1)
        self._src_tangent = tangent_projection(space.src_embeddings,
                                               space.kappas)
        n = space.num_targets
        cap = 2 * self.max_degree
        self._adj = np.full((max(n, 1), cap), -1, dtype=np.int64)
        self._adj_d2 = np.full((max(n, 1), cap), np.inf)
        self._deg = np.zeros(max(n, 1), dtype=np.int64)
        if n == 0:
            return self
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        t = self._dst_tangent
        # entry points: the medoid-ish node nearest the tangent centroid
        # plus a seeded random spread — multiple beam seeds let the
        # greedy search escape local minima one entry cannot
        centre = t.mean(axis=0, keepdims=True)
        medoid = int(np.argmin(np.sum((t - centre) ** 2, axis=1)))
        extra = rng.choice(n, size=min(8, n), replace=False)
        self._entries = np.unique(
            np.concatenate([[medoid], extra]).astype(np.int64))
        # insert the entry nodes first so every later chunk's search
        # starts from linked seeds
        order = np.concatenate(
            [self._entries,
             order[~np.isin(order, self._entries)]])

        first = order[:min(max(self.insert_chunk, self._entries.size + 1),
                           n)]
        if first.size > 1:
            diff = t[first][:, None, :] - t[first][None, :, :]
            d2 = np.sum(diff * diff, axis=-1)
            np.fill_diagonal(d2, np.inf)
            take = min(self.max_degree, first.size - 1)
            nearest = np.argpartition(d2, kth=take - 1, axis=1)[:, :take]
            for i, node in enumerate(first):
                cols = nearest[i][np.argsort(d2[i, nearest[i]],
                                             kind="stable")]
                self._link(int(node), first[cols], d2[i, cols])
        inserted = first.size
        while inserted < n:
            chunk = order[inserted:inserted + self.insert_chunk]
            cand, cand_d2, valid = self._graph_search(
                t[chunk], ef=max(self.ef_construction, self.max_degree))
            for i, node in enumerate(chunk):
                ids = cand[i][valid[i]]
                d2s = cand_d2[i][valid[i]]
                sel = np.argsort(d2s, kind="stable")
                self._link(int(node), ids[sel], d2s[sel])
            inserted += chunk.size
        return self

    # -- batched greedy beam search ------------------------------------------

    def _graph_search(self, queries: np.ndarray, ef: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Greedy best-first beam search for all queries at once.

        Returns ``(ids, d2, valid)`` of shape ``(B, ef)`` — the beam of
        tangent-nearest reachable nodes per query.  Every iteration
        expands the ``_EXPAND_WIDTH`` nearest unexpanded beam entries
        of every still-active query in one vectorised step, so the
        Python-level loop runs ~``ef / _EXPAND_WIDTH`` times per
        *batch*, not per query.
        """
        n = self.space.num_targets
        b = queries.shape[0]
        t = self._dst_tangent
        q32 = queries.astype(np.float32)
        qn = np.sum(q32 * q32, axis=1)
        t32 = self._dst_tangent32
        tn = self._dst_tangent32_norm2
        rows = np.arange(b)[:, None]
        # one sentinel column absorbs the writes of masked-out filler
        # entries: a plain always-True scatter has no read-modify-write
        # hazard on duplicate indices (an |= on a fancy index is
        # buffered — the last duplicate would win and could *clear* a
        # visited flag set by an earlier duplicate in the same batch)
        visited = np.zeros((b, n + 1), dtype=bool)
        scratch = np.empty((b, n + 1), dtype=np.int32)
        beam_ids = np.full((b, ef), -1, dtype=np.int64)
        beam_d2 = np.full((b, ef), np.inf)
        beam_exp = np.zeros((b, ef), dtype=bool)
        entries = self._entries[:ef]
        beam_ids[:, :entries.size] = entries[None, :]
        ediff = t[entries][None, :, :] - queries[:, None, :]
        beam_d2[:, :entries.size] = np.sum(ediff * ediff, axis=-1)
        visited[:, entries] = True
        expand = min(_EXPAND_WIDTH, ef)
        for _ in range(n + ef):
            open_d2 = np.where(beam_exp | (beam_ids < 0), np.inf, beam_d2)
            if expand < ef:
                sel = np.argpartition(open_d2, kth=expand - 1,
                                      axis=1)[:, :expand]   # (B, E)
            else:
                sel = np.broadcast_to(np.arange(ef)[None, :],
                                      (b, ef)).copy()
            act = np.isfinite(np.take_along_axis(open_d2, sel, axis=1))
            if not act.any():
                break
            np.put_along_axis(beam_exp, sel,
                              np.take_along_axis(beam_exp, sel, axis=1)
                              | act, axis=1)
            cur = np.where(act, np.take_along_axis(beam_ids, sel, axis=1),
                           entries[0])                      # (B, E)
            nbrs = self._adj[cur]                           # (B, E, cap)
            ok = (nbrs >= 0) & act[:, :, None]
            w = nbrs.shape[1] * nbrs.shape[2]
            safe = np.where(ok, nbrs, 0).reshape(b, w)
            ok = ok.reshape(b, w)
            vslot = np.where(ok, safe, n)
            fresh = ok & ~visited[rows, vslot]
            visited[rows, vslot] = True
            # two expanded nodes can share a neighbour: freshness is
            # uniform per id within an iteration (all occurrences read
            # `visited` before any write), so the O(width) column
            # scatter keeps exactly one survivor per id per row
            cols = np.broadcast_to(np.arange(w)[None, :], (b, w))
            scratch[rows, vslot] = cols
            fresh &= scratch[rows, vslot] == cols
            # float32 shadow distances: the beam only *prunes* (the
            # re-rank recomputes true metric in float64), and the
            # norm trick halves the gather bytes where the time goes
            dots = np.matmul(t32[safe], q32[:, :, None])[:, :, 0]
            nd2 = np.where(
                fresh,
                np.maximum(qn[:, None] + tn[safe] - 2.0 * dots, 0.0),
                np.inf).astype(np.float64)
            all_ids = np.concatenate(
                [beam_ids, np.where(fresh, safe, -1)], axis=1)
            all_d2 = np.concatenate([beam_d2, nd2], axis=1)
            all_exp = np.concatenate(
                [beam_exp, np.zeros_like(fresh)], axis=1)
            keep = np.argpartition(all_d2, kth=ef - 1, axis=1)[:, :ef]
            beam_ids = np.take_along_axis(all_ids, keep, axis=1)
            beam_d2 = np.take_along_axis(all_d2, keep, axis=1)
            beam_exp = np.take_along_axis(all_exp, keep, axis=1)
        valid = beam_ids >= 0
        return beam_ids, beam_d2, valid

    def search(self, src_indices: np.ndarray, k: int,
               exclude_self: bool = False
               ) -> Tuple[np.ndarray, np.ndarray]:
        self._require_built()
        src_indices = np.asarray(src_indices, dtype=np.int64)
        space = self.space
        k, same = self._clamp_k(space, k, exclude_self)
        if k < 1:
            return (np.zeros((src_indices.size, 0), dtype=np.int64),
                    np.zeros((src_indices.size, 0)))
        fetch = min(k + 1, space.num_targets) if same else k
        q = self._src_tangent[src_indices]
        ef = max(self.ef_search, fetch)
        cand, tangent_d2, valid = self._graph_search(q, ef=ef)
        # disconnected-component safety net: a short beam falls back to
        # a full tangent scan for that query row
        short = valid.sum(axis=1) < fetch
        if short.any():
            t = self._dst_tangent
            for i in np.nonzero(short)[0]:
                diff = t - q[i][None, :]
                d2 = np.sum(diff * diff, axis=1)
                top = np.argpartition(d2, kth=min(ef, d2.size) - 1
                                      )[:ef]
                top = top[np.argsort(d2[top], kind="stable")]
                # wipe the whole row: the beam's valid entries are not
                # packed to the front, so a partial overwrite would
                # leave stale (duplicate) ids behind the refill
                cand[i] = -1
                valid[i] = False
                tangent_d2[i] = np.inf
                cand[i, :top.size] = top
                tangent_d2[i, :top.size] = d2[top]
                valid[i, :top.size] = True
        cand = np.where(valid, cand, 0)
        tangent_d2 = np.where(valid, tangent_d2, np.inf)
        if self.rerank_k > 0 and self.expand_hops > 0:
            cand, tangent_d2 = self._widen(q, cand, valid, tangent_d2, fetch)
        return _rank_candidates(space, src_indices, cand, tangent_d2,
                                k, same, self.rerank_k, self.manifold_rerank)

    def _widen(self, q: np.ndarray, cand: np.ndarray, valid: np.ndarray,
               tangent_d2: np.ndarray, fetch: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbourhood widening of the beam (class docstring).

        Each hop gathers the graph neighbours of the current pool,
        deduplicates ids per row with an O(width) last-write column
        scatter (no per-row sort), and prunes back by tangent distance:
        intermediate hops to a small working set, the last hop to the
        ``rerank_k`` re-rank budget.
        """
        n = self.space.num_targets
        b = q.shape[0]
        q32 = q.astype(np.float32)
        qn = np.sum(q32 * q32, axis=1)
        t32 = self._dst_tangent32
        tn = self._dst_tangent32_norm2
        rows = np.arange(b)[:, None]
        # one extra column absorbs the scatter of invalid entries
        scratch = np.empty((b, n + 1), dtype=np.int32)
        inter_keep = max(fetch, min(96, self.rerank_k))
        for hop in range(self.expand_hops):
            nbrs = self._adj[cand]                         # (B, P, cap)
            ok = (nbrs >= 0) & valid[:, :, None]
            width = nbrs.shape[1] * nbrs.shape[2]
            ext = np.where(ok, nbrs, 0).reshape(b, width)
            ok = ok.reshape(b, width)
            dots = np.matmul(t32[ext], q32[:, :, None])[:, :, 0]
            ext_d2 = np.where(ok, qn[:, None] + tn[ext] - 2.0 * dots,
                              np.inf).astype(np.float64)
            cand = np.concatenate([cand, ext], axis=1)
            valid = np.concatenate([valid, ok], axis=1)
            tangent_d2 = np.concatenate([tangent_d2, ext_d2], axis=1)
            # dedup: scatter each entry's column index keyed by id (last
            # write wins), keep only the entry that reads its own column
            # back — exactly one survivor per id per row
            cols = np.broadcast_to(np.arange(cand.shape[1])[None, :],
                                   cand.shape)
            slot = np.where(valid, cand, n)
            scratch[rows, slot] = cols
            valid = valid & (scratch[rows, slot] == cols)
            tangent_d2 = np.where(valid, tangent_d2, np.inf)
            keep_n = (inter_keep if hop < self.expand_hops - 1
                      else max(self.rerank_k, fetch))
            if keep_n < cand.shape[1]:
                kp = np.argpartition(tangent_d2, kth=keep_n - 1,
                                     axis=1)[:, :keep_n]
                cand = np.take_along_axis(cand, kp, axis=1)
                valid = np.take_along_axis(valid, kp, axis=1)
                tangent_d2 = np.take_along_axis(tangent_d2, kp, axis=1)
        return cand, tangent_d2


BACKENDS["ivf"] = IVFBackend
BACKENDS["nsw"] = NSWBackend
