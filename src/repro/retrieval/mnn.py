"""Mixed-curvature Nearest Neighbour (MNN) search — paper §IV-C-1.

The similarity of AMCAD is not a dot product: it is an attention-
weighted sum of per-subspace geodesic distances in relation-specific
edge spaces (paper Eq. 14).  Two properties make exact search feasible:

- the pair weight decomposes as ``w = w'(x) + w'(y)`` (Eq. 11), so the
  node-level attention weights can be *pre-computed* once per node
  before any search happens — this is the paper's own deployment trick;
- the per-subspace distance matrix reduces to inner products
  (:func:`repro.geometry.fast.pairwise_dist`), so a candidate block is
  scored entirely inside vectorised numpy (the SIMD level); the
  paper's worker level (OpenMP) is not reproduced in-process.

A :class:`RelationSpace` is the frozen inference artefact for one
relation: projected source/target embeddings, per-node weights and edge
curvatures, extracted from a trained model under ``no_grad``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor, no_grad
from repro.geometry.fast import pairwise_dist, rowwise_dist
from repro.graph.schema import NodeType, Relation


@dataclasses.dataclass
class RelationSpace:
    """Frozen edge-space geometry for one relation.

    Attributes
    ----------
    relation:
        Which typed pair this scores.
    src_embeddings / dst_embeddings:
        Per-subspace projected points, M arrays of ``(N, d)``.
    src_weights / dst_weights:
        Node-level attention weights ``w'``, arrays of ``(N, M)``.
    kappas:
        Edge-space curvature per subspace, length M.
    """

    relation: Relation
    src_embeddings: List[np.ndarray]
    dst_embeddings: List[np.ndarray]
    src_weights: np.ndarray
    dst_weights: np.ndarray
    kappas: List[float]

    @property
    def num_subspaces(self) -> int:
        return len(self.kappas)

    @property
    def num_sources(self) -> int:
        return self.src_embeddings[0].shape[0]

    @property
    def num_targets(self) -> int:
        return self.dst_embeddings[0].shape[0]

    @functools.cached_property
    def src_norm2(self) -> List[np.ndarray]:
        """``‖x‖²`` per subspace, M arrays of ``(N,)`` — the re-rank
        gathers these instead of re-reducing every gathered block."""
        return [np.sum(e * e, axis=1) for e in self.src_embeddings]

    @functools.cached_property
    def dst_norm2(self) -> List[np.ndarray]:
        return [np.sum(e * e, axis=1) for e in self.dst_embeddings]

    @classmethod
    def from_model(cls, model, relation: Relation,
                   encode_cache: Optional[dict] = None) -> "RelationSpace":
        """Extract projected embeddings + weights from a trained model.

        ``encode_cache`` (``node_type -> encoded subspace arrays``)
        memoises the relation-independent encode across calls — the
        per-relation projection still runs, but a caller building many
        relation spaces from one model (``IndexSet.build``) encodes
        each node type once instead of once per relation endpoint.
        """
        src_type, dst_type = relation.source_type, relation.target_type
        with no_grad():
            src_proj, src_w = _project_all(model, relation, src_type,
                                           encode_cache)
            if src_type == dst_type:
                dst_proj, dst_w = src_proj, src_w
            else:
                dst_proj, dst_w = _project_all(model, relation, dst_type,
                                               encode_cache)
            manifold = model.scorer.edge_manifolds[
                model.scorer._edge_key(relation)]
            kappas = manifold.kappas()
        return cls(relation=relation, src_embeddings=src_proj,
                   dst_embeddings=dst_proj, src_weights=src_w,
                   dst_weights=dst_w, kappas=kappas)

    def slice_targets(self, start: int, stop: int) -> "RelationSpace":
        """A view restricted to target rows ``[start, stop)``.

        Sources, weights-per-source and curvatures are shared (numpy
        views, no copies); only the target-side arrays are sliced.
        This is the unit of work a sharded backend hands to its inner
        per-shard backends.
        """
        return RelationSpace(
            relation=self.relation,
            src_embeddings=self.src_embeddings,
            dst_embeddings=[e[start:stop] for e in self.dst_embeddings],
            src_weights=self.src_weights,
            dst_weights=self.dst_weights[start:stop],
            kappas=self.kappas)

    def pair_distance(self, src_indices: np.ndarray,
                      dst_indices: np.ndarray) -> np.ndarray:
        """Weighted distance for aligned index arrays (evaluation path)."""
        src_indices = np.asarray(src_indices)
        dst_indices = np.asarray(dst_indices)
        weights = (self.src_weights[src_indices]
                   + self.dst_weights[dst_indices])          # (B, M)
        total = np.zeros(src_indices.shape[0])
        for m, kappa in enumerate(self.kappas):
            d = rowwise_dist(self.src_embeddings[m][src_indices],
                             self.dst_embeddings[m][dst_indices], kappa)
            total += weights[:, m] * d
        return total


def _project_all(model, relation: Relation, node_type: NodeType,
                 encode_cache: Optional[dict] = None
                 ) -> Tuple[List[np.ndarray], np.ndarray]:
    """Projected subspace embeddings + attention weights for all nodes.

    The model's ``encode_all`` encodes the whole vocabulary through one
    full-graph :class:`~repro.models.plan.EncodePlan` and the scorer
    projects it in a single vectorised call.  An empty vocabulary gives
    M arrays of ``(0, d_m)`` and ``(0, M)`` weights.  The encode is
    deterministic (fixed seed policy), so ``encode_cache`` can safely
    share it across relations.
    """
    if encode_cache is not None and node_type in encode_cache:
        encoded = encode_cache[node_type]
    else:
        encoded = model.encode_all(node_type, np.random.default_rng(2024))
        if encode_cache is not None:
            encode_cache[node_type] = encoded
    points = [Tensor(p) for p in encoded]
    projected = model.scorer.project(relation, node_type, points)
    weights = model.scorer.node_weights(relation, node_type, projected)
    return [t.data for t in projected], weights.data


class MNNSearcher:
    """Exact top-K search under the attention-weighted mixed metric.

    Candidate blocks are scored one at a time on the calling thread and
    merged into a running per-source top-k, so peak memory is bounded
    by one block plus the ``(B, k)`` result buffer — it does not scale
    with the full ``(B, N)`` score matrix.

    Parameters
    ----------
    space:
        The frozen relation geometry.
    block_size:
        Candidate rows scored per vectorised block.
    """

    def __init__(self, space: RelationSpace, block_size: int = 2048):
        self.space = space
        self.block_size = int(block_size)
        #: Widest candidate buffer merged during the last search — the
        #: memory high-water mark, asserted far below N in the tests.
        self.peak_candidate_width = 0

    def _score_block(self, src_indices: np.ndarray,
                     block: slice) -> np.ndarray:
        """Weighted distances from given sources to one candidate block."""
        space = self.space
        width = block.stop - block.start
        total = np.zeros((src_indices.size, width))
        src_w = space.src_weights[src_indices]               # (B, M)
        dst_w = space.dst_weights[block]                     # (W, M)
        for m, kappa in enumerate(space.kappas):
            dists = pairwise_dist(space.src_embeddings[m][src_indices],
                                  space.dst_embeddings[m][block], kappa)
            weights = src_w[:, m:m + 1] + dst_w[None, :, m][0]
            total += weights * dists
        return total

    def _block_topk(self, src_indices: np.ndarray, block: slice, k: int,
                    mask_self: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Score one block and reduce it to per-source top-``k``."""
        scores = self._score_block(src_indices, block)
        if mask_self:
            in_block = ((src_indices >= block.start)
                        & (src_indices < block.stop))
            rows = np.nonzero(in_block)[0]
            scores[rows, src_indices[rows] - block.start] = np.inf
        width = scores.shape[1]
        kk = min(k, width)
        if kk < width:
            top = np.argpartition(scores, kth=kk - 1, axis=1)[:, :kk]
        else:
            top = np.broadcast_to(np.arange(width),
                                  (src_indices.size, width)).copy()
        dists = np.take_along_axis(scores, top, axis=1)
        return top.astype(np.int64) + block.start, dists

    def search(self, src_indices: np.ndarray, k: int,
               exclude_self: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` nearest targets per source.

        Returns ``(ids, distances)`` of shape ``(B, k)``, sorted by
        ascending distance.  ``exclude_self`` drops the diagonal for
        same-type relations (a node is trivially nearest to itself).

        Blocks are streamed: each block is reduced to block-local top-k
        and folded into a running best-k buffer, so the full ``(B, N)``
        matrix is never materialised.
        """
        src_indices = np.asarray(src_indices, dtype=np.int64)
        n_targets = self.space.num_targets
        k = min(k, n_targets - (1 if exclude_self else 0))
        mask_self = exclude_self and (self.space.relation.source_type
                                      == self.space.relation.target_type)
        blocks = [slice(start, min(start + self.block_size, n_targets))
                  for start in range(0, n_targets, self.block_size)]

        best_ids = np.empty((src_indices.size, 0), dtype=np.int64)
        best_dists = np.empty((src_indices.size, 0))
        self.peak_candidate_width = 0
        for block in blocks:
            ids, dists = self._block_topk(src_indices, block, k, mask_self)
            best_ids = np.concatenate([best_ids, ids], axis=1)
            best_dists = np.concatenate([best_dists, dists], axis=1)
            self.peak_candidate_width = max(self.peak_candidate_width,
                                            best_dists.shape[1])
            if best_dists.shape[1] > k:
                keep = np.argpartition(best_dists, kth=k - 1, axis=1)[:, :k]
                best_ids = np.take_along_axis(best_ids, keep, axis=1)
                best_dists = np.take_along_axis(best_dists, keep, axis=1)

        order = np.argsort(best_dists, axis=1, kind="stable")
        return (np.take_along_axis(best_ids, order, axis=1),
                np.take_along_axis(best_dists, order, axis=1))
