"""The frozen search geometry of Mixed-curvature Nearest Neighbour (MNN)
search — paper §IV-C-1.

The similarity of AMCAD is not a dot product: it is an attention-
weighted sum of per-subspace geodesic distances in relation-specific
edge spaces (paper Eq. 14).  Two properties make exact search feasible:

- the pair weight decomposes as ``w = w'(x) + w'(y)`` (Eq. 11), so the
  node-level attention weights can be *pre-computed* once per node
  before any search happens — this is the paper's own deployment trick;
- the per-subspace distance matrix reduces to inner products
  (:func:`repro.geometry.kernels.pairwise_dist`), so a candidate block is
  scored entirely inside vectorised numpy (the SIMD level); the
  paper's worker level (OpenMP) is not reproduced in-process.

A :class:`RelationSpace` is the frozen inference artefact for one
relation: projected source/target embeddings, per-node weights and edge
curvatures, extracted from a trained model under ``no_grad``.  Every
search backend is built over one; the exact scan itself is
:class:`~repro.retrieval.backend.ExactBackend`.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor, no_grad
from repro.geometry.kernels import rowwise_dist
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
            kappas = model.scorer.edge_kappa(relation).data.tolist()
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
    projects every subspace in one vectorised call; the per-subspace
    arrays returned are views of its ``(M, N, d)`` output.  An empty vocabulary gives
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
    projected, weights = model.scorer.embed(relation, node_type,
                                            Tensor(np.stack(encoded)))
    return list(projected.data), weights.data
