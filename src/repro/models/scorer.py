"""Edge-level adaptive mixed-curvature scorer (paper §IV-B-2, Fig. 5).

Two stages:

1. **Edge space projection** (Eq. 9–10) — the endpoints of a candidate
   edge live in *type-specific* spaces; they are projected into a
   relation-specific edge space (curvature ``κ_{m,r}``) with a Möbius
   linear map followed by a curved activation, and the geodesic
   distance is computed there;
2. **Subspace-distance combination** (Eq. 11–14) — per-node attention
   logits over subspaces are computed from the concatenated projected
   embeddings; the pair weight is the *sum* of the two node-level
   weights (so it decomposes and can be pre-computed before MNN
   retrieval — paper's own deployment trick), and the final distance is
   the weight-distance inner product.

Every relation-specific edge space holds one ``(M,)`` curvature vector,
and the projection weights and biases of a (space, node type) pair are
stacked over the subspace axis, so a projection is one tape node per
operation for all M subspaces and the per-subspace distances come out
of one kernel call as a ``(batch, M)`` block.

Ablation switches: ``share_edge_space`` collapses all relations into one
edge space (``- proj``); ``attention='global'`` replaces pairwise
attention with a single learned weight vector per relation (M2GNN-style);
``attention='uniform'`` uses constant weights (``- comb``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Parameter, Tensor
from repro.geometry import kernels as geo
from repro.geometry.kernels import Curvature
from repro.graph.schema import NodeType, Relation
from repro.models.encoder import curvature_layout
from repro.models.features import glorot

_SHARED = "shared"


def adaptive_kappas(num_subspaces: int) -> np.ndarray:
    """Initial curvatures of M trainable subspaces.

    Spread over ``[-1, 1]`` so subspaces start from distinct, strongly
    curved geometries and adapt from there (flat starts were observed
    to under-perform: the κ gradient is small relative to weight
    gradients, so subspaces initialised near zero stay nearly Euclidean
    for a long time); a single subspace starts flat.
    """
    if num_subspaces == 1:
        return np.zeros(1)
    return np.linspace(-1.0, 1.0, num_subspaces)


class EdgeScorer:
    """Scores typed node pairs in relation-specific mixed-curvature spaces.

    Parameters
    ----------
    node_kappas:
        The per-type curvature vectors of the node encoder.
    subspace_dim:
        d, the width of each subspace.
    relations:
        Relations to support (default: all six of paper Fig. 6).
    adaptive_curvature:
        Whether edge-space curvatures are trainable; frozen edge spaces
        copy the first node type's initial curvatures.
    share_edge_space:
        Ablation ``- proj``: one edge space for every relation.
    attention:
        ``'pair'`` (paper), ``'global'`` (M2GNN-style fixed weights) or
        ``'uniform'`` (ablation ``- comb``).
    """

    def __init__(self, node_kappas: Dict[NodeType, Curvature],
                 subspace_dim: int,
                 relations: Optional[List[Relation]] = None,
                 adaptive_curvature: bool = True,
                 share_edge_space: bool = False,
                 attention: str = "pair",
                 rng: Optional[np.random.Generator] = None):
        if attention not in ("pair", "global", "uniform"):
            raise ValueError("unknown attention mode %r" % attention)
        rng = rng or np.random.default_rng(1)
        self.node_kappas = node_kappas
        self.relations = list(relations or list(Relation))
        self.share_edge_space = bool(share_edge_space)
        self.attention = attention

        reference = next(iter(node_kappas.values()))
        self.num_subspaces = M = reference.shape[0]
        self.subspace_dim = d = int(subspace_dim)

        # edge spaces: κ_{·,r} (paper Eq. 9-10)
        keys = [_SHARED] if share_edge_space else list(self.relations)
        self.edge_kappas: Dict[object, Curvature] = {}
        for key in keys:
            if adaptive_curvature:
                self.edge_kappas[key] = Curvature(adaptive_kappas(M),
                                                  [True] * M)
            else:
                self.edge_kappas[key] = Curvature(reference.data.copy(),
                                                  [False] * M)

        # projection weights W2^{·,t,r}: (M, d, d), plus (M, 1, d)
        # Möbius biases (see the NodeEncoder module docstring for why
        # biases are needed); drawn subspace by subspace
        self.proj_weights: Dict[tuple, Parameter] = {}
        self.proj_bias: Dict[tuple, Parameter] = {}
        for key in keys:
            for node_type in node_kappas:
                weights, biases = [], []
                for _ in range(M):
                    weights.append(glorot(rng, d, d))
                    biases.append(rng.normal(scale=0.05, size=(1, d)))
                self.proj_weights[(key, node_type)] = Parameter(
                    np.stack(weights))
                self.proj_bias[(key, node_type)] = Parameter(np.stack(biases))

        # attention weights W^t: (M*d -> M) (paper Eq. 12)
        self.att_weights: Dict[NodeType, Parameter] = {}
        if attention == "pair":
            for node_type in node_kappas:
                self.att_weights[node_type] = Parameter(
                    glorot(rng, M * d, M))
        self.global_logits: Dict[object, Parameter] = {}
        if attention == "global":
            for key in keys:
                self.global_logits[key] = Parameter(np.zeros(M))

    # -- internals --------------------------------------------------------------

    def _edge_key(self, relation: Relation):
        return _SHARED if self.share_edge_space else relation

    def edge_kappa(self, relation: Relation) -> Curvature:
        """The curvature vector of ``relation``'s edge space."""
        return self.edge_kappas[self._edge_key(relation)]

    def project(self, relation: Relation, node_type: NodeType,
                points: Tensor) -> Tensor:
        """Edge-space projection of ``(M, n, d)`` points (paper Eq. 9)."""
        key = self._edge_key(relation)
        node_kappa = self.node_kappas[node_type]
        edge_kappa = self.edge_kappas[key]
        mapped = geo.matvec(self.proj_weights[(key, node_type)], points,
                            node_kappa)
        bias_point = geo.expmap0(self.proj_bias[(key, node_type)],
                                 node_kappa)
        mapped = geo.mobius_add(mapped, bias_point, node_kappa)
        mapped = geo.activation(mapped, node_kappa, edge_kappa)
        return geo.project(mapped, edge_kappa)

    def node_weights(self, relation: Relation, node_type: NodeType,
                     projected: Tensor) -> Tensor:
        """Node-level subspace attention ``w'`` (paper Eq. 12–13).

        Returns shape ``(batch, M)``; rows sum to 1 in ``'pair'`` mode,
        to ``softmax`` of the global logits in ``'global'`` mode, and to
        1 with constant entries in ``'uniform'`` mode.  Pair weights are
        ``w = w'(x) + w'(y)``, so each side contributes half.
        """
        batch = projected.shape[1]
        if self.attention == "pair":
            # (M, n, d) -> (n, M*d): each row's subspaces side by side
            concat = ops.reshape(ops.transpose(projected, (1, 0, 2)),
                                 (batch, self.num_subspaces
                                  * self.subspace_dim))
            logits = ops.matmul(concat, self.att_weights[node_type])
            return ops.softmax(logits, axis=-1)
        if self.attention == "global":
            logits = self.global_logits[self._edge_key(relation)]
            weights = ops.softmax(logits.reshape(1, self.num_subspaces), axis=-1)
            ones = Tensor(np.ones((batch, 1)))
            return ones @ weights
        uniform = np.full((batch, self.num_subspaces), 1.0 / self.num_subspaces)
        return Tensor(uniform)

    def sub_distances(self, relation: Relation, src_projected: Tensor,
                      dst_projected: Tensor) -> Tensor:
        """Per-subspace edge-space distances, shape ``(batch, M)`` (Eq. 10)."""
        return geo.dist(src_projected, dst_projected,
                        self.edge_kappa(relation))

    # -- public API ---------------------------------------------------------------

    def embed(self, relation: Relation, node_type: NodeType,
              points: Tensor) -> Tuple[Tensor, Tensor]:
        """Edge-space points and node-level attention of ``(M, n, d)``
        points: :meth:`project`, then :meth:`node_weights`."""
        projected = self.project(relation, node_type, points)
        return projected, self.node_weights(relation, node_type, projected)

    def row_distance(self, relation: Relation,
                     src: Tuple[Tensor, Tensor], src_rows: Optional[np.ndarray],
                     dst: Tuple[Tensor, Tensor], dst_rows: Optional[np.ndarray]
                     ) -> Tensor:
        """Eq. 14 between rows of two :meth:`embed` outputs.

        Pair ``i`` joins row ``src_rows[i]`` of ``src`` to row
        ``dst_rows[i]`` of ``dst`` (``None``: every row, in order), so
        rows shared by many pairs are projected once.  Returns shape
        ``(pairs,)``.
        """
        (src_proj, w_src), (dst_proj, w_dst) = src, dst
        if src_rows is not None:
            src_proj, w_src = (ops.gather(src_proj, src_rows),
                               ops.gather(w_src, src_rows))
        if dst_rows is not None:
            dst_proj, w_dst = (ops.gather(dst_proj, dst_rows),
                               ops.gather(w_dst, dst_rows))
        weights = w_src + w_dst                               # Eq. 11
        dists = self.sub_distances(relation, src_proj, dst_proj)
        return ops.sum(dists * weights, axis=-1)              # Eq. 14

    def distance(self, relation: Relation,
                 src_points: Tensor, src_type: NodeType,
                 dst_points: Tensor, dst_type: NodeType) -> Tensor:
        """Attention-combined mixed-curvature distance (paper Eq. 14).

        Returns shape ``(batch,)`` — smaller means more likely linked.
        """
        return self.row_distance(
            relation, self.embed(relation, src_type, src_points), None,
            self.embed(relation, dst_type, dst_points), None)

    def parameters(self) -> Iterable[Parameter]:
        yield from self.proj_weights.values()
        yield from self.proj_bias.values()
        yield from self.att_weights.values()
        yield from self.global_logits.values()
        for kappa in self.edge_kappas.values():
            if kappa.requires_grad:
                yield kappa

    def checkpoint_layout(self) -> List[Tuple[Parameter, tuple]]:
        """``(parameter, index)`` per stored per-subspace array."""
        per_subspace = range(self.num_subspaces)
        return ([(p, (m,)) for p in self.proj_weights.values()
                 for m in per_subspace]
                + [(p, (m, 0)) for p in self.proj_bias.values()
                   for m in per_subspace]
                + [(p, ()) for p in self.att_weights.values()]
                + [(p, ()) for p in self.global_logits.values()]
                + curvature_layout(self.edge_kappas.values()))

    def constrain(self) -> None:
        for kappa in self.edge_kappas.values():
            kappa.constrain()
