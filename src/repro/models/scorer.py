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
from repro.geometry.product import ProductManifold
from repro.graph.schema import NodeType, Relation
from repro.models.features import glorot

_SHARED = "shared"


class EdgeScorer:
    """Scores typed node pairs in relation-specific mixed-curvature spaces.

    Parameters
    ----------
    node_manifolds:
        The per-type product manifolds of the node encoder.
    relations:
        Relations to support (default: all six of paper Fig. 6).
    adaptive_curvature:
        Whether edge-space curvatures are trainable.
    share_edge_space:
        Ablation ``- proj``: one edge space for every relation.
    attention:
        ``'pair'`` (paper), ``'global'`` (M2GNN-style fixed weights) or
        ``'uniform'`` (ablation ``- comb``).
    """

    def __init__(self, node_manifolds: Dict[NodeType, ProductManifold],
                 relations: Optional[List[Relation]] = None,
                 adaptive_curvature: bool = True,
                 share_edge_space: bool = False,
                 attention: str = "pair",
                 rng: Optional[np.random.Generator] = None):
        if attention not in ("pair", "global", "uniform"):
            raise ValueError("unknown attention mode %r" % attention)
        rng = rng or np.random.default_rng(1)
        self.node_manifolds = node_manifolds
        self.relations = list(relations or list(Relation))
        self.share_edge_space = bool(share_edge_space)
        self.attention = attention

        reference = next(iter(node_manifolds.values()))
        self.num_subspaces = len(reference)
        self.subspace_dim = reference.factors[0].dim

        # edge spaces: κ_{m,r} (paper Eq. 9-10)
        keys = [_SHARED] if share_edge_space else list(self.relations)
        self.edge_manifolds: Dict[object, ProductManifold] = {}
        for key in keys:
            if adaptive_curvature:
                manifold = ProductManifold.adaptive(self.num_subspaces,
                                                    self.subspace_dim)
            else:
                # frozen copies of the (initial) node-space curvatures
                from repro.geometry.manifold import UnifiedManifold
                manifold = ProductManifold([
                    UnifiedManifold(factor.dim, kappa=factor.kappa_value,
                                    trainable=False)
                    for factor in reference.factors])
            self.edge_manifolds[key] = manifold

        # projection weights W2^{m,t,r}: (d -> d), plus Möbius biases
        # (see the NodeEncoder module docstring for why biases are needed)
        self.proj_weights: Dict[tuple, Parameter] = {}
        self.proj_bias: Dict[tuple, Parameter] = {}
        for key in keys:
            for node_type in node_manifolds:
                for m in range(self.num_subspaces):
                    self.proj_weights[(key, node_type, m)] = Parameter(
                        glorot(rng, self.subspace_dim, self.subspace_dim))
                    self.proj_bias[(key, node_type, m)] = Parameter(
                        rng.normal(scale=0.05, size=self.subspace_dim))

        # attention weights W^t: (M*d -> M) (paper Eq. 12)
        self.att_weights: Dict[NodeType, Parameter] = {}
        if attention == "pair":
            for node_type in node_manifolds:
                self.att_weights[node_type] = Parameter(
                    glorot(rng, self.num_subspaces * self.subspace_dim,
                           self.num_subspaces))
        self.global_logits: Dict[object, Parameter] = {}
        if attention == "global":
            for key in keys:
                self.global_logits[key] = Parameter(
                    np.zeros(self.num_subspaces))

    # -- internals --------------------------------------------------------------

    def _edge_key(self, relation: Relation):
        return _SHARED if self.share_edge_space else relation

    def project(self, relation: Relation, node_type: NodeType,
                points: List[Tensor]) -> List[Tensor]:
        """Edge-space projection of per-subspace points (paper Eq. 9)."""
        key = self._edge_key(relation)
        edge_manifold = self.edge_manifolds[key]
        node_manifold = self.node_manifolds[node_type]
        projected: List[Tensor] = []
        for m, point in enumerate(points):
            weight = self.proj_weights[(key, node_type, m)]
            node_factor = node_manifold.factors[m]
            edge_factor = edge_manifold.factors[m]
            mapped = node_factor.matvec(weight, point)
            bias_point = node_factor.expmap0(self.proj_bias[(key, node_type, m)])
            mapped = node_factor.mobius_add(mapped, bias_point)
            mapped = node_factor.activation(mapped, ops.tanh, target=edge_factor)
            projected.append(edge_factor.project(mapped))
        return projected

    def node_weights(self, relation: Relation, node_type: NodeType,
                     projected: List[Tensor]) -> Tensor:
        """Node-level subspace attention ``w'`` (paper Eq. 12–13).

        Returns shape ``(batch, M)``; rows sum to 1 in ``'pair'`` mode,
        to ``softmax`` of the global logits in ``'global'`` mode, and to
        1 with constant entries in ``'uniform'`` mode.  Pair weights are
        ``w = w'(x) + w'(y)``, so each side contributes half.
        """
        batch = projected[0].shape[0]
        if self.attention == "pair":
            concat = ops.concatenate(projected, axis=-1)
            logits = ops.matmul(concat, self.att_weights[node_type])
            return ops.softmax(logits, axis=-1)
        if self.attention == "global":
            logits = self.global_logits[self._edge_key(relation)]
            weights = ops.softmax(logits.reshape(1, self.num_subspaces), axis=-1)
            ones = Tensor(np.ones((batch, 1)))
            return ones @ weights
        uniform = np.full((batch, self.num_subspaces), 1.0 / self.num_subspaces)
        return Tensor(uniform)

    def sub_distances(self, relation: Relation, src_projected: List[Tensor],
                      dst_projected: List[Tensor]) -> Tensor:
        """Per-subspace edge-space distances, shape ``(batch, M)`` (Eq. 10)."""
        edge_manifold = self.edge_manifolds[self._edge_key(relation)]
        dists = [factor.dist(x, y) for factor, x, y in
                 zip(edge_manifold.factors, src_projected, dst_projected)]
        return ops.concatenate(dists, axis=-1)

    # -- public API ---------------------------------------------------------------

    def distance(self, relation: Relation,
                 src_points: List[Tensor], src_type: NodeType,
                 dst_points: List[Tensor], dst_type: NodeType) -> Tensor:
        """Attention-combined mixed-curvature distance (paper Eq. 14).

        Returns shape ``(batch,)`` — smaller means more likely linked.
        """
        src_proj = self.project(relation, src_type, src_points)
        dst_proj = self.project(relation, dst_type, dst_points)
        w_src = self.node_weights(relation, src_type, src_proj)
        w_dst = self.node_weights(relation, dst_type, dst_proj)
        weights = w_src + w_dst                               # Eq. 11
        dists = self.sub_distances(relation, src_proj, dst_proj)
        combined = ops.sum(dists * weights, axis=-1)          # Eq. 14
        return combined

    def parameters(self) -> Iterable[Parameter]:
        yield from self.proj_weights.values()
        yield from self.proj_bias.values()
        yield from self.att_weights.values()
        yield from self.global_logits.values()
        for manifold in self.edge_manifolds.values():
            yield from manifold.parameters()

    def constrain(self) -> None:
        for manifold in self.edge_manifolds.values():
            manifold.constrain()
