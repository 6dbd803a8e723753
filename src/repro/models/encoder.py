"""Node-level adaptive mixed-curvature encoder (paper §IV-B-1, Fig. 5).

Three stages:

1. **Inductive learning** (Eq. 4) — feature embeddings are concatenated
   in tangent space and exponentially mapped into each of the M
   subspaces of the node type's product manifold;
2. **Context encoding** (Eq. 5–6) — a tangent-space GCN: sampled
   neighbours of each type are log-mapped to the origin's tangent
   space, mean-aggregated per neighbour type, summed across types,
   concatenated with the node's own tangent vector, then pushed back
   through ``exp → ⊗κ → σκ``;
3. **Space fusion** (Eq. 7–8) — the average of all subspace tangent
   vectors (the global fused representation) is concatenated back into
   each subspace so subspaces co-adapt instead of training in
   isolation.

Each node type owns its own product manifold, i.e. its own set of
curvatures ``κ_{m,t}`` — queries can become hyperbolic while ads go
spherical, which is exactly the heterogeneity argument of the paper.

Context encoding is a two-phase dedup-encode-gather design.  A
pure-numpy sampling phase builds an
:class:`~repro.models.plan.EncodePlan` (per-level frontiers of unique
nodes + captured neighbour draws + gather maps); the compute phase then
encodes each unique frontier **once**, bottom-up, and routes rows
through ``ops.gather``.  Cost grows with the number of *unique* nodes
in the receptive field instead of ``(k·|types|)^L``.  The per-layer
recursion this replaced lives on as the parity oracle in
``tests/reference/encoder.py``, built from the public stage methods
(:meth:`NodeEncoder.inductive`, :meth:`~NodeEncoder.pool`,
:meth:`~NodeEncoder.gcn_update`, :meth:`~NodeEncoder.fuse`) and
replaying a plan's captured draws.

Implementation note — Möbius biases.  Every curved linear stage here is
``W ⊗κ x ⊕κ exp^κ_0(b)`` rather than the bias-free ``W ⊗κ x`` of the
paper's equations.  The Möbius bias (standard in hyperbolic neural
networks — Ganea et al., the paper's reference [26], and HGCN) is not
cosmetic: in exact arithmetic a bias-free chain of
``exp^κ_0 → log^κ_0`` maps cancels κ entirely, which would make the
node-level curvatures unidentifiable (zero gradient).  Möbius addition
of a bias point is the κ-dependent operation that makes "adaptive"
curvature actually adapt.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Parameter, Tensor, no_grad
from repro.geometry.product import ProductManifold
from repro.graph.hetgraph import HetGraph
from repro.graph.schema import NodeType
from repro.models.features import FeatureEmbedding, glorot
from repro.models.plan import EncodePlan, build_encode_plan

class NodeEncoder:
    """Maps typed node indices to points in per-type mixed-curvature spaces.

    Parameters
    ----------
    graph:
        Supplies features and neighbour sampling.
    manifolds:
        ``node type -> ProductManifold`` (all with M factors of equal dim).
    feature_dim:
        Width of each feature-field embedding.
    gcn_layers:
        L, number of context-encoding rounds (0 disables the GCN).
    neighbor_samples:
        Neighbours sampled per (node, neighbour-type) during aggregation.
    use_fusion:
        Enable the space-fusion stage (ablation ``- fusion``).
    """

    def __init__(self, graph: HetGraph,
                 manifolds: Dict[NodeType, ProductManifold],
                 feature_dim: int = 8, gcn_layers: int = 1,
                 neighbor_samples: int = 4, use_fusion: bool = True,
                 rng: Optional[np.random.Generator] = None):
        self.graph = graph
        self.manifolds = manifolds
        self.gcn_layers = int(gcn_layers)
        self.neighbor_samples = int(neighbor_samples)
        self.use_fusion = bool(use_fusion)
        #: truncated-backward dial: 0 = full backward; ``n >= 1`` keeps
        #: only the top ``n`` GCN rounds on the tape — lower levels run
        #: the same code under ``no_grad``, so the *forward* values are
        #: unchanged while the backward (and the tape it walks) stops
        #: at the boundary.  Set by the trainer from
        #: ``TrainerConfig.backward_depth``.
        self.backward_depth: int = 0
        rng = rng or np.random.default_rng(0)
        self._rng = rng

        reference = next(iter(manifolds.values()))
        self.num_subspaces = len(reference)
        self.subspace_dim = reference.factors[0].dim
        for manifold in manifolds.values():
            if len(manifold) != self.num_subspaces:
                raise ValueError("all node types must use the same number of subspaces")

        self.embeddings: Dict[NodeType, FeatureEmbedding] = {}
        vocab_sizes = self._vocab_sizes(graph)
        for node_type, sizes in vocab_sizes.items():
            self.embeddings[node_type] = FeatureEmbedding(
                node_type, sizes, feature_dim, self.num_subspaces,
                self.subspace_dim, rng)

        # GCN weights W^{m,t,l}: (2d -> d), paper Eq. 6
        self.gcn_weights: Dict[tuple, Parameter] = {}
        for node_type in self.embeddings:
            for layer in range(self.gcn_layers):
                for m in range(self.num_subspaces):
                    self.gcn_weights[(node_type, layer, m)] = Parameter(
                        glorot(rng, 2 * self.subspace_dim, self.subspace_dim))

        # fusion weights W1^{m,t}: (2d -> d), paper Eq. 8
        self.fusion_weights: Dict[tuple, Parameter] = {}
        if self.use_fusion:
            for node_type in self.embeddings:
                for m in range(self.num_subspaces):
                    self.fusion_weights[(node_type, m)] = Parameter(
                        glorot(rng, 2 * self.subspace_dim, self.subspace_dim))

        # Möbius biases (tangent parameters, see module docstring)
        self.inductive_bias: Dict[tuple, Parameter] = {}
        self.gcn_bias: Dict[tuple, Parameter] = {}
        for node_type in self.embeddings:
            for m in range(self.num_subspaces):
                self.inductive_bias[(node_type, m)] = Parameter(
                    rng.normal(scale=0.05, size=self.subspace_dim))
                for layer in range(self.gcn_layers):
                    self.gcn_bias[(node_type, layer, m)] = Parameter(
                        rng.normal(scale=0.05, size=self.subspace_dim))

    @staticmethod
    def _vocab_sizes(graph: HetGraph) -> Dict[NodeType, Dict[str, int]]:
        """Infer per-field vocabulary sizes from the stored features."""
        sizes: Dict[NodeType, Dict[str, int]] = {}
        for node_type, fields in graph.features.items():
            sizes[node_type] = {}
            for field, values in fields.items():
                values = np.asarray(values)
                if values.size == 0:
                    raise ValueError(
                        "feature field %r of node type %r is empty; cannot "
                        "infer a vocabulary size (provide at least one value "
                        "or drop the field)" % (field, node_type.value))
                sizes[node_type][field] = int(values.max()) + 1
        return sizes

    # -- stage 1: inductive learning (Eq. 4) ------------------------------------

    def inductive(self, node_type: NodeType, indices: np.ndarray) -> List[Tensor]:
        """Initial subspace points from features only (Eq. 4 + Möbius bias)."""
        tangents = self.embeddings[node_type].forward(
            self.graph.features[node_type], indices)
        manifold = self.manifolds[node_type]
        out = []
        for m, (factor, tangent) in enumerate(zip(manifold.factors, tangents)):
            point = factor.expmap0(tangent)
            bias_point = factor.expmap0(self.inductive_bias[(node_type, m)])
            out.append(factor.project(factor.mobius_add(point, bias_point)))
        return out

    # -- stage 2: context encoding (Eq. 5-6) -------------------------------------
    #
    # `pool` turns one block of neighbour tangents into per-subspace
    # masked means, `gcn_update` applies the curved linear round; the
    # compute phase feeds them rows gathered from the tangents of the
    # unique frontier encoded one level below (``logmap0`` is row-wise,
    # so it runs once per frontier, not once per gathered block).

    @staticmethod
    def _accumulate(neighbor_sums: list, pooled: list) -> None:
        """Add one neighbour type's pooled tangents into the running sums."""
        for m, term in enumerate(pooled):
            if neighbor_sums[m] is None:
                neighbor_sums[m] = term
            else:
                neighbor_sums[m] = neighbor_sums[m] + term

    def tangents(self, node_type: NodeType,
                 points: List[Tensor]) -> List[Tensor]:
        """Per-subspace ``log_0`` of points of one node type."""
        return [factor.logmap0(point) for factor, point in
                zip(self.manifolds[node_type].factors, points)]

    @staticmethod
    def pool(neigh_tangents: List[Tensor], mask: np.ndarray) -> List[Tensor]:
        """Masked-mean pooling of pre-gathered ``(B, k, d)`` tangent blocks."""
        return [ops.masked_mean(tangent, mask) for tangent in neigh_tangents]

    def gcn_update(self, node_type: NodeType, layer: int,
                   self_tangents: List[Tensor],
                   neighbor_sums: List[Optional[Tensor]],
                   batch: int) -> List[Tensor]:
        """One GCN round (Eq. 5-6) given pooled neighbour tangent sums."""
        updated: List[Tensor] = []
        for m in range(self.num_subspaces):
            factor = self.manifolds[node_type].factors[m]
            agg = neighbor_sums[m]
            if agg is None:
                agg = Tensor(np.zeros((batch, self.subspace_dim)))
            combined = ops.concatenate([agg, self_tangents[m]], axis=-1)  # Eq. 5
            weight = self.gcn_weights[(node_type, layer, m)]
            # Eq. 6: exp -> Mobius matvec (+ Mobius bias) -> curved activation
            point = factor.expmap0(combined)
            point = factor.matvec(weight, point)
            bias_point = factor.expmap0(self.gcn_bias[(node_type, layer, m)])
            point = factor.mobius_add(point, bias_point)
            point = factor.activation(point, ops.tanh)
            updated.append(factor.project(point))
        return updated

    # -- frontier compute phase ---------------------------------------------------

    def build_plan(self, node_type: NodeType, indices: np.ndarray,
                   rng: Optional[np.random.Generator] = None) -> EncodePlan:
        """Sampling phase: capture the receptive field of ``indices``.

        Pure numpy — no tape.  The resulting plan can be fed back to
        :meth:`encode` (any requested indices must be covered by its top
        frontier) and shared with the recursive oracle for parity
        testing.
        """
        rng = rng or self._rng
        return build_encode_plan(self.graph, node_type, indices,
                                 self.gcn_layers, self.neighbor_samples, rng)

    def _encode_from_plan(self, plan: EncodePlan) -> List[Tensor]:
        """Compute phase: encode unique frontiers bottom-up, gather rows.

        Every node appears exactly once per level; upper levels address
        the tangents of the level below through ``ops.gather``, whose
        scatter-add backward accumulates gradients of repeated rows.
        ``logmap0`` is row-wise, so a frontier's tangents are computed
        once and gathered.

        With :attr:`backward_depth` ``n`` in ``[1, layers]`` the levels
        at or below ``cut = layers - n`` run under ``no_grad`` and enter
        the tape as constants — the MyGrad ``bp_lim`` idiom: full
        forward, bounded backward.  Parameters partition cleanly by
        level (GCN round ``l`` weights are used only at level ``l+1``),
        so parameters above the boundary receive exactly the gradients
        of the full backward while those at or below it receive none;
        only the per-subspace curvatures, which appear at every level,
        see partial gradients.  One of those is the ``logmap0`` of the
        level-``cut`` reps: it is first asked for by level ``cut + 1``,
        so it is taken on the tape.
        """
        depth = int(self.backward_depth or 0)
        cut = plan.layers - depth if 0 < depth <= plan.layers else -1
        reps: Dict[tuple, List[Tensor]] = {}
        tangents: Dict[tuple, List[Tensor]] = {}

        def tangents_of(l: int, t: NodeType) -> List[Tensor]:
            if (l, t) not in tangents:
                tangents[(l, t)] = self.tangents(t, reps[(l, t)])
            return tangents[(l, t)]

        for l, level in enumerate(plan.levels):
            with no_grad() if l <= cut else contextlib.nullcontext():
                for t in NodeType:
                    uniq = level.frontiers.get(t)
                    if uniq is None:
                        continue
                    if l == 0:
                        reps[(0, t)] = self.inductive(t, uniq)
                        continue
                    self_tangents = [ops.gather(tan, level.self_maps[t])
                                     for tan in tangents_of(l - 1, t)]
                    neighbor_sums: List[Optional[Tensor]] = \
                        [None] * self.num_subspaces
                    for block in level.blocks[t]:
                        if block.gather is None:  # all-masked: contributes 0
                            continue
                        below = tangents_of(l - 1, block.dst_type)
                        rows = block.gather.reshape(block.mask.shape)
                        self._accumulate(neighbor_sums, self.pool(
                            [ops.gather(tan, rows) for tan in below],
                            block.mask))
                    reps[(l, t)] = self.gcn_update(t, l - 1, self_tangents,
                                                   neighbor_sums, uniq.size)
        return reps[(plan.layers, plan.node_type)]

    # -- stage 3: space fusion (Eq. 7-8) --------------------------------------------

    def fuse(self, node_type: NodeType, points: List[Tensor]) -> List[Tensor]:
        manifold = self.manifolds[node_type]
        tangents = self.tangents(node_type, points)
        stacked = ops.stack(tangents, axis=0)
        fused = ops.mean(stacked, axis=0)                     # Eq. 7
        out: List[Tensor] = []
        for m, factor in enumerate(manifold.factors):
            combined = ops.concatenate([fused, tangents[m]], axis=-1)
            weight = self.fusion_weights[(node_type, m)]
            point = factor.expmap0(ops.matmul(combined, weight))  # Eq. 8
            out.append(factor.project(point))
        return out

    # -- public entry point ----------------------------------------------------------

    def encode(self, node_type: NodeType, indices: np.ndarray,
               rng: Optional[np.random.Generator] = None,
               plan: Optional[EncodePlan] = None) -> List[Tensor]:
        """Full node representation: one point tensor per subspace.

        Output: list of M tensors shaped ``(len(indices), subspace_dim)``.
        A fresh :class:`EncodePlan` is built unless one is supplied.
        """
        rng = rng or self._rng
        indices = np.asarray(indices, dtype=np.int64)
        if plan is None:
            plan = self.build_plan(node_type, indices, rng)
        points = self._encode_from_plan(plan)
        if self.use_fusion:
            points = self.fuse(node_type, points)
        out_map = plan.output_map(indices)
        if (out_map.size == points[0].shape[0]
                and np.array_equal(out_map, np.arange(out_map.size))):
            return points    # already unique and in frontier order
        return [ops.gather(p, out_map) for p in points]

    def parameters(self) -> Iterable[Parameter]:
        for embedding in self.embeddings.values():
            yield from embedding.parameters()
        yield from self.gcn_weights.values()
        yield from self.fusion_weights.values()
        yield from self.inductive_bias.values()
        yield from self.gcn_bias.values()
        for manifold in self.manifolds.values():
            yield from manifold.parameters()

    def constrain(self) -> None:
        """Clamp all curvatures to their stability ranges."""
        for manifold in self.manifolds.values():
            manifold.constrain()
