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

Each node type owns its own curvature vector ``κ_{·,t}`` of shape
``(M,)`` — queries can become hyperbolic while ads go spherical, which
is exactly the heterogeneity argument of the paper.  Every block of
points or tangents is one ``(M, n, d)`` tensor with the subspace axis
leading, and every weight and Möbius bias is stacked the same way, so
each stage is one tape node per operation for all M subspaces.

Context encoding is a two-phase dedup-encode-gather design.  A
pure-numpy sampling phase builds an
:class:`~repro.models.plan.EncodePlan` (per-level frontiers of unique
nodes + captured neighbour draws + gather maps); the compute phase then
encodes each unique frontier **once**, bottom-up, and routes rows
through ``ops.gather``.  Cost grows with the number of *unique* nodes
in the receptive field instead of ``(k·|types|)^L``.  The compute phase
takes several plans at once — a training step hands it one per
endpoint role — and runs one pass per ``(level, node type)`` over all
of them: the draw-free level 0 is deduplicated across plans, and every
level above stacks the plans' rows so each keeps its own draws.  A
GCN round's input (self rows next to the summed masked means of every
neighbour block) is one ``ops.gather_pool`` tape node.  The per-layer
recursion this replaced lives on as the parity oracle in
``tests/reference/encoder.py``, built from the public stage methods
(:meth:`NodeEncoder.inductive`, :meth:`~NodeEncoder.tangents`,
:meth:`~NodeEncoder.gcn_round`, :meth:`~NodeEncoder.fuse`) and
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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Parameter, Tensor, no_grad
from repro.geometry import kernels as geo
from repro.geometry.kernels import Curvature
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
    kappas:
        ``node type -> Curvature`` (all of the same length M).
    subspace_dim:
        d, the width of each subspace.
    feature_dim:
        Width of each feature-field embedding.
    gcn_layers:
        L, number of context-encoding rounds (0 disables the GCN).
    neighbor_samples:
        Neighbours sampled per (node, neighbour-type) during aggregation.
    use_fusion:
        Enable the space-fusion stage (ablation ``- fusion``).
    """

    def __init__(self, graph: HetGraph, kappas: Dict[NodeType, Curvature],
                 subspace_dim: int, feature_dim: int = 8,
                 gcn_layers: int = 1, neighbor_samples: int = 4,
                 use_fusion: bool = True,
                 rng: Optional[np.random.Generator] = None):
        self.graph = graph
        self.kappas = kappas
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

        self.num_subspaces = next(iter(kappas.values())).shape[0]
        self.subspace_dim = int(subspace_dim)
        if self.subspace_dim < 1:
            raise ValueError("subspace_dim must be >= 1, got %d"
                             % self.subspace_dim)
        for kappa in kappas.values():
            if kappa.shape != (self.num_subspaces,):
                raise ValueError("all node types must use the same number of subspaces")
        M, d = self.num_subspaces, self.subspace_dim

        self.embeddings: Dict[NodeType, FeatureEmbedding] = {}
        vocab_sizes = self._vocab_sizes(graph)
        for node_type, sizes in vocab_sizes.items():
            self.embeddings[node_type] = FeatureEmbedding(
                node_type, sizes, feature_dim, M, d, rng)

        # every stacked parameter draws its M subspaces in turn, in the
        # order the per-subspace parameters were once drawn, so initial
        # values do not depend on the stacking

        # GCN weights W^{·,t,l}: (M, 2d, d), paper Eq. 6
        self.gcn_weights: Dict[Tuple[NodeType, int], Parameter] = {}
        for node_type in self.embeddings:
            for layer in range(self.gcn_layers):
                self.gcn_weights[(node_type, layer)] = Parameter(np.stack(
                    [glorot(rng, 2 * d, d) for _ in range(M)]))

        # fusion weights W1^{·,t}: (M, 2d, d), paper Eq. 8
        self.fusion_weights: Dict[NodeType, Parameter] = {}
        if self.use_fusion:
            for node_type in self.embeddings:
                self.fusion_weights[node_type] = Parameter(np.stack(
                    [glorot(rng, 2 * d, d) for _ in range(M)]))

        # Möbius biases (tangent parameters, see module docstring),
        # (M, 1, d) so they broadcast over a block's rows
        self.inductive_bias: Dict[NodeType, Parameter] = {}
        self.gcn_bias: Dict[Tuple[NodeType, int], Parameter] = {}
        for node_type in self.embeddings:
            inductive, gcn = [], [[] for _ in range(self.gcn_layers)]
            for _ in range(M):
                inductive.append(rng.normal(scale=0.05, size=(1, d)))
                for layer in range(self.gcn_layers):
                    gcn[layer].append(rng.normal(scale=0.05, size=(1, d)))
            self.inductive_bias[node_type] = Parameter(np.stack(inductive))
            for layer in range(self.gcn_layers):
                self.gcn_bias[(node_type, layer)] = Parameter(
                    np.stack(gcn[layer]))

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

    def inductive(self, node_type: NodeType, indices: np.ndarray) -> Tensor:
        """Initial subspace points from features only (Eq. 4 + Möbius bias)."""
        kappa = self.kappas[node_type]
        tangents = self.embeddings[node_type].forward(
            self.graph.features[node_type], indices)
        point = geo.expmap0(tangents, kappa)
        bias_point = geo.expmap0(self.inductive_bias[node_type], kappa)
        return geo.project(geo.mobius_add(point, bias_point, kappa), kappa)

    # -- stage 2: context encoding (Eq. 5-6) -------------------------------------
    #
    # The compute phase builds Eq. 5's input in one `ops.gather_pool`
    # node from rows of the tangents of the unique frontier encoded one
    # level below (``logmap0`` is row-wise, so it runs once per
    # frontier, not once per gathered block) and hands it to
    # `gcn_round`.

    def tangents(self, node_type: NodeType, points: Tensor) -> Tensor:
        """``log_0`` of points of one node type, every subspace at once."""
        return geo.logmap0(points, self.kappas[node_type])

    def gcn_round(self, node_type: NodeType, layer: int,
                  combined: Tensor) -> Tensor:
        """Eq. 6 on the ``[neighbour sum | self]`` tangents of Eq. 5:
        exp → Möbius matvec (+ Möbius bias) → curved activation."""
        kappa = self.kappas[node_type]
        point = geo.expmap0(combined, kappa)
        point = geo.matvec(self.gcn_weights[(node_type, layer)], point, kappa)
        bias_point = geo.expmap0(self.gcn_bias[(node_type, layer)], kappa)
        point = geo.mobius_add(point, bias_point, kappa)
        return geo.project(geo.activation(point, kappa), kappa)

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

    def _encode_from_plan(self, plans: Sequence[EncodePlan]
                          ) -> Tuple[Dict[NodeType, Tensor], List[np.ndarray]]:
        """Compute phase: encode unique frontiers bottom-up, gather rows.

        One pass per ``(level, node type)`` over every plan in ``plans``
        (both endpoint roles of a training group, or one plan for
        :meth:`encode`).  Level 0 is draw-free, so its frontiers are
        deduplicated across plans; above it each plan's rows are stacked
        in plan order, so each plan keeps its own draws, and its gather
        maps are shifted onto the stacked rows.  A plan whose block of a
        ``(type → type)`` edge set is all-masked pools zero rows for it
        (the mask is empty), so it adds nothing to that plan's sum.

        Upper levels address the tangents of the level below through
        ``ops.gather_pool`` (one node per ``(level, type)`` for the self
        rows and every neighbour block), whose scatter-add backward
        accumulates gradients of repeated rows.  ``logmap0`` is
        row-wise, so a level's tangents are computed once per type and
        gathered.

        With :attr:`backward_depth` ``n`` in ``[1, layers]`` the levels
        at or below ``cut = layers - n`` run under ``no_grad`` and enter
        the tape as constants — the MyGrad ``bp_lim`` idiom: full
        forward, bounded backward.  Parameters partition cleanly by
        level (GCN round ``l`` weights are used only at level ``l+1``),
        so parameters above the boundary receive exactly the gradients
        of the full backward while those at or below it receive none;
        only the curvatures, which appear at every level, see partial
        gradients.  One of those is the ``logmap0`` of the level-``cut``
        reps: it is first asked for by level ``cut + 1``, so it is taken
        on the tape.

        Returns the top level's points, one ``(M, rows, d)`` block per
        node type, and per plan the rows of its top frontier in its
        type's block.
        """
        layers = plans[0].layers
        if any(plan.layers != layers for plan in plans):
            raise ValueError("the plans of one pass must have one depth")
        depth = int(self.backward_depth or 0)
        cut = layers - depth if 0 < depth <= layers else -1
        reps: Dict[NodeType, Tensor] = {}
        # rows[p][t]: where plan p's frontier of type t sits in reps[t]
        rows: List[Dict[NodeType, np.ndarray]] = [{} for _ in plans]

        for l in range(layers + 1):
            levels = [plan.levels[l] for plan in plans]
            below, below_rows = reps, rows
            below_tangents: Dict[NodeType, Tensor] = {}

            def tangents_of(t: NodeType) -> Tensor:
                if t not in below_tangents:
                    below_tangents[t] = self.tangents(t, below[t])
                return below_tangents[t]

            reps, rows = {}, [{} for _ in plans]
            with no_grad() if l <= cut else contextlib.nullcontext():
                for t in NodeType:
                    owners = [p for p, level in enumerate(levels)
                              if t in level.frontiers]
                    if not owners:
                        continue
                    if l == 0:
                        uniq = np.unique(np.concatenate(
                            [levels[p].frontiers[t] for p in owners]))
                        for p in owners:
                            rows[p][t] = np.searchsorted(
                                uniq, levels[p].frontiers[t])
                        reps[t] = self.inductive(t, uniq)
                        continue
                    size = 0
                    for p in owners:
                        n = levels[p].frontiers[t].size
                        rows[p][t] = np.arange(size, size + n)
                        size += n
                    self_table = tangents_of(t)
                    self_rows = np.concatenate(
                        [below_rows[p][t][levels[p].self_maps[t]]
                         for p in owners])
                    pools = []
                    for blocks in zip(*(levels[p].blocks[t] for p in owners)):
                        if all(block.gather is None for block in blocks):
                            continue                # all-masked: adds 0
                        dst = blocks[0].dst_type
                        mask = np.concatenate([block.mask for block in blocks])
                        index = np.concatenate([
                            np.zeros(block.mask.size, dtype=np.int64)
                            if block.gather is None
                            else below_rows[p][dst][block.gather]
                            for p, block in zip(owners, blocks)])
                        pools.append((tangents_of(dst),
                                      index.reshape(mask.shape), mask))
                    combined = ops.gather_pool(self_table, self_rows,
                                               pools)            # Eq. 5
                    reps[t] = self.gcn_round(t, l - 1, combined)
        return reps, [rows[p][plan.node_type] for p, plan in enumerate(plans)]

    # -- stage 3: space fusion (Eq. 7-8) --------------------------------------------

    def fuse(self, node_type: NodeType, points: Tensor) -> Tensor:
        kappa = self.kappas[node_type]
        tangents = self.tangents(node_type, points)
        fused = ops.mean(tangents, axis=0, keepdims=True)          # Eq. 7
        combined = ops.concatenate(
            [ops.broadcast_to(fused, tangents.shape), tangents], axis=-1)
        point = geo.expmap0(ops.matmul(combined,
                                       self.fusion_weights[node_type]),
                            kappa)                                 # Eq. 8
        return geo.project(point, kappa)

    # -- public entry points ---------------------------------------------------------

    def encode_plans(self, plans: Sequence[EncodePlan]
                     ) -> Tuple[Dict[NodeType, Tensor], List[np.ndarray]]:
        """Full node representations of several plans, in one pass.

        Returns one ``(M, rows, subspace_dim)`` block per top node type
        and, per plan, the rows of its top frontier in that block;
        compose them with :meth:`EncodePlan.output_map` to address
        requested indices.
        """
        points, tops = self._encode_from_plan(plans)
        if self.use_fusion:
            points = {t: self.fuse(t, block) for t, block in points.items()}
        return points, tops

    def encode(self, node_type: NodeType, indices: np.ndarray,
               rng: Optional[np.random.Generator] = None,
               plan: Optional[EncodePlan] = None) -> Tensor:
        """Full node representation, ``(M, len(indices), subspace_dim)``.

        A fresh :class:`EncodePlan` is built unless one is supplied.
        """
        rng = rng or self._rng
        indices = np.asarray(indices, dtype=np.int64)
        if plan is None:
            plan = self.build_plan(node_type, indices, rng)
        points, (top,) = self.encode_plans([plan])
        points = points[node_type]
        out_map = top[plan.output_map(indices)]
        if (out_map.size == points.shape[1]
                and np.array_equal(out_map, np.arange(out_map.size))):
            return points    # already unique and in frontier order
        return ops.gather(points, out_map)

    def parameters(self) -> Iterable[Parameter]:
        for embedding in self.embeddings.values():
            yield from embedding.parameters()
        yield from self.gcn_weights.values()
        yield from self.fusion_weights.values()
        yield from self.inductive_bias.values()
        yield from self.gcn_bias.values()
        for kappa in self.kappas.values():
            if kappa.requires_grad:
                yield kappa

    def checkpoint_layout(self) -> List[Tuple[Parameter, tuple]]:
        """``(parameter, index)`` per stored per-subspace array, in the
        order :func:`repro.io.save_model` numbers them."""
        layout = []
        for embedding in self.embeddings.values():
            layout += embedding.checkpoint_layout()
        per_subspace = range(self.num_subspaces)
        for params, suffix in ((self.gcn_weights, ()),
                               (self.fusion_weights, ()),
                               (self.inductive_bias, (0,))):
            layout += [(p, (m,) + suffix) for p in params.values()
                       for m in per_subspace]
        # the per-subspace GCN biases were drawn (and stored) layer-minor
        layout += [(self.gcn_bias[(t, layer)], (m, 0))
                   for t in self.embeddings for m in per_subspace
                   for layer in range(self.gcn_layers)]
        return layout + curvature_layout(self.kappas.values())

    def constrain(self) -> None:
        """Clamp all curvatures to their stability ranges."""
        for kappa in self.kappas.values():
            kappa.constrain()


def curvature_layout(kappas: Iterable[Curvature]
                     ) -> List[Tuple[Parameter, tuple]]:
    """One 0-d entry per trainable factor of each curvature vector."""
    return [(kappa, (m, Ellipsis)) for kappa in kappas
            for m in np.flatnonzero(kappa.trainable)]
