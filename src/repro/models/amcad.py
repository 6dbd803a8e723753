"""The AMCAD model: encoder + scorer + triplet objective (paper §IV-B).

:class:`AMCADConfig` exposes every design axis the paper evaluates:

- ``space`` — the geometry family of the node subspaces:
  ``'adaptive'`` (trainable κ per subspace per node type — full AMCAD),
  ``'euclidean'`` / ``'hyperbolic'`` / ``'spherical'`` (frozen constant
  curvature → AMCAD_E / AMCAD_H / AMCAD_S), ``'unified'`` (a single
  trainable subspace → AMCAD_U), or an explicit signature string such
  as ``'HS'`` / ``'EE'`` for the fixed product-space combinations of
  Table VIII;
- ``use_fusion`` (ablation ``- fusion``), ``share_edge_space``
  (``- proj``), ``attention`` (``'uniform'`` → ``- comb``);
- ``num_subspaces`` / ``subspace_dim`` for the Fig. 8 sweep.

:func:`make_model` builds the named model variants used throughout the
benchmark harness.
"""

from __future__ import annotations

import dataclasses
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Parameter, Tensor, ensure_tensor, no_grad
from repro.common import drop_retired_planes
from repro.geometry import kernels as geo
from repro.geometry.kernels import Curvature
from repro.graph.hetgraph import HetGraph
from repro.graph.sampling import SampleBatch
from repro.graph.schema import NodeType, Relation
from repro.models.encoder import NodeEncoder
from repro.models.plan import EncodePlan, build_full_graph_plan
from repro.models.scorer import EdgeScorer, adaptive_kappas

_SIGNATURE_KAPPA = {"H": -1.0, "E": 0.0, "S": 1.0, "U": None}

#: Variant names :func:`make_model` accepts, besides ``product:<SIG>``
#: signatures (kept in the docstring's presentation order).
MODEL_VARIANTS = (
    "amcad", "amcad_e", "amcad_h", "amcad_s", "amcad_u",
    "hyperml", "hgcn", "gil", "m2gnn",
    "amcad-mixed", "amcad-curv", "amcad-fusion", "amcad-proj", "amcad-comb",
)


def fermi_dirac(distance, radius: float = 1.0,
                temperature: float = 5.0) -> Tensor:
    """Fermi–Dirac link probability ``σ(t·(r − d))`` (paper Eq. 15 context).

    The paper sets radius ``r = 1`` and temperature ``t = 5``.
    """
    return ops.sigmoid(temperature * (radius - ensure_tensor(distance)))


def list_models() -> List[str]:
    """Registered variant names for :func:`make_model`.

    ``product:<SIG>`` signatures (e.g. ``product:HS``) are additionally
    accepted for any non-empty string over ``E``/``H``/``S``/``U``.
    """
    return list(MODEL_VARIANTS)


@dataclasses.dataclass
class AMCADConfig:
    """Architecture and geometry configuration.

    Defaults correspond to the full AMCAD model at laptop scale (the
    paper uses M=2 subspaces, 120 total dims; we default to M=2 × 16).
    """

    num_subspaces: int = 2
    subspace_dim: int = 16
    feature_dim: int = 8
    gcn_layers: int = 1
    neighbor_samples: int = 4
    space: str = "adaptive"
    use_fusion: bool = True
    share_edge_space: bool = False
    adaptive_edge_curvature: bool = True
    attention: str = "pair"
    # Fermi-Dirac similarity scale.  The paper reports r=1, t=5 as best
    # on its production embedding scale; at this repo's scale distances
    # concentrate around ~2-5, so r=2, t=2 keeps the sigmoid responsive
    # (r=1, t=5 saturates and stalls training — verified empirically).
    margin: float = 0.5
    fermi_radius: float = 2.0
    fermi_temperature: float = 2.0
    regularization: float = 1e-3
    seed: int = 0
    #: retired geometry kernel dial; any value it accepted is accepted
    #: and dropped (see ``drop_retired_planes``)
    kernels: dataclasses.InitVar[Optional[str]] = None

    def __post_init__(self, kernels=None):
        if kernels is not None:
            drop_retired_planes("model", {"kernels": kernels})

    def resolved_signature(self) -> List[Optional[float]]:
        """Initial curvature per subspace; ``None`` marks trainable."""
        space = self.space
        if space == "adaptive":
            if self.num_subspaces == 1:
                return [None]
            return [None] * self.num_subspaces
        if space == "unified":
            return [None] * self.num_subspaces
        if space == "euclidean":
            return [0.0] * self.num_subspaces
        if space == "hyperbolic":
            return [-1.0] * self.num_subspaces
        if space == "spherical":
            return [1.0] * self.num_subspaces
        if all(ch in _SIGNATURE_KAPPA for ch in space):
            if len(space) != self.num_subspaces:
                raise ValueError("signature %r length != num_subspaces=%d"
                                 % (space, self.num_subspaces))
            return [_SIGNATURE_KAPPA[ch] for ch in space]
        raise ValueError("unknown space specification %r" % space)


class AMCAD:
    """Adaptive mixed-curvature representation model over a graph."""

    def __init__(self, graph: HetGraph, config: Optional[AMCADConfig] = None):
        self.graph = graph
        self.config = config or AMCADConfig()
        cfg = self.config
        # read by the benchmarks/e2e workloads' kernel_mode()
        self.kernel_mode = "numpy"
        rng = np.random.default_rng(cfg.seed)
        self.rng = rng

        # one (M,) curvature vector per node type: trainable entries
        # start from spread initial values (see ``adaptive_kappas``), a
        # fixed signature's entries are frozen at their geometry's κ
        signature = cfg.resolved_signature()
        spread = adaptive_kappas(len(signature))
        trainable = [kappa is None for kappa in signature]
        initial = [spread[m] if kappa is None else kappa
                   for m, kappa in enumerate(signature)]
        self.node_kappas: Dict[NodeType, Curvature] = {
            node_type: Curvature(initial, trainable) for node_type in NodeType}

        self.encoder = NodeEncoder(
            graph, self.node_kappas, subspace_dim=cfg.subspace_dim,
            feature_dim=cfg.feature_dim, gcn_layers=cfg.gcn_layers,
            neighbor_samples=cfg.neighbor_samples, use_fusion=cfg.use_fusion,
            rng=rng)
        adaptive_edges = cfg.adaptive_edge_curvature and cfg.space in (
            "adaptive", "unified")
        self.scorer = EdgeScorer(
            self.node_kappas, cfg.subspace_dim,
            adaptive_curvature=adaptive_edges,
            share_edge_space=cfg.share_edge_space, attention=cfg.attention,
            rng=rng)

    # -- scoring ----------------------------------------------------------------

    def encode(self, node_type: NodeType, indices: np.ndarray,
               rng: Optional[np.random.Generator] = None,
               plan: Optional[EncodePlan] = None) -> Tensor:
        """``(M, batch, d)`` subspace points for nodes of one type."""
        return self.encoder.encode(node_type, indices, rng=rng, plan=plan)

    def pair_distance(self, relation: Relation, src_indices: np.ndarray,
                      dst_indices: np.ndarray,
                      rng: Optional[np.random.Generator] = None) -> Tensor:
        """Mixed-curvature distances for aligned (src, dst) index arrays.

        One plan per endpoint, source first, then one encoder pass and
        one scorer pass over both — the path :meth:`loss` takes.
        """
        rng = rng or self.rng
        plans = [self.encoder.build_plan(relation.source_type, src_indices,
                                         rng),
                 self.encoder.build_plan(relation.target_type, dst_indices,
                                         rng)]
        points, src_rows, dst_rows = self._encode_roles(
            plans, src_indices, dst_indices)
        return self._row_distance(relation, points, src_rows, dst_rows)

    def similarity(self, relation: Relation, src_indices: np.ndarray,
                   dst_indices: np.ndarray,
                   rng: Optional[np.random.Generator] = None) -> Tensor:
        """Fermi–Dirac link probability σ(t(r − dist)) (paper §IV-B-3)."""
        distance = self.pair_distance(relation, src_indices, dst_indices, rng)
        return fermi_dirac(distance, self.config.fermi_radius,
                           self.config.fermi_temperature)

    def _encode_roles(self, plans: Sequence[EncodePlan],
                      src_indices: np.ndarray, dst_indices: np.ndarray
                      ) -> Tuple[Dict[NodeType, Tensor], np.ndarray,
                                 np.ndarray]:
        """One encoder pass over a source and a target plan.

        Returns the points of both roles, one block per node type, and
        the rows of ``src_indices`` / ``dst_indices`` in their type's
        block.
        """
        points, (src_top, dst_top) = self.encoder.encode_plans(plans)
        return (points, src_top[plans[0].output_map(src_indices)],
                dst_top[plans[1].output_map(dst_indices)])

    def _row_distance(self, relation: Relation,
                      points: Dict[NodeType, Tensor], src_rows: np.ndarray,
                      dst_rows: np.ndarray) -> Tensor:
        """Eq. 14 over row pairs, each node type's block projected once."""
        embedded = {t: self.scorer.embed(relation, t, block)
                    for t, block in points.items()}
        return self.scorer.row_distance(
            relation, embedded[relation.source_type], src_rows,
            embedded[relation.target_type], dst_rows)

    # -- loss --------------------------------------------------------------------

    @staticmethod
    def _resolve_plan(plans, role: str, node_type: NodeType):
        """Look up a pre-built plan for one endpoint role of a group.

        ``plans`` may be keyed by :class:`NodeType` (the recursive-oracle
        parity hook) or by role — ``"source"`` / ``"target"``.  Role
        keys win: same-type relations need *distinct* plans per role
        (shared draws are the common-random-numbers pathology described
        in ``_encode_group``), so a type-keyed dict cannot express them.
        """
        if not plans:
            return None
        plan = plans.get(role)
        if plan is not None:
            return plan
        return plans.get(node_type)

    def _encode_group(self, group: SampleBatch, rng: np.random.Generator,
                      plans) -> Tuple[Dict[NodeType, Tensor], np.ndarray,
                                      np.ndarray]:
        """Both endpoint roles of a group in one encoder pass.

        One plan per role, source first: the source plan covers the
        unique sources, the target plan the unique ``pos ∪ neg`` (the
        flattened ``(B, K)`` negative block overlaps heavily with the
        positives and with itself).  Both plans then go through one
        pass per ``(level, node type)``: the draw-free level 0 is
        deduplicated across roles, every level above stacks the roles'
        rows.  For same-type relations (``q2q``/``i2i``) the source
        role therefore keeps its own neighbour draws: collapsing source
        and target onto shared draws makes ``pos_sim`` and ``neg_sim``
        move on common random numbers, which shrinks the variance of
        their difference and starves the margin hinge of gradient
        events — measured as a ~5-point next-day-AUC drop on the tiny
        pipeline, reproducible across seeds.

        Returns the points per node type, the rows of ``src_idx`` and
        the rows of ``pos_idx`` followed by the flattened ``neg_idx``.
        """
        relation = group.relation
        targets = np.concatenate([group.pos_idx, group.neg_idx.ravel()])
        plan_list = []
        for role, node_type, indices in (
                ("source", relation.source_type, group.src_idx),
                ("target", relation.target_type, targets)):
            plan = self._resolve_plan(plans, role, node_type)
            if plan is None:
                plan = self.encoder.build_plan(node_type, np.unique(indices),
                                               rng)
            plan_list.append(plan)
        return self._encode_roles(plan_list, group.src_idx, targets)

    def loss(self, samples: Union[SampleBatch, Sequence[SampleBatch]],
             rng: Optional[np.random.Generator] = None,
             plans: Optional[Dict[NodeType, EncodePlan]] = None) -> Tensor:
        """Triplet loss over a batch (paper Eq. 15 + Eq. 16 regulariser).

        Accepts one :class:`SampleBatch` or a sequence of them.  Each
        batch is one relation group; the loss is the summed hinge of
        every group over the total number of negatives, so an empty
        sequence gives 0.  Per group, both endpoint roles are encoded
        in one pass (see ``_encode_group``), the scorer projects and
        attends each node type's unique rows once, and one distance
        and one Fermi–Dirac call cover the positive pairs followed by
        the negative pairs, gathered by row maps; the regulariser reads
        the same unique rows.  ``plans`` optionally supplies pre-built
        :class:`~repro.models.plan.EncodePlan` objects whose captured
        neighbour draws the encodes replay, keyed either by
        :class:`NodeType` (the hook the recursive-oracle parity tests
        use) or by endpoint role — ``"source"`` / ``"target"`` (role
        keys win, and are the only way to give the two endpoints of a
        same-type relation distinct draws).  Without ``plans`` each
        role samples its own draws from ``rng``, source first.
        """
        rng = rng or self.rng
        cfg = self.config
        total = None
        count = 0

        groups = [samples] if isinstance(samples, SampleBatch) else samples
        for group in groups:
            relation = group.relation
            batch, k = group.neg_idx.shape
            points, src_rows, tgt_rows = self._encode_group(group, rng, plans)

            # the source row of each negative, aligned with the
            # flattened (B, K) block: pairs are pos (B) then neg (B*K)
            rep = np.repeat(np.arange(batch), k)
            dist = self._row_distance(
                relation, points, np.concatenate([src_rows, src_rows[rep]]),
                tgt_rows)
            sim = fermi_dirac(dist, cfg.fermi_radius, cfg.fermi_temperature)
            hinge = ops.relu(cfg.margin + sim[batch:] - sim[rep])
            group_loss = ops.sum(hinge)

            if cfg.regularization > 0:
                # curved-space regulariser (Eq. 16): pull points toward
                # the origin of each subspace to stay in stable zones
                radii = {t: geo.dist(block, Tensor(np.zeros(block.shape)),
                                     self.node_kappas[t])
                         for t, block in points.items()}
                reg = None
                for rows, node_type in (
                        (src_rows, relation.source_type),
                        (tgt_rows[:batch], relation.target_type),
                        (tgt_rows[batch:], relation.target_type)):
                    term = ops.sum(ops.gather(radii[node_type], rows))
                    reg = term if reg is None else reg + term
                group_loss = group_loss + cfg.regularization * reg

            total = group_loss if total is None else total + group_loss
            count += batch * k
        if total is None:
            return Tensor(np.asarray(0.0))
        return total / max(count, 1)

    # -- inference helpers ----------------------------------------------------------

    def build_full_plan(self, node_type: NodeType,
                        rng: Optional[np.random.Generator] = None
                        ) -> EncodePlan:
        """One :class:`EncodePlan` covering every node of ``node_type``.

        The sampling phase of offline inference: per-level unique
        frontiers over the full graph, draws captured once.  The
        default is a fixed-seed generator so repeated offline
        materialisations are deterministic.
        """
        rng = rng or np.random.default_rng(12345)
        return build_full_graph_plan(self.graph, node_type,
                                     self.config.gcn_layers,
                                     self.config.neighbor_samples, rng)

    def encode_all(self, node_type: NodeType,
                   rng: Optional[np.random.Generator] = None,
                   plan: Optional[EncodePlan] = None) -> List[np.ndarray]:
        """Subspace embeddings for the whole vocabulary, plan-at-once.

        Builds (or reuses) one full-graph plan and runs the encoder's
        compute phase on it under ``no_grad`` — ``gcn_layers + 1``
        vocabulary passes instead of ``N / batch_size`` recursive
        mini-batches, and no tape.  Returns M arrays of shape
        ``(N, d)`` in vocabulary order — views of one stacked
        ``(M, N, d)`` block; handed a partial ``plan``, rows follow
        ``plan.indices`` instead (the same contract as :meth:`encode`
        with a plan).
        """
        if self.graph.num_nodes[node_type] == 0:
            return [np.zeros((0, self.encoder.subspace_dim))
                    for _ in range(self.encoder.num_subspaces)]
        if plan is None:
            plan = self.build_full_plan(node_type, rng)
        with no_grad():
            points = self.encoder.encode(node_type, plan.indices, plan=plan)
        return list(points.data)

    def parameters(self) -> Iterable[Parameter]:
        yield from self.encoder.parameters()
        yield from self.scorer.parameters()

    def checkpoint_arrays(self, array_of: Callable[[Parameter], np.ndarray]
                          = lambda param: param.data) -> List[np.ndarray]:
        """The stored arrays of ``model.npz``, as views into
        ``array_of(parameter)``.

        One array per subspace of each stacked parameter and one 0-d
        array per trainable curvature, in the order the file numbers
        them (``param_%06d``) — the layout of the per-subspace
        parameters the stacked ones replaced, so published checkpoints
        keep loading.  Writing into a view writes the parameter.
        """
        return [array_of(param)[index] for param, index in
                self.encoder.checkpoint_layout()
                + self.scorer.checkpoint_layout()]

    def constrain(self) -> None:
        """Clamp all trainable curvatures after an optimiser step."""
        self.encoder.constrain()
        self.scorer.constrain()

    def curvature_report(self) -> Dict[str, List[float]]:
        """Learned curvatures per node type and edge space (for analysis)."""
        report: Dict[str, List[float]] = {}
        for node_type, kappa in self.node_kappas.items():
            report["node:%s" % node_type.value] = kappa.data.tolist()
        for key, kappa in self.scorer.edge_kappas.items():
            name = key if isinstance(key, str) else key.value
            report["edge:%s" % name] = kappa.data.tolist()
        return report


def make_model(name: str, graph: HetGraph, *, num_subspaces: int = 2,
               subspace_dim: int = 16, seed: int = 0,
               **overrides) -> AMCAD:
    """Factory for the named model variants of Tables VI–VIII.

    Recognised names (case-insensitive):

    - ``amcad`` — full model (adaptive spaces, fusion, projection,
      pairwise attention);
    - ``amcad_e`` / ``amcad_h`` / ``amcad_s`` / ``amcad_u`` — same
      architecture in Euclidean / hyperbolic / spherical / single
      unified space;
    - ``hyperml`` — shallow hyperbolic metric learning (no GCN/fusion,
      shared edge space);
    - ``hgcn`` — hyperbolic GCN (single hyperbolic space, no
      fusion/projection/attention);
    - ``gil`` — Euclidean×hyperbolic dual-geometry interaction;
    - ``m2gnn`` — fixed mixed-curvature product with *global* learned
      subspace weights;
    - ``product:<SIG>`` — product space with an explicit signature,
      e.g. ``product:HS``;
    - ablations: ``amcad-mixed``, ``amcad-curv``, ``amcad-fusion``,
      ``amcad-proj``, ``amcad-comb`` (Table VII rows).

    ``overrides`` are further :class:`AMCADConfig` fields.  The retired
    ``kernels`` dial is still accepted at any value it took (``"auto"``,
    ``"numpy"``, ``"compiled"``) and ignored: every geometry primitive
    has one numpy implementation (:mod:`repro.geometry.kernels`).
    """
    key = name.lower()
    base = dict(num_subspaces=num_subspaces, subspace_dim=subspace_dim,
                seed=seed)
    base.update(overrides)

    if key == "amcad":
        cfg = AMCADConfig(space="adaptive", **base)
    elif key == "amcad_e":
        cfg = AMCADConfig(space="euclidean", **base)
    elif key == "amcad_h":
        cfg = AMCADConfig(space="hyperbolic", **base)
    elif key == "amcad_s":
        cfg = AMCADConfig(space="spherical", **base)
    elif key == "amcad_u":
        base["num_subspaces"] = 1
        base["subspace_dim"] = num_subspaces * subspace_dim
        cfg = AMCADConfig(space="unified", **base)
    elif key == "hyperml":
        cfg = AMCADConfig(space="hyperbolic", gcn_layers=0, use_fusion=False,
                          share_edge_space=True, attention="uniform",
                          adaptive_edge_curvature=False, **base)
    elif key == "hgcn":
        base["num_subspaces"] = 1
        base["subspace_dim"] = num_subspaces * subspace_dim
        cfg = AMCADConfig(space="hyperbolic", use_fusion=False,
                          share_edge_space=True, attention="uniform",
                          adaptive_edge_curvature=False, **base)
    elif key == "gil":
        base["num_subspaces"] = 2
        cfg = AMCADConfig(space="EH", use_fusion=True, share_edge_space=True,
                          attention="pair", adaptive_edge_curvature=False,
                          **base)
    elif key == "m2gnn":
        cfg = AMCADConfig(space="HS" if num_subspaces == 2 else "hyperbolic",
                          use_fusion=False, share_edge_space=True,
                          attention="global", adaptive_edge_curvature=False,
                          **base)
    elif key.startswith("product:"):
        signature = name.split(":", 1)[1].upper()
        base["num_subspaces"] = len(signature)
        cfg = AMCADConfig(space=signature, use_fusion=False,
                          share_edge_space=True, attention="uniform",
                          adaptive_edge_curvature=False, **base)
    elif key == "amcad-mixed":
        base["num_subspaces"] = 1
        base["subspace_dim"] = num_subspaces * subspace_dim
        cfg = AMCADConfig(space="unified", **base)
    elif key == "amcad-curv":
        cfg = AMCADConfig(space="euclidean", **base)
    elif key == "amcad-fusion":
        cfg = AMCADConfig(space="adaptive", use_fusion=False, **base)
    elif key == "amcad-proj":
        cfg = AMCADConfig(space="adaptive", share_edge_space=True, **base)
    elif key == "amcad-comb":
        cfg = AMCADConfig(space="adaptive", attention="uniform", **base)
    else:
        raise ValueError(
            "unknown model name %r; choose one of: %s, or 'product:<SIG>' "
            "with a signature over 'EHSU' (e.g. 'product:HS')"
            % (name, ", ".join(MODEL_VARIANTS)))
    return AMCAD(graph, cfg)
