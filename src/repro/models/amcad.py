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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Parameter, Tensor, no_grad
from repro.common import drop_retired_planes
from repro.geometry.manifold import UnifiedManifold
from repro.geometry.product import ProductManifold
from repro.geometry.stereographic import fermi_dirac
from repro.graph.hetgraph import HetGraph
from repro.graph.sampling import SampleBatch, TrainingSample, as_sample_batches
from repro.graph.schema import NodeType, Relation
from repro.models.encoder import NodeEncoder
from repro.models.plan import (
    EncodePlan,
    NeighborDrawCache,
    build_full_graph_plan,
)
from repro.models.scorer import EdgeScorer

_SIGNATURE_KAPPA = {"H": -1.0, "E": 0.0, "S": 1.0, "U": None}

#: Variant names :func:`make_model` accepts, besides ``product:<SIG>``
#: signatures (kept in the docstring's presentation order).
MODEL_VARIANTS = (
    "amcad", "amcad_e", "amcad_h", "amcad_s", "amcad_u",
    "hyperml", "hgcn", "gil", "m2gnn",
    "amcad-mixed", "amcad-curv", "amcad-fusion", "amcad-proj", "amcad-comb",
)


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

        signature = cfg.resolved_signature()
        self.node_manifolds: Dict[NodeType, ProductManifold] = {}
        for node_type in NodeType:
            factors = []
            for m, kappa in enumerate(signature):
                if kappa is None:
                    # spread trainable initialisations so subspaces start
                    # from distinct, strongly curved geometries — the
                    # curvatures then adapt from informative starting
                    # points instead of crawling away from flatness
                    if len(signature) == 1:
                        init = 0.0
                    else:
                        init = np.linspace(-1.0, 1.0, len(signature))[m]
                    factors.append(UnifiedManifold(cfg.subspace_dim, kappa=init,
                                                   trainable=True))
                else:
                    factors.append(UnifiedManifold(cfg.subspace_dim, kappa=kappa,
                                                   trainable=False))
            self.node_manifolds[node_type] = ProductManifold(factors)

        self.encoder = NodeEncoder(
            graph, self.node_manifolds, feature_dim=cfg.feature_dim,
            gcn_layers=cfg.gcn_layers, neighbor_samples=cfg.neighbor_samples,
            use_fusion=cfg.use_fusion, rng=rng)
        adaptive_edges = cfg.adaptive_edge_curvature and cfg.space in (
            "adaptive", "unified")
        self.scorer = EdgeScorer(
            self.node_manifolds, adaptive_curvature=adaptive_edges,
            share_edge_space=cfg.share_edge_space, attention=cfg.attention,
            rng=rng)

    # -- scoring ----------------------------------------------------------------

    def encode(self, node_type: NodeType, indices: np.ndarray,
               rng: Optional[np.random.Generator] = None,
               plan: Optional[EncodePlan] = None,
               use_draw_cache: bool = True) -> List[Tensor]:
        """Subspace points for a batch of nodes of one type."""
        return self.encoder.encode(node_type, indices, rng=rng, plan=plan,
                                   use_draw_cache=use_draw_cache)

    def pair_distance(self, relation: Relation, src_indices: np.ndarray,
                      dst_indices: np.ndarray,
                      rng: Optional[np.random.Generator] = None) -> Tensor:
        """Mixed-curvature distances for aligned (src, dst) index arrays."""
        src_points = self.encode(relation.source_type, src_indices, rng)
        dst_points = self.encode(relation.target_type, dst_indices, rng)
        return self.scorer.distance(relation, src_points, relation.source_type,
                                    dst_points, relation.target_type)

    def similarity(self, relation: Relation, src_indices: np.ndarray,
                   dst_indices: np.ndarray,
                   rng: Optional[np.random.Generator] = None) -> Tensor:
        """Fermi–Dirac link probability σ(t(r − dist)) (paper §IV-B-3)."""
        distance = self.pair_distance(relation, src_indices, dst_indices, rng)
        return fermi_dirac(distance, self.config.fermi_radius,
                           self.config.fermi_temperature)

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
                      plans) -> Tuple[List[Tensor], List[Tensor],
                                      List[Tensor]]:
        """Dedup encoding: one unique encode per endpoint role, gathered.

        The flattened ``(B, K)`` negative block overlaps heavily with the
        positives and with itself (negatives repeat across rows, walks
        revisit hot nodes), so ``pos ∪ neg`` is merged into a single
        deduplicated frontier encode per node type; the source set is
        deduplicated separately.  For the four cross-type relations that
        *is* one encode per node type.  For same-type relations
        (``q2q``/``i2i``) the source role deliberately keeps its own
        neighbour draws: collapsing source and target onto shared draws
        makes ``pos_sim`` and ``neg_sim`` move on common random numbers,
        which shrinks the variance of their difference and starves the
        margin hinge of gradient events — measured as a ~5-point
        next-day-AUC drop on the tiny pipeline, reproducible across
        seeds.
        """
        relation = group.relation
        batch = group.src_idx.size
        uniq_src, inv_src = np.unique(group.src_idx, return_inverse=True)
        plan = self._resolve_plan(plans, "source", relation.source_type)
        # use_draw_cache=False: a cross-step draw cache keys only on the
        # node, so letting the source role read it would re-couple both
        # endpoints of a same-type relation onto shared draws
        points = self.encode(relation.source_type, uniq_src, rng, plan=plan,
                             use_draw_cache=False)
        src_points = [ops.gather(p, inv_src) for p in points]
        merged = np.concatenate([group.pos_idx, group.neg_idx.ravel()])
        uniq_tgt, inv_tgt = np.unique(merged, return_inverse=True)
        plan = self._resolve_plan(plans, "target", relation.target_type)
        points = self.encode(relation.target_type, uniq_tgt, rng, plan=plan)
        pos_points = [ops.gather(p, inv_tgt[:batch]) for p in points]
        neg_points = [ops.gather(p, inv_tgt[batch:]) for p in points]
        return src_points, pos_points, neg_points

    def loss(self, samples: Union[SampleBatch, Sequence[TrainingSample]],
             rng: Optional[np.random.Generator] = None,
             plans: Optional[Dict[NodeType, EncodePlan]] = None) -> Tensor:
        """Triplet loss over a batch (paper Eq. 15 + Eq. 16 regulariser).

        Accepts a :class:`SampleBatch` from the array-native sampling
        plane directly, or a sequence of :class:`TrainingSample` from
        the per-pair graph API (grouped per relation).  The
        ``src``/``pos``/``neg`` index sets are merged into one
        deduplicated encode per endpoint role and the rows are gathered
        back out.  ``plans`` optionally supplies pre-built
        :class:`~repro.models.plan.EncodePlan` objects whose captured
        neighbour draws the encodes replay, keyed either by
        :class:`NodeType` (the hook the recursive-oracle parity tests
        use) or by endpoint role — ``"source"`` / ``"target"`` (role
        keys win, and are the only way to give the two endpoints of a
        same-type relation distinct draws).  Without ``plans`` each
        encode samples its own draws from ``rng``.
        """
        rng = rng or self.rng
        cfg = self.config
        total = None
        count = 0

        for group in as_sample_batches(samples):
            relation = group.relation
            src_idx = group.src_idx
            pos_idx = group.pos_idx
            neg_idx = group.neg_idx
            batch, k = neg_idx.shape

            src_points, pos_points, neg_points = self._encode_group(
                group, rng, plans)

            # repeat source points K times to align with flattened negatives
            rep = np.repeat(np.arange(batch), k)
            src_rep = [p[rep] for p in src_points]

            pos_dist = self.scorer.distance(
                relation, src_points, relation.source_type,
                pos_points, relation.target_type)
            neg_dist = self.scorer.distance(
                relation, src_rep, relation.source_type,
                neg_points, relation.target_type)

            pos_sim = fermi_dirac(pos_dist, cfg.fermi_radius,
                                  cfg.fermi_temperature)
            neg_sim = fermi_dirac(neg_dist, cfg.fermi_radius,
                                  cfg.fermi_temperature)
            pos_rep = pos_sim[rep]
            hinge = ops.relu(cfg.margin + neg_sim - pos_rep)   # note below
            group_loss = ops.sum(hinge)

            if cfg.regularization > 0:
                # curved-space regulariser (Eq. 16): pull points toward
                # the origin of each subspace to stay in stable zones
                reg = None
                for points, node_type in ((src_points, relation.source_type),
                                          (pos_points, relation.target_type),
                                          (neg_points, relation.target_type)):
                    manifold = self.node_manifolds[node_type]
                    origin_like = [Tensor(np.zeros(p.shape)) for p in points]
                    dists = [factor.dist(p, o) for factor, p, o in
                             zip(manifold.factors, points, origin_like)]
                    term = ops.sum(ops.concatenate(dists, axis=-1))
                    reg = term if reg is None else reg + term
                group_loss = group_loss + cfg.regularization * reg

            total = group_loss if total is None else total + group_loss
            count += batch * k
        if total is None:
            return Tensor(np.asarray(0.0))
        return total / max(count, 1)

    # -- inference helpers ----------------------------------------------------------

    def build_full_plan(self, node_type: NodeType,
                        rng: Optional[np.random.Generator] = None,
                        draw_cache: Optional[NeighborDrawCache] = None
                        ) -> EncodePlan:
        """One :class:`EncodePlan` covering every node of ``node_type``.

        The sampling phase of offline inference: per-level unique
        frontiers over the full graph, draws captured once.  Passing a
        :class:`NeighborDrawCache` reuses draws across refreshes
        (GraphSAGE-style cached supports); the default is a fixed-seed
        generator so repeated offline materialisations are
        deterministic.
        """
        rng = rng or np.random.default_rng(12345)
        return build_full_graph_plan(self.graph, node_type,
                                     self.config.gcn_layers,
                                     self.config.neighbor_samples, rng,
                                     draw_cache=draw_cache)

    def encode_all(self, node_type: NodeType,
                   rng: Optional[np.random.Generator] = None,
                   plan: Optional[EncodePlan] = None) -> List[np.ndarray]:
        """Subspace embeddings for the whole vocabulary, plan-at-once.

        Builds (or reuses) one full-graph plan and runs the encoder's
        compute phase on it under ``no_grad`` — ``gcn_layers + 1``
        vocabulary passes instead of ``N / batch_size`` recursive
        mini-batches, and no tape.  Returns M arrays of shape
        ``(N, d_m)`` in vocabulary order; handed a partial ``plan``,
        rows follow ``plan.indices`` instead (the same contract as
        :meth:`encode` with a plan).
        """
        manifold = self.node_manifolds[node_type]
        if self.graph.num_nodes[node_type] == 0:
            return [np.zeros((0, factor.dim)) for factor in manifold.factors]
        if plan is None:
            plan = self.build_full_plan(node_type, rng)
        with no_grad():
            points = self.encoder.encode(node_type, plan.indices, plan=plan)
        return [p.data for p in points]

    def parameters(self) -> Iterable[Parameter]:
        yield from self.encoder.parameters()
        yield from self.scorer.parameters()

    def constrain(self) -> None:
        """Clamp all trainable curvatures after an optimiser step."""
        self.encoder.constrain()
        self.scorer.constrain()

    def curvature_report(self) -> Dict[str, List[float]]:
        """Learned curvatures per node type and edge space (for analysis)."""
        report: Dict[str, List[float]] = {}
        for node_type, manifold in self.node_manifolds.items():
            report["node:%s" % node_type.value] = manifold.kappas()
        for key, manifold in self.scorer.edge_manifolds.items():
            name = key if isinstance(key, str) else key.value
            report["edge:%s" % name] = manifold.kappas()
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
