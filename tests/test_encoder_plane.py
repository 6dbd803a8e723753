"""Frontier encoder vs the recursive oracle: parity, plans, kernels.

The frontier encoder must compute *exactly* the same function as the
recursive oracle (``tests/reference/encoder.py``) when both replay the
neighbour draws captured in an
:class:`~repro.models.plan.EncodePlan` — identical loss, gradients equal
on every parameter — while recording a strictly smaller tape.  The
fused geometry kernels are gradchecked term-by-term against the
composed micro-op chains they replace.
"""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.tensor import Parameter, Tensor
from repro.geometry import fast
from repro.geometry import stereographic as st
from repro.geometry.manifold import UnifiedManifold
from repro.graph.sampling import SampleBatch
from repro.graph.schema import NodeType, Relation
from repro.models import make_model
from repro.models.encoder import NodeEncoder
from repro.models.plan import NeighborDrawCache, build_encode_plan
from repro.pipeline.config import PipelineConfig
from repro.training import Trainer, TrainerConfig

from reference.encoder import RecursiveAMCAD


def _models_pair(graph, **overrides):
    """The model and its recursive oracle (same config, identical seeds)."""
    kwargs = dict(num_subspaces=2, subspace_dim=4, seed=0, gcn_layers=2)
    kwargs.update(overrides)
    frontier = make_model("amcad", graph, **kwargs)
    return frontier, RecursiveAMCAD(graph, frontier.config)


def _shared_plans(model, batch):
    """Per-node-type plans over the union of the batch's index sets."""
    rel = batch.relation
    per_type = {}
    per_type.setdefault(rel.source_type, []).append(batch.src_idx)
    per_type.setdefault(rel.target_type, []).extend(
        [batch.pos_idx, batch.neg_idx.ravel()])
    return {t: model.encoder.build_plan(t, np.unique(np.concatenate(parts)),
                                        np.random.default_rng(7))
            for t, parts in per_type.items()}


def _batch(relation, rng, n_src, n_tgt, batch=24, k=5):
    return SampleBatch(relation,
                       rng.integers(0, n_src, size=batch),
                       rng.integers(0, n_tgt, size=batch),
                       rng.integers(0, n_tgt, size=(batch, k)))


class TestPlaneParity:
    @pytest.mark.parametrize("relation", [Relation.Q2Q, Relation.Q2A])
    def test_loss_and_gradients_match_with_shared_plan(self, train_graph,
                                                       relation):
        frontier, recursive = _models_pair(train_graph)
        rng = np.random.default_rng(3)
        batch = _batch(relation, rng,
                       train_graph.num_nodes[relation.source_type],
                       train_graph.num_nodes[relation.target_type])
        plans = _shared_plans(frontier, batch)

        loss_f = frontier.loss(batch, rng=np.random.default_rng(9),
                               plans=plans)
        loss_r = recursive.loss(batch, rng=np.random.default_rng(9),
                                plans=plans)
        assert loss_f.item() == pytest.approx(loss_r.item(), abs=1e-12)

        loss_f.backward()
        loss_r.backward()
        params_f = list(frontier.parameters())
        params_r = list(recursive.parameters())
        assert len(params_f) == len(params_r)
        touched = 0
        for pf, pr in zip(params_f, params_r):
            if pf.grad is None and pr.grad is None:
                continue
            assert pf.grad is not None and pr.grad is not None
            np.testing.assert_allclose(pf.grad, pr.grad, atol=1e-8)
            touched += 1
        assert touched > 0

    def test_encode_matches_with_shared_plan(self, train_graph):
        frontier, recursive = _models_pair(train_graph)
        indices = np.array([0, 5, 3, 5, 0, 7])     # duplicates on purpose
        plan = frontier.encoder.build_plan(NodeType.QUERY, indices,
                                           np.random.default_rng(42))
        a = frontier.encode(NodeType.QUERY, indices, plan=plan)
        b = recursive.encode(NodeType.QUERY, indices, plan=plan)
        for pa, pb in zip(a, b):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-12)

    def test_frontier_tape_strictly_smaller(self, train_graph):
        frontier, recursive = _models_pair(train_graph)
        rng = np.random.default_rng(5)
        batch = _batch(Relation.Q2I, rng,
                       train_graph.num_nodes[NodeType.QUERY],
                       train_graph.num_nodes[NodeType.ITEM])
        plans = _shared_plans(frontier, batch)
        loss_f = frontier.loss(batch, rng=np.random.default_rng(1),
                               plans=plans)
        loss_r = recursive.loss(batch, rng=np.random.default_rng(1),
                                plans=plans)
        assert loss_f.graph_size() < loss_r.graph_size()

    def test_tape_budget_against_composed_mobius_project(self, train_graph,
                                                         monkeypatch):
        """Host-independent tape gate: the train_deep loss shape (64 x 6,
        two GCN rounds) must stay under 0.55x the tape it records with
        the composed Möbius-add / project chains, at equal loss and
        gradients."""
        model = make_model("amcad", train_graph, num_subspaces=2,
                           subspace_dim=4, seed=0, gcn_layers=2)
        batch = _batch(Relation.Q2A, np.random.default_rng(3),
                       train_graph.num_nodes[NodeType.QUERY],
                       train_graph.num_nodes[NodeType.AD], batch=64, k=6)
        plans = _shared_plans(model, batch)
        params = list(model.parameters())

        def run():
            for param in params:
                param.zero_grad()
            loss = model.loss(batch, rng=np.random.default_rng(9),
                              plans=plans)
            loss.backward()
            return loss.item(), loss.graph_size(), [
                None if p.grad is None else p.grad.copy() for p in params]

        loss_f, nodes_f, grads_f = run()
        monkeypatch.setattr(
            UnifiedManifold, "mobius_add",
            lambda self, x, y: st.mobius_add(x, y, self.kappa))
        monkeypatch.setattr(
            UnifiedManifold, "project",
            lambda self, x: st.project(x, self.kappa))
        loss_c, nodes_c, grads_c = run()

        assert loss_f == pytest.approx(loss_c, abs=1e-12)
        assert nodes_f <= 0.55 * nodes_c
        for got, want in zip(grads_f, grads_c):
            assert (got is None) == (want is None)
            if got is not None:
                np.testing.assert_allclose(got, want, atol=1e-9)

    def test_frontier_plane_is_deterministic(self, train_graph):
        def run():
            model = make_model("amcad", train_graph, num_subspaces=2,
                               subspace_dim=4, seed=0, gcn_layers=1)
            config = TrainerConfig(steps=4, batch_size=16, seed=3)
            return Trainer(model, config).train().losses

        assert run() == run()


class TestGraphSize:
    def test_counts_distinct_tape_nodes(self):
        a = Parameter(np.ones(3))
        b = Parameter(np.ones(3))
        out = ops.sum(a * b + a)
        # nodes: a, b, a*b, (a*b)+a, sum -> 5 (a counted once)
        assert out.graph_size() == 5

    def test_leaf_graph_is_one(self):
        assert Parameter(np.ones(2)).graph_size() == 1


class TestEncodePlan:
    @pytest.fixture(scope="class")
    def plan(self, train_graph):
        return build_encode_plan(train_graph, NodeType.QUERY,
                                 np.array([3, 1, 3, 8]), layers=2,
                                 neighbor_samples=4,
                                 rng=np.random.default_rng(0))

    def test_frontiers_are_sorted_unique(self, plan):
        for level in plan.levels:
            for frontier in level.frontiers.values():
                assert np.array_equal(frontier, np.unique(frontier))

    def test_gather_maps_resolve_to_neighbor_ids(self, plan):
        for l in range(1, plan.layers + 1):
            level = plan.levels[l]
            below = plan.levels[l - 1]
            for t, frontier in level.frontiers.items():
                self_map = level.self_maps[t]
                assert np.array_equal(below.frontiers[t][self_map], frontier)
                for block in level.blocks[t]:
                    if block.gather is None:
                        assert block.mask.sum() == 0
                        continue
                    resolved = below.frontiers[block.dst_type][block.gather]
                    assert np.array_equal(resolved,
                                          block.neigh_ids.ravel())

    def test_output_map_covers_duplicates(self, plan):
        top = plan.levels[plan.layers].frontiers[NodeType.QUERY]
        assert np.array_equal(top[plan.output_map()], plan.indices)

    def test_output_map_rejects_uncovered_indices(self, plan):
        with pytest.raises(ValueError):
            plan.output_map(np.array([9999]))

    def test_lookup_replays_block_draws(self, plan):
        level = plan.levels[plan.layers]
        block = level.blocks[NodeType.QUERY][0]
        ids, mask = plan.lookup(plan.layers - 1, NodeType.QUERY,
                                np.array([3, 8, 3]), block.dst_type)
        frontier = level.frontiers[NodeType.QUERY]
        rows = [int(np.searchsorted(frontier, v)) for v in (3, 8, 3)]
        assert np.array_equal(ids, block.neigh_ids[rows])
        assert np.array_equal(mask, block.mask[rows])

    def test_num_encoded_below_recursive_blowup(self, train_graph, plan):
        # the recursive oracle touches (1 + |types|·k)^L per node; the
        # dedup frontier must stay below that on a multi-layer plan
        per_node = (1 + 3 * plan.neighbor_samples) ** plan.layers
        assert plan.num_encoded() < 3 * per_node


class TestDrawCache:
    def test_draws_are_reused_until_cleared(self, train_graph):
        cache = NeighborDrawCache()
        indices = np.arange(10)
        first = cache.sample(np.random.default_rng(0), train_graph, 0,
                             NodeType.QUERY, indices, NodeType.ITEM, 4)
        second = cache.sample(np.random.default_rng(99), train_graph, 0,
                              NodeType.QUERY, indices, NodeType.ITEM, 4)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        cache.clear()
        third = cache.sample(np.random.default_rng(99), train_graph, 0,
                             NodeType.QUERY, indices, NodeType.ITEM, 4)
        assert not np.array_equal(first[0], third[0])

    def test_trainer_plan_refresh_scopes_cache_to_the_loop(self, train_graph):
        model = make_model("amcad", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        trainer = Trainer(model, TrainerConfig(steps=3, batch_size=8, seed=0,
                                               plan_refresh=2))
        seen = []
        original = trainer.model.loss
        trainer.model.loss = lambda *a, **k: (
            seen.append(model.encoder.draw_cache), original(*a, **k))[1]
        report = trainer.train()
        assert len(report.losses) == 3
        assert np.isfinite(report.losses).all()
        # attached during every step, detached once the loop returns
        assert all(cache is not None for cache in seen)
        assert model.encoder.draw_cache is None

    def test_plan_refresh_validated(self, train_graph):
        model = make_model("amcad", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        with pytest.raises(ValueError, match="plan_refresh"):
            Trainer(model, TrainerConfig(plan_refresh=0))

    def test_trainer_detaches_stale_cache(self, train_graph):
        model = make_model("amcad", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        model.encoder.draw_cache = NeighborDrawCache()   # leftover state
        Trainer(model, TrainerConfig(plan_refresh=1))
        assert model.encoder.draw_cache is None

    def test_source_role_bypasses_cache(self, train_graph):
        model = make_model("amcad", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        model.encoder.draw_cache = NeighborDrawCache()
        indices = np.arange(6)
        plan_a = model.encoder.build_plan(NodeType.QUERY, indices,
                                          np.random.default_rng(0))
        plan_b = model.encoder.build_plan(NodeType.QUERY, indices,
                                          np.random.default_rng(1),
                                          use_draw_cache=False)
        level = plan_a.layers
        block_a = plan_a.levels[level].blocks[NodeType.QUERY][0]
        block_b = plan_b.levels[level].blocks[NodeType.QUERY][0]
        assert not np.array_equal(block_a.neigh_ids, block_b.neigh_ids)


class TestGatherGradcheck:
    def test_matches_numerical_gradient(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(6, 3))
        index = np.array([0, 2, 2, 5, 0])
        upstream = rng.normal(size=(5, 3))

        param = Parameter(table.copy())
        out = ops.gather(param, index)
        out.backward(upstream)

        eps = 1e-6
        numeric = np.zeros_like(table)
        for i in np.ndindex(*table.shape):
            bumped = table.copy()
            bumped[i] += eps
            plus = np.sum(bumped[index] * upstream)
            bumped[i] -= 2 * eps
            minus = np.sum(bumped[index] * upstream)
            numeric[i] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(param.grad, numeric, atol=1e-8)

    def test_repeated_rows_accumulate(self):
        param = Parameter(np.zeros((3, 2)))
        out = ops.gather(param, np.array([1, 1, 1]))
        out.backward(np.ones((3, 2)))
        np.testing.assert_array_equal(param.grad,
                                      [[0, 0], [3, 3], [0, 0]])


    @pytest.mark.parametrize("index_shape", [(7,), (4, 3), (0,)])
    @pytest.mark.parametrize("op", [ops.gather, ops.getitem])
    def test_bincount_scatter_matches_add_at(self, op, index_shape):
        rng = np.random.default_rng(1)
        index = rng.integers(-5, 5, size=index_shape)   # repeats, negatives
        upstream = rng.normal(size=index_shape + (3,))
        param = Parameter(rng.normal(size=(5, 3)))
        op(param, index).backward(upstream)
        want = np.zeros((5, 3))
        np.add.at(want, index, upstream)
        np.testing.assert_allclose(param.grad, want, atol=1e-15)

    def test_other_keys_keep_add_at(self):
        rng = np.random.default_rng(2)
        for shape, key in (((4, 3), (slice(1, 3), 0)),       # basic index
                           ((4, 3), np.array([True, False, True, True])),
                           ((6,), np.array([1, 1, 4])),       # 1-D table
                           ((3, 2, 2), np.array([2, 0, 2]))):  # 3-D table
            param = Parameter(rng.normal(size=shape))
            out = ops.getitem(param, key)
            upstream = rng.normal(size=out.shape)
            out.backward(upstream)
            want = np.zeros(shape)
            np.add.at(want, key, upstream)
            np.testing.assert_array_equal(param.grad, want)


_TOL = st._KAPPA_ZERO_TOL
#: both sides of the Taylor/trig branch threshold: ±_TOL itself takes the
#: Taylor branch, the nextafter values are the first floats past it
BOUNDARY_KAPPAS = (-float(np.nextafter(_TOL, 1.0)), -_TOL, _TOL,
                   float(np.nextafter(_TOL, 1.0)))
KAPPAS = (-1.3, -0.4, 0.0, 1e-6, 0.7, 2.0) + BOUNDARY_KAPPAS
#: the κ grid of the Möbius-add / project parity tests: both regimes and
#: both sides of zero inside the Taylor tolerance
FUSED_KAPPAS = (-1.0, -0.4, -1e-6, 0.0, 1e-6, 0.7) + BOUNDARY_KAPPAS


def _backward_grads(out, upstream, *params):
    """Gradients of ``params`` after ``out.backward``; untouched ones as 0."""
    out.backward(upstream)
    return [np.zeros(p.shape) if p.grad is None else p.grad for p in params]


class TestFusedKernelGradcheck:
    """Each fused kernel against its composed micro-op reference."""

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("name,fused,composed", [
        ("expmap0", fast.fused_expmap0, st.expmap0),
        ("logmap0", fast.fused_logmap0, st.logmap0),
    ])
    def test_radial_maps(self, kappa, name, fused, composed):
        rng = np.random.default_rng(17)
        x = rng.normal(scale=0.3, size=(5, 4))
        if name == "logmap0" and kappa < 0:
            x = x * 0.4        # keep points inside the ball
        upstream = rng.normal(size=(5, 4))

        xa, ka = Parameter(x.copy()), Parameter(np.asarray(kappa))
        xb, kb = Parameter(x.copy()), Parameter(np.asarray(kappa))
        out_f, out_c = fused(xa, ka), composed(xb, kb)
        np.testing.assert_allclose(out_f.data, out_c.data, atol=1e-12)
        assert out_f.graph_size() < out_c.graph_size()

        out_f.backward(upstream)
        out_c.backward(upstream)
        np.testing.assert_allclose(xa.grad, xb.grad, atol=1e-10)
        np.testing.assert_allclose(ka.grad, kb.grad, atol=1e-10)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_dist(self, kappa):
        rng = np.random.default_rng(23)
        x = rng.normal(scale=0.25, size=(6, 4))
        y = rng.normal(scale=0.25, size=(6, 4))
        upstream = rng.normal(size=(6, 1))

        xa, ya, ka = (Parameter(x.copy()), Parameter(y.copy()),
                      Parameter(np.asarray(kappa)))
        xb, yb, kb = (Parameter(x.copy()), Parameter(y.copy()),
                      Parameter(np.asarray(kappa)))
        out_f = fast.fused_dist(xa, ya, ka)
        out_c = st.dist_k(xb, yb, kb)
        assert out_f.shape == out_c.shape == (6, 1)
        np.testing.assert_allclose(out_f.data, out_c.data, atol=1e-12)
        assert out_f.graph_size() < out_c.graph_size()

        out_f.backward(upstream)
        out_c.backward(upstream)
        np.testing.assert_allclose(xa.grad, xb.grad, atol=1e-9)
        np.testing.assert_allclose(ya.grad, yb.grad, atol=1e-9)
        np.testing.assert_allclose(ka.grad, kb.grad, atol=1e-9)

    @pytest.mark.parametrize("kappa,scale", [
        (-1.0, 0.999),     # arctanh clamp region: ‖x‖·√-κ ≥ 1 - 1e-7
        (2.0, 1.2),        # tan clamp region: ‖x‖·√κ beyond ±1.51
    ])
    def test_saturation_branches_match(self, kappa, scale):
        # drive the clip masks so the hand-written `inside` gradient
        # terms are exercised, not just the smooth interior
        rng = np.random.default_rng(31)
        raw = rng.normal(size=(5, 4))
        x = raw / np.linalg.norm(raw, axis=-1, keepdims=True) * scale
        x[0] *= 0.2                       # keep one row in the interior
        upstream = rng.normal(size=(5, 4))
        for fused, composed in ((fast.fused_expmap0, st.expmap0),
                                (fast.fused_logmap0, st.logmap0)):
            xa, ka = Parameter(x.copy()), Parameter(np.asarray(kappa))
            xb, kb = Parameter(x.copy()), Parameter(np.asarray(kappa))
            out_f, out_c = fused(xa, ka), composed(xb, kb)
            np.testing.assert_allclose(out_f.data, out_c.data, atol=1e-12)
            out_f.backward(upstream)
            out_c.backward(upstream)
            np.testing.assert_allclose(xa.grad, xb.grad, atol=1e-9)
            np.testing.assert_allclose(ka.grad, kb.grad, atol=1e-9)

    def test_dist_saturation_branch_matches(self):
        # near-boundary hyperbolic points saturate the arctanh clamp
        rng = np.random.default_rng(37)
        raw = rng.normal(size=(4, 3))
        x = raw / np.linalg.norm(raw, axis=-1, keepdims=True) * 0.995
        y = -x * 0.99
        upstream = rng.normal(size=(4, 1))
        xa, ya, ka = (Parameter(x.copy()), Parameter(y.copy()),
                      Parameter(np.asarray(-1.0)))
        xb, yb, kb = (Parameter(x.copy()), Parameter(y.copy()),
                      Parameter(np.asarray(-1.0)))
        out_f = fast.fused_dist(xa, ya, ka)
        out_c = st.dist_k(xb, yb, kb)
        np.testing.assert_allclose(out_f.data, out_c.data, atol=1e-12)
        out_f.backward(upstream)
        out_c.backward(upstream)
        np.testing.assert_allclose(xa.grad, xb.grad, atol=1e-9)
        np.testing.assert_allclose(ya.grad, yb.grad, atol=1e-9)
        np.testing.assert_allclose(ka.grad, kb.grad, atol=1e-9)

    @pytest.mark.parametrize("kappa", FUSED_KAPPAS)
    @pytest.mark.parametrize("y_shape", [(6, 4), (4,), (1, 4)])
    def test_mobius_add(self, kappa, y_shape):
        rng = np.random.default_rng(41)
        x = rng.normal(scale=0.3, size=(6, 4))
        x[2] = 0.0                                   # a zero row
        y = rng.normal(scale=0.3, size=y_shape)
        if y.ndim == 2 and y.shape[0] > 1:
            y[2] = 0.0                               # 0 ⊕ 0
            y[4] = 0.0                               # x ⊕ 0
        upstream = rng.normal(size=(6, 4))
        xa, ya, ka = (Parameter(x.copy()), Parameter(y.copy()),
                      Parameter(np.asarray(kappa)))
        xb, yb, kb = (Parameter(x.copy()), Parameter(y.copy()),
                      Parameter(np.asarray(kappa)))
        out_f = fast.fused_mobius_add(xa, ya, ka)
        out_c = st.mobius_add(xb, yb, kb)
        np.testing.assert_array_equal(out_f.data, out_c.data)
        assert out_f.graph_size() == 4               # x, y, κ, one node
        assert out_c.graph_size() > 20
        for got, want in zip(_backward_grads(out_f, upstream, xa, ya, ka),
                             _backward_grads(out_c, upstream, xb, yb, kb)):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_mobius_add_empty_batch(self):
        xa, ka = Parameter(np.zeros((0, 4))), Parameter(np.asarray(-1.0))
        bias = Parameter(np.full(4, 0.1))
        out = fast.fused_mobius_add(xa, bias, ka)
        assert out.shape == (0, 4)
        out.backward(np.zeros((0, 4)))
        np.testing.assert_array_equal(bias.grad, np.zeros(4))
        assert ka.grad == 0.0

    @pytest.mark.parametrize("kappa", FUSED_KAPPAS)
    @pytest.mark.parametrize("rows", ["inside", "some_over", "all_over"])
    def test_project(self, kappa, rows):
        rng = np.random.default_rng(43)
        raw = rng.normal(size=(6, 4))
        unit = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        hyperbolic = kappa < -_TOL
        radius = 1.0 / np.sqrt(-kappa if hyperbolic else 1e-3)  # the ball's
        norms = {"inside": np.full(6, 0.5),
                 "some_over": np.array([0.5, 0.999, 1.5, 0.0, 0.9961, 0.99]),
                 "all_over": np.linspace(0.997, 3.0, 6)}[rows] * radius
        x = unit * norms[:, None]
        upstream = rng.normal(size=(6, 4))
        xa, ka = Parameter(x.copy()), Parameter(np.asarray(kappa))
        xb, kb = Parameter(x.copy()), Parameter(np.asarray(kappa))
        out_f = fast.fused_project(xa, ka)
        out_c = st.project(xb, kb)
        np.testing.assert_array_equal(out_f.data, out_c.data)
        clipped = hyperbolic and rows != "inside"
        if clipped:
            assert not np.array_equal(out_f.data, x)
            assert out_f.graph_size() == 3           # x, κ, one node
        else:
            assert out_f is xa                       # identity: no node
        for got, want in zip(_backward_grads(out_f, upstream, xa, ka),
                             _backward_grads(out_c, upstream, xb, kb)):
            np.testing.assert_allclose(got, want, atol=1e-12)
        if clipped:
            assert ka.grad != 0.0

    @pytest.mark.parametrize("kappa", (-1.0, 0.7) + BOUNDARY_KAPPAS)
    @pytest.mark.parametrize("rows", [0, 1])
    def test_empty_and_single_row(self, kappa, rows):
        rng = np.random.default_rng(47)
        x = rng.normal(scale=0.3, size=(rows, 4))
        y = rng.normal(scale=0.3, size=(rows, 4))
        # 1.5x the ball's radius, so hyperbolic κ clips every row
        unit = x / np.linalg.norm(x, axis=-1, keepdims=True)
        over = unit * 1.5 / np.sqrt(abs(kappa))
        for fused, composed, inputs in (
                (fast.fused_expmap0, st.expmap0, (x,)),
                (fast.fused_logmap0, st.logmap0, (0.4 * x,)),
                (fast.fused_dist, st.dist_k, (x, y)),
                (fast.fused_mobius_add, st.mobius_add, (x, y)),
                (fast.fused_project, st.project, (over,))):
            fa = [Parameter(a.copy()) for a in inputs]
            fb = [Parameter(a.copy()) for a in inputs]
            ka, kb = Parameter(np.asarray(kappa)), Parameter(np.asarray(kappa))
            out_f, out_c = fused(*fa, ka), composed(*fb, kb)
            assert out_f.shape == out_c.shape
            np.testing.assert_allclose(out_f.data, out_c.data, atol=1e-12)
            upstream = rng.normal(size=out_f.shape)
            for got, want in zip(_backward_grads(out_f, upstream, *fa, ka),
                                 _backward_grads(out_c, upstream, *fb, kb)):
                np.testing.assert_allclose(got, want, atol=1e-9)

    def test_dist_broadcasts_origin(self):
        # the Eq. 16 regulariser measures distance to a same-shape zero
        # tensor; also cover genuine broadcasting of a single row
        rng = np.random.default_rng(5)
        x = rng.normal(scale=0.2, size=(4, 3))
        y = rng.normal(scale=0.2, size=(1, 3))
        xa, ya, ka = (Parameter(x.copy()), Parameter(y.copy()),
                      Parameter(np.asarray(-0.9)))
        xb, yb, kb = (Parameter(x.copy()), Parameter(y.copy()),
                      Parameter(np.asarray(-0.9)))
        out_f = fast.fused_dist(xa, ya, ka)
        out_c = st.dist_k(xb, yb, kb)
        np.testing.assert_allclose(out_f.data, out_c.data, atol=1e-12)
        upstream = rng.normal(size=out_f.shape)
        out_f.backward(upstream)
        out_c.backward(upstream)
        np.testing.assert_allclose(ya.grad, yb.grad, atol=1e-10)
        np.testing.assert_allclose(xa.grad, xb.grad, atol=1e-10)


class TestValidationAndConfig:
    def test_vocab_sizes_rejects_empty_feature(self, train_graph):
        class Stub:
            features = {NodeType.AD: {"brand": np.empty((0,), dtype=np.int64)}}

        with pytest.raises(ValueError, match="brand.*ad|ad.*brand"):
            NodeEncoder._vocab_sizes(Stub())

    def test_plan_refresh_override_forwarded_and_validated(self):
        flipped = PipelineConfig().with_overrides(["training.plan_refresh=4"])
        assert flipped.training.plan_refresh == 4
        assert flipped.training.trainer_config().plan_refresh == 4
        with pytest.raises(ValueError, match="plan_refresh"):
            PipelineConfig().with_overrides(["training.plan_refresh=0"])
