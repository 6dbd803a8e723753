"""The overlapped training plane: prefetch producer, accumulation, backward dial.

Covers the PR-6 contracts:

- ``SampleBatch``/``EncodePlan`` pickle round-trips (they cross a
  process boundary now);
- payload determinism — step payloads are pure functions of
  ``(seed, step)``, so worker count never changes the stream;
- gradient accumulation's exact equivalence to one large batch;
- the ``backward_depth`` dial: bit-identical forward, exact upper-level
  gradients, no lower-level gradients;
- the configuration guard rails (incompatible plane/cache combos).
"""

import pickle

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.graph import MetaPathWalker, NegativeSampler
from repro.graph.sampling import SampleBatch
from repro.graph.schema import NodeType
from repro.models import make_model
from repro.models.plan import build_encode_plan
from repro.training import PlanProducer, Trainer, TrainerConfig
from repro.training.prefetch import ProducerState, build_step_payload
from repro.training.trainer import TrainingReport


def _make_producer(graph, *, total_steps, num_workers=0, batch_size=16,
                   gcn_layers=1, seed=0, plan_refresh=1, depth=2):
    return PlanProducer(
        MetaPathWalker(graph), NegativeSampler(graph),
        total_steps=total_steps, batch_size=batch_size,
        gcn_layers=gcn_layers, neighbor_samples=4, seed=seed,
        num_workers=num_workers, depth=depth, plan_refresh=plan_refresh)


def _assert_plans_equal(pa, pb):
    assert pa.node_type == pb.node_type
    assert pa.layers == pb.layers
    np.testing.assert_array_equal(pa.indices, pb.indices)
    for la, lb in zip(pa.levels, pb.levels):
        assert set(la.frontiers) == set(lb.frontiers)
        for t in la.frontiers:
            np.testing.assert_array_equal(la.frontiers[t], lb.frontiers[t])
        for t in la.blocks:
            for ba, bb in zip(la.blocks[t], lb.blocks[t]):
                assert ba.dst_type == bb.dst_type
                np.testing.assert_array_equal(ba.neigh_ids, bb.neigh_ids)
                np.testing.assert_array_equal(ba.mask, bb.mask)


def _assert_payloads_equal(a, b):
    assert a.step == b.step
    assert a.batch.relation == b.batch.relation
    np.testing.assert_array_equal(a.batch.src_idx, b.batch.src_idx)
    np.testing.assert_array_equal(a.batch.pos_idx, b.batch.pos_idx)
    np.testing.assert_array_equal(a.batch.neg_idx, b.batch.neg_idx)
    assert set(a.plans) == set(b.plans) == {"source", "target"}
    for role in ("source", "target"):
        _assert_plans_equal(a.plans[role], b.plans[role])


class TestPickleRoundTrip:
    def test_sample_batch_survives_pickle(self, train_graph, rng):
        sampler = NegativeSampler(train_graph)
        walker = MetaPathWalker(train_graph)
        block = walker.sample_pair_blocks(rng, 200)[0]
        batch = sampler.sample_arrays(rng, block.relation, block.src_idx,
                                      block.dst_idx)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.relation == batch.relation
        for field in ("src_idx", "pos_idx", "neg_idx"):
            original = getattr(batch, field)
            copied = getattr(clone, field)
            assert copied.dtype == np.int64
            assert copied.shape == original.shape
            np.testing.assert_array_equal(copied, original)
        # behaves like a batch on the other side, not just raw arrays
        assert len(clone) == len(batch)
        assert clone.num_negatives == batch.num_negatives

    def test_sample_batch_revalidates_on_unpickle(self):
        batch = SampleBatch.__new__(SampleBatch)
        with pytest.raises(ValueError):
            batch.__setstate__({
                "relation": None,
                "src_idx": np.arange(4),
                "pos_idx": np.arange(4),
                "neg_idx": np.arange(4),       # not (batch, K): must fail
            })

    def test_encode_plan_survives_pickle(self, train_graph, rng):
        indices = rng.integers(train_graph.num_nodes[NodeType.QUERY], size=24)
        plan = build_encode_plan(train_graph, NodeType.QUERY, indices,
                                 layers=2, neighbor_samples=4, rng=rng)
        clone = pickle.loads(pickle.dumps(plan))
        _assert_plans_equal(plan, clone)
        assert clone.indices.dtype == np.int64
        # derived machinery still works after the round-trip
        np.testing.assert_array_equal(clone.output_map(), plan.output_map())
        ids, mask = clone.lookup(0, NodeType.QUERY,
                                 clone.levels[1].frontiers[NodeType.QUERY],
                                 NodeType.ITEM)
        ref_ids, ref_mask = plan.lookup(
            0, NodeType.QUERY, plan.levels[1].frontiers[NodeType.QUERY],
            NodeType.ITEM)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(mask, ref_mask)
        assert clone.num_encoded() == plan.num_encoded()

    def test_encode_plan_rejects_corrupt_state(self, train_graph, rng):
        plan = build_encode_plan(train_graph, NodeType.QUERY,
                                 np.arange(8), layers=1, neighbor_samples=4,
                                 rng=rng)
        state = plan.__getstate__()
        state["levels"] = state["levels"][:1]   # lost a level in transit
        with pytest.raises(ValueError, match="corrupt EncodePlan"):
            pickle.loads(pickle.dumps(plan)).__setstate__(state)


class TestStepPayloads:
    def test_payload_is_pure_function_of_seed_and_step(self, train_graph):
        def build(step):
            state = ProducerState(
                MetaPathWalker(train_graph), NegativeSampler(train_graph),
                batch_size=16, gcn_layers=1, neighbor_samples=4, seed=5)
            return build_step_payload(state, step)

        _assert_payloads_equal(build(3), build(3))
        a, b = build(0), build(1)
        assert (a.batch.relation != b.batch.relation
                or not np.array_equal(a.batch.src_idx, b.batch.src_idx)
                or not np.array_equal(a.batch.neg_idx, b.batch.neg_idx))

    def test_inline_producer_is_deterministic(self, train_graph):
        first = list(iter(_make_producer(train_graph, total_steps=3)))
        second = list(iter(_make_producer(train_graph, total_steps=3)))
        assert [p.step for p in first] == [0, 1, 2]
        for a, b in zip(first, second):
            _assert_payloads_equal(a, b)

    def test_worker_pool_matches_inline(self, train_graph):
        """Two spawned workers emit exactly the inline payload stream."""
        inline = list(iter(_make_producer(train_graph, total_steps=4)))
        with _make_producer(train_graph, total_steps=4,
                            num_workers=2) as producer:
            pooled = list(iter(producer))
        assert [p.step for p in pooled] == [0, 1, 2, 3]
        for a, b in zip(inline, pooled):
            _assert_payloads_equal(a, b)

    def test_draw_cache_reuses_within_refresh_window(self, train_graph):
        producer = _make_producer(train_graph, total_steps=4, plan_refresh=4)
        payloads = list(iter(producer))
        state = producer._state
        assert state._window == 0          # never crossed a window boundary
        # target-role plans within the window replay cached draws for
        # nodes they share
        pa = payloads[0].plans["target"]
        pb = next(p.plans["target"] for p in payloads[1:]
                  if p.plans["target"].node_type == pa.node_type)
        t = pa.node_type
        fa, fb = pa.levels[1].frontiers[t], pb.levels[1].frontiers[t]
        common = np.intersect1d(fa, fb)
        assert common.size > 0
        for ba, bb in zip(pa.levels[1].blocks[t], pb.levels[1].blocks[t]):
            np.testing.assert_array_equal(
                ba.neigh_ids[np.searchsorted(fa, common)],
                bb.neigh_ids[np.searchsorted(fb, common)])

    def test_draw_cache_window_advances(self, train_graph):
        producer = _make_producer(train_graph, total_steps=5, plan_refresh=2)
        list(iter(producer))
        assert producer._state._window == 2    # steps 4.. live in window 2

    def test_refresh_window_shorter_than_pool_rejected(self, train_graph):
        with pytest.raises(ValueError, match="plan_refresh"):
            _make_producer(train_graph, total_steps=4, num_workers=2,
                           plan_refresh=2)

    def test_producer_validates_shape(self, train_graph):
        with pytest.raises(ValueError, match="num_workers"):
            _make_producer(train_graph, total_steps=4, num_workers=-1)
        with pytest.raises(ValueError, match="depth"):
            _make_producer(train_graph, total_steps=4, depth=0)


class TestPrefetchedTrainer:
    def test_worker_count_does_not_change_training(self, train_graph):
        """Fixed seed → identical payload stream → identical losses.

        Exact equality holds between any two worker counts >= 1 (the
        payload stream is a pure function of ``(seed, step)``).  The
        synchronous path (``prefetch_workers=0``) interleaves sampling
        and encode draws on one shared stream, so it is a statistically
        equivalent reference, not a bit-equal one — that ordering
        tolerance is by design and covered by
        ``test_prefetch_converges_like_sync``.
        """
        def run(workers):
            model = make_model("amcad", train_graph, subspace_dim=4, seed=0,
                               gcn_layers=1)
            config = TrainerConfig(steps=3, batch_size=16, seed=0,
                                   prefetch_workers=workers)
            return Trainer(model, config).train()

        one, two = run(1), run(2)
        assert one.losses == two.losses

    def test_prefetch_converges_like_sync(self, train_graph):
        def run(workers):
            model = make_model("amcad", train_graph, subspace_dim=4, seed=0,
                               gcn_layers=1)
            config = TrainerConfig(steps=4, batch_size=16, seed=0,
                                   prefetch_workers=workers)
            return Trainer(model, config).train()

        sync, pre = run(0), run(2)
        assert all(np.isfinite(sync.losses)) and all(np.isfinite(pre.losses))
        assert sync.prefetch_wait_seconds == 0.0
        assert pre.prefetch_wait_seconds >= 0.0
        assert 0.0 <= pre.overlap_fraction <= 1.0
        assert pre.samples_seen == sync.samples_seen == 4 * 16

    def test_trainer_rejects_short_refresh_window(self, train_graph):
        model = make_model("amcad", train_graph, subspace_dim=4, gcn_layers=1)
        with pytest.raises(ValueError, match="plan_refresh"):
            Trainer(model, TrainerConfig(prefetch_workers=2, plan_refresh=2))

    def test_overlap_fraction_math(self):
        report = TrainingReport(losses=[1.0], wall_seconds=10.0, steps=1,
                                samples_seen=16, prefetch_wait_seconds=2.5)
        assert report.overlap_fraction == pytest.approx(0.75)
        idle = TrainingReport(losses=[1.0], wall_seconds=0.0, steps=1,
                              samples_seen=16)
        assert idle.overlap_fraction == 1.0


class TestGradientAccumulation:
    def test_two_micro_batches_equal_one_large_batch(self, train_graph):
        """K=2 accumulation == one concatenated batch, to fp round-off.

        ``gcn_layers=0`` removes neighbour draws, so both sides see the
        exact same computation modulo summation order; the loss is
        mean-normalised per batch, which the 1/K scaling composes with
        exactly.
        """
        def model0():
            return make_model("amcad", train_graph, subspace_dim=4, seed=0,
                              gcn_layers=0)

        accum = model0()
        trainer = Trainer(accum, TrainerConfig(steps=1, batch_size=16, seed=0,
                                               accumulate_steps=2))
        payloads = list(iter(trainer.make_producer(steps=1)))
        assert len(payloads) == 2       # one optimiser step, two micro
        micro = iter([(p.batch, p.plans) for p in payloads])
        accum_loss = trainer._accumulate_micro(lambda: next(micro))
        accum_grads = [None if p.grad is None else p.grad.copy()
                       for p in accum.parameters()]

        reference = model0()
        merged = [sample for p in payloads for sample in p.batch]
        loss = reference.loss(merged)
        loss.backward()
        assert accum_loss == pytest.approx(loss.item(), abs=1e-12)
        ref_grads = [None if p.grad is None else p.grad.copy()
                     for p in reference.parameters()]
        checked = 0
        for got, want in zip(accum_grads, ref_grads):
            if got is None or want is None:
                assert got is None and want is None
                continue
            np.testing.assert_allclose(got, want, atol=1e-12)
            checked += 1
        assert checked > 0

    def test_accumulation_scales_samples_seen(self, train_graph):
        model = make_model("amcad", train_graph, subspace_dim=4, gcn_layers=0)
        config = TrainerConfig(steps=2, batch_size=8, seed=0,
                               accumulate_steps=3)
        report = Trainer(model, config).train()
        assert report.steps == 2
        assert report.samples_seen == 2 * 8 * 3
        assert len(report.losses) == 2

    def test_accumulate_steps_validated(self, train_graph):
        model = make_model("amcad", train_graph, subspace_dim=4, gcn_layers=0)
        with pytest.raises(ValueError, match="accumulate_steps"):
            Trainer(model, TrainerConfig(accumulate_steps=0))


class TestBackwardDepth:
    @pytest.fixture(scope="class")
    def payload(self, train_graph):
        state = ProducerState(
            MetaPathWalker(train_graph), NegativeSampler(train_graph),
            batch_size=16, gcn_layers=2, neighbor_samples=4, seed=7)
        return build_step_payload(state, 0)

    @staticmethod
    def _backward(train_graph, payload, depth, wrap_inductive=None):
        model = make_model("amcad", train_graph, subspace_dim=4, seed=0,
                           gcn_layers=2)
        model.encoder.backward_depth = depth
        if wrap_inductive is not None:
            model.encoder.inductive = wrap_inductive(model.encoder.inductive)
        loss = model.loss(payload.batch, plans=payload.plans)
        loss.backward()
        return loss.item(), model

    def _loss_and_encoder_grads(self, train_graph, payload, depth):
        loss, model = self._backward(train_graph, payload, depth)
        grads = {key: None if p.grad is None else p.grad.copy()
                 for key, p in model.encoder.gcn_weights.items()}
        return loss, grads

    @staticmethod
    def _assert_same_gradients(model, reference):
        params = list(model.parameters())
        expected = list(reference.parameters())
        assert len(params) == len(expected)
        for got, want in zip(params, expected):
            if want.grad is None:
                assert got.grad is None
            else:
                np.testing.assert_array_equal(got.grad, want.grad)

    def test_forward_is_bit_identical_at_any_depth(self, train_graph,
                                                   payload):
        """The dial truncates the backward only: same loss at all depths."""
        full, _ = self._loss_and_encoder_grads(train_graph, payload, 0)
        for depth in (1, 2, 3):
            truncated, _ = self._loss_and_encoder_grads(train_graph, payload,
                                                        depth)
            assert truncated == full        # tolerance 0, deliberately

    def test_upper_levels_get_exact_full_gradients(self, train_graph,
                                                   payload):
        """GCN round ``l`` weights act at level ``l+1``: above the cut
        they must receive *exactly* the full-backward gradients, below
        it none at all."""
        _, full = self._loss_and_encoder_grads(train_graph, payload, 0)
        _, truncated = self._loss_and_encoder_grads(train_graph, payload, 1)
        tops = lows = 0
        for key, grad in truncated.items():
            _, layer, _ = key
            if layer == 0:                  # below the cut: constants
                assert grad is None
                if full[key] is not None:
                    lows += 1               # full backward reached it
            elif full[key] is None:
                # node type absent from the top level of both endpoint
                # plans — untouched under full backward as well
                assert grad is None
            else:                           # top GCN round: on the tape
                assert grad is not None
                np.testing.assert_array_equal(grad, full[key])
                tops += 1
        assert tops > 0 and lows > 0

    def test_depth_beyond_layers_is_full_backward(self, train_graph,
                                                  payload):
        full_loss, full = self._backward(train_graph, payload, 0)
        deep_loss, deep = self._backward(train_graph, payload, 3)
        assert deep_loss == full_loss
        self._assert_same_gradients(deep, full)

    def test_cut_at_inductive_equals_detached_inductive(self, train_graph,
                                                        payload):
        """``backward_depth = gcn_layers`` freezes level 0 only.

        That must equal a full backward whose inductive points are
        detached constants: loss and every gradient, each curvature
        included.  The level-0 tangents are still taken on the tape, so
        the node curvatures keep the ``logmap0`` share of their
        gradient."""
        def detached(inductive):
            return lambda t, indices: [Tensor(p.data)
                                       for p in inductive(t, indices)]

        cut_loss, cut = self._backward(train_graph, payload, 2)
        ref_loss, ref = self._backward(train_graph, payload, 0,
                                       wrap_inductive=detached)
        assert cut_loss == ref_loss
        self._assert_same_gradients(cut, ref)

    def test_trainer_sets_dial_on_encoder(self, train_graph):
        model = make_model("amcad", train_graph, subspace_dim=4, gcn_layers=2)
        Trainer(model, TrainerConfig(backward_depth=1))
        assert model.encoder.backward_depth == 1

    def test_trainer_trains_with_dial(self, train_graph):
        model = make_model("amcad", train_graph, subspace_dim=4, seed=0,
                           gcn_layers=2)
        config = TrainerConfig(steps=2, batch_size=8, seed=0,
                               backward_depth=1)
        report = Trainer(model, config).train()
        assert len(report.losses) == 2
        assert all(np.isfinite(report.losses))
