"""Tests for the optimiser, trainer and incremental training."""

import dataclasses

import numpy as np
import pytest

from repro.autodiff import Parameter, ops
from repro.models import make_model
from repro.training import (
    AdaGrad,
    IncrementalTrainer,
    Trainer,
    TrainerConfig,
    WarmupSchedule,
    clip_gradients,
)


class TestClipGradients:
    def test_no_gradients_returns_zero(self):
        assert clip_gradients([Parameter(np.ones(3))], 1.0) == 0.0

    def test_returns_preclip_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 2.0)
        norm = clip_gradients([p], max_norm=1.0)
        assert np.isclose(norm, 4.0)
        assert np.isclose(np.linalg.norm(p.grad), 1.0)

    def test_under_threshold_untouched(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        clip_gradients([p], max_norm=10.0)
        assert np.allclose(p.grad, 0.1)

    def test_zero_max_norm_disables(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 5.0)
        clip_gradients([p], max_norm=0.0)
        assert np.allclose(p.grad, 5.0)


class TestWarmup:
    def test_linear_rise(self):
        schedule = WarmupSchedule(1.0, 10)
        assert schedule.rate(0) == pytest.approx(0.1)
        assert schedule.rate(4) == pytest.approx(0.5)
        assert schedule.rate(9) == pytest.approx(1.0)
        assert schedule.rate(100) == 1.0

    def test_zero_warmup_constant(self):
        schedule = WarmupSchedule(0.3, 0)
        assert schedule.rate(0) == 0.3


class TestAdaGrad:
    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            AdaGrad([])

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = AdaGrad([p], learning_rate=0.5, clip_norm=0.0)
        for _ in range(300):
            opt.zero_grad()
            loss = ops.sum(p * p)
            loss.backward()
            opt.step()
        assert np.abs(p.data).max() < 0.3

    def test_accumulator_shrinks_steps(self):
        p = Parameter(np.array([1.0]))
        opt = AdaGrad([p], learning_rate=0.1, clip_norm=0.0)
        deltas = []
        for _ in range(3):
            opt.zero_grad()
            p.grad = np.array([1.0])
            before = p.data.copy()
            opt.step()
            deltas.append(abs(p.data - before)[0])
        assert deltas[0] > deltas[1] > deltas[2]

    def test_skips_parameters_without_grad(self):
        p = Parameter(np.array([1.0]))
        q = Parameter(np.array([1.0]))
        opt = AdaGrad([p, q], learning_rate=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert q.data[0] == 1.0

    def test_num_parameters(self):
        opt = AdaGrad([Parameter(np.zeros((2, 3))), Parameter(np.zeros(4))])
        assert opt.num_parameters == 10


@pytest.mark.parametrize("key,kwargs", [
    ("steps", dict(steps=0)),
    ("batch_size", dict(batch_size=0)),
    ("learning_rate", dict(learning_rate=0.0)),
    # the next four are retired keys: dropped at any value they accepted,
    # named otherwise
    ("plan_refresh", dict(plan_refresh=0)),
    ("prefetch_workers", dict(prefetch_workers=-1)),
    ("prefetch_depth", dict(prefetch_depth=0)),
    ("accumulate_steps", dict(accumulate_steps=0)),
    ("backward_depth", dict(backward_depth=-1)),
    ("checkpoint_every", dict(checkpoint_every=-1)),
])
def test_trainer_config_rejects_invalid_values(key, kwargs):
    """The one validator every route to a trainer goes through."""
    with pytest.raises(ValueError, match=r"training\.%s" % key):
        TrainerConfig(**kwargs)


def test_trainer_config_drops_retired_keys():
    """Callers written for the retired multi-process sampler keep
    constructing; the keys are no fields and change nothing."""
    config = TrainerConfig(steps=3, prefetch_workers=2, prefetch_depth=4)
    assert config == TrainerConfig(steps=3)
    assert "prefetch_workers" not in dataclasses.asdict(config)
    assert TrainerConfig(prefetch_workers=0) == TrainerConfig()


class _BarrenWalker:
    """A walker whose meta-paths never yield a pair."""

    meta_paths = ["dead-end"]

    def __init__(self):
        self.calls = 0

    def sample_pair_blocks(self, rng, num_walks):
        self.calls += 1
        # bound the stub itself so a loop without a guard fails here
        # instead of spinning forever
        assert self.calls < 10000, "trainer kept walking without pairs"
        return []


class TestTrainer:
    def test_barren_walker_raises(self, train_graph):
        """Regression: the loop's refill ``while True`` had no exit."""
        model = make_model("amcad_e", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        walker = _BarrenWalker()
        trainer = Trainer(model, TrainerConfig(batch_size=16), walker=walker)
        with pytest.raises(RuntimeError, match="no pairs in 64 walk rounds"):
            trainer.train(1)
        assert walker.calls == 64

    @pytest.mark.parametrize("split_at", [3, 4])
    def test_split_train_calls_equal_one_call(self, train_graph, split_at):
        """Regression: a second ``train()`` call used to switch to a
        different sample stream."""
        def trainer():
            model = make_model("amcad", train_graph, num_subspaces=2,
                               subspace_dim=4, seed=0)
            return Trainer(model, TrainerConfig(batch_size=16, seed=0))

        split = trainer()
        first = split.train(split_at).losses
        losses = first + split.train(8).losses
        assert losses == trainer().train(8).losses

    def test_train_steps_is_the_lifetime_total(self, train_graph):
        """Regression: a second ``train(5)`` used to return an empty
        report (the first call counted "5 more", the second "5 in
        total"), and ``train(8)`` then trained 3 steps."""
        model = make_model("amcad_e", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        trainer = Trainer(model, TrainerConfig(batch_size=16))
        assert trainer.train(5).steps == 5
        with pytest.raises(ValueError, match=r"steps=5\b.*\b5 optimiser"):
            trainer.train(5)
        report = trainer.train(8)
        assert (report.steps, len(report.losses)) == (3, 3)
        assert report.resumed_from_step == 5
        assert len(trainer.loss_history) == 8

    def test_loss_decreases(self, train_graph):
        model = make_model("amcad_e", train_graph, num_subspaces=2,
                           subspace_dim=4, seed=0)
        trainer = Trainer(model, TrainerConfig(steps=40, batch_size=32,
                                               learning_rate=0.05, seed=0))
        report = trainer.train()
        head = np.mean(report.losses[:8])
        tail = report.mean_tail_loss
        assert tail < head, "training loss should fall (%.3f -> %.3f)" % (
            head, tail)

    def test_report_fields(self, train_graph):
        model = make_model("amcad_e", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        trainer = Trainer(model, TrainerConfig(steps=5, batch_size=16))
        report = trainer.train()
        assert report.steps == 5
        assert len(report.losses) == 5
        assert report.wall_seconds > 0
        assert report.samples_seen == 5 * 16

    def test_relation_homogeneous_batches(self, train_graph):
        model = make_model("amcad_e", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        trainer = Trainer(model, TrainerConfig(steps=3, batch_size=16, seed=1))
        batch = trainer._next_batch()
        # one relation types every row: its indices fit that relation
        num_nodes = train_graph.num_nodes
        assert len(batch) == 16
        assert batch.src_idx.max() < num_nodes[batch.relation.source_type]
        assert batch.pos_idx.max() < num_nodes[batch.relation.target_type]
        assert batch.neg_idx.max() < num_nodes[batch.relation.target_type]

    def test_curvatures_stay_in_bounds(self, train_graph):
        model = make_model("amcad", train_graph, num_subspaces=2,
                           subspace_dim=4, seed=0)
        trainer = Trainer(model, TrainerConfig(steps=15, batch_size=32,
                                               learning_rate=0.5))
        trainer.train()
        for kappa in model.node_kappas.values():
            lo, hi = kappa.bounds
            assert np.all((lo <= kappa.data) & (kappa.data <= hi))


class TestRetiredTrainerKeys:
    @pytest.mark.parametrize("key", ["plan_refresh", "prefetch_workers",
                                     "prefetch_depth", "accumulate_steps"])
    def test_reading_a_retired_key_raises(self, key):
        from repro.pipeline import PipelineConfig
        for config in (TrainerConfig(), PipelineConfig().training):
            with pytest.raises(AttributeError, match="%s was retired" % key):
                getattr(config, key)

    def test_retired_keys_still_accepted_and_dropped(self):
        config = TrainerConfig(steps=3, prefetch_workers=0, plan_refresh=1)
        assert config == TrainerConfig(steps=3)
        assert dataclasses.replace(config, steps=4).steps == 4


class TestIncrementalTrainer:
    def test_runs_across_days(self, universe, daily_logs, train_graph):
        model = make_model("amcad_e", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        inc = IncrementalTrainer(model, universe, steps_per_day=3,
                                 lru_horizon_days=1)
        results = inc.train_days(daily_logs[1:3])
        assert len(results) == 2
        assert all(r.report.steps == 3 for r in results)
        assert results[0].day == daily_logs[1].day

    def test_model_rebinds_to_new_graph(self, universe, daily_logs,
                                        train_graph):
        model = make_model("amcad_e", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        inc = IncrementalTrainer(model, universe, steps_per_day=2)
        inc.train_day(daily_logs[1])
        assert model.graph is not train_graph
        assert model.encoder.graph is model.graph

    def test_feature_exit_eventually_evicts(self, universe, daily_logs,
                                            train_graph):
        model = make_model("amcad_e", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        inc = IncrementalTrainer(model, universe, steps_per_day=1,
                                 lru_horizon_days=1)
        # seed activity, then advance with empty days -> stale features
        inc.train_day(daily_logs[1])
        from repro.data.logs import BehaviorLog
        quiet = BehaviorLog(day=9, sessions=daily_logs[2].sessions[:5])
        results = [inc.train_day(quiet) for _ in range(3)]
        assert sum(r.evicted_features for r in results) > 0
