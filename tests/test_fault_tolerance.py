"""Fault tolerance: degraded retrieval, chaos training, exact resume.

Drives the failure paths the PR-8 lifecycle claims to survive:

- a dead/hung index shard degrades the sharded search (healthy-shard
  merge, correct order, flagged) instead of failing it;
- serving-engine slice faults degrade to empty results, and a retry
  recovers a transient one;
- a run killed mid-training resumes from its checkpoint with losses
  bit-identical to the uninterrupted run, and checkpointing itself
  never changes what a run trains.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.graph.schema import Relation
from repro.models import make_model
from repro.retrieval import IndexSet, ShardedBackend, TwoLayerRetriever
from repro.retrieval.mnn import RelationSpace
from repro.serving.engine import ServingEngine
from repro.testing.faults import FaultSpec, install, reset
from repro.training import Trainer, TrainerConfig


@pytest.fixture(autouse=True)
def clean_injector():
    reset()
    yield
    reset()


def _space(num_sources=12, num_targets=800, dim=6, seed=3):
    rng = np.random.default_rng(seed)
    scale = 0.3
    return RelationSpace(
        relation=Relation.Q2A,
        src_embeddings=[scale * rng.standard_normal((num_sources, dim)),
                        scale * rng.standard_normal((num_sources, dim))],
        dst_embeddings=[scale * rng.standard_normal((num_targets, dim)),
                        scale * rng.standard_normal((num_targets, dim))],
        src_weights=np.full((num_sources, 2), 0.5),
        dst_weights=np.full((num_targets, 2), 0.5),
        kappas=[-0.5, 0.4],
    )


@pytest.fixture(scope="module")
def space():
    return _space()


def _healthy_reference(space, src_indices, k, excluded_ranges=(),
                       exclude_self=False):
    """Brute-force top-k over targets outside the excluded shard ranges."""
    n = space.num_targets
    ids, dists = [], []
    for src in src_indices:
        all_d = space.pair_distance(np.full(n, src), np.arange(n))
        for lo, hi in excluded_ranges:
            all_d[lo:hi] = np.inf
        if exclude_self:
            all_d[src] = np.inf
        order = np.argsort(all_d, kind="stable")[:k]
        ids.append(order)
        dists.append(all_d[order])
    return np.array(ids), np.array(dists)


class TestDegradedShardedSearch:
    SRC = np.array([0, 3, 7, 11])

    def _backend(self, space, **kwargs):
        kwargs.setdefault("num_shards", 4)
        return ShardedBackend(**kwargs).build(space)

    def test_dead_shard_merge_matches_healthy_exact(self, space):
        backend = self._backend(space)
        install(FaultSpec(site="shard.search", match={"shard": 2}))
        ids, dists = backend.search(self.SRC, k=10)
        dead = backend.shard_bounds[2]
        ref_ids, ref_dists = _healthy_reference(space, self.SRC, k=10,
                                                excluded_ranges=[dead])
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_allclose(dists, ref_dists)
        # never empty, never out of order, dead shard fully excluded
        assert np.all(np.diff(dists, axis=1) >= 0)
        assert not np.any((ids >= dead[0]) & (ids < dead[1]))
        assert backend.last_degraded
        assert backend.last_failed_shards == [2]
        assert backend.degraded_searches == 1
        assert backend.shard_errors[2] >= 1

    def test_degraded_exclude_self_drops_the_source_row(self):
        """Healthy shards holding <= k candidates must not hand back the
        source row itself (it used to survive the merge at ``inf``)."""
        base = _space(num_sources=8, num_targets=8)
        space = dataclasses.replace(base, relation=Relation.Q2Q,
                                    src_embeddings=base.dst_embeddings,
                                    src_weights=base.dst_weights)
        backend = self._backend(space)
        install(FaultSpec(site="shard.search", match={"shard": 3}))
        src = np.arange(6)
        ids, dists = backend.search(src, k=7, exclude_self=True)
        # 3 healthy shards x 2 targets, minus the source row
        assert ids.shape == dists.shape == (6, 5)
        assert not np.any(ids == src[:, None])
        assert np.all(np.isfinite(dists))
        ref_ids, ref_dists = _healthy_reference(
            space, src, k=5, excluded_ranges=[backend.shard_bounds[3]],
            exclude_self=True)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_allclose(dists, ref_dists)
        assert backend.last_failed_shards == [3]

    def test_healthy_search_flags_nothing(self, space):
        backend = self._backend(space)
        ids, dists = backend.search(self.SRC, k=10)
        ref_ids, ref_dists = _healthy_reference(space, self.SRC, k=10)
        np.testing.assert_array_equal(ids, ref_ids)
        assert not backend.last_degraded
        assert backend.degraded_searches == 0

    def test_transient_fault_recovered_by_retry(self, space):
        backend = self._backend(space, shard_retries=1)
        install(FaultSpec(site="shard.search", match={"shard": 1},
                          max_fires=1))
        ids, dists = backend.search(self.SRC, k=10)
        ref_ids, _ = _healthy_reference(space, self.SRC, k=10)
        np.testing.assert_array_equal(ids, ref_ids)
        assert not backend.last_degraded
        assert backend.shard_errors[1] == 1  # the fault did fire

    def test_hung_shard_counts_as_timeout(self, space):
        backend = self._backend(space)
        install(FaultSpec(site="shard.search", mode="hang", delay=0.0,
                          match={"shard": 0}))
        backend.search(self.SRC, k=10)
        assert backend.last_degraded
        assert backend.shard_timeouts[0] >= 1

    def test_all_shards_dead_raises(self, space):
        backend = self._backend(space)
        install(FaultSpec(site="shard.search"))
        with pytest.raises(RuntimeError, match="all"):
            backend.search(self.SRC, k=10)

    def test_outcome_callback_feeds_observer(self, space):
        """A dead shard shows in ``health()``."""
        backend = self._backend(space)
        install(FaultSpec(site="shard.search", match={"shard": 3}))
        backend.search(self.SRC, k=10)
        health = backend.health()
        assert health["degraded_searches"] == 1
        assert health["last_failed_shards"] == [3]


@pytest.fixture(scope="module")
def served_model(train_graph):
    model = make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                       seed=9)
    Trainer(model, TrainerConfig(steps=15, batch_size=32, seed=9)).train()
    return model


@pytest.fixture(scope="module")
def retriever(served_model):
    index_set = IndexSet(served_model, top_k=10).build()
    return TwoLayerRetriever(index_set, expansion_k=5, ads_per_key=5)


class TestEngineDegradation:
    QUERIES = list(range(16))
    PRECLICKS = [[] for _ in range(16)]

    def test_slice_fault_degrades_only_its_requests(self, retriever):
        healthy = ServingEngine(retriever, max_batch_size=16, num_shards=4)
        expected = healthy.serve(self.QUERIES, self.PRECLICKS, k=5)

        engine = ServingEngine(retriever, max_batch_size=16, num_shards=4)
        install(FaultSpec(site="engine.slice", match={"slice": 1}))
        results = engine.serve(self.QUERIES, self.PRECLICKS, k=5)
        assert engine.stats.degraded
        assert engine.stats.degraded_requests == 4
        assert engine.stats.degraded_batches == 1
        for i, (got, want) in enumerate(zip(results, expected)):
            if 4 <= i < 8:  # slice 1 of 4 over 16 requests
                assert got.ads.size == 0
            else:
                np.testing.assert_array_equal(got.ads, want.ads)

    def test_slice_retry_recovers(self, retriever):
        healthy = ServingEngine(retriever, max_batch_size=16, num_shards=4)
        expected = healthy.serve(self.QUERIES, self.PRECLICKS, k=5)
        engine = ServingEngine(retriever, max_batch_size=16, num_shards=4,
                               slice_retries=1)
        install(FaultSpec(site="engine.slice", match={"slice": 1},
                          max_fires=1))
        results = engine.serve(self.QUERIES, self.PRECLICKS, k=5)
        assert not engine.stats.degraded
        assert engine.stats.slice_errors == 1
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.ads, want.ads)

    def test_hot_swap_preserves_in_flight_results(self, retriever):
        """A swap between batches changes the pointer, not past answers."""
        engine = ServingEngine(retriever, max_batch_size=8, num_shards=2)
        before = engine.serve(self.QUERIES[:8], self.PRECLICKS[:8], k=5)
        engine.swap_retriever(retriever, generation=5)
        assert engine.generation == 5
        assert engine.stats.swaps == 1
        after = engine.serve(self.QUERIES[:8], self.PRECLICKS[:8], k=5)
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got.ads, want.ads)
        # the cache was cleared on swap: the second pass re-missed
        assert engine.stats.cache_misses >= 16


class TestCheckpointResume:
    @staticmethod
    def _trainer(graph, checkpoint_path=None, **overrides):
        model = make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                           seed=4)
        params = dict(steps=8, batch_size=16, seed=4, checkpoint_every=3)
        params.update(overrides)
        return Trainer(model, TrainerConfig(**params),
                       checkpoint_path=checkpoint_path)

    def _crash_at(self, trainer, step):
        original = trainer.train_step
        calls = [0]

        def crashy():
            if calls[0] == step:
                raise RuntimeError("simulated crash")
            calls[0] += 1
            return original()

        trainer.train_step = crashy

    def test_resume_is_bit_identical(self, train_graph, tmp_path):
        # the second leg resumes under the loop's one dial, a truncated
        # backward
        for leg, overrides in enumerate(
                ({}, dict(backward_depth=1, checkpoint_every=3))):
            ckpt = tmp_path / ("checkpoint-%d.npz" % leg)
            ref_path = tmp_path / ("ref-%d.npz" % leg)
            reference = self._trainer(train_graph, ref_path,
                                      **overrides).train()
            assert not ref_path.exists()  # deleted on completion
            assert reference.checkpoints_written == 2

            crashed = self._trainer(train_graph, ckpt, **overrides)
            self._crash_at(crashed, step=5)
            with pytest.raises(RuntimeError, match="simulated crash"):
                crashed.train()
            assert ckpt.exists()  # checkpoint from step 3 survived the crash

            resumed = self._trainer(train_graph, ckpt, **overrides)
            at = resumed.restore_checkpoint()
            assert at == 3
            report = resumed.train()
            assert report.resumed_from_step == 3
            assert report.steps == 5
            assert report.losses == reference.losses[3:]
            assert resumed.loss_history == reference.losses
            assert not ckpt.exists()

    def test_checkpointing_does_not_change_training(self, train_graph,
                                                    tmp_path):
        """Regression: ``checkpoint_every > 0`` used to switch the loop
        to a different sample stream, so turning checkpoints on trained
        a different model."""
        plain = self._trainer(train_graph, checkpoint_every=0)
        checkpointed = self._trainer(train_graph, tmp_path / "c.npz")
        plain_report, report = plain.train(), checkpointed.train()
        assert report.checkpoints_written == 2
        assert report.losses == plain_report.losses
        for got, want in zip(checkpointed.model.parameters(),
                             plain.model.parameters()):
            np.testing.assert_array_equal(got.data, want.data)

    def test_checkpoint_restores_pair_buffers(self, train_graph, tmp_path):
        """The leftover pairs come back per relation, in fill order —
        the order decides which relation the next batch serves."""
        ckpt = tmp_path / "checkpoint.npz"
        trainer = self._trainer(train_graph, ckpt)
        trainer.train(steps=2)
        trainer.save_checkpoint()
        resumed = self._trainer(train_graph, ckpt)
        resumed.restore_checkpoint()
        assert any(trainer._array_buffers.values())
        assert list(resumed._array_buffers) == list(trainer._array_buffers)
        for relation, chunks in trainer._array_buffers.items():
            restored = resumed._array_buffers[relation]
            assert len(restored) == min(len(chunks), 1)
            if chunks:
                for j in (0, 1):
                    np.testing.assert_array_equal(
                        restored[0][j],
                        np.concatenate([chunk[j] for chunk in chunks]))
        a, b = trainer._next_batch(), resumed._next_batch()
        assert a.relation == b.relation
        np.testing.assert_array_equal(a.neg_idx, b.neg_idx)

    def test_format_1_checkpoint_refused(self, train_graph, tmp_path):
        """Format 1 lacks the pair buffers the loop carries between
        steps, so it cannot continue a run bit-identically."""
        ckpt = tmp_path / "checkpoint.npz"
        old = self._trainer(train_graph, ckpt)
        old.train(steps=2)
        old.CHECKPOINT_FORMAT = 1
        old.save_checkpoint()
        with pytest.raises(ValueError, match="format_version 1, expected 2"):
            self._trainer(train_graph, ckpt).restore_checkpoint()

    def test_fingerprint_mismatch_rejected(self, train_graph, tmp_path):
        ckpt = tmp_path / "checkpoint.npz"
        trainer = self._trainer(train_graph, ckpt)
        trainer.train(steps=2)
        trainer.save_checkpoint()
        other = self._trainer(train_graph, ckpt, seed=5)
        with pytest.raises(ValueError, match="different config"):
            other.restore_checkpoint()

    def test_topology_excluded_from_fingerprint(self, train_graph, tmp_path):
        ckpt = tmp_path / "checkpoint.npz"
        trainer = self._trainer(train_graph, ckpt)
        trainer.train(steps=2)
        trainer.save_checkpoint()
        # a retired key is dropped on construction, never fingerprinted
        resumed = self._trainer(train_graph, ckpt, prefetch_workers=2)
        assert resumed.restore_checkpoint() == 2

    @staticmethod
    def _stamp_fingerprint(path, **keys):
        """Rewrite a checkpoint's fingerprint as a writer whose config
        still carried ``keys`` stored it."""
        with np.load(path) as data:
            arrays = dict(data)
        header = json.loads(bytes(arrays["header"]).decode("utf-8"))
        header["fingerprint"].update(keys)
        arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"),
                                         dtype=np.uint8)
        np.savez(path, **arrays)

    def test_retired_dials_resume_only_at_one(self, train_graph, tmp_path):
        """Checkpoints fingerprinted before the draw cache and gradient
        accumulation retired carry both dials; at 1 they ran the loop
        that is left, so they resume bit-identically, and at any other
        value they are refused by name."""
        uninterrupted = self._trainer(train_graph, checkpoint_every=0)
        reference = uninterrupted.train()
        ckpt = tmp_path / "checkpoint.npz"
        trainer = self._trainer(train_graph, ckpt)
        trainer.train(steps=3)
        trainer.save_checkpoint()
        self._stamp_fingerprint(ckpt, plan_refresh=1, accumulate_steps=1)
        resumed = self._trainer(train_graph, ckpt)
        assert resumed.restore_checkpoint() == 3
        assert resumed.train().losses == reference.losses[3:]
        for got, want in zip(resumed.model.parameters(),
                             uninterrupted.model.parameters()):
            np.testing.assert_array_equal(got.data, want.data)
        for key in ("plan_refresh", "accumulate_steps"):
            trainer.save_checkpoint()
            dials = dict(plan_refresh=1, accumulate_steps=1)
            dials[key] = 4
            self._stamp_fingerprint(ckpt, **dials)
            with pytest.raises(ValueError, match=r"mismatched: %s\)" % key):
                self._trainer(train_graph, ckpt).restore_checkpoint()
