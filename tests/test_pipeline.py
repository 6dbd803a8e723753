"""The `repro.pipeline` subsystem: config round-trips, staged runs,
artifact reload parity, and the satellite helpers."""

import dataclasses
import importlib
import json
import pathlib
import shutil
import warnings

import numpy as np
import pytest

from repro.models import list_models, make_model
from repro.pipeline import (
    ArtifactStore,
    IndexConfig,
    Pipeline,
    PipelineConfig,
    PipelineContext,
    PipelineReport,
    ServeStage,
)
from repro.serving import ServingEngine, ServingSimulator


TINY = {
    "name": "test-tiny",
    "data": {
        "days": 2, "train_days": 1, "seed": 11,
        "simulator": {"num_queries": 220, "num_items": 320, "num_ads": 90,
                      "num_users": 160, "tree_depth": 3, "tree_branching": 2},
    },
    "model": {"name": "amcad", "num_subspaces": 2, "subspace_dim": 4},
    "training": {"steps": 12, "batch_size": 32},
    "index": {"top_k": 10},
    "serving": {"measure_requests": 8, "measure_repeats": 1,
                "qps_sweep": [1000.0, 20000.0]},
    "eval": {"auc_samples": 60, "ranking_ks": [10], "max_queries": 40},
}


#: the CI-exercised canonical config
TINY_JSON = pathlib.Path(__file__).parents[1] / "examples/configs/tiny.json"


def tiny_config(**section_updates):
    payload = json.loads(json.dumps(TINY))
    for section, update in section_updates.items():
        payload.setdefault(section, {}).update(update)
    return PipelineConfig.from_dict(payload)


@pytest.fixture(scope="module")
def run_pipeline(tmp_path_factory):
    """One tiny end-to-end run with artifacts, shared by the module."""
    artifact_dir = tmp_path_factory.mktemp("pipeline-artifacts")
    pipeline = Pipeline(tiny_config(), artifact_dir=str(artifact_dir))
    pipeline.run()
    return pipeline


class TestConfig:
    def test_json_roundtrip_equality(self):
        config = tiny_config()
        assert PipelineConfig.from_json(config.to_json()) == config

    def test_default_roundtrip(self):
        config = PipelineConfig()
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_save_load(self, tmp_path):
        config = tiny_config()
        path = config.save(tmp_path / "config.json")
        assert PipelineConfig.load(path) == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline key"):
            PipelineConfig.from_dict({"trainign": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="training"):
            PipelineConfig.from_dict({"training": {"step": 10}})

    def test_unknown_simulator_key_rejected(self):
        with pytest.raises(ValueError, match="data.simulator"):
            PipelineConfig.from_dict(
                {"data": {"simulator": {"num_querys": 10}}})

    def test_unknown_model_name_rejected(self):
        with pytest.raises(ValueError, match="registered variant"):
            PipelineConfig.from_dict({"model": {"name": "amacd"}})

    def test_bad_product_signature_rejected(self):
        with pytest.raises(ValueError, match="EHSU"):
            PipelineConfig.from_dict({"model": {"name": "product:XZ"}})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="not registered"):
            PipelineConfig.from_dict({"index": {"backend": "faiss"}})

    @pytest.mark.parametrize("index", [
        {"backend_kwargs": {"bogus": 1}},
        {"backend": "ivf", "backend_kwargs": {"kmeans_iters": 0}},
        {"backend_kwargs": "oops"},
        {"backend": "sharded", "inner_backend": "ivf",
         "backend_kwargs": {"inner_kwargs": {"bogus": 1}}},
    ], ids=["unknown-kwarg", "ivf-kmeans_iters-0", "not-an-object",
            "sharded-inner-unknown-kwarg"])
    def test_bad_backend_kwargs_rejected_on_load(self, index):
        """A kwarg the configured backend (or a sharded backend's inner
        backend) cannot be constructed with fails on load, naming
        ``index.backend_kwargs`` — not in the index stage after training."""
        with pytest.raises(ValueError, match=r"index\.backend_kwargs"):
            PipelineConfig.from_dict({"index": index})
        overrides = ["index.%s=%s" % (key, json.dumps(value))
                     for key, value in index.items()]
        with pytest.raises(ValueError, match=r"index\.backend_kwargs"):
            tiny_config().with_overrides(overrides)

    def test_retired_pq_kwarg_with_bad_value_rejected_on_load(self):
        with pytest.raises(ValueError,
                           match=r"backend\.codebook_size=0.*retired"):
            PipelineConfig.from_dict(
                {"index": {"backend_kwargs": {"codebook_size": 0}}})
        with pytest.raises(ValueError,
                           match=r"index\.backend_kwargs.*codebook_size"):
            IndexConfig(backend_kwargs={"codebook_size": 0})

    @pytest.mark.parametrize("sweep", [[-5.0], [1000.0, 0.0]])
    def test_nonpositive_qps_sweep_rejected(self, sweep):
        with pytest.raises(ValueError, match=r"serving\.qps_sweep"):
            PipelineConfig.from_dict({"serving": {"qps_sweep": sweep}})

    def test_bad_serving_measurement_rejected(self):
        with pytest.raises(ValueError, match="measure_repeats"):
            PipelineConfig.from_dict({"serving": {"measure_repeats": 0}})
        with pytest.raises(ValueError, match="preclicks_per_request"):
            PipelineConfig.from_dict(
                {"serving": {"preclicks_per_request": -1}})

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError, match="serving.cache_size"):
            PipelineConfig.from_dict({"serving": {"cache_size": -3}})
        # 0 still disables the cache
        assert PipelineConfig.from_dict(
            {"serving": {"cache_size": 0}}).serving.cache_size == 0

    def test_admission_keys_validated(self):
        with pytest.raises(ValueError, match="admission_max_queue"):
            PipelineConfig.from_dict({"serving": {"admission_max_queue": 0}})
        with pytest.raises(ValueError, match="admission_deadline_ms"):
            PipelineConfig.from_dict(
                {"serving": {"admission_deadline_ms": 0}})
        with pytest.raises(ValueError, match="admission_max_batch"):
            PipelineConfig.from_dict(
                {"serving": {"admission_max_batch": -1}})
        with pytest.raises(ValueError, match="admission_priority_share"):
            PipelineConfig.from_dict(
                {"serving": {"admission_priority_share": 1.5}})

    def test_admission_keys_settable_and_forwarded(self):
        config = tiny_config().with_overrides(
            ["serving.admission_max_queue=64",
             "serving.admission_deadline_ms=20.0",
             "serving.admission_priority_share=0.5"])
        kwargs = config.serving.admission_kwargs()
        assert kwargs["max_queue"] == 64
        assert kwargs["deadline_ms"] == 20.0
        assert kwargs["priority_share"] == 0.5
        assert kwargs["k"] == config.serving.k
        # admission_max_batch=0 (the default) adopts the engine batch
        assert kwargs["max_batch"] == config.serving.max_batch_size
        explicit = config.with_overrides(["serving.admission_max_batch=3"])
        assert explicit.serving.admission_kwargs()["max_batch"] == 3

    def test_bad_day_split_rejected(self):
        with pytest.raises(ValueError, match="train_days"):
            PipelineConfig.from_dict({"data": {"days": 2, "train_days": 3}})

    def test_retired_plane_keys_dropped_on_load(self):
        """Configs published before the planes were retired keep loading."""
        config = PipelineConfig.from_dict(
            {"training": {"data_plane": "batched", "steps": 7,
                          "prefetch_workers": 2, "prefetch_depth": 3},
             "model": {"compute_plane": "frontier", "kernels": "compiled"}})
        assert config.training.steps == 7
        dumped = config.to_dict()
        for key in ("data_plane", "prefetch_workers", "prefetch_depth"):
            assert key not in dumped["training"]
        for key in ("compute_plane", "kernels"):
            assert key not in dumped["model"]
        assert PipelineConfig.from_dict(dumped) == config
        # a CLI-style override of a retired key is dropped the same way
        assert config.with_overrides(["training.prefetch_workers=4"]) == config
        for mode in ("auto", "numpy", "compiled"):
            assert config.with_overrides(["model.kernels=%s" % mode]) == config

    @pytest.mark.parametrize("key,value", [
        ("num_workers", 4), ("num_workers", 0),
        ("shard_parallelism", 1), ("shard_parallelism", 3),
        ("shard_timeout_ms", 0), ("shard_timeout_ms", 50.0),
    ])
    def test_retired_thread_pool_keys_dropped(self, key, value):
        """The index keys that sized the retired thread pools load from
        a config file and from ``--set`` at every value they accepted."""
        base = tiny_config()
        loaded = tiny_config(index={key: value})
        assert loaded == base
        assert key not in loaded.to_dict()["index"]
        assert base.with_overrides(["index.%s=%s" % (key, value)]) == base

    @pytest.mark.parametrize("section,key,value", [
        ("training", "data_plane", "looped"),
        ("model", "compute_plane", "recursive"),
        ("model", "kernels", "jit"),
        ("training", "prefetch_workers", -1),
        ("training", "prefetch_depth", 0),
        ("training", "prefetch_workers", "two"),
        ("index", "shard_parallelism", 0),
        ("index", "shard_timeout_ms", -1),
        ("index", "num_workers", "two"),
        ("index", "ef_search", 0),
    ])
    def test_retired_plane_values_rejected_by_name(self, section, key, value):
        with pytest.raises(ValueError,
                           match=r"%s\.%s.*retired" % (section, key)):
            PipelineConfig.from_dict({section: {key: value}})
        with pytest.raises(ValueError,
                           match=r"%s\.%s.*retired" % (section, key)):
            PipelineConfig().with_overrides(
                ["%s.%s=%s" % (section, key, json.dumps(value))])

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="relation"):
            PipelineConfig.from_dict({"index": {"relations": ["q2x"]}})

    def test_overrides(self):
        config = tiny_config().with_overrides(
            ["training.steps=99", "model.name=amcad_e",
             "eval.ranking_ks=[10,20]", "serving.enabled=false"])
        assert config.training.steps == 99
        assert config.model.name == "amcad_e"
        assert config.eval.ranking_ks == [10, 20]
        assert config.serving.enabled is False
        # the original is untouched
        assert tiny_config().training.steps == 12

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            tiny_config().with_overrides(["training.step=99"])

    def test_override_can_introduce_free_form_keys(self):
        # num_brands is absent from TINY's simulator dict (and from the
        # all-defaults config) but is a valid SimulatorConfig field
        config = tiny_config().with_overrides(
            ["data.simulator.num_brands=10"])
        assert config.data.simulator["num_brands"] == 10
        config = PipelineConfig().with_overrides(
            ["model.overrides.gcn_layers=0"])
        assert config.model.overrides == {"gcn_layers": 0}

    def test_override_free_form_keys_still_validated(self):
        with pytest.raises(ValueError, match="data.simulator"):
            tiny_config().with_overrides(["data.simulator.num_querys=10"])

    def test_override_revalidates(self):
        with pytest.raises(ValueError, match="steps"):
            tiny_config().with_overrides(["training.steps=0"])

    @pytest.mark.parametrize("key,value", [
        ("index.batch_size", 0), ("index.batch_size", -1),
        ("eval.max_queries", 0), ("eval.max_queries", -1),
    ])
    def test_sizes_below_one_rejected_by_name(self, key, value):
        """A non-positive index batch or eval query cap fails on load,
        not as a zero range step or a bogus publish in a later stage."""
        section, name = key.split(".")
        with pytest.raises(ValueError, match=r"%s must be >= 1" % key):
            PipelineConfig.from_dict({section: {name: value}})
        with pytest.raises(ValueError, match=r"%s must be >= 1" % key):
            tiny_config().with_overrides(["%s=%d" % (key, value)])

    def test_shard_keys_validated(self):
        with pytest.raises(ValueError, match="num_shards"):
            PipelineConfig.from_dict({"index": {"num_shards": 0}})
        with pytest.raises(ValueError,
                           match=r"index\.shard_parallelism=0.*retired"):
            PipelineConfig.from_dict({"index": {"shard_parallelism": 0}})
        with pytest.raises(ValueError, match="inner_backend"):
            PipelineConfig.from_dict({"index": {"inner_backend": "sharded"}})
        with pytest.raises(ValueError, match="inner_backend"):
            PipelineConfig.from_dict({"index": {"inner_backend": "faiss"}})

    def test_sharded_backend_accepted_and_settable(self):
        config = tiny_config().with_overrides(
            ["index.backend=sharded", "index.num_shards=4",
             "index.inner_backend=exact", "index.shard_parallelism=2"])
        assert config.index.backend == "sharded"
        assert config.index.num_shards == 4
        kwargs = config.index.resolved_backend_kwargs()
        # the retired shard_parallelism override is dropped, not folded in
        assert kwargs == {"num_shards": 4, "inner_backend": "exact"}
        assert "shard_parallelism" not in config.to_dict()["index"]
        assert config.index.serving_shards == 4
        # JSON round-trip carries the shard keys
        assert PipelineConfig.from_json(config.to_json()) == config

    def test_shard_kwargs_only_fold_in_for_sharded_backend(self):
        config = tiny_config()
        assert config.index.backend == "exact"
        assert config.index.resolved_backend_kwargs() == {}
        assert config.index.serving_shards == 1

    def test_explicit_backend_kwargs_win(self):
        config = tiny_config(index={"backend": "sharded", "num_shards": 2,
                                    "backend_kwargs": {"num_shards": 5}})
        assert config.index.resolved_backend_kwargs()["num_shards"] == 5


class TestPipelineRun:
    def test_stage_order_and_report(self, run_pipeline):
        report = run_pipeline.report
        assert [s.name for s in report.stages] == [
            "data", "graph", "train", "index", "serve", "eval"]
        assert report.total_seconds > 0
        assert len(report.training_losses) == 12
        assert np.isfinite(report.final_loss)
        assert 0.0 <= report.next_auc <= 100.0
        assert report.service_seconds > 0
        assert report["serve"].info["fleet_workers"] >= 1
        assert len(report["serve"].info["qps_sweep"]) == 2

    def test_service_probe_replays_nothing(self, run_pipeline, monkeypatch):
        """``measure_repeats`` widens the probe: only a signature the
        seeded stream happens to draw twice can be a cache hit."""
        # one request a batch: duplicates inside a batch both miss
        config = tiny_config(serving={"measure_requests": 20,
                                      "measure_repeats": 3,
                                      "preclicks_per_request": 0,
                                      "max_batch_size": 1})
        drawn = []
        serve = ServingEngine.serve

        def recording_serve(self, queries, preclicks=None, k=20):
            drawn.extend((int(q), tuple(p))
                         for q, p in zip(queries, preclicks))
            return serve(self, queries, preclicks, k=k)

        monkeypatch.setattr(ServingEngine, "serve", recording_serve)
        ctx = PipelineContext(config=config,
                              index_set=run_pipeline.ctx.index_set)
        info = ServeStage().run(ctx)
        assert len(drawn) == 60
        duplicates = len(drawn) - len(set(drawn))
        assert 0 < duplicates < 30
        assert ctx.engine.stats.cache_hits == duplicates
        assert info["cache_hit_rate"] == pytest.approx(duplicates / 60)

    def test_tiny_json_admission_probe_does_not_hold_requests(
            self, tmp_path):
        """The shipped tiny config's serve-stage probe sheds nothing and
        dispatches when the worker frees; under fill-or-deadline its ~10
        requests sat out most of the 50 ms deadline (p50 ~49.8 ms)."""
        config = PipelineConfig.load(TINY_JSON).with_overrides(
            ["training.steps=6", "eval.enabled=false"])
        info = Pipeline(config, artifact_dir=str(tmp_path)).run()["serve"].info
        admission = info["admission"]
        assert admission["offered"] > 0
        assert admission["shed"] == 0
        assert admission["served"] == admission["offered"]
        assert admission["mean_batch_size"] < admission["max_batch"]
        # the probe offers 60% of *batched* capacity, above what lone
        # requests sustain, so a few queue for about one service time
        assert admission["wait_ms"]["p50"] < 0.1 * admission["deadline_ms"]

    def test_artifact_layout(self, run_pipeline):
        store = run_pipeline.store
        for name in (ArtifactStore.CONFIG, ArtifactStore.MODEL,
                     ArtifactStore.INDICES, ArtifactStore.REPORT):
            assert store.has(name), name
        # the persisted report parses back and matches in shape
        loaded = store.load_report()
        assert [s.name for s in loaded.stages] == \
            [s.name for s in run_pipeline.report.stages]
        assert loaded.next_auc == pytest.approx(run_pipeline.report.next_auc)

    def test_ranking_ks_clip_to_built_width(self, tmp_path):
        # top_k=120 but only 90 ads: the q2a index is built 89 wide, so
        # hr@100 must be dropped for q2a (not mislabelled) yet kept for
        # q2i (320 items), and the artifact-reload eval must agree
        config = tiny_config(training={"steps": 8},
                             index={"top_k": 120},
                             serving={"enabled": False},
                             eval={"auc_samples": 0, "ranking_ks": [100]})
        pipeline = Pipeline(config, artifact_dir=str(tmp_path))
        info = pipeline.run()["eval"].info
        assert "q2i" in info and "hr@100" in info["q2i"]
        assert "q2a" not in info
        reloaded = Pipeline.from_artifacts(tmp_path).evaluate()
        assert "q2a" not in reloaded
        assert reloaded["q2i"]["hr@100"] == \
            pytest.approx(info["q2i"]["hr@100"])

    def test_report_json_roundtrip(self, run_pipeline):
        report = run_pipeline.report
        payload = json.loads(json.dumps(report.to_dict()))
        again = PipelineReport.from_dict(payload)
        assert again.next_auc == pytest.approx(report.next_auc)
        assert again.summary() == report.summary()


class TestFromArtifacts:
    def test_serving_parity_with_in_memory(self, run_pipeline):
        """The reloaded pipeline returns the same ads as the in-memory one."""
        served = Pipeline.from_artifacts(run_pipeline.store.root)
        assert served.ctx.index_set.model is None  # truly model-free
        rng = np.random.default_rng(5)
        queries = rng.integers(220, size=12)
        preclicks = [list(rng.integers(320, size=2)) for _ in queries]
        fresh = run_pipeline.retriever.retrieve_batch(queries, preclicks, k=8)
        reloaded = served.serve(queries, preclicks, k=8)
        for a, b in zip(fresh, reloaded):
            np.testing.assert_array_equal(a.ads, b.ads)
            np.testing.assert_allclose(a.scores, b.scores)

    def test_eval_from_artifacts_matches_run(self, run_pipeline):
        served = Pipeline.from_artifacts(run_pipeline.store.root)
        info = served.evaluate()
        assert info["next_auc"] == pytest.approx(run_pipeline.report.next_auc)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Pipeline.from_artifacts(tmp_path / "nope")

    def test_generation_published_with_retired_plane_keys_loads(
            self, run_pipeline, tmp_path):
        """An immutable generation whose ``config.json`` predates the
        plane removal still verifies, loads and serves."""
        old = ArtifactStore(shutil.copytree(run_pipeline.store.root,
                                            tmp_path / "old"))
        payload = json.loads(old.path(ArtifactStore.CONFIG).read_text())
        payload["training"].update(data_plane="batched", prefetch_workers=2,
                                   prefetch_depth=2)
        payload["model"].update(compute_plane="frontier", kernels="compiled")
        old.path(ArtifactStore.CONFIG).write_text(json.dumps(payload))
        generation = old.publish_generation()
        served = Pipeline.from_artifacts(old.root)
        assert served.serving_generation == generation
        assert served.config.training == run_pipeline.config.training
        assert served.config.model == run_pipeline.config.model
        fresh = run_pipeline.retriever.retrieve_batch([3, 14], [[2], []], k=5)
        for a, b in zip(fresh, served.serve([3, 14], [[2], []], k=5)):
            np.testing.assert_array_equal(a.ads, b.ads)
        payload["training"]["data_plane"] = "looped"
        old.path(ArtifactStore.CONFIG).write_text(json.dumps(payload))
        old.publish_generation()
        with pytest.raises(ValueError, match=r"training\.data_plane.*retired"):
            Pipeline.from_artifacts(old.root)

    def test_generation_with_admission_keys_loads_and_serves(
            self, run_pipeline, tmp_path):
        """A published ``config.json`` carrying the ``serving.admission_*``
        keys loads unchanged and its controller serves the same ads."""
        old = ArtifactStore(shutil.copytree(run_pipeline.store.root,
                                            tmp_path / "old"))
        payload = json.loads(old.path(ArtifactStore.CONFIG).read_text())
        payload["serving"].update({"admission_deadline_ms": 250.0,
                                   "admission_max_batch": 4})
        old.path(ArtifactStore.CONFIG).write_text(json.dumps(payload))
        generation = old.publish_generation()
        served = Pipeline.from_artifacts(old.root)
        assert served.serving_generation == generation
        assert served.config.serving.admission_deadline_ms == 250.0
        assert served.config.serving.admission_max_batch == 4
        controller = served.make_admission_controller(keep_results=True)
        assert controller.deadline == pytest.approx(0.25)
        assert controller.max_batch == 4
        queries, preclicks = [3, 14, 3, 27, 60], [[2], [], [5], [1, 9], []]
        for query, items in zip(queries, preclicks):
            assert controller.offer(0.0, query, items)
        controller.drain()
        # a burst: the first finds the worker idle, four queue behind it
        assert controller.stats.batch_sizes == [1, 4]
        want = run_pipeline.retriever.retrieve_batch(
            queries, preclicks, k=served.config.serving.k)
        for (_, got), expected in zip(controller.results, want):
            np.testing.assert_array_equal(got.ads, expected.ads)

    def test_ab_eval_without_control_artifacts_raises(self, run_pipeline):
        # the artifacts were produced without a control channel, so an
        # eval-time A/B request must fail loudly, not silently skip
        served = Pipeline.from_artifacts(run_pipeline.store.root)
        served.config = served.ctx.config = served.config.with_overrides(
            ['eval.ab_control="amcad_e"'])
        with pytest.raises(RuntimeError, match="no control channel"):
            served.evaluate()


class TestABPipeline:
    def test_ab_smoke(self):
        config = tiny_config(
            training={"steps": 8},
            serving={"enabled": False},
            eval={"auc_samples": 0, "ranking_ks": [],
                  "ab_control": "amcad_e", "ab_requests": 40},
        )
        report = Pipeline(config).run()
        ctr = report.ab_ctr_lift
        rpm = report.ab_rpm_lift
        assert ctr is not None and "overall" in ctr
        assert rpm is not None and "overall" in rpm
        assert report["train"].info["control_model"] == "amcad_e"
        assert report["serve"].info == {"enabled": False,
                                        "summary": "disabled"}


class TestSharedDataContext:
    def test_fork_data_skips_resimulation(self, run_pipeline):
        config = tiny_config(model={"name": "amcad_e"},
                             training={"steps": 8},
                             serving={"enabled": False},
                             eval={"auc_samples": 40, "ranking_ks": []})
        forked = Pipeline(config,
                          context=run_pipeline.ctx.fork_data(config))
        assert forked.ctx.simulator is run_pipeline.ctx.simulator
        report = forked.run()
        assert forked.ctx.train_graph is run_pipeline.ctx.train_graph
        assert report["train"].info["model"] == "amcad_e"
        # the source pipeline's trained model is untouched
        assert run_pipeline.ctx.model is not forked.ctx.model


class TestShardedPipeline:
    def test_sharded_run_matches_exact_indices(self, run_pipeline):
        """Same data + model seed, sharded index plane: identical indices,
        shard metadata in the report, serving up through shard fan-out."""
        from repro.graph.schema import Relation
        config = tiny_config(index={"backend": "sharded", "num_shards": 3,
                                    "shard_parallelism": 2, "top_k": 10})
        sharded = Pipeline(config,
                           context=run_pipeline.ctx.fork_data(config))
        report = sharded.run()
        assert report["index"].info["num_shards"] == 3
        assert report["index"].info["inner_backend"] == "exact"
        # the retired shard_parallelism key was dropped on load
        assert "shard_parallelism" not in report["index"].info
        assert report["serve"].info["num_shards"] == 3
        for relation in (Relation.Q2A, Relation.Q2I):
            assert np.array_equal(
                run_pipeline.ctx.index_set[relation].ids,
                sharded.ctx.index_set[relation].ids)
        assert sharded.ctx.engine.num_shards == 3
        assert sharded.ctx.engine.stats.batch_wall_seconds

    def test_rebuild_indices_reshards_artifacts(self, run_pipeline):
        """Model-free index refresh: re-shard persisted artifacts and
        serve identically (exact merge semantics)."""
        store_dir = str(run_pipeline.store.root)
        reloaded = Pipeline.from_artifacts(store_dir)
        try:
            before = reloaded.serve([3, 14], [[2], []], k=5)
            reloaded.config = reloaded.ctx.config = \
                reloaded.config.with_overrides(
                    ["index.backend=sharded", "index.num_shards=3"])
            info = reloaded.rebuild_indices()
            assert info["backend"] == "sharded"
            # fresh engine over the new indices
            assert reloaded.ctx.engine is None
            after = reloaded.serve([3, 14], [[2], []], k=5)
            for a, b in zip(before, after):
                assert np.array_equal(a.ads, b.ads)
            # the persisted artifacts now carry the sharded layout
            again = Pipeline.from_artifacts(store_dir)
            assert again.config.index.backend == "sharded"
            assert again.ctx.index_set.backend_name == "sharded"
            assert again.ctx.index_set.shard_bounds
        finally:
            # restore the exact layout for the other module-scoped tests
            reloaded.config = reloaded.ctx.config = \
                reloaded.config.with_overrides(["index.backend=exact"])
            reloaded.rebuild_indices()

    def test_store_written_before_the_thread_pools_retired(
            self, run_pipeline, tmp_path):
        """A generation whose ``config.json`` and ``indices.npz`` header
        carry the retired thread-pool keys loads, rebuilds and serves
        the ads of the in-memory build."""
        from repro.retrieval import IndexSet, ShardedBackend
        old = ArtifactStore(shutil.copytree(run_pipeline.store.root,
                                            tmp_path / "old"))
        payload = json.loads(old.path(ArtifactStore.CONFIG).read_text())
        payload["index"].update(
            backend="sharded", num_shards=4, inner_backend="exact",
            num_workers=2, shard_parallelism=2, shard_timeout_ms=50,
            backend_kwargs={"num_shards": 4, "parallelism": 2})
        old.path(ArtifactStore.CONFIG).write_text(json.dumps(payload))
        # the indices the parent's IndexStage wrote for that config
        written = IndexSet(run_pipeline.ctx.model, top_k=10,
                           backend="sharded",
                           backend_kwargs={"num_shards": 4}).build()
        written.backend_params = {
            "num_shards": 4, "parallelism": 2, "inner_backend": "exact",
            "shard_timeout": 0.05, "inner_kwargs": {"num_workers": 2}}
        written.save(old.path(ArtifactStore.INDICES))
        generation = old.publish_generation()

        queries, preclicks = [3, 14, 60, 27], [[2], [], [5, 1], [9]]
        want = run_pipeline.retriever.retrieve_batch(queries, preclicks, k=5)

        def assert_serves_in_memory_ads(pipeline):
            for got, expected in zip(pipeline.serve(queries, preclicks, k=5),
                                     want):
                np.testing.assert_array_equal(got.ads, expected.ads)

        served = Pipeline.from_artifacts(old.root)
        assert served.serving_generation == generation
        assert served.ctx.index_set.backend_params == written.backend_params
        # the header's kwargs still construct its backend
        assert isinstance(served.ctx.index_set.backend_factory(),
                          ShardedBackend)
        assert_serves_in_memory_ads(served)

        info = served.rebuild_indices()
        assert info["num_shards"] == 4
        for relation, index in run_pipeline.ctx.index_set.indices.items():
            np.testing.assert_array_equal(served.ctx.index_set[relation].ids,
                                          index.ids)
        assert_serves_in_memory_ads(served)
        republished = json.loads(
            (old.generation_dir(info["generation"])
             / ArtifactStore.CONFIG).read_text())
        assert not {"num_workers", "shard_parallelism",
                    "shard_timeout_ms"} & set(republished["index"])


class TestSatellites:
    def test_list_models_contents(self):
        models = list_models()
        for expected in ("amcad", "amcad_e", "hgcn", "m2gnn", "amcad-comb"):
            assert expected in models

    def test_every_listed_model_constructs(self, train_graph):
        # guards MODEL_VARIANTS against drifting from make_model's
        # dispatch: every advertised name must actually build
        for name in list_models():
            assert make_model(name, train_graph, num_subspaces=2,
                              subspace_dim=2, seed=0) is not None, name

    def test_make_model_unknown_name_lists_variants(self, train_graph):
        with pytest.raises(ValueError) as excinfo:
            make_model("amacd", train_graph)
        message = str(excinfo.value)
        assert "amcad_e" in message and "product:<SIG>" in message

    def test_size_fleet(self):
        sim = ServingSimulator(service_seconds=0.002)
        assert sim.size_fleet(50000, target_utilisation=0.8) == 125
        assert sim.num_workers == 125
        # the sized fleet actually runs at the target utilisation
        (stat,) = sim.sweep([50000])
        assert stat.utilisation == pytest.approx(0.8)
        with pytest.raises(ValueError):
            sim.size_fleet(1000, target_utilisation=0.0)
        with pytest.raises(ValueError):
            sim.size_fleet(-5)

    def test_importing_retrieval_package_does_not_warn(self):
        import repro.retrieval
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            importlib.reload(repro.retrieval)
        assert not any(issubclass(w.category, DeprecationWarning)
                       for w in caught)
