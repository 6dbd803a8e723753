"""Crash-safe generational artifacts: publish, verify, resolve, GC.

The store-level tests run over synthetic flat files (publishing does
not parse artifact contents); the pipeline-level tests share one tiny
end-to-end run and cover generation-bound reload, corruption detection
naming file + generation, hot swap, and the ``gc`` CLI.
"""

import json

import numpy as np
import pytest

from repro.pipeline import ArtifactStore, Pipeline, PipelineConfig
from repro.pipeline.artifacts import ArtifactCorruptionError
from repro.pipeline.cli import main as cli_main
from repro.testing.faults import FaultSpec, install, reset


@pytest.fixture(autouse=True)
def clean_injector():
    reset()
    yield
    reset()


def make_store(tmp_path, **contents):
    store = ArtifactStore(tmp_path / "art")
    defaults = {ArtifactStore.CONFIG: b'{"name": "t"}',
                ArtifactStore.INDICES: b"not-really-npz",
                ArtifactStore.MODEL: b"weights"}
    defaults.update(contents)
    for name, payload in defaults.items():
        store.path(name).write_bytes(payload)
    return store


class TestPublish:
    def test_publish_and_resolve(self, tmp_path):
        store = make_store(tmp_path)
        generation = store.publish_generation()
        assert generation == 1
        assert store.generations() == [1]
        assert store.latest_generation() == 1
        resolved = store.resolve(ArtifactStore.INDICES)
        assert resolved == store.generation_dir(1) / ArtifactStore.INDICES
        assert resolved.read_bytes() == b"not-really-npz"

    def test_manifest_checksums_every_file(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        manifest = store.load_manifest(1)
        files = manifest["files"]
        assert set(files) == {ArtifactStore.CONFIG, ArtifactStore.INDICES,
                              ArtifactStore.MODEL}
        for entry in files.values():
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0

    def test_checkpoint_never_published(self, tmp_path):
        store = make_store(tmp_path)
        store.path(ArtifactStore.CHECKPOINT).write_bytes(b"resume state")
        store.publish_generation()
        assert ArtifactStore.CHECKPOINT not in store.load_manifest(1)["files"]

    def test_generations_are_immutable_snapshots(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        store.path(ArtifactStore.MODEL).write_bytes(b"NEW weights")
        store.publish_generation()
        gen1 = store.generation_dir(1) / ArtifactStore.MODEL
        gen2 = store.generation_dir(2) / ArtifactStore.MODEL
        assert gen1.read_bytes() == b"weights"
        assert gen2.read_bytes() == b"NEW weights"

    def test_crashed_publish_leaves_no_generation(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        install(FaultSpec(site="artifacts.publish"))
        with pytest.raises(Exception):
            store.publish_generation()
        reset()
        assert store.generations() == [1]
        # ids never collide with the failed attempt and staging is gone
        assert store.publish_generation() == 2
        leftovers = [p.name for p in store.generations_root.iterdir()
                     if p.name.startswith(".staging")]
        assert leftovers == []

    def test_publish_requires_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "empty")
        with pytest.raises(FileNotFoundError, match="no artifacts"):
            store.publish_generation()


class TestVerify:
    def test_truncation_names_file_and_generation(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        target = store.generation_dir(1) / ArtifactStore.INDICES
        target.write_bytes(target.read_bytes()[: 4])
        with pytest.raises(ArtifactCorruptionError) as err:
            store.verify_generation(1)
        assert ArtifactStore.INDICES in str(err.value)
        assert "000001" in str(err.value)
        assert err.value.path == target
        assert err.value.generation == 1

    def test_bitflip_fails_checksum(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        target = store.generation_dir(1) / ArtifactStore.MODEL
        payload = bytearray(target.read_bytes())
        payload[0] ^= 0xFF
        target.write_bytes(bytes(payload))
        with pytest.raises(ArtifactCorruptionError, match="checksum"):
            store.verify_generation(1)

    def test_resolve_skips_corrupt_older_generations(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        store.publish_generation()
        # corrupt the *older* generation; latest still resolves cleanly
        (store.generation_dir(1) / ArtifactStore.MODEL).write_bytes(b"x")
        assert store.resolve(ArtifactStore.MODEL) == \
            store.generation_dir(2) / ArtifactStore.MODEL

    def test_resolve_explicit_missing_generation(self, tmp_path):
        store = make_store(tmp_path)
        store.publish_generation()
        with pytest.raises(FileNotFoundError, match="not published"):
            store.resolve(ArtifactStore.MODEL, generation=9)

    def test_resolve_flat_fallback(self, tmp_path):
        store = make_store(tmp_path)  # nothing published
        assert store.resolve(ArtifactStore.MODEL) == \
            store.path(ArtifactStore.MODEL)


class TestGC:
    def test_keeps_newest(self, tmp_path):
        store = make_store(tmp_path)
        for _ in range(4):
            store.publish_generation()
        removed = store.gc(keep=2)
        assert removed == [1, 2]
        assert store.generations() == [3, 4]

    def test_never_removes_live(self, tmp_path):
        store = make_store(tmp_path)
        for _ in range(3):
            store.publish_generation()
        removed = store.gc(keep=1, live=1)
        assert 1 not in removed
        assert 1 in store.generations()

    def test_keep_must_be_positive(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ValueError, match="keep"):
            store.gc(keep=0)

    def test_cli_gc(self, tmp_path, capsys):
        store = make_store(tmp_path)
        for _ in range(3):
            store.publish_generation()
        assert cli_main(["gc", "--artifacts", str(store.root),
                         "--keep", "1"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 generation(s)" in out
        assert "live: 000003" in out
        assert store.generations() == [3]

    def test_cli_gc_empty(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "bare")
        assert cli_main(["gc", "--artifacts", str(store.root),
                         "--keep", "1"]) == 0
        assert "no published generations" in capsys.readouterr().out


TINY_GEN = {
    "name": "gen-tiny",
    "data": {
        "days": 2, "train_days": 1, "seed": 11,
        "simulator": {"num_queries": 120, "num_items": 180, "num_ads": 60,
                      "num_users": 90, "tree_depth": 3, "tree_branching": 2},
    },
    "model": {"name": "amcad", "num_subspaces": 2, "subspace_dim": 4},
    "training": {"steps": 6, "batch_size": 32},
    "index": {"top_k": 8},
    "serving": {"measure_requests": 0},
    "eval": {"enabled": False},
}


@pytest.fixture(scope="module")
def gen_pipeline(tmp_path_factory):
    artifact_dir = tmp_path_factory.mktemp("gen-artifacts")
    config = PipelineConfig.from_dict(json.loads(json.dumps(TINY_GEN)))
    pipeline = Pipeline(config, artifact_dir=str(artifact_dir))
    pipeline.run()
    return pipeline


class TestPipelineGenerations:
    def test_run_publishes_generation(self, gen_pipeline):
        assert gen_pipeline.serving_generation == 1
        store = gen_pipeline.store
        files = store.load_manifest(1)["files"]
        assert {ArtifactStore.CONFIG, ArtifactStore.MODEL,
                ArtifactStore.INDICES, ArtifactStore.REPORT} <= set(files)

    def test_from_artifacts_binds_latest_generation(self, gen_pipeline):
        reloaded = Pipeline.from_artifacts(gen_pipeline.store.root)
        assert reloaded.serving_generation == 1
        queries = [3, 14, 15]
        a = gen_pipeline.engine.serve(queries, k=5)
        b = reloaded.serve(queries, k=5)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.ads, rb.ads)

    def test_from_artifacts_explicit_generation(self, gen_pipeline):
        reloaded = Pipeline.from_artifacts(gen_pipeline.store.root,
                                           generation=1)
        assert reloaded.serving_generation == 1
        with pytest.raises(FileNotFoundError, match="no manifest"):
            Pipeline.from_artifacts(gen_pipeline.store.root, generation=7)

    def test_truncated_indices_reported_with_file_and_generation(
            self, gen_pipeline, tmp_path):
        # work on a copy so the shared fixture stays intact
        import shutil
        root = tmp_path / "corrupt"
        shutil.copytree(gen_pipeline.store.root, root)
        store = ArtifactStore(root, create=False)
        target = store.generation_dir(1) / ArtifactStore.INDICES
        target.write_bytes(target.read_bytes()[: 100])
        with pytest.raises(ArtifactCorruptionError) as err:
            Pipeline.from_artifacts(root)
        assert "indices.npz" in str(err.value)
        assert "000001" in str(err.value)

    def test_hot_swap_flips_engine_generation(self, gen_pipeline, tmp_path):
        import shutil
        root = tmp_path / "swap"
        shutil.copytree(gen_pipeline.store.root, root)
        pipeline = Pipeline.from_artifacts(root)
        engine = pipeline.engine
        before = engine.serve([3, 14], k=5)
        new_gen = pipeline.store.publish_generation()
        swapped = pipeline.hot_swap()
        assert swapped == new_gen == pipeline.serving_generation
        assert engine.generation == new_gen
        assert engine.stats.swaps == 1
        after = engine.serve([3, 14], k=5)
        for ra, rb in zip(before, after):
            np.testing.assert_array_equal(ra.ads, rb.ads)

    def test_hot_swap_without_generations(self, tmp_path):
        config = PipelineConfig.from_dict(json.loads(json.dumps(TINY_GEN)))
        pipeline = Pipeline(config, artifact_dir=str(tmp_path / "none"))
        with pytest.raises(FileNotFoundError, match="no published"):
            pipeline.hot_swap()

    def test_cli_serve_from_generation(self, gen_pipeline, capsys):
        assert cli_main(["serve", "--artifacts",
                         str(gen_pipeline.store.root),
                         "--generation", "1", "--queries", "3"]) == 0
        out = capsys.readouterr().out
        assert "serving generation 000001" in out
        assert "query 3" in out


def _rewrite_index_header(path, **changes):
    """Rewrite an ``indices.npz`` header in place, arrays untouched."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(bytes(arrays["header"]).decode("utf-8"))
    header.update(changes)
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"),
                                     dtype=np.uint8)
    np.savez(path, **arrays)


#: constructor-only kwargs of the retired NSW graph backend, as the
#: configs and index headers published while it existed carry them
NSW_KWARGS = {"max_degree": 8, "ef_construction": 32, "insert_chunk": 64,
              "expand_hops": 2}


def _nsw_words(section):
    """The NSW backend name and kwargs a config or header part names."""
    text = json.dumps(section)
    return [w for w in ("nsw", "ef_search", *NSW_KWARGS)
            if '"%s"' % w in text]


class TestRetiredNSWBackend:
    """Stores published while ``"nsw"`` was a backend keep loading: each
    serves its own indices unchanged, and a rebuild builds IVF."""

    @pytest.mark.parametrize("layout", ["nsw", "sharded-over-nsw"])
    def test_store_naming_nsw_loads_serves_and_rebuilds_as_ivf(
            self, gen_pipeline, tmp_path, layout):
        import shutil
        from repro.retrieval import IVFBackend, ShardedBackend
        store = ArtifactStore(shutil.copytree(gen_pipeline.store.root,
                                              tmp_path / "old"))
        payload = json.loads(store.path(ArtifactStore.CONFIG).read_text())
        if layout == "nsw":
            payload["index"].update(backend="nsw", ef_search=48,
                                    backend_kwargs=dict(NSW_KWARGS))
            header = {"backend": "nsw", "backend_params": dict(
                NSW_KWARGS, ef_search=48, rerank_k=0)}
        else:
            inner = dict(NSW_KWARGS, ef_search=32, rerank_k=0)
            payload["index"].update(
                backend="sharded", num_shards=2, inner_backend="nsw",
                ef_search=32, backend_kwargs={"inner_backend": "nsw",
                                              "inner_kwargs": inner})
            header = {"backend": "sharded", "backend_params": {
                "num_shards": 2, "inner_backend": "nsw",
                "inner_kwargs": inner}}
        store.path(ArtifactStore.CONFIG).write_text(json.dumps(payload))
        _rewrite_index_header(store.path(ArtifactStore.INDICES), **header)
        generation = store.publish_generation()

        served = Pipeline.from_artifacts(store.root)
        assert served.serving_generation == generation
        store.verify_generation(generation)
        index = served.config.index
        assert (index.backend, index.inner_backend) == (
            ("ivf", "exact") if layout == "nsw" else ("sharded", "ivf"))
        assert _nsw_words(served.config.to_dict()["index"]) == []
        stored = served.ctx.index_set
        assert stored.backend_name == header["backend"].replace("nsw", "ivf")
        # the header's own kwargs still construct a backend: IVF
        backend = stored.backend_factory()
        if layout == "nsw":
            assert isinstance(backend, IVFBackend)
        else:
            assert isinstance(backend, ShardedBackend)
            assert backend.inner_backend == "ivf"

        # the stored indices serve bit-identical to the unrewritten store
        queries = [3, 14, 15, 40]
        original = Pipeline.from_artifacts(gen_pipeline.store.root)
        for got, want in zip(served.serve(queries, k=5),
                             original.serve(queries, k=5)):
            np.testing.assert_array_equal(got.ads, want.ads)
            np.testing.assert_array_equal(got.scores, want.scores)

        info = served.rebuild_indices()
        for built in served.ctx.index_set.backends.values():
            shards = built.shards if layout != "nsw" else [built]
            assert all(isinstance(s, IVFBackend) for s in shards)
        directory = store.generation_dir(info["generation"])
        config = json.loads((directory / ArtifactStore.CONFIG).read_text())
        assert _nsw_words(config["index"]) == []
        with np.load(directory / ArtifactStore.INDICES) as archive:
            rebuilt = json.loads(bytes(archive["header"]).decode("utf-8"))
        assert rebuilt["backend"] == header["backend"].replace("nsw", "ivf")
        assert _nsw_words(rebuilt) == []

    def test_retired_nsw_overrides(self, gen_pipeline):
        """``--set`` of an NSW key is dropped at any value the backend
        accepted and rejected by name otherwise."""
        config = gen_pipeline.config
        assert config.with_overrides(["index.ef_search=48"]) == config
        assert config.with_overrides(
            ["index.backend=nsw"]).index.backend == "ivf"
        assert config.with_overrides(
            ["index.backend_kwargs.max_degree=12"]) == config
        with pytest.raises(ValueError,
                           match=r"backend\.max_degree=0.*retired"):
            config.with_overrides(["index.backend_kwargs.max_degree=0"])
