"""Tests for model / index persistence."""

import json

import numpy as np
import pytest

from repro.graph.schema import NodeType, Relation
from repro.io import load_index_set, load_model, save_index_set, save_model
from repro.models import make_model
from repro.retrieval import IndexSet, TwoLayerRetriever
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def trained(train_graph):
    model = make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                       seed=6)
    Trainer(model, TrainerConfig(steps=15, batch_size=32, seed=6)).train()
    return model


class TestModelCheckpoint:
    def test_roundtrip_preserves_similarity(self, trained, train_graph,
                                            tmp_path):
        path = save_model(trained, tmp_path / "model.npz")
        restored = load_model(path, train_graph)
        src = np.array([0, 1, 2, 3])
        dst = np.array([4, 5, 6, 7])
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        original = trained.similarity(Relation.Q2I, src, dst, rng_a).data
        loaded = restored.similarity(Relation.Q2I, src, dst, rng_b).data
        assert np.allclose(original, loaded)

    def test_roundtrip_preserves_curvatures(self, trained, train_graph,
                                            tmp_path):
        path = save_model(trained, tmp_path / "model.npz")
        restored = load_model(path, train_graph)
        assert restored.curvature_report() == trained.curvature_report()

    def test_config_restored(self, trained, train_graph, tmp_path):
        path = save_model(trained, tmp_path / "model.npz")
        restored = load_model(path, train_graph)
        assert restored.config == trained.config

    def test_checkpoint_with_retired_plane_key_loads(self, trained,
                                                     train_graph, tmp_path):
        """Every ``model.npz`` published before the encoder planes were
        retired names the surviving plane in its header, and every one
        published before the kernel dial was retired names a kernel
        mode — ``compiled`` included, which needed numba to load."""
        def rewritten(key, value):
            with np.load(save_model(trained, tmp_path / "model.npz")) as npz:
                arrays = dict(npz)
            header = json.loads(bytes(arrays["header"]).decode("utf-8"))
            header["config"][key] = value
            arrays["header"] = np.frombuffer(
                json.dumps(header).encode("utf-8"), dtype=np.uint8)
            np.savez(tmp_path / "old.npz", **arrays)
            return tmp_path / "old.npz"

        for key, accepted, rejected in (
                ("compute_plane", ("frontier",), "recursive"),
                ("kernels", ("auto", "numpy", "compiled"), "jit")):
            for value in accepted:
                restored = load_model(rewritten(key, value), train_graph)
                assert restored.config == trained.config
                for got, want in zip(restored.parameters(),
                                     trained.parameters()):
                    np.testing.assert_array_equal(got.data, want.data)
            with pytest.raises(ValueError,
                               match=r"model\.%s=.*retired" % key):
                load_model(rewritten(key, rejected), train_graph)

    def test_wrong_universe_rejected(self, trained, tmp_path):
        from repro.data import SimulatorConfig, SponsoredSearchSimulator
        from repro.graph import build_graph
        other = SponsoredSearchSimulator(SimulatorConfig(
            num_queries=30, num_items=40, num_ads=10, num_users=20, seed=1))
        other_graph = build_graph(other.universe, other.simulate_days(1))
        path = save_model(trained, tmp_path / "model.npz")
        with pytest.raises(ValueError):
            load_model(path, other_graph)


class TestIndexPersistence:
    def test_roundtrip_lookup_identical(self, trained, tmp_path):
        index_set = IndexSet(trained, top_k=10).build(
            [Relation.Q2A, Relation.Q2I])
        path = save_index_set(index_set, tmp_path / "indices.npz")
        stored = load_index_set(path)
        for relation in (Relation.Q2A, Relation.Q2I):
            assert relation in stored
            ids_a, dists_a = index_set[relation].lookup(3)
            ids_b, dists_b = stored[relation].lookup(3)
            assert np.array_equal(ids_a, ids_b)
            assert np.allclose(dists_a, dists_b)

    def test_stored_set_serves_two_layer_retrieval(self, trained, tmp_path):
        index_set = IndexSet(trained, top_k=10).build()
        path = save_index_set(index_set, tmp_path / "indices.npz")
        stored = load_index_set(path)
        live = TwoLayerRetriever(index_set, expansion_k=3, ads_per_key=3)
        offline = TwoLayerRetriever(stored, expansion_k=3, ads_per_key=3)
        a = live.retrieve(2, [5], k=8)
        b = offline.retrieve(2, [5], k=8)
        assert np.array_equal(a.ads, b.ads)
        assert np.allclose(a.scores, b.scores)

    def test_missing_relation_not_contained(self, trained, tmp_path):
        index_set = IndexSet(trained, top_k=5).build([Relation.Q2A])
        path = save_index_set(index_set, tmp_path / "indices.npz")
        stored = load_index_set(path)
        assert Relation.Q2A in stored
        assert Relation.I2I not in stored

    def test_index_set_save_load_methods_agree_with_io(self, trained,
                                                       tmp_path):
        """IndexSet.save/.load are the io functions behind one method."""
        index_set = IndexSet(trained, top_k=7).build(
            [Relation.Q2A, Relation.I2A])
        path = index_set.save(tmp_path / "methods.npz")
        via_io = load_index_set(path)
        via_method = IndexSet.load(path)
        for relation in (Relation.Q2A, Relation.I2A):
            ids_a, dists_a = via_io[relation].lookup(2)
            ids_b, dists_b = via_method[relation].lookup(2)
            assert np.array_equal(ids_a, ids_b)
            assert np.allclose(dists_a, dists_b)


def _save_as_published_before_stored_ids(index_set, path):
    """``indices.npz`` as every generation up to PR 16 wrote it:
    ``np.savez_compressed``, ``int64`` ids, the same JSON header."""
    with np.load(save_index_set(index_set, path)) as archive:
        arrays = {name: archive[name].astype(np.int64)
                  if name.startswith("ids_") else archive[name]
                  for name in archive.files}
    np.savez_compressed(path, **arrays)
    return path


class TestPublishedGenerationsKeepLoading:
    """Loaders owe published generations: deflated ``int64``-id files
    and today's stored narrow-id files are the same index set."""

    @pytest.fixture(scope="class")
    def built(self, trained):
        return IndexSet(trained, top_k=10, backend="sharded",
                        backend_kwargs={"num_shards": 3}).build()

    @pytest.fixture
    def files(self, built, tmp_path):
        return {"old": _save_as_published_before_stored_ids(
                    built, tmp_path / "old.npz"),
                "new": built.save(tmp_path / "new.npz")}

    def test_on_disk_layouts_differ_as_described(self, built, files):
        with np.load(files["old"]) as old, np.load(files["new"]) as new:
            assert old.zip.infolist()[0].compress_type != 0     # deflated
            assert all(info.compress_type == 0               # ZIP_STORED
                       for info in new.zip.infolist())
            for relation, index in built.indices.items():
                name = "ids_%s" % relation.value
                assert old[name].dtype == np.int64
                assert new[name].dtype == np.min_scalar_type(
                    int(index.ids.max()))
                assert new[name].dtype.kind == "u"

    def test_both_load_to_the_built_arrays(self, built, files):
        for path in files.values():
            loaded = IndexSet.load(path)
            assert set(loaded.indices) == set(built.indices)
            for relation, index in built.indices.items():
                assert loaded[relation].ids.dtype == np.int64
                assert np.array_equal(loaded[relation].ids, index.ids)
                assert np.array_equal(loaded[relation].distances,
                                      index.distances)

    def test_both_serve_identical_ads(self, built, files):
        served = []
        for source in (built, IndexSet.load(files["old"]),
                       IndexSet.load(files["new"])):
            retriever = TwoLayerRetriever(source, expansion_k=3,
                                          ads_per_key=3)
            served.append(retriever.retrieve_batch([0, 2, 7],
                                                   [[5], [], [1, 3]], k=8))
        for other in served[1:]:
            for a, b in zip(served[0], other):
                assert np.array_equal(a.ads, b.ads)
                assert np.array_equal(a.scores, b.scores)

    def test_sharded_header_survives_both_writers(self, built, files):
        assert built.backend_params == {"num_shards": 3}
        for path in files.values():
            loaded = IndexSet.load(path)
            assert loaded.backend_name == "sharded"
            assert loaded.backend_params == built.backend_params
            assert loaded.shard_bounds == built.shard_bounds
            assert all(len(b) == 3 for b in loaded.shard_bounds.values())

    def test_negative_or_empty_ids_are_stored_as_given(self):
        """Narrowing is for what the builders emit (ids >= 0); anything
        else goes to disk untouched rather than wrapped."""
        from repro.io import _narrow_ids
        assert _narrow_ids(np.array([[3, -1]])).dtype == np.int64
        assert _narrow_ids(np.zeros((0, 4), dtype=np.int64)).dtype == np.int64
        assert _narrow_ids(np.array([[255]])).dtype == np.uint8
        assert _narrow_ids(np.array([[256]])).dtype == np.uint16
        assert _narrow_ids(np.array([[70_000]])).dtype == np.uint32

