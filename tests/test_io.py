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
        retired names the surviving plane in its header."""
        def rewritten(plane):
            with np.load(save_model(trained, tmp_path / "model.npz")) as npz:
                arrays = dict(npz)
            header = json.loads(bytes(arrays["header"]).decode("utf-8"))
            header["config"]["compute_plane"] = plane
            arrays["header"] = np.frombuffer(
                json.dumps(header).encode("utf-8"), dtype=np.uint8)
            np.savez(tmp_path / "old.npz", **arrays)
            return tmp_path / "old.npz"

        restored = load_model(rewritten("frontier"), train_graph)
        assert restored.config == trained.config
        with pytest.raises(ValueError, match=r"model\.compute_plane.*retired"):
            load_model(rewritten("recursive"), train_graph)

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
