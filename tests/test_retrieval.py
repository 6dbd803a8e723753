"""Tests for exact MNN search, inverted indices and two-layer retrieval."""

import numpy as np
import pytest

from repro.graph.schema import NodeType, Relation
from repro.models import make_model
from repro.retrieval import (
    ExactBackend,
    IndexSet,
    RetrievalResult,
    TwoLayerRetriever,
)
from repro.retrieval.mnn import RelationSpace
from repro.serving import ServingSimulator, erlang_c_wait
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def model(train_graph):
    m = make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                   seed=4)
    Trainer(m, TrainerConfig(steps=25, batch_size=32, seed=4)).train()
    return m


@pytest.fixture(scope="module")
def q2i_space(model):
    return RelationSpace.from_model(model, Relation.Q2I)


@pytest.fixture(scope="module")
def index_set(model):
    return IndexSet(model, top_k=20).build()


class TestRelationSpace:
    def test_shapes(self, q2i_space, train_graph):
        n_q = train_graph.num_nodes[NodeType.QUERY]
        n_i = train_graph.num_nodes[NodeType.ITEM]
        assert q2i_space.num_sources == n_q
        assert q2i_space.num_targets == n_i
        assert q2i_space.src_weights.shape == (n_q, 2)
        assert len(q2i_space.kappas) == 2

    def test_weights_normalised(self, q2i_space):
        assert np.allclose(q2i_space.src_weights.sum(axis=1), 1.0)
        assert np.allclose(q2i_space.dst_weights.sum(axis=1), 1.0)

    def test_same_type_relation_shares_arrays(self, model):
        space = RelationSpace.from_model(model, Relation.Q2Q)
        assert space.src_embeddings[0] is space.dst_embeddings[0]

    def test_pair_distance_nonnegative(self, q2i_space, rng):
        src = rng.integers(q2i_space.num_sources, size=20)
        dst = rng.integers(q2i_space.num_targets, size=20)
        d = q2i_space.pair_distance(src, dst)
        assert d.shape == (20,)
        assert np.all(d >= 0)


class TestExactSearch:
    def test_search_returns_sorted_topk(self, q2i_space):
        searcher = ExactBackend().build(q2i_space)
        ids, dists = searcher.search(np.array([0, 1, 2]), k=5)
        assert ids.shape == (3, 5)
        assert np.all(np.diff(dists, axis=1) >= -1e-12)

    def test_search_matches_exhaustive(self, q2i_space):
        """Top-1 from the searcher equals the argmin of pair distances."""
        searcher = ExactBackend(block_size=64).build(q2i_space)
        src = np.array([3])
        ids, __ = searcher.search(src, k=1)
        all_d = q2i_space.pair_distance(
            np.full(q2i_space.num_targets, 3),
            np.arange(q2i_space.num_targets))
        assert ids[0, 0] == int(np.argmin(all_d))

    def test_exclude_self_for_same_type(self, model):
        space = RelationSpace.from_model(model, Relation.Q2Q)
        searcher = ExactBackend().build(space)
        src = np.arange(10)
        ids, __ = searcher.search(src, k=5, exclude_self=True)
        for row, query in enumerate(src):
            assert query not in ids[row]

    def test_k_capped_to_targets(self, q2i_space):
        searcher = ExactBackend().build(q2i_space)
        ids, __ = searcher.search(np.array([0]), k=10 ** 6)
        assert ids.shape[1] == q2i_space.num_targets


class TestIndexSet:
    def test_builds_all_six(self, index_set):
        for relation in Relation:
            assert relation in index_set

    def test_lookup_shapes(self, index_set, train_graph):
        index = index_set[Relation.Q2A]
        ids, dists = index.lookup(0)
        assert ids.shape == dists.shape == (20,)
        ids5, __ = index.lookup(0, k=5)
        assert ids5.shape == (5,)

    def test_lookup_batch(self, index_set):
        ids, dists = index_set[Relation.Q2I].lookup_batch(np.array([0, 1]), 7)
        assert ids.shape == (2, 7)

    def test_results_within_target_range(self, index_set, train_graph):
        for relation in Relation:
            index = index_set[relation]
            n = train_graph.num_nodes[relation.target_type]
            assert index.ids.max() < n
            assert index.ids.min() >= 0

    def test_same_type_indices_exclude_self(self, index_set):
        for relation in (Relation.Q2Q, Relation.I2I):
            index = index_set[relation]
            keys = np.arange(index.num_keys)
            assert not np.any(index.ids == keys[:, None])

    def test_build_time_recorded(self, index_set):
        assert index_set.total_build_seconds > 0


class TestTwoLayerRetriever:
    @pytest.fixture(scope="class")
    def retriever(self, index_set):
        return TwoLayerRetriever(index_set, expansion_k=5, ads_per_key=5)

    def test_retrieval_returns_ranked_ads(self, retriever, train_graph):
        result = retriever.retrieve(0, [1, 2], k=10)
        assert isinstance(result, RetrievalResult)
        assert result.ads.size <= 10
        assert np.all(np.diff(result.scores) <= 1e-12)
        assert result.ads.max() < train_graph.num_nodes[NodeType.AD]

    def test_key_expansion_includes_original(self, retriever):
        query_keys, item_keys = retriever.expand_keys(3, [7])
        assert 3 in query_keys
        assert 7 in item_keys
        assert len(query_keys) > 1, "Q2Q expansion should add keys"

    def test_preclicks_extend_coverage(self, retriever):
        bare = retriever.retrieve(0, [], k=30)
        with_items = retriever.retrieve(0, [1, 2, 3], k=30)
        assert with_items.num_keys > bare.num_keys

    def test_no_duplicate_ads(self, retriever):
        result = retriever.retrieve(5, [4], k=40)
        assert len(set(result.ads.tolist())) == result.ads.size

    def test_retrieve_items_interface(self, retriever):
        items = retriever.retrieve_items(2, k=9)
        assert items.shape == (9,)


class TestServing:
    def test_erlang_zero_load(self):
        assert erlang_c_wait(0.0, 10.0, 4) == 0.0

    def test_erlang_unstable_is_infinite(self):
        assert erlang_c_wait(100.0, 10.0, 4) == float("inf")

    def test_erlang_wait_grows_with_load(self):
        waits = [erlang_c_wait(lam, 10.0, 4) for lam in (5.0, 20.0, 35.0)]
        assert waits[0] < waits[1] < waits[2]

    def test_simulator_sweep_shape(self, index_set):
        retriever = TwoLayerRetriever(index_set, expansion_k=3, ads_per_key=3)
        sim = ServingSimulator(retriever, num_workers=16)
        sim.measure_service_time([0, 1, 2], [[1], [2], [3]])
        assert sim.service_seconds > 0
        stats = sim.sweep([10, 100, 1000])
        assert len(stats) == 3
        times = [s.response_time_ms for s in stats]
        assert times[0] <= times[1] <= times[2]

    def test_service_time_required_before_sweep(self, index_set):
        retriever = TwoLayerRetriever(index_set)
        sim = ServingSimulator(retriever)
        with pytest.raises(RuntimeError):
            __ = sim.service_seconds

    def test_saturation_qps(self, index_set):
        retriever = TwoLayerRetriever(index_set, expansion_k=2, ads_per_key=2)
        sim = ServingSimulator(retriever, num_workers=8)
        sim.measure_service_time([0], [[1]])
        assert sim.saturation_qps() == pytest.approx(8 / sim.service_seconds)
