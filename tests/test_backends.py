"""Tests for the pluggable search backends and backend-built indices."""

import numpy as np
import pytest

from repro.graph.schema import NodeType, Relation
from repro.models import make_model
from repro.retrieval import (
    BACKENDS,
    ExactBackend,
    IndexSet,
    PQBackend,
    SearchBackend,
    ShardedBackend,
    TwoLayerRetriever,
    make_backend,
    resolve_backend_factory,
)
from repro.retrieval.mnn import RelationSpace
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def model(train_graph):
    m = make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                   seed=9)
    Trainer(m, TrainerConfig(steps=20, batch_size=32, seed=9)).train()
    return m


@pytest.fixture(scope="module")
def q2a_space(model):
    return RelationSpace.from_model(model, Relation.Q2A)


def _reference_topk(space, src_indices, k, exclude_self=False):
    """Brute-force ground truth: full pair-distance matrix, argsorted."""
    n = space.num_targets
    ids = []
    dists = []
    for src in src_indices:
        all_d = space.pair_distance(np.full(n, src), np.arange(n))
        if exclude_self and (space.relation.source_type
                             == space.relation.target_type):
            all_d[src] = np.inf
        order = np.argsort(all_d, kind="stable")[:k]
        ids.append(order)
        dists.append(all_d[order])
    return np.array(ids), np.array(dists)


def _tall_space(num_sources=16, num_targets=4000, dim=6, seed=0):
    """A synthetic RelationSpace with a tall target set (no model)."""
    rng = np.random.default_rng(seed)
    scale = 0.3  # keep points well inside any curvature ball
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


class TestExactBackend:
    def test_matches_bruteforce_reference(self, q2a_space):
        backend = ExactBackend(block_size=32).build(q2a_space)
        src = np.array([0, 3, 11, 42])
        ids, dists = backend.search(src, k=8)
        ref_ids, ref_dists = _reference_topk(q2a_space, src, k=8)
        assert np.array_equal(ids, ref_ids)
        assert np.allclose(dists, ref_dists)

    def test_matches_old_full_matrix_search(self, q2a_space):
        """Streamed merge returns what one giant block would."""
        streamed = ExactBackend(block_size=16).build(q2a_space)
        one_block = ExactBackend(block_size=10 ** 9).build(q2a_space)
        src = np.arange(12)
        ids_a, dists_a = streamed.search(src, k=10)
        ids_b, dists_b = one_block.search(src, k=10)
        assert np.array_equal(ids_a, ids_b)
        assert np.allclose(dists_a, dists_b)

    def test_exclude_self_same_type(self, model):
        space = RelationSpace.from_model(model, Relation.Q2Q)
        backend = ExactBackend(block_size=64).build(space)
        src = np.arange(20)
        ids, __ = backend.search(src, k=5, exclude_self=True)
        assert not np.any(ids == src[:, None])

    def test_streamed_memory_bounded_on_tall_target_set(self):
        """Peak candidate width must not scale with the target count."""
        space = _tall_space(num_targets=4000)
        k = 25
        backend = ExactBackend(block_size=256).build(space)
        ids, dists = backend.search(np.arange(16), k=k)
        # merge buffer held at most previous best-k plus one block top-k
        assert backend.peak_candidate_width <= 2 * k
        assert backend.peak_candidate_width < space.num_targets // 10
        # and the streamed result is still exact
        ref_ids, ref_dists = _reference_topk(space, np.arange(16), k=k)
        assert np.array_equal(ids, ref_ids)
        assert np.allclose(dists, ref_dists)

    def test_search_before_build_raises(self):
        with pytest.raises(RuntimeError):
            ExactBackend().search(np.array([0]), k=3)

    @pytest.mark.parametrize("block_size", [0, -4])
    def test_block_size_below_one_rejected_by_name(self, block_size):
        with pytest.raises(ValueError, match="block_size"):
            ExactBackend(block_size=block_size)
        with pytest.raises(ValueError, match="block_size"):
            make_backend("exact", block_size=block_size)


class TestPQBackend:
    def test_shapes_and_range(self, q2a_space):
        backend = PQBackend(num_blocks=4, codebook_size=16).build(q2a_space)
        ids, dists = backend.search(np.array([0, 1, 2]), k=7)
        assert ids.shape == dists.shape == (3, 7)
        assert ids.min() >= 0 and ids.max() < q2a_space.num_targets
        assert np.all(np.diff(dists, axis=1) >= -1e-12)

    def test_exclude_self_same_type(self, model):
        space = RelationSpace.from_model(model, Relation.I2I)
        backend = PQBackend(num_blocks=4, codebook_size=16).build(space)
        src = np.arange(30)
        ids, __ = backend.search(src, k=6, exclude_self=True)
        assert ids.shape == (30, 6)
        assert not np.any(ids == src[:, None])

    def test_block_count_shrinks_to_divisor(self):
        # dim 6 per subspace x2 = 12, not divisible by 5 -> falls to 4
        space = _tall_space(num_targets=300, dim=6)
        backend = PQBackend(num_blocks=5, codebook_size=8).build(space)
        assert backend.index.num_blocks == 4

    def test_reasonable_recall_on_own_metric(self, q2a_space):
        """PQ should roughly track exact Euclidean search (its home turf)."""
        from repro.retrieval.quantization import recall_at_k
        backend = PQBackend(num_blocks=4, codebook_size=32).build(q2a_space)
        queries = np.arange(40)
        pq_ids, __ = backend.search(queries, k=10)
        db = np.concatenate(q2a_space.dst_embeddings, axis=1)
        qv = np.concatenate([e[queries] for e in q2a_space.src_embeddings],
                            axis=1)
        d2 = ((qv[:, None, :] - db[None, :, :]) ** 2).sum(-1)
        flat_ids = np.argsort(d2, axis=1)[:, :10]
        assert recall_at_k(pq_ids, flat_ids, 10) > 0.3


class TestShardedBackend:
    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_identical_to_exact(self, q2a_space, num_shards):
        """Exact merge semantics: sharded == monolithic, bit for bit."""
        sharded = ShardedBackend(num_shards=num_shards).build(q2a_space)
        exact = ExactBackend().build(q2a_space)
        src = np.arange(25)
        ids_a, dists_a = sharded.search(src, k=9)
        ids_b, dists_b = exact.search(src, k=9)
        assert np.array_equal(ids_a, ids_b)
        assert np.allclose(dists_a, dists_b)

    def test_exclude_self_identical_to_exact(self, model):
        space = RelationSpace.from_model(model, Relation.Q2Q)
        sharded = ShardedBackend(num_shards=5).build(space)
        exact = ExactBackend().build(space)
        src = np.arange(40)
        ids_a, __ = sharded.search(src, k=7, exclude_self=True)
        ids_b, __ = exact.search(src, k=7, exclude_self=True)
        assert np.array_equal(ids_a, ids_b)
        assert not np.any(ids_a == src[:, None])

    def test_more_shards_than_targets(self):
        space = _tall_space(num_targets=5)
        backend = ShardedBackend(num_shards=50).build(space)
        assert len(backend.shards) == 5
        ids, dists = backend.search(np.arange(4), k=3)
        ref_ids, ref_dists = _reference_topk(space, np.arange(4), k=3)
        assert np.array_equal(ids, ref_ids)
        assert np.allclose(dists, ref_dists)

    def test_shard_bounds_partition_target_space(self, q2a_space):
        backend = ShardedBackend(num_shards=4).build(q2a_space)
        bounds = backend.shard_bounds
        assert bounds[0][0] == 0
        assert bounds[-1][1] == q2a_space.num_targets
        for (_, stop), (start, _) in zip(bounds[:-1], bounds[1:]):
            assert stop == start

    def test_pq_inner_backend(self, q2a_space):
        backend = ShardedBackend(num_shards=3, inner_backend="pq",
                                 inner_kwargs={"codebook_size": 8}).build(
            q2a_space)
        assert all(isinstance(s, PQBackend) for s in backend.shards)
        ids, dists = backend.search(np.arange(6), k=5)
        assert ids.shape == dists.shape == (6, 5)
        assert ids.min() >= 0 and ids.max() < q2a_space.num_targets
        assert np.all(np.diff(dists, axis=1) >= -1e-12)

    def test_registered_in_backends(self):
        assert BACKENDS["sharded"] is ShardedBackend
        assert isinstance(make_backend("sharded", num_shards=3),
                          ShardedBackend)

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedBackend(num_shards=0)
        with pytest.raises(ValueError, match="sharded"):
            ShardedBackend(inner_backend="sharded")
        with pytest.raises(ValueError, match="unknown inner"):
            ShardedBackend(inner_backend="annoy")

    def test_search_before_build_raises(self):
        with pytest.raises(RuntimeError):
            ShardedBackend().search(np.array([0]), k=3)


class TestBackendFactory:
    def test_make_backend_by_name(self):
        assert isinstance(make_backend("exact"), ExactBackend)
        assert isinstance(make_backend("pq", codebook_size=8), PQBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_backend("annoy")

    def test_resolve_accepts_class_and_factory(self):
        from_class = resolve_backend_factory(ExactBackend, block_size=7)()
        assert from_class.block_size == 7
        ready = PQBackend(codebook_size=4)
        from_factory = resolve_backend_factory(lambda: ready)()
        assert from_factory is ready

    def test_factory_kwargs_conflict_raises(self):
        with pytest.raises(ValueError):
            resolve_backend_factory(lambda: ExactBackend(), block_size=3)

    def test_retired_thread_pool_kwargs_dropped_or_rejected(self):
        """Published ``backend_kwargs``/``inner_kwargs`` carry the keys
        of the retired thread pools; make_backend drops them."""
        assert isinstance(make_backend("exact", num_workers=4), ExactBackend)
        sharded = make_backend("sharded", num_shards=2, parallelism=3,
                               shard_timeout=0.05,
                               inner_kwargs={"num_workers": 2})
        sharded.build(_tall_space(num_targets=40))
        assert all(isinstance(s, ExactBackend) for s in sharded.shards)
        for name, key, value in (("sharded", "parallelism", "two"),
                                 ("sharded", "shard_timeout", 0),
                                 ("exact", "num_workers", None)):
            with pytest.raises(ValueError,
                               match=r"backend\.%s.*retired" % key):
                make_backend(name, **{key: value})


class TestIndexSetBackends:
    def test_build_through_pq_backend(self, model, train_graph):
        index_set = IndexSet(model, top_k=8, backend="pq",
                             backend_kwargs={"codebook_size": 16}).build(
            [Relation.Q2I])
        index = index_set[Relation.Q2I]
        assert index.ids.shape[1] == 8
        assert index.ids.max() < train_graph.num_nodes[NodeType.ITEM]
        assert isinstance(index_set.backends[Relation.Q2I], PQBackend)

    def test_default_backend_is_exact(self, model):
        index_set = IndexSet(model, top_k=5).build([Relation.Q2A])
        assert isinstance(index_set.backends[Relation.Q2A], ExactBackend)

    def test_retired_num_workers_accepted_and_dropped(self, model):
        with_key = IndexSet(model, top_k=5, num_workers=3).build(
            [Relation.Q2A])
        plain = IndexSet(model, top_k=5).build([Relation.Q2A])
        assert np.array_equal(with_key[Relation.Q2A].ids,
                              plain[Relation.Q2A].ids)
        assert with_key.backend_params == {}
        with pytest.raises(ValueError, match=r"index\.num_workers.*retired"):
            IndexSet(model, num_workers="four")

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, model, batch_size):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            IndexSet(model, top_k=5, batch_size=batch_size)

    def test_custom_factory(self, model):
        index_set = IndexSet(
            model, top_k=5,
            backend=lambda: ExactBackend(block_size=33)).build(
            [Relation.Q2A])
        assert index_set.backends[Relation.Q2A].block_size == 33

    def test_build_encodes_each_node_type_once(self, model, monkeypatch):
        """The per-build encode cache shares the vocabulary encode
        across relations: one encode_all per node type, not per
        relation endpoint."""
        calls = []
        original = type(model).encode_all

        def counting(self, node_type, rng=None, plan=None):
            calls.append(node_type)
            return original(self, node_type, rng=rng, plan=plan)

        monkeypatch.setattr(type(model), "encode_all", counting)
        IndexSet(model, top_k=5).build()     # all six relations
        assert sorted(c.value for c in calls) == ["ad", "item", "query"]

    def test_exact_and_pq_backends_agree_on_easy_top1(self, model):
        """Both rank valid ids; exact is the MNN ground truth."""
        exact = IndexSet(model, top_k=5).build([Relation.Q2A])
        searcher = ExactBackend().build(exact.spaces[Relation.Q2A])
        ids, __ = searcher.search(np.array([0]), k=5)
        assert np.array_equal(exact[Relation.Q2A].lookup(0)[0], ids[0])


class TestIndexSetPersistence:
    def test_save_load_roundtrip(self, model, tmp_path):
        built = IndexSet(model, top_k=6).build([Relation.Q2A, Relation.Q2I])
        path = built.save(tmp_path / "indices.npz")
        loaded = IndexSet.load(path)
        for relation in (Relation.Q2A, Relation.Q2I):
            assert relation in loaded
            ids_a, dists_a = built[relation].lookup(4)
            ids_b, dists_b = loaded[relation].lookup(4)
            assert np.array_equal(ids_a, ids_b)
            assert np.allclose(dists_a, dists_b)
        assert loaded.top_k == 6

    def test_loaded_set_serves_without_model(self, model, tmp_path):
        path = IndexSet(model, top_k=10).build().save(tmp_path / "ix.npz")
        # from here on, only the file is in scope
        loaded = IndexSet.load(path)
        assert loaded.model is None
        retriever = TwoLayerRetriever(loaded, expansion_k=3, ads_per_key=3)
        result = retriever.retrieve(1, [2], k=5)
        assert result.ads.size > 0

    def test_loaded_set_cannot_build(self, model, tmp_path):
        path = IndexSet(model, top_k=5).build([Relation.Q2A]).save(
            tmp_path / "ix.npz")
        loaded = IndexSet.load(path)
        with pytest.raises(RuntimeError):
            loaded.build_one(Relation.Q2I)

    _BACKEND_SPECS = {
        "exact": {},
        "pq": {"codebook_size": 16},
        "sharded": {"num_shards": 3},
        "ivf": {"num_lists": 4, "nprobe": 2},
    }

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_roundtrip_every_registered_backend(self, model, tmp_path,
                                                backend):
        """save/load must round-trip for every name in BACKENDS."""
        built = IndexSet(model, top_k=6, backend=backend,
                         backend_kwargs=self._BACKEND_SPECS[backend]).build(
            [Relation.Q2A, Relation.I2I])
        path = built.save(tmp_path / ("ix_%s.npz" % backend))
        loaded = IndexSet.load(path)
        assert loaded.backend_name == backend
        for relation in (Relation.Q2A, Relation.I2I):
            ids_a, dists_a = built[relation].lookup_batch(np.arange(10))
            ids_b, dists_b = loaded[relation].lookup_batch(np.arange(10))
            assert np.array_equal(ids_a, ids_b)
            assert np.allclose(dists_a, dists_b)
        # and the loaded set serves the two-layer retriever model-free
        retriever = TwoLayerRetriever(loaded, expansion_k=3, ads_per_key=3)
        result = retriever.retrieve(1, [2], k=5)
        assert result.ads.size > 0

    def test_shard_layout_survives_roundtrip(self, model, tmp_path):
        built = IndexSet(model, top_k=6, backend="sharded",
                         backend_kwargs={"num_shards": 3}).build(
            [Relation.Q2A])
        assert len(built.shard_bounds[Relation.Q2A]) == 3
        loaded = IndexSet.load(built.save(tmp_path / "sharded.npz"))
        assert loaded.backend_name == "sharded"
        assert loaded.shard_bounds[Relation.Q2A] == \
            built.shard_bounds[Relation.Q2A]

    def test_sharded_build_matches_exact_build(self, model):
        exact = IndexSet(model, top_k=7).build([Relation.Q2A])
        sharded = IndexSet(model, top_k=7, backend="sharded",
                           backend_kwargs={"num_shards": 4}).build(
            [Relation.Q2A])
        assert np.array_equal(exact[Relation.Q2A].ids,
                              sharded[Relation.Q2A].ids)
        assert np.allclose(exact[Relation.Q2A].distances,
                           sharded[Relation.Q2A].distances)
