"""Tests for the tangent-prune ANN backend (IVF).

Covers the contract every registered backend owes (`SearchBackend`
shapes, sorted metric-true distances, self-exclusion), the exactness
escape hatch (IVF at the full-coverage dial delegates to the MNN
searcher and is bit-identical to ExactBackend), composition with
ShardedBackend including degraded search under injected shard faults,
and IndexSet build/persist round-trips that carry the backend dials.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph.schema import Relation
from repro.retrieval import (
    BACKENDS,
    ExactBackend,
    IndexSet,
    IVFBackend,
    make_backend,
)
from repro.retrieval.ann import candidate_dist, tangent_projection
from repro.retrieval.mnn import RelationSpace
from repro.retrieval.quantization import recall_at_k
from repro.testing.faults import FaultSpec, install, reset

from reference.ivf import ivf_search_looped


@pytest.fixture(autouse=True)
def clean_injector():
    reset()
    yield
    reset()


def _space(num_sources=16, num_targets=900, dim=6, seed=0, same_type=False):
    rng = np.random.default_rng(seed)
    scale = 0.3
    relation = Relation.Q2Q if same_type else Relation.Q2A
    num_targets = num_sources if same_type else num_targets
    return RelationSpace(
        relation=relation,
        src_embeddings=[scale * rng.standard_normal((num_sources, dim)),
                        scale * rng.standard_normal((num_sources, dim))],
        dst_embeddings=[scale * rng.standard_normal((num_targets, dim)),
                        scale * rng.standard_normal((num_targets, dim))],
        src_weights=rng.uniform(0.4, 0.6, size=(num_sources, 2)),
        dst_weights=rng.uniform(0.4, 0.6, size=(num_targets, 2)),
        kappas=[-0.5, 0.4],
    )


@pytest.fixture(scope="module")
def space():
    return _space()


@pytest.fixture(scope="module")
def same_type_space():
    rng_space = _space(num_sources=60, same_type=True)
    # same node set on both sides so exclude_self is meaningful
    return RelationSpace(
        relation=Relation.Q2Q,
        src_embeddings=rng_space.src_embeddings,
        dst_embeddings=rng_space.src_embeddings,
        src_weights=rng_space.src_weights,
        dst_weights=rng_space.src_weights,
        kappas=rng_space.kappas,
    )


SRC = np.array([0, 2, 5, 11, 15])


def _assert_contract(ids, dists, k, num_targets):
    """Shape, dtype, id-range, uniqueness, and ascending distances."""
    assert ids.shape == dists.shape == (SRC.size, k)
    assert ids.dtype == np.int64
    assert ids.min() >= 0 and ids.max() < num_targets
    for row in ids:
        assert np.unique(row).size == row.size
    assert np.all(np.diff(dists, axis=1) >= -1e-12)
    assert np.all(np.isfinite(dists))


class TestTangentProjection:
    def test_concatenates_per_subspace_logmaps(self, space):
        flat = tangent_projection(space.dst_embeddings, space.kappas)
        assert flat.shape == (space.num_targets,
                              sum(e.shape[1] for e in space.dst_embeddings))
        # kappa=0 subspaces are already flat: logmap0 is the identity
        euclid = tangent_projection(space.dst_embeddings, [0.0, 0.0])
        assert np.allclose(euclid,
                           np.concatenate(space.dst_embeddings, axis=1))

    def test_candidate_dist_matches_pair_distance(self, space):
        cand = np.array([[3, 7, 100], [0, 1, 2]])
        valid = np.array([[True, True, False], [True, True, True]])
        got = candidate_dist(space, np.array([0, 4]), cand, valid)
        assert np.isinf(got[0, 2])
        for b, src in enumerate((0, 4)):
            for j in range(3):
                if not valid[b, j]:
                    continue
                ref = space.pair_distance(np.array([src]),
                                          np.array([cand[b, j]]))[0]
                assert got[b, j] == pytest.approx(ref, rel=1e-10)


class TestIVFBackend:
    def test_contract_and_recall(self, space):
        backend = IVFBackend(num_lists=16, nprobe=8,
                             rerank_k=200).build(space)
        ids, dists = backend.search(SRC, k=10)
        _assert_contract(ids, dists, 10, space.num_targets)
        exact_ids, __ = ExactBackend().build(space).search(SRC, k=10)
        assert recall_at_k(ids, exact_ids, 10) >= 0.8

    def test_full_probe_bit_identical_to_exact(self, space):
        """nprobe >= num_lists with uncapped re-rank IS exact search."""
        backend = IVFBackend(num_lists=8, nprobe=8).build(space)
        assert backend.is_exact_dial
        exact = ExactBackend().build(space)
        ids_a, dists_a = backend.search(SRC, k=12)
        ids_b, dists_b = exact.search(SRC, k=12)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(dists_a, dists_b)

    @pytest.mark.parametrize("nprobe, rerank_k", [(4, 0), (8, 60), (1, 25)])
    def test_pruned_scan_matches_per_query_loop(self, space, same_type_space,
                                                nprobe, rerank_k):
        """The list-major scan and its flat-index scatter fill each
        query's pool with exactly its probed lists' members."""
        for sp, exclude in ((space, False), (same_type_space, True)):
            backend = IVFBackend(num_lists=12, nprobe=nprobe,
                                 rerank_k=rerank_k).build(sp)
            assert not backend.is_exact_dial
            src = np.arange(sp.num_sources)
            ids, dists = backend.search(src, k=15, exclude_self=exclude)
            ref_ids, ref_dists = ivf_search_looped(backend, src, k=15,
                                                   exclude_self=exclude)
            assert np.array_equal(ids, ref_ids)
            assert np.allclose(dists, ref_dists, rtol=1e-9, atol=1e-12)

    def test_nprobe_expands_until_k_candidates(self, space):
        """A starved nprobe still returns a full, finite top-k."""
        backend = IVFBackend(num_lists=64, nprobe=1).build(space)
        ids, dists = backend.search(SRC, k=50)
        _assert_contract(ids, dists, 50, space.num_targets)

    def test_exclude_self(self, same_type_space):
        backend = IVFBackend(num_lists=8, nprobe=8).build(same_type_space)
        src = np.arange(20)
        ids, __ = backend.search(src, k=5, exclude_self=True)
        assert not np.any(ids == src[:, None])

    def test_more_probes_never_lower_recall_much(self, space):
        exact_ids, __ = ExactBackend().build(space).search(SRC, k=10)
        backend = IVFBackend(num_lists=32, nprobe=1).build(space)
        recalls = []
        for nprobe in (1, 4, 16, 32):
            backend.nprobe = nprobe
            ids, __ = backend.search(SRC, k=10)
            recalls.append(recall_at_k(ids, exact_ids, 10))
        assert recalls[-1] == 1.0
        assert recalls[0] <= recalls[-1]

    def test_tangent_only_mode(self, space):
        """manifold_rerank=False ranks by tangent distance only."""
        backend = IVFBackend(num_lists=8, nprobe=8,
                             manifold_rerank=False).build(space)
        assert not backend.is_exact_dial
        ids, dists = backend.search(SRC, k=10)
        _assert_contract(ids, dists, 10, space.num_targets)

    def test_sqrt_heuristic_list_count(self, space):
        backend = IVFBackend().build(space)
        assert backend.resolved_lists == int(round(np.sqrt(
            space.num_targets)))

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError, match="num_lists"):
            IVFBackend(num_lists=-1)
        with pytest.raises(ValueError, match="nprobe"):
            IVFBackend(nprobe=0)
        with pytest.raises(ValueError, match="rerank_k"):
            IVFBackend(rerank_k=-2)
        with pytest.raises(ValueError, match="kmeans_iters"):
            IVFBackend(kmeans_iters=0)

    def test_search_before_build_raises(self):
        with pytest.raises(RuntimeError):
            IVFBackend().search(SRC, k=3)


#: dials that make each registered backend prune (not the exact dial)
_REGISTRY_KWARGS = {"ivf": {"num_lists": 16, "nprobe": 4, "rerank_k": 40}}


class TestEveryRegisteredBackend:
    @pytest.fixture(scope="class")
    def batch_space(self):
        rng = np.random.default_rng(7)
        points = [0.3 * rng.standard_normal((300, 4)) for _ in range(2)]
        weights = rng.uniform(0.4, 0.6, size=(300, 2))
        return RelationSpace(relation=Relation.Q2Q, src_embeddings=points,
                             dst_embeddings=points, src_weights=weights,
                             dst_weights=weights, kappas=[-0.5, 0.4])

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_empty_source_batch(self, space, name):
        backend = make_backend(name, **_REGISTRY_KWARGS.get(name, {}))
        ids, dists = backend.build(space).search(
            np.array([], dtype=np.int64), 7)
        assert ids.shape == dists.shape == (0, 7)
        assert ids.dtype == np.int64 and dists.dtype == np.float64

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_negative_k_rejected(self, batch_space, name):
        space = batch_space.slice_targets(0, 5)
        backend = make_backend(name, **_REGISTRY_KWARGS.get(name, {}))
        with pytest.raises(ValueError, match="k must be >= 0"):
            backend.build(space).search(np.arange(3), -1)

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_key_alone_matches_its_row_in_a_batch(self, batch_space, name,
                                                  exclude_self):
        """A key's result does not depend on the batch it is searched in.

        The exact scorers (``exact`` and ``sharded`` over exact shards)
        take their final distances from a BLAS matmul, whose rounding
        depends on the row count (OpenBLAS picks gemv for one row and
        shape-dependent gemm kernels otherwise), so only their ids are
        held bit for bit (a key's distance to itself is the square root
        of a rounding residue, ~1e-8, hence the absolute tolerance).
        IVF uses BLAS only to prune and re-ranks element-wise.
        """
        backend = make_backend(
            name, **_REGISTRY_KWARGS.get(name, {})).build(batch_space)
        keys = np.arange(256)
        ids, dists = backend.search(keys, 10, exclude_self=exclude_self)
        for key in keys:
            one_ids, one_dists = backend.search(keys[key:key + 1], 10,
                                                exclude_self=exclude_self)
            assert np.array_equal(one_ids[0], ids[key])
            if name in ("exact", "sharded"):
                assert np.allclose(one_dists[0], dists[key],
                                   rtol=1e-12, atol=1e-7)
            else:
                assert np.array_equal(one_dists[0], dists[key])


class TestIVFSearchMemory:
    #: tracemalloc peak of one 256-key search below, in bytes: 0.75x the
    #: 9 222 966 bytes of the int64-id / float64-distance pool it
    #: replaced (the float32 tagged pool measures ~6.0 MB)
    PEAK_BYTES = 6_917_000

    def test_256_key_search_peak_under_bound(self):
        space = _space(num_sources=256, num_targets=3600, dim=4, seed=0)
        backend = IVFBackend(nprobe=16, rerank_k=80).build(space)
        keys = np.arange(256)
        backend.search(keys, 20)   # fills the space's cached norms
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backend.search(keys, 20)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert backend.resolved_lists == 60
        assert peak <= self.PEAK_BYTES


class TestShardedComposition:
    FULL = {"nprobe": 10 ** 9, "rerank_k": 0}

    def test_sharded_ivf_full_dial_matches_sharded_exact(self, space):
        """Swapping the inner backend exact -> ivf at the full-coverage
        dial must change nothing, bit for bit."""
        ivf = make_backend("sharded", num_shards=3, inner_backend="ivf",
                           inner_kwargs=dict(self.FULL)).build(space)
        exact = make_backend("sharded", num_shards=3).build(space)
        ids_a, dists_a = ivf.search(SRC, k=10)
        ids_b, dists_b = exact.search(SRC, k=10)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(dists_a, dists_b)

    def test_sharded_ivf_full_dial_matches_unsharded(self, space):
        """Same ids as the unsharded backend; distances to ~1 ulp (BLAS
        summation order differs between shard slices and full arrays)."""
        sharded = make_backend("sharded", num_shards=3,
                               inner_backend="ivf",
                               inner_kwargs=dict(self.FULL)).build(space)
        unsharded = IVFBackend(**self.FULL).build(space)
        ids_a, dists_a = sharded.search(SRC, k=10)
        ids_b, dists_b = unsharded.search(SRC, k=10)
        assert np.array_equal(ids_a, ids_b)
        assert np.allclose(dists_a, dists_b, rtol=1e-9, atol=1e-12)

    def test_dead_shard_degrades_like_exact_inner(self, space):
        """A faulted ivf shard degrades identically to a faulted exact
        shard: healthy-shard merge, search flagged degraded."""
        ivf = make_backend("sharded", num_shards=4, inner_backend="ivf",
                           inner_kwargs=dict(self.FULL)).build(space)
        exact = make_backend("sharded", num_shards=4).build(space)
        install(FaultSpec(site="shard.search", match={"shard": 2}))
        ids_a, dists_a = ivf.search(SRC, k=10)
        assert ivf.last_failed_shards == [2]
        ids_b, dists_b = exact.search(SRC, k=10)
        assert exact.last_failed_shards == [2]
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(dists_a, dists_b)
        lo, hi = ivf.shard_bounds[2]
        assert not np.any((ids_a >= lo) & (ids_a < hi))


class TestIndexSetANN:
    @pytest.fixture(scope="class")
    def model(self, train_graph):
        from repro.models import make_model
        from repro.training import Trainer, TrainerConfig
        m = make_model("amcad", train_graph, num_subspaces=2,
                       subspace_dim=4, seed=9)
        Trainer(m, TrainerConfig(steps=10, batch_size=32, seed=9)).train()
        return m

    def test_backend_params_survive_roundtrip(self, model, tmp_path):
        kwargs = {"num_lists": 4, "nprobe": 2, "rerank_k": 32}
        built = IndexSet(model, top_k=6, backend="ivf",
                         backend_kwargs=kwargs).build([Relation.Q2A])
        assert built.backend_params == kwargs
        loaded = IndexSet.load(built.save(tmp_path / "ivf.npz"))
        assert loaded.backend_name == "ivf"
        assert loaded.backend_params == kwargs
        ids_a, dists_a = built[Relation.Q2A].lookup_batch(np.arange(8))
        ids_b, dists_b = loaded[Relation.Q2A].lookup_batch(np.arange(8))
        assert np.array_equal(ids_a, ids_b)
        assert np.allclose(dists_a, dists_b)

    def test_sharded_inner_ivf_roundtrip(self, model, tmp_path):
        kwargs = {"num_shards": 2, "inner_backend": "ivf",
                  "inner_kwargs": {"num_lists": 4, "nprobe": 4}}
        built = IndexSet(model, top_k=5, backend="sharded",
                         backend_kwargs=kwargs).build([Relation.Q2A])
        loaded = IndexSet.load(built.save(tmp_path / "sharded_ivf.npz"))
        assert loaded.backend_name == "sharded"
        assert loaded.backend_params == kwargs
        assert loaded.shard_bounds[Relation.Q2A] == \
            built.shard_bounds[Relation.Q2A]

    def test_ivf_backend_instances_built(self, model):
        built = IndexSet(model, top_k=5, backend="ivf",
                         backend_kwargs={"nprobe": 3}).build(
            [Relation.Q2A])
        assert isinstance(built.backends[Relation.Q2A], IVFBackend)
        assert built.backends[Relation.Q2A].nprobe == 3
