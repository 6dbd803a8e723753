"""Tests for the product-quantization ANN baseline."""

import tracemalloc

import numpy as np
import pytest

from repro.retrieval.quantization import (_ASSIGN_BLOCK_ELEMENTS, PQIndex,
                                          _kmeans, assign_to_centroids,
                                          recall_at_k)


class TestAssignToCentroids:
    def test_every_block_size_picks_a_nearest_centroid(self):
        """The contract, not the arithmetic: every ``block_rows`` gives
        the same assignments, and each chosen centroid is a nearest one
        under the naive ``(n, k, dim)`` broadcast up to rounding."""
        rng = np.random.default_rng(3)
        data = rng.normal(size=(257, 6))
        centroids = rng.normal(size=(9, 6))
        d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        first = assign_to_centroids(data, centroids, block_rows=1)
        for block_rows in (7, 64, 257, 10_000, None):
            assert np.array_equal(
                assign_to_centroids(data, centroids, block_rows=block_rows),
                first)
        chosen = d2[np.arange(data.shape[0]), first]
        assert np.all(chosen <= d2.min(axis=1) * (1 + 1e-12))

    @pytest.mark.parametrize("n, budget", [
        # one block: today's (n, k, dim) broadcast peaks at ~2 * dim
        # score blocks, i.e. 16 * n * k * 8 bytes here
        (4096, 6 * 4096 * 64 * 8),
        # 2.5 default blocks: the block, not n, bounds the peak
        (5 * _ASSIGN_BLOCK_ELEMENTS // 128, 1.5 * _ASSIGN_BLOCK_ELEMENTS * 8),
    ])
    def test_peak_memory_is_one_score_block(self, n, budget):
        """Host-independent gate: the only temporary is one ``(rows, k)``
        score block, so neither an ``(n, k, dim)`` broadcast nor a
        second live block can come back unnoticed."""
        k, dim = 64, 8
        rng = np.random.default_rng(0)
        data = rng.normal(size=(n, dim))
        centroids = rng.normal(size=(k, dim))
        tracemalloc.start()
        try:
            assign_to_centroids(data, centroids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget


class TestKMeans:
    def test_centroids_shape(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(100, 4))
        centroids = _kmeans(rng, data, k=8)
        assert centroids.shape == (8, 4)

    def test_k_capped_to_n(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3))
        centroids = _kmeans(rng, data, k=20)
        assert centroids.shape[0] == 5

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(1)
        a = rng.normal(loc=0.0, scale=0.05, size=(50, 2))
        b = rng.normal(loc=10.0, scale=0.05, size=(50, 2))
        centroids = _kmeans(rng, np.vstack([a, b]), k=2)
        norms = np.linalg.norm(centroids, axis=1)
        assert min(norms) < 1.0 and max(norms) > 13.0

    def test_same_rng_state_same_centroids(self):
        data = np.random.default_rng(4).normal(size=(300, 5))
        first = _kmeans(np.random.default_rng(9), data, k=12)
        again = _kmeans(np.random.default_rng(9), data, k=12)
        assert np.array_equal(first, again)

    def test_centroids_are_member_means(self):
        """One Lloyd step from the returned centroids' own assignment
        reproduces them (to summation-order rounding) once converged."""
        rng = np.random.default_rng(1)
        data = np.vstack([rng.normal(loc=c, scale=0.05, size=(40, 3))
                          for c in (0.0, 5.0, 10.0)])
        centroids = _kmeans(rng, data, k=3, iterations=20)
        assign = assign_to_centroids(data, centroids)
        means = np.stack([data[assign == j].mean(axis=0) for j in range(3)])
        assert np.allclose(centroids, means, rtol=0, atol=1e-12)

    def test_more_clusters_than_distinct_points(self):
        """Empty clusters are re-seeded from the data: ``k`` finite rows,
        each one of the points, and still a function of the rng state."""
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        data = np.repeat(points, 10, axis=0)
        centroids = _kmeans(np.random.default_rng(2), data, k=8)
        assert centroids.shape == (8, 2)
        assert np.all(np.isfinite(centroids))
        assert all(np.any(np.all(np.isclose(points, row), axis=1))
                   for row in centroids)
        assert np.array_equal(
            centroids, _kmeans(np.random.default_rng(2), data, k=8))


class TestPQIndex:
    @pytest.fixture
    def db(self):
        rng = np.random.default_rng(2)
        return rng.normal(size=(300, 8))

    def test_requires_divisible_dim(self, db):
        with pytest.raises(ValueError):
            PQIndex(num_blocks=3).fit(db)

    def test_search_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PQIndex().search(np.zeros((1, 8)), k=3)

    def test_search_shapes_sorted(self, db):
        index = PQIndex(num_blocks=4, codebook_size=16, seed=0).fit(db)
        ids, dists = index.search(db[:5], k=7)
        assert ids.shape == (5, 7)
        assert np.all(np.diff(dists, axis=1) >= -1e-12)

    def test_self_query_recalls_self(self, db):
        """A database vector's nearest neighbour should be itself (coded)."""
        index = PQIndex(num_blocks=4, codebook_size=32, seed=0).fit(db)
        ids, __ = index.search(db[:20], k=5)
        hits = sum(1 for i in range(20) if i in ids[i])
        assert hits >= 15

    def test_high_recall_on_euclidean_truth(self, db):
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(20, 8))
        index = PQIndex(num_blocks=4, codebook_size=32, seed=0).fit(db)
        approx, __ = index.search(queries, k=10)
        d2 = ((queries[:, None, :] - db[None, :, :]) ** 2).sum(-1)
        exact = np.argsort(d2, axis=1)[:, :10]
        assert recall_at_k(approx, exact, 10) > 0.5

    def test_compression_ratio(self, db):
        index = PQIndex(num_blocks=4, codebook_size=16).fit(db)
        assert index.compression_ratio() == (8 * 8) / 4

    def test_k_capped(self, db):
        index = PQIndex(num_blocks=2, codebook_size=8, seed=0).fit(db)
        ids, __ = index.search(db[:2], k=10 ** 6)
        assert ids.shape[1] == db.shape[0]


class TestRecall:
    def test_recall_bounds(self):
        approx = np.array([[1, 2, 3]])
        exact = np.array([[1, 2, 3]])
        assert recall_at_k(approx, exact, 3) == 1.0
        assert recall_at_k(np.array([[7, 8, 9]]), exact, 3) == 0.0

    def test_partial_recall(self):
        approx = np.array([[1, 9, 8]])
        exact = np.array([[1, 2, 3]])
        assert recall_at_k(approx, exact, 3) == pytest.approx(1 / 3)
