"""Property-based tests (hypothesis) for the ANN backends and recall@k.

Random relation spaces and dial settings, three invariant families:

- ``recall_at_k`` behaves like a recall: 1.0 against itself, invariant
  to within-row permutations, monotone in the approximate depth;
- IVF results are always sorted by metric distance, unique, in range,
  and a full top-k regardless of how starved the dial is;
- ``nprobe >= num_lists`` with an uncapped re-rank is bit-identical to
  the exact backend — the dial degenerates to exact search, by
  construction, for *any* space.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.schema import Relation
from repro.retrieval import ExactBackend, IVFBackend
from repro.retrieval.mnn import RelationSpace
from repro.retrieval.quantization import recall_at_k

spaces = st.builds(
    lambda seed, n, dim: _space(seed, n, dim),
    seed=st.integers(0, 2 ** 16), n=st.integers(3, 120),
    dim=st.integers(2, 6))


def _space(seed, num_targets, dim):
    rng = np.random.default_rng(seed)
    scale = 0.3
    num_sources = 8
    return RelationSpace(
        relation=Relation.Q2A,
        src_embeddings=[scale * rng.standard_normal((num_sources, dim)),
                        scale * rng.standard_normal((num_sources, dim))],
        dst_embeddings=[scale * rng.standard_normal((num_targets, dim)),
                        scale * rng.standard_normal((num_targets, dim))],
        src_weights=rng.uniform(0.3, 0.7, size=(num_sources, 2)),
        dst_weights=rng.uniform(0.3, 0.7, size=(num_targets, 2)),
        kappas=[-0.5, 0.4],
    )


class TestRecallAtK:
    @given(st.integers(0, 2 ** 16), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_self_recall_is_one(self, seed, k):
        rng = np.random.default_rng(seed)
        ids = np.stack([rng.choice(100, size=k, replace=False)
                        for _ in range(5)])
        assert recall_at_k(ids, ids, k) == 1.0

    @given(st.integers(0, 2 ** 16), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, seed, k):
        """Recall counts set overlap — row order must not matter."""
        rng = np.random.default_rng(seed)
        exact = np.stack([rng.choice(100, size=k, replace=False)
                          for _ in range(5)])
        approx = np.stack([rng.choice(100, size=k, replace=False)
                           for _ in range(5)])
        shuffled = np.stack([rng.permutation(row) for row in approx])
        assert recall_at_k(approx, exact, k) == \
            recall_at_k(shuffled, exact, k)

    @given(st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_approx_depth(self, seed):
        """A deeper approximate list can only gain overlap with the
        fixed exact top-k."""
        rng = np.random.default_rng(seed)
        exact = np.stack([rng.choice(50, size=10, replace=False)
                          for _ in range(4)])
        approx = np.stack([rng.choice(50, size=10, replace=False)
                           for _ in range(4)])
        shallow = recall_at_k(approx[:, :4], exact, 10)
        deep = recall_at_k(approx, exact, 10)
        assert deep >= shallow


class TestIVFInvariants:
    @given(spaces, st.integers(1, 10), st.integers(1, 8),
           st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_results_sorted_unique_in_range(self, space, k, num_lists,
                                            nprobe):
        backend = IVFBackend(num_lists=num_lists,
                             nprobe=nprobe).build(space)
        k = min(k, space.num_targets)
        ids, dists = backend.search(np.arange(8), k)
        assert ids.shape == dists.shape == (8, k)
        assert ids.min() >= 0 and ids.max() < space.num_targets
        for row in ids:
            assert np.unique(row).size == row.size
        assert np.all(np.isfinite(dists))
        assert np.all(np.diff(dists, axis=1) >= -1e-12)

    @given(spaces, st.integers(1, 10), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_full_probe_bit_identical_to_exact(self, space, k, num_lists):
        backend = IVFBackend(num_lists=num_lists,
                             nprobe=num_lists).build(space)
        assert backend.is_exact_dial
        k = min(k, space.num_targets)
        ids_a, dists_a = backend.search(np.arange(8), k)
        ids_b, dists_b = ExactBackend().build(space).search(np.arange(8), k)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(dists_a, dists_b)
