"""Tests for the alias-method sampler."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.alias import AliasSampler, CSRAliasTables, build_alias_tables


def implied_distribution(prob, alias):
    """The distribution a (prob, alias) table actually samples."""
    n = prob.size
    out = prob / n
    np.add.at(out, alias, (1.0 - prob) / n)
    return out


class TestAliasSampler:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AliasSampler([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AliasSampler([1.0, -1.0])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            AliasSampler([0.0, 0.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AliasSampler(np.ones((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            AliasSampler([1.0, float("nan"), 2.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            AliasSampler([1.0, float("inf")])

    def test_single_outcome(self):
        sampler = AliasSampler([5.0])
        rng = np.random.default_rng(0)
        assert sampler.sample(rng) == 0
        assert np.all(sampler.sample(rng, size=10) == 0)

    def test_scalar_and_array_forms(self):
        sampler = AliasSampler([1.0, 1.0, 2.0])
        rng = np.random.default_rng(0)
        assert isinstance(sampler.sample(rng), int)
        batch = sampler.sample(rng, size=(3, 4))
        assert batch.shape == (3, 4)

    def test_zero_weight_outcome_never_sampled(self):
        sampler = AliasSampler([1.0, 0.0, 1.0])
        rng = np.random.default_rng(0)
        draws = sampler.sample(rng, size=5000)
        assert not np.any(draws == 1)

    def test_empirical_distribution_matches_weights(self):
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        sampler = AliasSampler(weights)
        rng = np.random.default_rng(42)
        draws = sampler.sample(rng, size=200_000)
        counts = np.bincount(draws, minlength=4) / draws.size
        expected = weights / weights.sum()
        assert np.allclose(counts, expected, atol=0.01)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2,
                    max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_well_formed(self, weights):
        sampler = AliasSampler(weights)
        assert np.all(sampler.prob >= 0)
        assert np.all(sampler.prob <= 1.0 + 1e-12)
        assert np.all(sampler.alias >= 0)
        assert np.all(sampler.alias < len(weights))

    def test_deterministic_given_seed(self):
        sampler = AliasSampler([1.0, 2.0, 3.0])
        a = sampler.sample(np.random.default_rng(7), size=50)
        b = sampler.sample(np.random.default_rng(7), size=50)
        assert np.array_equal(a, b)


class TestVectorisedConstruction:
    """The batched builder must encode the input distribution exactly."""

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_implied_distribution_is_exact(self, weights):
        weights = np.asarray(weights)
        if weights.sum() <= 0:
            weights[0] = 1.0
        prob, alias = build_alias_tables(weights)
        assert np.allclose(implied_distribution(prob, alias),
                           weights / weights.sum(), atol=1e-9)

    @pytest.mark.parametrize("weights", [[1e-310], [0.0, 1e-310],
                                         [5e-324, 5e-324, 0.0]])
    def test_denormal_row_sum_does_not_overflow(self, weights):
        """Hypothesis-found: ``lens / sums`` was ``inf`` on such a row."""
        weights = np.asarray(weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob, alias = build_alias_tables(weights)
        assert np.allclose(implied_distribution(prob, alias),
                           weights / weights.sum(), atol=1e-9)

    def test_multi_row_tables_are_exact_per_row(self):
        rng = np.random.default_rng(5)
        lens = rng.integers(0, 15, size=40)  # includes empty rows
        indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        weights = rng.random(indptr[-1]) + 0.01
        prob, alias = build_alias_tables(weights, indptr)
        for row in range(lens.size):
            lo, hi = indptr[row], indptr[row + 1]
            if hi == lo:
                continue
            assert np.all(alias[lo:hi] < hi - lo), "alias must stay row-local"
            assert np.allclose(
                implied_distribution(prob[lo:hi], alias[lo:hi]),
                weights[lo:hi] / weights[lo:hi].sum(), atol=1e-9)

    def test_sequential_fallback_matches(self):
        """max_rounds=0 forces the cleanup path; same distribution."""
        weights = np.array([0.1, 5.0, 0.2, 1.0, 3.0])
        prob, alias = build_alias_tables(weights, max_rounds=0)
        assert np.allclose(implied_distribution(prob, alias),
                           weights / weights.sum(), atol=1e-12)

    def test_pathological_chain(self):
        """One huge weight among many tiny ones stays exact."""
        weights = np.concatenate([[900.0], np.full(99, 1.0)])
        prob, alias = build_alias_tables(weights)
        assert np.allclose(implied_distribution(prob, alias),
                           weights / weights.sum(), atol=1e-9)

    def test_rejects_nan_and_zero_rows(self):
        with pytest.raises(ValueError, match="finite"):
            build_alias_tables(np.array([1.0, float("nan")]))
        with pytest.raises(ValueError, match="positive total"):
            build_alias_tables(np.array([0.0, 0.0, 1.0]),
                               indptr=np.array([0, 2, 3]))


class TestCSRAliasTables:
    @pytest.fixture(scope="class")
    def tables(self):
        indptr = np.array([0, 3, 3, 5])
        indices = np.array([10, 11, 12, 20, 21])
        weights = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
        return CSRAliasTables(indptr, indices, weights)

    def test_empty_row_draws_minus_one(self, tables):
        rng = np.random.default_rng(0)
        out = tables.draw(rng, np.array([1, 1, 1]))
        assert np.all(out == -1)

    def test_draws_are_neighbours(self, tables):
        rng = np.random.default_rng(0)
        out = tables.draw(rng, np.zeros(200, dtype=np.int64))
        assert set(out.tolist()) <= {10, 11, 12}

    def test_draw_marginals_match_weights(self, tables):
        rng = np.random.default_rng(1)
        out = tables.draw(rng, np.full(60_000, 2, dtype=np.int64))
        freq = np.bincount(out, minlength=22)[[20, 21]] / out.size
        assert np.allclose(freq, [0.75, 0.25], atol=0.01)

    def test_deterministic_given_seed(self, tables):
        rows = np.array([0, 2, 0, 1, 2])
        a = tables.draw(np.random.default_rng(3), rows)
        b = tables.draw(np.random.default_rng(3), rows)
        assert np.array_equal(a, b)
