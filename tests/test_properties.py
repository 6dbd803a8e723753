"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autodiff import Parameter, Tensor, ops
from repro.evaluation.metrics import auc_from_scores
from repro.geometry import kernels
from repro.geometry.kernels import pairwise_dist
from repro.graph.alias import AliasSampler
from repro.serving import erlang_c_wait

from reference import ops as reference_ops

curvature = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
small_vec = st.lists(st.floats(-0.35, 0.35, allow_nan=False), min_size=2,
                     max_size=2)


class TestGeometryProperties:
    @given(small_vec, small_vec, curvature)
    @settings(max_examples=50, deadline=None)
    def test_distance_identity_of_indiscernibles(self, xs, ys, kappa):
        x = Tensor(np.asarray([xs]))
        y = Tensor(np.asarray([ys]))
        d = float(kernels.dist(x, y, kappa).data[0, 0])
        if np.allclose(xs, ys):
            assert d < 1e-6
        else:
            assert d > 0

    @given(small_vec, curvature, curvature)
    @settings(max_examples=50, deadline=None)
    def test_activation_between_spaces_finite(self, vs, k1, k2):
        point = kernels.project(kernels.expmap0(Tensor(np.asarray([vs])),
                                                k1), k1)
        out = kernels.activation(point, k1, k2)
        assert np.all(np.isfinite(out.data))

    @given(st.integers(1, 4), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_product_split_concat_identity(self, m, d):
        # a stacked call is its factors' one-factor calls, restacked
        kappa = np.linspace(-1.0, 1.0, m)
        rng = np.random.default_rng(0)
        v = rng.normal(scale=0.3, size=(m, 3, d))
        stacked = kernels.expmap0(Tensor(v), kappa).data
        for i in range(m):
            np.testing.assert_array_equal(
                stacked[i], kernels.expmap0(Tensor(v[i]), kappa[i]).data)

    @given(curvature)
    @settings(max_examples=30, deadline=None)
    def test_pairwise_dist_symmetric_matrix(self, kappa):
        rng = np.random.default_rng(1)
        x = rng.normal(scale=0.2, size=(5, 3))
        d_xy = pairwise_dist(x, x, kappa)
        assert np.allclose(d_xy, d_xy.T, atol=1e-9)
        assert np.allclose(np.diag(d_xy), 0.0, atol=1e-6)


class TestAutodiffProperties:
    @given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1,
                    max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_sum_gradient_is_ones(self, values):
        p = Parameter(np.asarray(values))
        ops.sum(p).backward()
        assert np.allclose(p.grad, 1.0)

    @given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=2,
                    max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_softmax_simplex(self, values):
        out = ops.softmax(Tensor(np.asarray([values])), axis=-1).data
        assert np.all(out >= 0)
        assert np.isclose(out.sum(), 1.0)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1,
                    max_size=5),
           st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_clip_bounds_respected(self, values, bound):
        out = reference_ops.clip(Tensor(np.asarray(values)), -bound,
                                 bound).data
        assert np.all(out <= bound) and np.all(out >= -bound)


class TestSamplingProperties:
    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=30),
           st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_alias_samples_in_range(self, weights, seed):
        sampler = AliasSampler(weights)
        rng = np.random.default_rng(seed)
        draws = sampler.sample(rng, size=64)
        assert np.all(draws >= 0)
        assert np.all(draws < len(weights))


class TestMetricProperties:
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1,
                    max_size=30),
           st.lists(st.floats(-5, 5, allow_nan=False), min_size=1,
                    max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_auc_bounded_and_antisymmetric(self, pos, neg):
        pos_arr, neg_arr = np.asarray(pos), np.asarray(neg)
        auc = auc_from_scores(pos_arr, neg_arr)
        assert 0.0 <= auc <= 1.0
        flipped = auc_from_scores(neg_arr, pos_arr)
        assert np.isclose(auc + flipped, 1.0, atol=1e-9)

    @given(st.floats(0.1, 50.0), st.integers(1, 32))
    @settings(max_examples=40, deadline=None)
    def test_erlang_wait_nonnegative(self, service_rate, servers):
        lam = 0.5 * servers * service_rate  # 50% utilisation
        wait = erlang_c_wait(lam, service_rate, servers)
        assert wait >= 0.0
        assert np.isfinite(wait)
