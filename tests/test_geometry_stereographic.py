"""Property-based and unit tests for the κ-stereographic operations.

The algebraic properties are checked on the composed chain
(``tests/reference/stereographic.py``), the oracle every kernel is
gradchecked against; projection, ∂κ and the Fermi–Dirac link are
checked on the kernels and model code that ship.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Parameter, Tensor, ops
from repro.geometry import kernels
from repro.geometry.kernels import (
    artan_k_numpy,
    logmap0_numpy,
    pairwise_dist,
    rowwise_dist,
)
from repro.models.amcad import fermi_dirac

from reference import stereographic as stereo

KAPPAS = [-1.5, -1.0, -0.3, 0.0, 0.4, 1.0, 1.5]
#: both sides of the Taylor/trig branch threshold: ±tol itself takes the
#: Taylor branch, the nextafter values are the first floats past it
_TOL = stereo._KAPPA_ZERO_TOL
BOUNDARY_KAPPAS = [-float(np.nextafter(_TOL, 1.0)), -_TOL, _TOL,
                   float(np.nextafter(_TOL, 1.0))]

finite_vectors = st.lists(
    st.floats(min_value=-0.4, max_value=0.4, allow_nan=False), min_size=3,
    max_size=3)
curvatures = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


class TestTrigonometry:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_tan_artan_inverse(self, kappa):
        x = np.linspace(-0.8, 0.8, 9)
        t = stereo.tan_k(Tensor(x), kappa)
        back = stereo.artan_k(t, kappa)
        assert np.allclose(back.data, x, atol=1e-8)

    def test_tan_k_zero_curvature_is_identityish(self):
        x = np.linspace(-1, 1, 5)
        assert np.allclose(stereo.tan_k(Tensor(x), 0.0).data, x)

    def test_tan_k_continuous_across_zero(self):
        # values at κ=±tol should agree with the Taylor branch to O(κ²)
        x = Tensor(np.array([0.3]))
        near = 2e-5
        low = stereo.tan_k(x, -near).data
        mid = stereo.tan_k(x, 0.0).data
        high = stereo.tan_k(x, near).data
        assert abs(low - mid) < 1e-5
        assert abs(high - mid) < 1e-5

    def test_tan_k_matches_tanh_formula(self):
        x = np.array([0.5])
        out = stereo.tan_k(Tensor(x), -1.0).data
        assert np.allclose(out, np.tanh(0.5))

    def test_tan_k_matches_tan_formula(self):
        x = np.array([0.5])
        out = stereo.tan_k(Tensor(x), 1.0).data
        assert np.allclose(out, np.tan(0.5))

    def test_numpy_kernels_match_tensor_ops(self):
        x = np.linspace(-0.7, 0.7, 11)
        points = np.stack([x, x[::-1] * 0.5], axis=-1)
        for kappa in KAPPAS:
            assert np.allclose(artan_k_numpy(x, kappa),
                               stereo.artan_k(Tensor(x), kappa).data, atol=1e-12)
            assert np.allclose(logmap0_numpy(points, kappa),
                               stereo.logmap0(Tensor(points), kappa).data,
                               atol=1e-12)


class TestMobiusAddition:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_zero_is_identity(self, kappa):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(scale=0.2, size=(5, 3)))
        zero = Tensor(np.zeros((5, 3)))
        out = stereo.mobius_add(x, zero, kappa)
        assert np.allclose(out.data, x.data, atol=1e-10)
        out2 = stereo.mobius_add(zero, x, kappa)
        assert np.allclose(out2.data, x.data, atol=1e-10)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_left_inverse(self, kappa):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(scale=0.2, size=(5, 3)))
        out = stereo.mobius_add(x * -1.0, x, kappa)
        assert np.allclose(out.data, 0.0, atol=1e-9)

    def test_euclidean_limit_is_addition(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)))
        y = Tensor(rng.normal(size=(4, 3)))
        out = stereo.mobius_add(x, y, 0.0)
        assert np.allclose(out.data, x.data + y.data, atol=1e-12)

    @given(finite_vectors, finite_vectors, curvatures)
    @settings(max_examples=60, deadline=None)
    def test_result_stays_in_ball_for_hyperbolic(self, xs, ys, kappa):
        if kappa >= -1e-4:
            return
        radius = 1.0 / np.sqrt(-kappa)
        x = Tensor(np.asarray([xs]) * 0.8)
        y = Tensor(np.asarray([ys]) * 0.8)
        out = stereo.mobius_add(x, y, kappa)
        assert np.linalg.norm(out.data) <= radius + 1e-6


class TestExpLog:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_roundtrip(self, kappa):
        rng = np.random.default_rng(3)
        v = rng.normal(scale=0.3, size=(10, 4))
        point = stereo.expmap0(Tensor(v), kappa)
        back = stereo.logmap0(point, kappa)
        assert np.allclose(back.data, v, atol=1e-7)

    @given(finite_vectors, curvatures)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, vs, kappa):
        v = np.asarray([vs])
        point = stereo.expmap0(Tensor(v), kappa)
        back = stereo.logmap0(point, kappa)
        assert np.allclose(back.data, v, atol=1e-6)

    def test_expmap0_at_origin(self):
        out = stereo.expmap0(Tensor(np.zeros((2, 3))), -1.0)
        assert np.allclose(out.data, 0.0)


class TestDistance:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_self_distance_zero(self, kappa):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(scale=0.2, size=(5, 3)))
        d = stereo.dist_k(x, x, kappa)
        assert np.allclose(d.data, 0.0, atol=1e-6)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_symmetry(self, kappa):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(scale=0.2, size=(5, 3)))
        y = Tensor(rng.normal(scale=0.2, size=(5, 3)))
        dxy = stereo.dist_k(x, y, kappa).data
        dyx = stereo.dist_k(y, x, kappa).data
        assert np.allclose(dxy, dyx, atol=1e-9)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_non_negative(self, kappa):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(scale=0.3, size=(8, 3)))
        y = Tensor(rng.normal(scale=0.3, size=(8, 3)))
        assert np.all(stereo.dist_k(x, y, kappa).data >= -1e-12)

    def test_euclidean_limit_is_twice_euclidean(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 3))
        d = stereo.dist_k(Tensor(x), Tensor(y), 0.0).data[..., 0]
        assert np.allclose(d, 2 * np.linalg.norm(x - y, axis=-1), atol=1e-9)

    @given(finite_vectors, finite_vectors, finite_vectors, curvatures)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, xs, ys, zs, kappa):
        x = Tensor(np.asarray([xs]))
        y = Tensor(np.asarray([ys]))
        z = Tensor(np.asarray([zs]))
        dxy = float(stereo.dist_k(x, y, kappa).data[0, 0])
        dyz = float(stereo.dist_k(y, z, kappa).data[0, 0])
        dxz = float(stereo.dist_k(x, z, kappa).data[0, 0])
        assert dxz <= dxy + dyz + 1e-7


class TestFastKernels:
    @pytest.mark.parametrize("kappa", KAPPAS + BOUNDARY_KAPPAS)
    def test_pairwise_matches_tensor_distance(self, kappa):
        rng = np.random.default_rng(8)
        x = rng.normal(scale=0.25, size=(4, 5))
        y = rng.normal(scale=0.25, size=(7, 5))
        fast = pairwise_dist(x, y, kappa)
        for i in range(4):
            for j in range(7):
                slow = stereo.dist_k(Tensor(x[i:i + 1]), Tensor(y[j:j + 1]),
                                     kappa).data[0, 0]
                assert np.isclose(fast[i, j], slow, atol=1e-8), (i, j, kappa)

    @pytest.mark.parametrize("kappa", KAPPAS + BOUNDARY_KAPPAS)
    def test_rowwise_matches_pairwise_diagonal(self, kappa):
        rng = np.random.default_rng(9)
        x = rng.normal(scale=0.25, size=(6, 4))
        y = rng.normal(scale=0.25, size=(6, 4))
        row = rowwise_dist(x, y, kappa)
        full = pairwise_dist(x, y, kappa)
        assert np.allclose(row, np.diag(full), atol=1e-10)

    @pytest.mark.parametrize("kappa", [-1.0, 0.4] + BOUNDARY_KAPPAS)
    @pytest.mark.parametrize("rows", [0, 1])
    def test_empty_and_single_row(self, kappa, rows):
        rng = np.random.default_rng(12)
        x = rng.normal(scale=0.25, size=(rows, 4))
        y = rng.normal(scale=0.25, size=(3, 4))
        full = pairwise_dist(x, y, kappa)
        assert full.shape == (rows, 3)
        slow = stereo.dist_k(Tensor(x[:, None, :]), Tensor(y[None, :, :]),
                             kappa).data[..., 0]
        assert np.allclose(full, slow, atol=1e-8)
        assert pairwise_dist(y, x, kappa).shape == (3, rows)
        row = rowwise_dist(x, y[:rows], kappa)
        assert row.shape == (rows,)
        assert np.allclose(row, np.diag(full[:, :rows]), atol=1e-10)

    def test_pairwise_self_distance_zero(self):
        rng = np.random.default_rng(10)
        x = rng.normal(scale=0.25, size=(5, 4))
        d = pairwise_dist(x, x, -1.0)
        assert np.allclose(np.diag(d), 0.0, atol=1e-6)


class TestProjection:
    def test_hyperbolic_projection_respects_radius(self):
        kappa = -1.0
        x = Tensor(np.array([[5.0, 0.0, 0.0]]))
        out = kernels.project(x, kappa)
        assert np.linalg.norm(out.data) <= 1.0

    def test_projection_noop_inside_ball(self):
        x = Tensor(np.array([[0.1, 0.2, 0.0]]))
        out = kernels.project(x, -1.0)
        assert np.allclose(out.data, x.data)

    def test_projection_noop_for_sphere_and_flat(self):
        x = Tensor(np.array([[5.0, 5.0, 5.0]]))
        for kappa in (0.0, 1.0):
            assert np.allclose(kernels.project(x, kappa).data, x.data)


class TestCurvatureGradients:
    @pytest.mark.parametrize("kappa0", [-0.8, 0.9])
    def test_distance_gradient_wrt_kappa(self, kappa0):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(scale=0.2, size=(4, 3)))
        y = Tensor(rng.normal(scale=0.2, size=(4, 3)))
        kappa = Parameter(np.asarray(kappa0))
        out = ops.sum(kernels.dist(x, y, kappa))
        out.backward()
        analytic = float(kappa.grad)
        eps = 1e-6
        kappa.data[...] = kappa0 + eps
        up = ops.sum(kernels.dist(x, y, kappa)).item()
        kappa.data[...] = kappa0 - eps
        down = ops.sum(kernels.dist(x, y, kappa)).item()
        numeric = (up - down) / (2 * eps)
        assert np.isclose(analytic, numeric, atol=1e-5)


class TestFermiDirac:
    def test_monotone_decreasing_in_distance(self):
        d = Tensor(np.linspace(0, 5, 10))
        sim = fermi_dirac(d, radius=2.0, temperature=2.0).data
        assert np.all(np.diff(sim) < 0)

    def test_radius_is_half_probability_point(self):
        sim = fermi_dirac(Tensor(np.array([2.0])), radius=2.0,
                                 temperature=3.0)
        assert np.isclose(sim.data[0], 0.5)
