"""Curvature vectors and stacked mixed-curvature (product) spaces.

A product space of M factors is one ``(M, n, d)`` block with one
``(M,)`` curvature vector: each factor's slice behaves as its own
constant-curvature space, and frozen entries of the vector (a fixed
signature such as ``HS``) never move.
"""

import numpy as np
import pytest

from repro.autodiff import Parameter, Tensor, ops
from repro.geometry import kernels
from repro.geometry.kernels import Curvature
from repro.graph.schema import NodeType
from repro.models import make_model
from repro.models.encoder import NodeEncoder
from repro.models.scorer import adaptive_kappas

from reference import stereographic as st


def _random_points(rng, kappa, rows, dim, tangent_scale=0.1):
    """``project(expmap0(v))`` of Gaussian tangents, one block per factor."""
    kappa = np.asarray(kappa, dtype=np.float64)
    tangent = rng.normal(scale=tangent_scale,
                         size=kappa.shape + (rows, dim))
    return kernels.project(kernels.expmap0(Tensor(tangent), kappa), kappa)


class TestUnifiedManifold:
    def test_space_type_labels(self):
        # each factor takes the branch of its own regime
        assert kernels._regimes(np.array([-1.0, 0.0, 1.0])) == [
            (kernels._HYPERBOLIC, slice(0, 1)), (kernels._FLAT, slice(1, 2)),
            (kernels._SPHERICAL, slice(2, 3))]
        assert kernels._regimes(np.array([-1.0, -0.5])) == [
            (kernels._HYPERBOLIC, slice(None))]

    def test_trainable_kappa_is_parameter(self):
        learned = Curvature([-0.5, 0.5], [True, True])
        assert learned.requires_grad
        frozen = Curvature([-0.5, 0.5], [False, False])
        assert not frozen.requires_grad

    def test_constrain_clamps_kappa(self):
        kappa = Curvature([0.0, 0.0], [True, True], bounds=(-1.0, 1.0))
        kappa.data[...] = [9.0, -9.0]
        kappa.constrain()
        assert kappa.data.tolist() == [1.0, -1.0]

    def test_invalid_dim_raises(self, train_graph):
        kappas = {t: Curvature([0.0], [True]) for t in NodeType}
        with pytest.raises(ValueError, match="subspace_dim"):
            NodeEncoder(train_graph, kappas, subspace_dim=0)

    def test_random_point_inside_hyperbolic_ball(self):
        rng = np.random.default_rng(0)
        points = _random_points(rng, [-1.0, -4.0], 100, 4,
                                tangent_scale=2.0)
        norms = np.linalg.norm(points.data, axis=-1)
        assert np.all(norms[0] <= 1.0)
        assert np.all(norms[1] <= 0.5)

    def test_dist_matches_exp_log_structure(self):
        rng = np.random.default_rng(1)
        v = Tensor(rng.normal(scale=0.2, size=(1, 1, 3)))
        kappa = np.array([-1.0])
        p = kernels.expmap0(v, kappa)
        origin = Tensor(np.zeros((1, 1, 3)))
        # distance to origin equals tangent norm (exp is radial isometry)
        d = kernels.dist(origin, p, kappa).data[0, 0]
        assert np.isclose(d, 2 * np.arctanh(np.linalg.norm(
            p.data)), atol=1e-8)

    def test_activation_maps_between_manifolds(self):
        rng = np.random.default_rng(2)
        src, dst = np.array([-1.0, 1.0]), np.array([1.0, -1.0])
        p = _random_points(rng, src, 4, 3)
        out = kernels.activation(p, src, dst)
        assert out.shape == (2, 4, 3)
        assert np.all(np.isfinite(out.data))
        for m in range(2):
            want = st.expmap0(ops.tanh(st.logmap0(Tensor(p.data[m]),
                                                  src[m])), dst[m])
            np.testing.assert_allclose(out.data[m], want.data, atol=1e-12)

    def test_matvec_shapes(self):
        rng = np.random.default_rng(3)
        kappa = np.array([-0.7, 0.3])
        p = _random_points(rng, kappa, 5, 3)
        w = Tensor(rng.normal(size=(2, 3, 2)))
        out = kernels.matvec(w, p, kappa)
        assert out.shape == (2, 5, 2)


class TestProductManifold:
    def test_requires_factors(self):
        with pytest.raises(ValueError, match="at least one factor"):
            Curvature([], [])

    def test_split_concat_roundtrip(self, train_graph):
        # every factor of a stacked block is a contiguous (N, d) view
        model = make_model("amcad", train_graph, num_subspaces=3,
                           subspace_dim=4, gcn_layers=1)
        arrays = model.encode_all(NodeType.AD)
        assert len(arrays) == 3
        for array in arrays:
            assert array.shape == (train_graph.num_nodes[NodeType.AD], 4)
            assert array.flags.c_contiguous
            assert array.base is arrays[0].base

    def test_split_validates_dim(self, train_graph):
        kappas = {t: Curvature(adaptive_kappas(2), [True] * 2)
                  for t in NodeType}
        kappas[NodeType.ITEM] = Curvature(adaptive_kappas(3), [True] * 3)
        with pytest.raises(ValueError, match="same number of subspaces"):
            NodeEncoder(train_graph, kappas, subspace_dim=4)

    def test_dist_is_sum_of_subspace_distances(self):
        rng = np.random.default_rng(5)
        kappa = np.array([-1.0, 1.0])
        x = _random_points(rng, kappa, 4, 2)
        y = _random_points(rng, kappa, 4, 2)
        subs = kernels.dist(x, y, kappa).data
        assert subs.shape == (4, 2)
        for m in range(2):
            want = st.dist_k(Tensor(x.data[m]), Tensor(y.data[m]), kappa[m])
            np.testing.assert_allclose(subs[:, m], want.data[:, 0],
                                       atol=1e-10)

    def test_weighted_dist(self):
        rng = np.random.default_rng(6)
        kappa = np.array([-1.0, 1.0])
        x = _random_points(rng, kappa, 4, 2)
        y = _random_points(rng, kappa, 4, 2)
        weights = Tensor(np.array([[1.0, 0.0]] * 4))
        subs = kernels.dist(x, y, kappa)
        weighted = ops.sum(subs * weights, axis=-1).data
        assert np.allclose(weighted, subs.data[:, 0], atol=1e-10)

    def test_exp_log_roundtrip(self):
        kappa = adaptive_kappas(3)
        rng = np.random.default_rng(7)
        v = Tensor(rng.normal(scale=0.2, size=(3, 5, 4)))
        back = kernels.logmap0(kernels.expmap0(v, kappa), kappa)
        assert np.allclose(back.data, v.data, atol=1e-7)

    def test_adaptive_spreads_curvatures(self):
        kappas = adaptive_kappas(3)
        assert kappas[0] < 0 < kappas[-1]
        assert len(set(kappas.tolist())) == 3

    def test_adaptive_single_space_starts_flat(self):
        assert adaptive_kappas(1).tolist() == [0.0]

    def test_parameters_only_from_trainable_factors(self):
        # a frozen entry of a mixed vector (signature "HU") gets no
        # gradient; the learned entry gets its own
        kappa = Curvature([-1.0, 0.5], [False, True])
        x = Parameter(np.full((2, 3, 2), 0.2))
        ops.sum(kernels.expmap0(x, kappa)).backward()
        assert kappa.grad[0] == 0.0 and kappa.grad[1] != 0.0

    def test_constrain_all(self):
        kappa = Curvature(adaptive_kappas(2), [True, True])
        kappa.data[...] = 99.0
        kappa.constrain()
        assert all(k <= 2.5 for k in kappa.data)
