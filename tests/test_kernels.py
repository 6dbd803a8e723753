"""The geometry kernel registry and its numpy kernels.

Every primitive in :mod:`repro.geometry.kernels` has one numpy
implementation.  The parity classes check it — forward values and the
hand-derived VJPs, including ∂/∂κ — against the composed micro-op chain
of ``tests/reference/stereographic.py``, the independent oracle, over
all three curvature regimes and both sides of the κ≈0 branch
threshold, for empty, single-row and batched shapes.  The registry
tests pin the kernel names the end-to-end tracer wraps and the retired
``model.kernels`` dial.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.autodiff import Parameter, Tensor
from repro.geometry import kernels
from repro.geometry.kernels import KIND_ARTAN, KIND_TAN
from repro.graph.schema import Relation
from repro.retrieval.ann import candidate_dist
from repro.retrieval.mnn import RelationSpace

from reference import stereographic as stereo

_TOL = kernels._KAPPA_ZERO_TOL

# every regime plus both sides of the Taylor/trig branch boundary:
# ±_TOL itself takes the Taylor branch, the nextafter values are the
# first floats on the trig side
KAPPAS = (
    -2.0, -1.0, -0.4,
    -float(np.nextafter(_TOL, 1.0)), -_TOL, -1e-7,
    0.0,
    1e-7, _TOL, float(np.nextafter(_TOL, 1.0)),
    0.7, 2.0,
)

EXPECTED_KERNELS = {
    "artan_k", "radial_fwd", "radial_bwd", "pairwise_dist", "rowwise_dist",
    "dist_fwd", "dist_bwd", "mobius_add_fwd", "mobius_add_bwd",
    "project_fwd", "project_bwd",
}

#: per trig helper pair: forward, backward and the composed oracle
_TRIG = {
    "tan_k": (kernels.tan_k_fwd_numpy, kernels.tan_k_bwd_numpy, stereo.tan_k),
    "artan_k": (kernels.artan_k_fwd_numpy, kernels.artan_k_bwd_numpy,
                stereo.artan_k),
}


def _check(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(np.asarray(g, dtype=np.float64),
                                   np.asarray(w, dtype=np.float64),
                                   rtol=1e-9, atol=1e-9)


def _composed(op, inputs, kappa, upstream):
    """Value of the composed chain ``op(*inputs, κ)`` and the gradients
    of ``sum(upstream · value)`` for each input and κ."""
    params = [Parameter(np.array(x, dtype=np.float64)) for x in inputs]
    k = Parameter(np.asarray(kappa, dtype=np.float64))
    out = op(*params, k)
    out.backward(np.reshape(upstream, out.shape))
    return out.data, [np.zeros(p.shape) if p.grad is None else p.grad
                      for p in params + [k]]


class TestRegistryAndModes:
    """The registry the end-to-end tracer wraps, and the retired
    ``model.kernels`` dial."""

    def test_registry_covers_expected_kernels(self):
        assert set(kernels.REGISTRY) == EXPECTED_KERNELS
        for name, kern in kernels.REGISTRY.items():
            assert kernels.impl(name) is kern.numpy
            assert kern.compiled is None

    def test_numpy_only_kernel_dispatches_in_every_mode(self):
        """A newly registered kernel dispatches, and ``set_mode`` (kept
        for the e2e tracer) changes nothing for any retired mode value."""
        def double(x):
            return 2.0 * x

        def triple(x):
            return 3.0 * x

        try:
            kernels.register("_test_kernel", double)
            for mode in ("auto", "numpy", "compiled"):
                assert kernels.set_mode(mode) == "numpy"
                assert kernels.get_mode() == "numpy"
                assert kernels.impl("_test_kernel")(np.ones(2)).tolist() == [2, 2]
            # impl() reads the registry at call time, so a replaced
            # implementation (the tracer's wrapper) is what callers get
            kernels.REGISTRY["_test_kernel"].numpy = triple
            assert kernels.impl("_test_kernel")(np.ones(2)).tolist() == [3, 3]
        finally:
            kernels.REGISTRY.pop("_test_kernel", None)

    @staticmethod
    def _build(train_graph, **kwargs):
        from repro.models import make_model
        return make_model("amcad", train_graph, num_subspaces=2,
                          subspace_dim=4, seed=0, **kwargs)

    def test_model_activates_requested_mode(self, train_graph):
        """``make_model``/``AMCADConfig`` take every value the retired
        dial accepted and build the same numpy-kernel model."""
        from repro.models.amcad import AMCADConfig

        plain = self._build(train_graph)
        for mode in ("auto", "numpy", "compiled"):
            assert AMCADConfig(kernels=mode) == AMCADConfig()
            model = self._build(train_graph, kernels=mode)
            assert model.config == plain.config
            assert model.kernel_mode == "numpy"
            assert kernels.get_mode() == "numpy"
            for got, want in zip(model.parameters(), plain.parameters()):
                np.testing.assert_array_equal(got.data, want.data)

    def test_invalid_mode_rejected(self, train_graph):
        """Any value the retired dial did not accept is rejected by name."""
        from repro.models.amcad import AMCADConfig

        build = lambda **kwargs: self._build(train_graph, **kwargs)  # noqa: E731
        with pytest.raises(ValueError, match=r"model\.kernels='jit'.*retired"):
            AMCADConfig(kernels="jit")
        with pytest.raises(ValueError, match=r"model\.kernels='fast'.*retired"):
            build(kernels="fast")


class TestElementwiseParity:
    @pytest.mark.parametrize("name", ["tan_k", "artan_k"])
    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(0, 7), seed=st.integers(0, 999),
           kappa=st.sampled_from(KAPPAS))
    @example(n=0, seed=0, kappa=-_TOL)
    @example(n=1, seed=1, kappa=float(np.nextafter(_TOL, 1.0)))
    def test_parity(self, name, n, seed, kappa):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=1.0, size=n)
        upstream = rng.normal(size=n)
        fwd, bwd, composed = _TRIG[name]
        f, aux = fwd(x, kappa)
        df_dr, df_dk = bwd(x, aux, kappa)
        value, grads = _composed(composed, [x], kappa, upstream)
        _check([f, upstream * df_dr, np.sum(upstream * df_dk)],
               [value, *grads])
        if name == "artan_k":       # the inference-flavour kernel (no ε)
            _check([kernels.impl("artan_k")(x, kappa)], [value])


class TestRadialParity:
    @pytest.mark.parametrize("kind", [KIND_TAN, KIND_ARTAN])
    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(0, 6), d=st.integers(1, 10),
           seed=st.integers(0, 999), kappa=st.sampled_from(KAPPAS))
    @example(n=0, d=3, seed=0, kappa=_TOL)
    @example(n=1, d=3, seed=1, kappa=-float(np.nextafter(_TOL, 1.0)))
    def test_forward_and_backward(self, kind, n, d, seed, kappa):
        rng = np.random.default_rng(seed)
        v = rng.normal(scale=0.3, size=(n, d))
        grad = rng.normal(size=(n, d))
        out, r, f, aux = kernels.impl("radial_fwd")(v, kappa, kind)
        g_v, g_k = kernels.impl("radial_bwd")(grad, v, r, f, aux, kappa, kind)
        composed = stereo.expmap0 if kind == KIND_TAN else stereo.logmap0
        value, grads = _composed(composed, [v], kappa, grad)
        _check([out, g_v, g_k], [value, *grads])


class TestPairwiseParity:
    @pytest.mark.parametrize("name", ["pairwise_mobius_norm",
                                      "pairwise_dist"])
    @settings(deadline=None, max_examples=30)
    @given(b=st.integers(0, 5), n=st.integers(0, 6), d=st.integers(1, 10),
           seed=st.integers(0, 999), kappa=st.sampled_from(KAPPAS))
    @example(b=0, n=1, d=3, seed=0, kappa=-_TOL)
    @example(b=1, n=0, d=3, seed=1, kappa=_TOL)
    @example(b=1, n=1, d=3, seed=2, kappa=float(np.nextafter(_TOL, 1.0)))
    def test_parity(self, name, b, n, d, seed, kappa):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=0.3, size=(b, d))
        y = rng.normal(scale=0.3, size=(n, d))
        # every (i, j) pair by broadcasting (b, 1, d) against (1, n, d)
        xs, ys = Tensor(x[:, None, :]), Tensor(y[None, :, :])
        if name == "pairwise_dist":
            got = kernels.impl("pairwise_dist")(x, y, kappa)
            want = stereo.dist_k(xs, ys, kappa).data[..., 0]
        else:
            # the norm expansion pairwise_dist is built on
            got = kernels.mobius_norm(-(x @ y.T),
                                      np.sum(x * x, axis=1)[:, None],
                                      np.sum(y * y, axis=1)[None, :], kappa)
            want = np.linalg.norm(stereo.mobius_add(Tensor(-xs.data), ys,
                                                    kappa).data,
                                  axis=-1)
        _check([got], [want])

    @settings(deadline=None, max_examples=30)
    @given(b=st.integers(0, 6), d=st.integers(1, 10),
           seed=st.integers(0, 999), kappa=st.sampled_from(KAPPAS))
    @example(b=0, d=3, seed=0, kappa=-_TOL)
    @example(b=1, d=3, seed=1, kappa=-float(np.nextafter(_TOL, 1.0)))
    def test_rowwise_parity(self, b, d, seed, kappa):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=0.3, size=(b, d))
        y = rng.normal(scale=0.3, size=(b, d))
        want = stereo.dist_k(Tensor(x), Tensor(y), kappa).data[:, 0]
        _check([kernels.impl("rowwise_dist")(x, y, kappa)], [want])


class TestDistParity:
    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(0, 6), d=st.integers(1, 10),
           seed=st.integers(0, 999), kappa=st.sampled_from(KAPPAS))
    @example(n=0, d=3, seed=0, kappa=_TOL)
    @example(n=1, d=3, seed=1, kappa=-float(np.nextafter(_TOL, 1.0)))
    def test_forward_and_backward(self, n, d, seed, kappa):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=0.3, size=(n, d))
        y = rng.normal(scale=0.3, size=(n, d))
        grad = rng.normal(size=n)
        # dist hands the kernel a = -x, b = y
        fwd = kernels.impl("dist_fwd")(-x, y, kappa)
        g_a, g_b, g_k = kernels.impl("dist_bwd")(grad, -x, y, *fwd[1:], kappa)
        value, (g_x, g_y, g_kappa) = _composed(stereo.dist_k, [x, y], kappa,
                                               grad)
        _check([fwd[0], -g_a, g_b, g_k], [value[:, 0], g_x, g_y, g_kappa])


class TestPublicApi:
    """Plain-array entry points: dtype coercion and blocking."""

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 0.7])
    def test_float32_inputs_upcast_to_float64(self, kappa):
        rng = np.random.default_rng(5)
        x64 = rng.normal(scale=0.3, size=(4, 3))
        y64 = rng.normal(scale=0.3, size=(6, 3))
        x32 = x64.astype(np.float32)
        y32 = y64.astype(np.float32)
        got = kernels.pairwise_dist(x32, y32, kappa)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got, kernels.pairwise_dist(x32.astype(np.float64),
                                    y32.astype(np.float64), kappa))
        assert kernels.artan_k_numpy(x32, kappa).dtype == np.float64
        assert kernels.rowwise_dist(x32, x32, kappa).dtype == np.float64

    def test_candidate_dist_block_rows_identical(self):
        rng = np.random.default_rng(11)
        n_src, n_dst, d, rr = 9, 20, 4, 5
        space = RelationSpace(
            relation=Relation.Q2I,
            src_embeddings=[rng.normal(scale=0.3, size=(n_src, d)),
                            rng.normal(scale=0.3, size=(n_src, d))],
            dst_embeddings=[rng.normal(scale=0.3, size=(n_dst, d)),
                            rng.normal(scale=0.3, size=(n_dst, d))],
            src_weights=rng.uniform(size=(n_src, 2)),
            dst_weights=rng.uniform(size=(n_dst, 2)),
            kappas=[-0.8, 0.6])
        src = np.arange(n_src, dtype=np.int64)
        cand = rng.integers(0, n_dst, size=(n_src, rr))
        valid = rng.uniform(size=(n_src, rr)) > 0.2
        full = candidate_dist(space, src, cand, valid)
        for block_rows in (1, 2, 4, 100):
            blocked = candidate_dist(space, src, cand, valid,
                                     block_rows=block_rows)
            np.testing.assert_array_equal(full, blocked)
        assert np.all(np.isinf(full[~valid]))


class TestForwardCaching:
    """Satellite regression: the fused vjps evaluate the forward trig
    exactly once per op — the backward reuses the cached value."""

    def _count(self, monkeypatch, attr):
        calls = {"n": 0}
        original = getattr(kernels, attr)

        def counting(r, kappa):
            calls["n"] += 1
            return original(r, kappa)

        monkeypatch.setattr(kernels, attr, counting)
        return calls

    def test_expmap0_evaluates_tan_once(self, monkeypatch):
        calls = self._count(monkeypatch, "tan_k_fwd_numpy")
        rng = np.random.default_rng(0)
        v = Parameter(rng.normal(scale=0.3, size=(5, 4)))
        k = Parameter(np.asarray(-0.9))
        out = kernels.expmap0(v, k)
        out.backward(rng.normal(size=(5, 4)))
        assert calls["n"] == 1

    def test_logmap0_evaluates_artan_once(self, monkeypatch):
        calls = self._count(monkeypatch, "artan_k_fwd_numpy")
        rng = np.random.default_rng(1)
        x = Parameter(rng.normal(scale=0.2, size=(5, 4)))
        k = Parameter(np.asarray(-0.9))
        out = kernels.logmap0(x, k)
        out.backward(rng.normal(size=(5, 4)))
        assert calls["n"] == 1

    def test_fused_dist_evaluates_artan_once(self, monkeypatch):
        calls = self._count(monkeypatch, "artan_k_fwd_numpy")
        rng = np.random.default_rng(2)
        x = Parameter(rng.normal(scale=0.25, size=(6, 4)))
        y = Parameter(rng.normal(scale=0.25, size=(6, 4)))
        k = Parameter(np.asarray(0.7))
        out = kernels.dist(x, y, k)
        out.backward(rng.normal(size=(6, 1)))
        assert calls["n"] == 1


#: per-factor curvatures mixed inside one κ vector: every regime and
#: both sides of the Taylor threshold (|κ| ≤ 1e-5 is the Taylor branch)
SWEEP_VALUES = (-1.0, -2e-5, -5e-6, 0.0, 5e-6, 2e-5, 1.0)
SWEEP_VECTORS = (SWEEP_VALUES, SWEEP_VALUES[::-1], (1.0, -1.0),
                 (-2e-5, 2e-5), (5e-6, -1.0, 2e-5), (-5e-6,))


def _sweep_rows(kappa: float, d: int, rng) -> np.ndarray:
    """Rows of one factor: interior, zero, denormal and huge norms, and
    rows either side of ``project``'s boundary (its hyperbolic radius,
    or radius 1 for a factor without one)."""
    unit = rng.normal(size=(3, d))
    unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
    radius = ((1.0 - 4e-3) / np.sqrt(-kappa + kernels._EPS)
              if kappa < -_TOL else 1.0)
    return np.concatenate([
        rng.normal(scale=0.3, size=(2, d)),
        np.zeros((1, d)),
        np.full((1, d), 1e-310),
        np.full((1, d), 1e6),
        unit * (radius * np.array([0.5, 0.999, 1.5]))[:, None]])


def _sweep_block(kappas, d, seed):
    rng = np.random.default_rng(seed)
    return np.stack([_sweep_rows(k, d, rng) for k in kappas])


#: tape wiring -> (composed scalar-κ oracle, number of point inputs)
_SWEEP_OPS = {
    "expmap0": (kernels.expmap0, stereo.expmap0, 1),
    "logmap0": (kernels.logmap0, stereo.logmap0, 1),
    "dist": (kernels.dist, stereo.dist_k, 2),
    "mobius_add": (kernels.mobius_add, stereo.mobius_add, 2),
    "project": (kernels.project, stereo.project, 1),
}


def _grads(out, upstream, *params):
    out.backward(upstream)
    return [np.zeros(p.shape) if p.grad is None else p.grad for p in params]


class TestMixedCurvatureSweep:
    """Edge sweep of the stacked kernels: one κ vector mixing regimes,
    boundary rows, huge/denormal norms and float32 inputs.  Outputs are
    finite, each factor's slice is bit-equal to the one-factor call with
    a scalar κ, and every gradient — each factor's ∂κ included — matches
    the composed chain."""

    @pytest.mark.parametrize("name", sorted(_SWEEP_OPS))
    @pytest.mark.parametrize("kappas", SWEEP_VECTORS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tape_kernels(self, name, kappas, dtype):
        fused, composed, arity = _SWEEP_OPS[name]
        d = 3
        blocks = [_sweep_block(kappas, d, seed).astype(dtype)
                  for seed in range(arity)]
        kappa = Parameter(np.asarray(kappas))
        points = [Parameter(b) for b in blocks]
        out = fused(*points, kappa)
        assert np.all(np.isfinite(out.data))
        upstream = np.random.default_rng(9).normal(size=out.shape)
        grads = _grads(out, upstream, *points, kappa)
        for g in grads:
            assert np.all(np.isfinite(g))

        factor_axis = -1 if name == "dist" else 0
        for m, k in enumerate(kappas):
            up = np.take(upstream, m, axis=factor_axis)
            if name == "dist":
                up = up[:, None]
            # bit-equal to the same kernel on this factor alone
            alone_k = Parameter(np.asarray(k))
            alone = [Parameter(b[m]) for b in blocks]
            one = fused(*alone, alone_k)
            np.testing.assert_array_equal(
                np.take(out.data, [m], axis=factor_axis).reshape(
                    one.shape), one.data)
            one_grads = _grads(one, up, *alone, alone_k)
            for g, want in zip(grads[:-1], one_grads[:-1]):
                np.testing.assert_array_equal(g[m], want)
            assert grads[-1][m] == one_grads[-1]
            # gradcheck against the composed chain
            ref_k = Parameter(np.asarray(k))
            ref = [Parameter(b[m].astype(np.float64)) for b in blocks]
            value = composed(*ref, ref_k)
            np.testing.assert_allclose(one.data, value.data, rtol=1e-9,
                                       atol=1e-9)
            for got, want in zip(one_grads, _grads(value, up, *ref, ref_k)):
                np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("kappas", SWEEP_VECTORS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_artan_k(self, kappas, dtype):
        rng = np.random.default_rng(3)
        x = np.abs(np.stack([np.concatenate([
            rng.normal(scale=0.5, size=4), [0.0, 1e-310, 1e6, 0.9999]])
            for _ in kappas])).astype(dtype)
        out = kernels.impl("artan_k")(x, np.asarray(kappas))
        assert out.shape == x.shape and np.all(np.isfinite(out))
        for m, k in enumerate(kappas):
            np.testing.assert_array_equal(
                out[m], kernels.impl("artan_k")(x[m], k))

    @pytest.mark.parametrize("kappa", SWEEP_VALUES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pairwise_and_rowwise(self, kappa, dtype):
        x = _sweep_block([kappa], 3, 0)[0].astype(dtype)
        y = _sweep_block([kappa], 3, 1)[0].astype(dtype)
        pairwise = kernels.pairwise_dist(x, y, kappa)
        rowwise = kernels.rowwise_dist(x, y, kappa)
        assert np.all(np.isfinite(pairwise)) and np.all(np.isfinite(rowwise))
        np.testing.assert_allclose(np.diag(pairwise), rowwise, rtol=1e-9,
                                   atol=1e-9)
