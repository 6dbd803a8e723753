"""The geometry kernel registry and its numpy kernels.

Every primitive in :mod:`repro.geometry.kernels` has one numpy
implementation.  The parity classes check it — forward values and the
hand-derived VJPs, including ∂/∂κ — against the composed micro-op chain
of :mod:`repro.geometry.stereographic`, the independent oracle, over
all three curvature regimes and both sides of the κ≈0 branch
threshold, for empty, single-row and batched shapes.  The registry
tests pin the kernel names the end-to-end tracer wraps and the retired
``model.kernels`` dial.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.autodiff import Parameter, Tensor
from repro.geometry import fast, kernels
from repro.geometry import stereographic as stereo
from repro.geometry.kernels import KIND_ARTAN, KIND_TAN
from repro.graph.schema import Relation
from repro.retrieval.ann import candidate_dist
from repro.retrieval.mnn import RelationSpace

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
            got = kernels._np_pairwise_mobius_norm(x, y, kappa)
            want = np.linalg.norm(stereo.mobius_add(-xs, ys, kappa).data,
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
        # fused_dist hands the kernel a = -x, b = y
        fwd = kernels.impl("dist_fwd")(-x, y, kappa)
        g_a, g_b, g_k = kernels.impl("dist_bwd")(grad, -x, y, *fwd[1:], kappa)
        value, (g_x, g_y, g_kappa) = _composed(stereo.dist_k, [x, y], kappa,
                                               grad)
        _check([fwd[0], -g_a, g_b, g_k], [value[:, 0], g_x, g_y, g_kappa])


class TestPublicApi:
    """fast.py entry points: dtype coercion and blocking."""

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 0.7])
    def test_float32_inputs_upcast_to_float64(self, kappa):
        rng = np.random.default_rng(5)
        x64 = rng.normal(scale=0.3, size=(4, 3))
        y64 = rng.normal(scale=0.3, size=(6, 3))
        x32 = x64.astype(np.float32)
        y32 = y64.astype(np.float32)
        got = fast.pairwise_dist(x32, y32, kappa)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got, fast.pairwise_dist(x32.astype(np.float64),
                                    y32.astype(np.float64), kappa))
        assert fast.artan_k_numpy(x32, kappa).dtype == np.float64
        assert fast.rowwise_dist(x32, x32, kappa).dtype == np.float64

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 100])
    def test_pairwise_dist_block_rows_identical(self, kappa, block_rows):
        rng = np.random.default_rng(7)
        x = rng.normal(scale=0.3, size=(9, 4))
        y = rng.normal(scale=0.3, size=(11, 4))
        full = fast.pairwise_dist(x, y, kappa)
        blocked = fast.pairwise_dist(x, y, kappa, block_rows=block_rows)
        # the numpy path's BLAS inner products may pick shape-dependent
        # accumulation orders, so equality is up-to-ulp, not bitwise
        np.testing.assert_allclose(blocked, full, rtol=1e-13, atol=1e-13)

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
        out = fast.fused_expmap0(v, k)
        out.backward(rng.normal(size=(5, 4)))
        assert calls["n"] == 1

    def test_logmap0_evaluates_artan_once(self, monkeypatch):
        calls = self._count(monkeypatch, "artan_k_fwd_numpy")
        rng = np.random.default_rng(1)
        x = Parameter(rng.normal(scale=0.2, size=(5, 4)))
        k = Parameter(np.asarray(-0.9))
        out = fast.fused_logmap0(x, k)
        out.backward(rng.normal(size=(5, 4)))
        assert calls["n"] == 1

    def test_fused_dist_evaluates_artan_once(self, monkeypatch):
        calls = self._count(monkeypatch, "artan_k_fwd_numpy")
        rng = np.random.default_rng(2)
        x = Parameter(rng.normal(scale=0.25, size=(6, 4)))
        y = Parameter(rng.normal(scale=0.25, size=(6, 4)))
        k = Parameter(np.asarray(0.7))
        out = fast.fused_dist(x, y, k)
        out.backward(rng.normal(size=(6, 1)))
        assert calls["n"] == 1
