"""Parity suite for the geometry kernel dispatch layer.

The nine PR 10 primitives in :mod:`repro.geometry.kernels` carry a
pure-numpy reference and a loop implementation (njit-wrapped into the
``compiled`` target when numba is importable); the Möbius-add/project
kernels are numpy-only and dispatch to numpy in every mode.  The
contract is parity:
forward values and hand-derived VJP outputs agree across
implementations well within the 1e-8 loss/grad budget, over all three
curvature regimes including the κ≈0 branch boundary, for empty,
singleton and batched shapes.  The loop implementations are exercised
as plain Python everywhere, so the compiled logic is covered even on
hosts without numba; where numba is present the jitted versions are
checked too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Parameter
from repro.geometry import fast, kernels
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

LOOP_KERNELS = {
    "tan_k", "artan_k", "radial_fwd", "radial_bwd",
    "pairwise_mobius_norm", "pairwise_dist", "rowwise_dist",
    "dist_fwd", "dist_bwd",
}
NUMPY_ONLY_KERNELS = {
    "mobius_add_fwd", "mobius_add_bwd", "project_fwd", "project_bwd",
}
EXPECTED_KERNELS = LOOP_KERNELS | NUMPY_ONLY_KERNELS
#: every mode this host can activate
MODES = ("auto", "numpy") + (("compiled",) if kernels.HAVE_NUMBA else ())


def _variants(name):
    """(label, impl) pairs to check against the numpy reference."""
    kern = kernels.REGISTRY[name]
    out = [("loop", kern.loop)]
    if kern.compiled is not None:
        out.append(("compiled", kern.compiled))
    return out


def _check(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(np.asarray(g, dtype=np.float64),
                                   np.asarray(w, dtype=np.float64),
                                   rtol=1e-9, atol=1e-9)


class TestRegistryAndModes:
    def test_registry_covers_expected_kernels(self):
        assert set(kernels.REGISTRY) == EXPECTED_KERNELS
        for name in LOOP_KERNELS:
            kern = kernels.REGISTRY[name]
            assert kern.loop is not None
            assert (kern.compiled is not None) == kernels.HAVE_NUMBA
        for name in NUMPY_ONLY_KERNELS:
            kern = kernels.REGISTRY[name]
            assert kern.loop is None and kern.compiled is None
            for mode in MODES:
                with kernels.use(mode):
                    assert kernels.impl(name) is kern.numpy

    def test_numpy_only_kernel_dispatches_in_every_mode(self):
        """``set_mode`` used to install ``None`` for a loop-less kernel."""
        def double(x):
            return 2.0 * x

        try:
            for outer in MODES:
                with kernels.use(outer):      # register() under each mode
                    kernels.register("_test_numpy_only", double)
                    assert kernels.impl("_test_numpy_only") is double
                    # the fallback itself, checkable without numba
                    kern = kernels.REGISTRY["_test_numpy_only"]
                    assert kernels._target(kern, "compiled") is double
                    for inner in MODES:       # then set_mode() to each
                        with kernels.use(inner):
                            assert kernels.impl("_test_numpy_only")(
                                np.ones(2)).tolist() == [2.0, 2.0]
        finally:
            kernels.REGISTRY.pop("_test_numpy_only", None)
            kernels._DISPATCH.pop("_test_numpy_only", None)

    def test_auto_resolution_matches_environment(self):
        expected = "compiled" if kernels.HAVE_NUMBA else "numpy"
        assert kernels.resolve_mode("auto") == expected
        assert kernels.resolve_mode("numpy") == "numpy"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="auto, numpy, compiled"):
            kernels.resolve_mode("fast")
        with pytest.raises(ValueError, match="auto, numpy, compiled"):
            kernels.set_mode("jit")

    def test_use_context_restores_mode(self):
        before = kernels.get_mode()
        with kernels.use("numpy"):
            assert kernels.get_mode() == "numpy"
            assert kernels.impl("tan_k") is kernels.REGISTRY["tan_k"].numpy
        assert kernels.get_mode() == before

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="numba installed")
    def test_compiled_without_numba_raises_naming_extra(self):
        with pytest.raises(ValueError, match=r"\[compiled\]"):
            kernels.resolve_mode("compiled")
        with pytest.raises(ValueError, match=r"\[compiled\]"):
            kernels.set_mode("compiled")

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="numba installed")
    def test_model_kernels_compiled_without_numba_raises(self, train_graph):
        from repro.models import make_model
        with pytest.raises(ValueError, match=r"\[compiled\]"):
            make_model("amcad", train_graph, num_subspaces=2,
                       subspace_dim=4, seed=0, kernels="compiled")

    def test_model_activates_requested_mode(self, train_graph):
        from repro.models import make_model
        with kernels.use("numpy"):
            model = make_model("amcad", train_graph, num_subspaces=2,
                               subspace_dim=4, seed=0, kernels="auto")
            expected = "compiled" if kernels.HAVE_NUMBA else "numpy"
            assert model.kernel_mode == expected
            assert kernels.get_mode() == expected

    def test_pipeline_config_validates_kernels(self):
        from repro.pipeline.config import ModelConfig
        assert ModelConfig(kernels="numpy").kernels == "numpy"
        with pytest.raises(ValueError, match="model.kernels"):
            ModelConfig(kernels="jit")
        with pytest.raises(ValueError, match="model.overrides"):
            ModelConfig(overrides={"kernels": "numpy"})


class TestElementwiseParity:
    @pytest.mark.parametrize("name", ["tan_k", "artan_k"])
    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(0, 7), seed=st.integers(0, 999),
           kappa=st.sampled_from(KAPPAS))
    def test_parity(self, name, n, seed, kappa):
        rng = np.random.default_rng(seed)
        x = np.ascontiguousarray(rng.normal(scale=1.0, size=n))
        want = kernels.REGISTRY[name].numpy(x, kappa)
        for _, fn in _variants(name):
            _check([fn(x, kappa)], [want])


class TestRadialParity:
    @pytest.mark.parametrize("kind", [KIND_TAN, KIND_ARTAN])
    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(0, 6), d=st.integers(1, 10),
           seed=st.integers(0, 999), kappa=st.sampled_from(KAPPAS))
    def test_forward_and_backward(self, kind, n, d, seed, kappa):
        rng = np.random.default_rng(seed)
        v = rng.normal(scale=0.3, size=(n, d))
        grad = rng.normal(size=(n, d))
        ref = kernels.REGISTRY["radial_fwd"].numpy(v, kappa, kind)
        ref_bwd = kernels.REGISTRY["radial_bwd"].numpy(
            grad, v, ref[1], ref[2], ref[3], kappa, kind)
        for _, fwd in _variants("radial_fwd"):
            got = fwd(v, kappa, kind)
            _check(got, ref)
        for _, bwd in _variants("radial_bwd"):
            got = bwd(grad, v, ref[1], ref[2], ref[3], kappa, kind)
            _check(got, ref_bwd)


class TestPairwiseParity:
    @pytest.mark.parametrize("name", ["pairwise_mobius_norm",
                                      "pairwise_dist"])
    @settings(deadline=None, max_examples=30)
    @given(b=st.integers(0, 5), n=st.integers(0, 6), d=st.integers(1, 10),
           seed=st.integers(0, 999), kappa=st.sampled_from(KAPPAS))
    def test_parity(self, name, b, n, d, seed, kappa):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=0.3, size=(b, d))
        y = rng.normal(scale=0.3, size=(n, d))
        want = kernels.REGISTRY[name].numpy(x, y, kappa)
        for _, fn in _variants(name):
            _check([fn(x, y, kappa)], [want])

    @settings(deadline=None, max_examples=30)
    @given(b=st.integers(0, 6), d=st.integers(1, 10),
           seed=st.integers(0, 999), kappa=st.sampled_from(KAPPAS))
    def test_rowwise_parity(self, b, d, seed, kappa):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=0.3, size=(b, d))
        y = rng.normal(scale=0.3, size=(b, d))
        want = kernels.REGISTRY["rowwise_dist"].numpy(x, y, kappa)
        for _, fn in _variants("rowwise_dist"):
            _check([fn(x, y, kappa)], [want])


class TestDistParity:
    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(0, 6), d=st.integers(1, 10),
           seed=st.integers(0, 999), kappa=st.sampled_from(KAPPAS))
    def test_forward_and_backward(self, n, d, seed, kappa):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=0.3, size=(n, d))
        b = rng.normal(scale=0.3, size=(n, d))
        grad = rng.normal(size=n)
        ref = kernels.REGISTRY["dist_fwd"].numpy(a, b, kappa)
        ref_bwd = kernels.REGISTRY["dist_bwd"].numpy(
            grad, a, b, *ref[1:], kappa)
        for _, fwd in _variants("dist_fwd"):
            _check(fwd(a, b, kappa), ref)
        for _, bwd in _variants("dist_bwd"):
            _check(bwd(grad, a, b, *ref[1:], kappa), ref_bwd)


class TestPublicApi:
    """fast.py entry points: dtype coercion, blocking, mode equivalence."""

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
        assert fast.tan_k_numpy(x32, kappa).dtype == np.float64
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

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 0.7])
    def test_fused_ops_parity_across_modes(self, kappa):
        """Loss-level contract: tape ops agree across kernel modes."""
        modes = ["numpy"]
        if kernels.HAVE_NUMBA:
            modes.append("compiled")
        rng = np.random.default_rng(3)
        x = rng.normal(scale=0.25, size=(6, 4))
        y = rng.normal(scale=0.25, size=(6, 4))
        upstream = rng.normal(size=(6, 1))
        results = {}
        for mode in modes:
            with kernels.use(mode):
                xa, ya = Parameter(x.copy()), Parameter(y.copy())
                ka = Parameter(np.asarray(kappa))
                out = fast.fused_dist(xa, ya, ka)
                out.backward(upstream)
                results[mode] = (out.data.copy(), xa.grad.copy(),
                                 ya.grad.copy(), ka.grad.copy())
        for mode in modes[1:]:
            for got, want in zip(results[mode], results["numpy"]):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


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
        with kernels.use("numpy"):
            v = Parameter(rng.normal(scale=0.3, size=(5, 4)))
            k = Parameter(np.asarray(-0.9))
            out = fast.fused_expmap0(v, k)
            out.backward(rng.normal(size=(5, 4)))
        assert calls["n"] == 1

    def test_logmap0_evaluates_artan_once(self, monkeypatch):
        calls = self._count(monkeypatch, "artan_k_fwd_numpy")
        rng = np.random.default_rng(1)
        with kernels.use("numpy"):
            x = Parameter(rng.normal(scale=0.2, size=(5, 4)))
            k = Parameter(np.asarray(-0.9))
            out = fast.fused_logmap0(x, k)
            out.backward(rng.normal(size=(5, 4)))
        assert calls["n"] == 1

    def test_fused_dist_evaluates_artan_once(self, monkeypatch):
        calls = self._count(monkeypatch, "artan_k_fwd_numpy")
        rng = np.random.default_rng(2)
        with kernels.use("numpy"):
            x = Parameter(rng.normal(scale=0.25, size=(6, 4)))
            y = Parameter(rng.normal(scale=0.25, size=(6, 4)))
            k = Parameter(np.asarray(0.7))
            out = fast.fused_dist(x, y, k)
            out.backward(rng.normal(size=(6, 1)))
        assert calls["n"] == 1


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
class TestCompiledOnly:
    def test_warmup_compiles_every_kernel(self):
        seconds = kernels.warmup()
        assert seconds >= 0.0

    def test_auto_selects_compiled(self):
        with kernels.use("auto"):
            assert kernels.get_mode() == "compiled"
            kern = kernels.REGISTRY["pairwise_dist"]
            assert kernels.impl("pairwise_dist") is kern.compiled
