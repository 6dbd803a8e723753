"""The geometry kernel registry: one numpy implementation per primitive.

Every hot path in the system — training, full-graph inference and ANN
re-ranking — bottoms out in the same handful of κ-stereographic
primitives of paper Table II: the ``tan_κ``/``artan_κ`` radial maps,
Möbius addition, the boundary projection and the geodesic distance,
each with a hand-derived backward.  Each has exactly one
implementation, in plain numpy, and the composed micro-op chain of
:mod:`repro.geometry.stereographic` is its gradcheck oracle.

:mod:`repro.geometry.fast` reaches the kernels through :func:`impl`,
which reads :data:`REGISTRY` at call time, so replacing
``REGISTRY[name].numpy`` re-routes every call — that is how the
end-to-end tracer counts and times them.

The three curvature regimes split on the ``_KAPPA_ZERO_TOL`` threshold,
the clip/ε guards use the composed chain's named constants in its
evaluation order, and the backward helpers reuse the forward's cached
trig value (``tanh``/``tan``/``arctanh``/``arctan`` is evaluated
exactly once per op — see ``*_fwd_numpy``/``*_bwd_numpy``).

Two trig *flavours* coexist:

- the **inference flavour** (the ``artan_k`` kernel and the
  pairwise/rowwise distances): ``s = sqrt(±κ)`` with no ε, matching
  the historical no-tape index-build path;
- the **fused flavour** (radial and fused-dist kernels):
  ``s = sqrt(|κ| + ε)`` with the named clamp constants, matching the
  composed autodiff chain the fused tape ops replicate.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

import numpy as np

# Shared clamp/ε constants — the kernels match the composed reference
# only while these stay identical to it.
from repro.geometry.stereographic import (
    _ARTANH_ARG_MAX,
    _EPS,
    _KAPPA_ZERO_TOL,
    _TAN_ARG_MAX,
    _TANH_ARG_MAX,
)

# read by benchmarks/e2e/run.py's host fingerprint; numba is not used
NUMBA_VERSION = None

#: trig-kind selector shared by the radial kernels
KIND_TAN = 0
KIND_ARTAN = 1


# -- split trig helpers (fused flavour) -------------------------------------
#
# Forward returns ``(f, aux)`` where ``aux`` caches the raw trig value
# (tanh/tan/arctanh/arctan of the clipped argument; the radius itself on
# the Taylor branch).  Backward takes ``(r, aux, kappa)`` and rebuilds
# the clipped argument bitwise, so its ``df_dr``/``df_dκ`` match the old
# eager vjp exactly while the trig call happens once, in the forward.
# The radial/dist numpy kernels look these up as module attributes at
# call time, which is what makes the call-counting regression test's
# monkeypatch observable.


def tan_k_fwd_numpy(r: np.ndarray, kappa: float):
    """``tan_κ(r)`` (fused ε/clips) plus the cached trig value."""
    if kappa < -_KAPPA_ZERO_TOL:
        s = np.sqrt(-kappa + _EPS)
        th = np.tanh(np.clip(r * s, -_TANH_ARG_MAX, _TANH_ARG_MAX))
        return th / s, th
    if kappa > _KAPPA_ZERO_TOL:
        s = np.sqrt(kappa + _EPS)
        tn = np.tan(np.clip(r * s, -_TAN_ARG_MAX, _TAN_ARG_MAX))
        return tn / s, tn
    return r + kappa * r ** 3 / 3.0, r


def tan_k_bwd_numpy(r: np.ndarray, aux: np.ndarray, kappa: float):
    """``(∂tan_κ/∂r, ∂tan_κ/∂κ)`` from the cached forward trig value."""
    if kappa < -_KAPPA_ZERO_TOL:
        s = np.sqrt(-kappa + _EPS)
        u = r * s
        inside = (u >= -_TANH_ARG_MAX) & (u <= _TANH_ARG_MAX)
        th = aux
        sech2 = (1.0 - th * th) * inside
        ds_dk = -0.5 / s
        df_ds = (sech2 * r * s - th) / (s * s)
        return sech2, df_ds * ds_dk
    if kappa > _KAPPA_ZERO_TOL:
        s = np.sqrt(kappa + _EPS)
        u = r * s
        inside = (u >= -_TAN_ARG_MAX) & (u <= _TAN_ARG_MAX)
        tn = aux
        sec2 = (1.0 + tn * tn) * inside
        ds_dk = 0.5 / s
        df_ds = (sec2 * r * s - tn) / (s * s)
        return sec2, df_ds * ds_dk
    return 1.0 + kappa * r * r, r ** 3 / 3.0


def artan_k_fwd_numpy(r: np.ndarray, kappa: float):
    """``tan⁻¹_κ(r)`` (fused ε/clips) plus the cached trig value."""
    if kappa < -_KAPPA_ZERO_TOL:
        s = np.sqrt(-kappa + _EPS)
        at = np.arctanh(np.clip(r * s, -_ARTANH_ARG_MAX, _ARTANH_ARG_MAX))
        return at / s, at
    if kappa > _KAPPA_ZERO_TOL:
        s = np.sqrt(kappa + _EPS)
        at = np.arctan(r * s)
        return at / s, at
    return r - kappa * r ** 3 / 3.0, r


def artan_k_bwd_numpy(r: np.ndarray, aux: np.ndarray, kappa: float):
    """``(∂tan⁻¹_κ/∂r, ∂tan⁻¹_κ/∂κ)`` from the cached forward trig value."""
    if kappa < -_KAPPA_ZERO_TOL:
        s = np.sqrt(-kappa + _EPS)
        u = r * s
        inside = (u >= -_ARTANH_ARG_MAX) & (u <= _ARTANH_ARG_MAX)
        c = np.clip(u, -_ARTANH_ARG_MAX, _ARTANH_ARG_MAX)
        at = aux
        # ops.arctanh guards 1-c² with the same clamp
        dat_dc = 1.0 / np.maximum(1.0 - c * c, _EPS)
        df_dr = dat_dc * inside
        ds_dk = -0.5 / s
        df_ds = (dat_dc * inside * r * s - at) / (s * s)
        return df_dr, df_ds * ds_dk
    if kappa > _KAPPA_ZERO_TOL:
        s = np.sqrt(kappa + _EPS)
        u = r * s
        at = aux
        dat_du = 1.0 / (1.0 + u * u)
        ds_dk = 0.5 / s
        df_ds = (dat_du * r * s - at) / (s * s)
        return dat_du, df_ds * ds_dk
    return 1.0 - kappa * r * r, -(r ** 3) / 3.0


# -- numpy kernel implementations -------------------------------------------
#
# Registry contract (all float64; ``kappa`` a python float):
#
# - artan_k:              ``(n,) -> (n,)``          (inference flavour)
# - radial_fwd:           ``(n,d), κ, kind -> (out (n,d), r (n,), f (n,),
#                         aux (n,))``               (fused flavour)
# - radial_bwd:           ``(grad (n,d), v (n,d), r, f, aux, κ, kind) ->
#                         (grad_v (n,d), grad_κ float)``
# - pairwise_dist:        ``(b,d), (n,d), κ -> (b,n)``
# - rowwise_dist:         ``(b,d), (b,d), κ -> (b,)``
# - dist_fwd:             ``(a (n,d), b (n,d), κ) -> (out (n,), diff, r, f,
#                         aux, safe, p, alpha, beta, ca, cb)``
# - dist_bwd:             ``(grad (n,), a, b, <caches>, κ) ->
#                         (g_a (n,d), g_b (n,d), grad_κ float)``
# - mobius_add_fwd:       ``(x (..,d), y (..,d)|(d,), κ) -> (out, <caches>)``
# - mobius_add_bwd:       ``(grad, x, y, out, <caches>, κ) ->
#                         (g_x, g_y, grad_κ float)``  (g_y not yet unbroadcast)
# - project_fwd:          ``(x (..,d), κ, boundary_eps) -> (out, over,
#                         x_norm, max_norm)``; ``(x, None, None, None)``
#                         when nothing is clipped
# - project_bwd:          ``(grad, x, over, x_norm, max_norm, κ) ->
#                         (g_x, grad_κ float)``


def _np_artan_k(x, kappa):
    # inference flavour: s = sqrt(±κ) with no ε (historical no-tape path)
    if kappa < -_KAPPA_ZERO_TOL:
        s = np.sqrt(-kappa)
        return np.arctanh(np.clip(s * x, -_ARTANH_ARG_MAX,
                                  _ARTANH_ARG_MAX)) / s
    if kappa > _KAPPA_ZERO_TOL:
        s = np.sqrt(kappa)
        return np.arctan(s * x) / s
    return x - kappa * x ** 3 / 3.0


def _np_radial_fwd(v, kappa, kind):
    r = np.sqrt(np.sum(v * v, axis=-1) + _EPS)
    if kind == KIND_TAN:
        f, aux = tan_k_fwd_numpy(r, kappa)
    else:
        f, aux = artan_k_fwd_numpy(r, kappa)
    out = v * (f / r)[:, None]
    return out, r, f, np.asarray(aux, dtype=np.float64)


def _np_radial_bwd(grad, v, r, f, aux, kappa, kind):
    if kind == KIND_TAN:
        df_dr, df_dk = tan_k_bwd_numpy(r, aux, kappa)
    else:
        df_dr, df_dk = artan_k_bwd_numpy(r, aux, kappa)
    gv_inner = np.sum(grad * v, axis=-1)
    grad_v = (grad * (f / r)[:, None]
              + v * (gv_inner * (df_dr * r - f) / r ** 3)[:, None])
    grad_k = float(np.sum(gv_inner / r * df_dk))
    return grad_v, grad_k


def _np_pairwise_mobius_norm(x, y, kappa):
    """``‖-x_i ⊕κ y_j‖`` for all (i, j) pairs, shape ``(B, N)``.

    Expansion: with ``a = -x``, the Möbius sum is
    ``(A·a + B·y) / D`` where ``A = 1 - 2κ⟨a,y⟩ - κ‖y‖²``,
    ``B = 1 + κ‖a‖²`` and ``D = 1 - 2κ⟨a,y⟩ + κ²‖a‖²‖y‖²``; hence
    ``‖·‖² = (A²‖a‖² + 2AB⟨a,y⟩ + B²‖y‖²) / D²``, and only ``(B, N)``
    scalars are formed, never the ``(B, N, d)`` Möbius sums.
    """
    inner = -(x @ y.T)                      # ⟨-x, y⟩, (B, N)
    x2 = np.sum(x * x, axis=1)[:, None]     # ‖-x‖² = ‖x‖², (B, 1)
    y2 = np.sum(y * y, axis=1)[None, :]     # (1, N)
    coeff_a = 1.0 - 2.0 * kappa * inner - kappa * y2
    coeff_b = 1.0 + kappa * x2
    denom = 1.0 - 2.0 * kappa * inner + kappa * kappa * x2 * y2
    denom = np.where(np.abs(denom) < 1e-15, 1e-15, denom)
    squared = (coeff_a * coeff_a * x2 + 2.0 * coeff_a * coeff_b * inner
               + coeff_b * coeff_b * y2)
    squared = np.maximum(squared, 0.0)
    return np.sqrt(squared) / np.abs(denom)


def _np_pairwise_dist(x, y, kappa):
    return 2.0 * _np_artan_k(_np_pairwise_mobius_norm(x, y, kappa), kappa)


def _np_rowwise_dist(x, y, kappa):
    inner = -np.sum(x * y, axis=1)
    x2 = np.sum(x * x, axis=1)
    y2 = np.sum(y * y, axis=1)
    coeff_a = 1.0 - 2.0 * kappa * inner - kappa * y2
    coeff_b = 1.0 + kappa * x2
    denom = 1.0 - 2.0 * kappa * inner + kappa * kappa * x2 * y2
    denom = np.where(np.abs(denom) < 1e-15, 1e-15, denom)
    squared = np.maximum(coeff_a * coeff_a * x2
                         + 2.0 * coeff_a * coeff_b * inner
                         + coeff_b * coeff_b * y2, 0.0)
    norm = np.sqrt(squared) / np.abs(denom)
    return 2.0 * _np_artan_k(norm, kappa)


def _np_dist_fwd(a, b, kappa):
    p = np.sum(a * b, axis=-1)
    alpha = np.sum(a * a, axis=-1)
    beta = np.sum(b * b, axis=-1)
    ca = 1.0 - 2.0 * kappa * p - kappa * beta
    cb = 1.0 + kappa * alpha
    den = 1.0 - 2.0 * kappa * p + kappa * kappa * alpha * beta
    safe = np.where(np.abs(den) < _EPS, den + _EPS, den)
    num = ca[:, None] * a + cb[:, None] * b
    diff = num / safe[:, None]
    r = np.sqrt(np.sum(diff * diff, axis=-1) + _EPS)
    f, aux = artan_k_fwd_numpy(r, kappa)
    out = 2.0 * f
    return (out, diff, r, f, np.asarray(aux, dtype=np.float64),
            safe, p, alpha, beta, ca, cb)


def _np_dist_bwd(grad, a, b, diff, r, f, aux, safe, p, alpha, beta,
                 ca, cb, kappa):
    df_dr, df_dk = artan_k_bwd_numpy(r, aux, kappa)
    g_f = 2.0 * grad
    g_r = g_f * df_dr
    grad_k = np.sum(g_f * df_dk)
    g_diff = g_r[:, None] * diff / r[:, None]
    g_num = g_diff / safe[:, None]
    g_den = -np.sum(g_diff * diff, axis=-1) / safe
    g_ca = np.sum(g_num * a, axis=-1)
    g_cb = np.sum(g_num * b, axis=-1)
    g_a = ca[:, None] * g_num
    g_b = cb[:, None] * g_num
    g_p = -2.0 * kappa * (g_ca + g_den)
    g_alpha = kappa * kappa * beta * g_den + kappa * g_cb
    g_beta = kappa * kappa * alpha * g_den - kappa * g_ca
    grad_k += np.sum(g_den * (-2.0 * p + 2.0 * kappa * alpha * beta)
                     + g_ca * (-2.0 * p - beta) + g_cb * alpha)
    g_a = g_a + g_p[:, None] * b + 2.0 * g_alpha[:, None] * a
    g_b = g_b + g_p[:, None] * a + 2.0 * g_beta[:, None] * b
    return g_a, g_b, float(grad_k)


def _np_mobius_add_fwd(x, y, kappa):
    xy = np.sum(x * y, axis=-1, keepdims=True)
    x2 = np.sum(x * x, axis=-1, keepdims=True)
    y2 = np.sum(y * y, axis=-1, keepdims=True)
    ca = 1.0 - 2.0 * kappa * xy - kappa * y2
    cb = 1.0 + kappa * x2
    denominator = 1.0 - 2.0 * kappa * xy + kappa * kappa * x2 * y2
    safe = np.where(np.abs(denominator) < _EPS, denominator + _EPS,
                    denominator)
    return (ca * x + cb * y) / safe, xy, x2, y2, ca, cb, safe


def _np_mobius_add_bwd(grad, x, y, out, xy, x2, y2, ca, cb, safe, kappa):
    g_num = grad / safe
    g_den = -np.sum(grad * out, axis=-1, keepdims=True) / safe
    g_ca = np.sum(g_num * x, axis=-1, keepdims=True)
    g_cb = np.sum(g_num * y, axis=-1, keepdims=True)
    g_xy = -2.0 * kappa * (g_ca + g_den)
    g_x2 = kappa * g_cb + kappa * kappa * y2 * g_den
    g_y2 = kappa * kappa * x2 * g_den - kappa * g_ca
    grad_k = np.sum(g_ca * (-2.0 * xy - y2) + g_cb * x2
                    + g_den * (-2.0 * xy + 2.0 * kappa * x2 * y2))
    g_x = ca * g_num + g_xy * y + 2.0 * g_x2 * x
    g_y = cb * g_num + g_xy * x + 2.0 * g_y2 * y
    return g_x, g_y, float(grad_k)


def _np_project_fwd(x, kappa, boundary_eps):
    # only hyperbolic space has a boundary; a batch with no row over it
    # is returned as the same object so callers can skip the tape node
    if not kappa < -_KAPPA_ZERO_TOL:
        return x, None, None, None
    max_norm = (1.0 - boundary_eps) / np.sqrt(abs(kappa) + _EPS)
    x_norm = np.sqrt(np.sum(x * x, axis=-1, keepdims=True) + _EPS)
    over = x_norm > max_norm
    if not over.any():
        return x, None, None, None
    return np.where(over, x * (max_norm / x_norm), x), over, x_norm, max_norm


def _np_project_bwd(grad, x, over, x_norm, max_norm, kappa):
    inner = np.sum(grad * x, axis=-1, keepdims=True) * over
    g_x = np.where(over, grad * (max_norm / x_norm)
                   - x * (inner * max_norm / x_norm ** 3), grad)
    # max_norm ∝ (|κ| + ε)^-½ with κ < 0, so ∂max_norm/∂κ = max_norm / 2(|κ| + ε)
    grad_k = np.sum(inner / x_norm) * 0.5 * max_norm / (abs(kappa) + _EPS)
    return g_x, float(grad_k)


# -- registry ----------------------------------------------------------------


@dataclasses.dataclass
class Kernel:
    """One registered primitive and its implementation."""

    name: str
    numpy: Callable
    # always None; benchmarks/e2e/boundaries.py reads and restores it
    compiled: Optional[Callable] = None


REGISTRY: Dict[str, Kernel] = {}


def register(name: str, numpy_impl: Callable) -> None:
    """Register (or replace) the implementation of a primitive."""
    REGISTRY[name] = Kernel(name, numpy_impl)


def impl(name: str) -> Callable:
    """The implementation of a registered primitive, read at call time."""
    return REGISTRY[name].numpy


# benchmarks/e2e/boundaries.py calls set_mode(get_mode()) after wrapping
# the kernels; impl() reads REGISTRY at call time, so both are no-ops
def get_mode() -> str:
    return "numpy"


def set_mode(mode: str = "numpy") -> str:
    return "numpy"


register("artan_k", _np_artan_k)
register("radial_fwd", _np_radial_fwd)
register("radial_bwd", _np_radial_bwd)
register("pairwise_dist", _np_pairwise_dist)
register("rowwise_dist", _np_rowwise_dist)
register("dist_fwd", _np_dist_fwd)
register("dist_bwd", _np_dist_bwd)
register("mobius_add_fwd", _np_mobius_add_fwd)
register("mobius_add_bwd", _np_mobius_add_bwd)
register("project_fwd", _np_project_fwd)
register("project_bwd", _np_project_bwd)
