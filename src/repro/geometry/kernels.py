"""Dispatchable inner kernels for the fused geometry ops.

Every hot path in the system — training, full-graph inference and ANN
re-ranking — bottoms out in the same handful of mixed-curvature
primitives (`tan_κ`/`artan_κ` radial maps, the pairwise Möbius-norm
expansion, the fused distance forward/backward).  This module puts one
dispatch registry in front of them: per primitive it holds

- a **pure-numpy implementation** — the reference, moved here from
  :mod:`repro.geometry.fast`, gradchecked against the composed
  micro-op chain by the encoder-plane tests;
- a **loop implementation** — the same math written as sequential
  scalar loops (the MyGrad idiom: njit only the inner loop of an
  autodiff op, numpy everywhere else).  Kept callable as plain Python
  so its logic is testable even where numba is absent;
- the **compiled implementation** — the loop implementation wrapped in
  ``numba.njit(cache=True, fastmath=False)`` when numba imports.
  ``fastmath`` stays off: the parity contract (losses/grads within
  1e-8 of numpy, re-rank distances within 1e-6) relies on IEEE
  ordering of the guard arithmetic.

The Möbius-add and project kernels are registered **numpy-only** (no
loop twin): they dispatch to numpy in every mode.

Selection is gated on import: numba absent → numpy silently; numba
present → compiled unless overridden.  The resolved three-valued dial
(``"auto"``/``"numpy"``/``"compiled"``) is exposed as the validated
``model.kernels`` config key.

Branch structure is shared with the numpy path bit for bit: the three
curvature regimes split on the same ``_KAPPA_ZERO_TOL`` threshold, the
clip/ε guards use the same named constants in the same evaluation
order, and the backward helpers reuse the forward's cached trig value
(``tanh``/``tan``/``arctanh``/``arctan`` is evaluated exactly once per
op — see ``*_fwd_numpy``/``*_bwd_numpy``).

Two trig *flavours* coexist, as in ``fast.py``:

- the **inference flavour** (``tan_k``/``artan_k`` kernels and the
  pairwise/rowwise distances): ``s = sqrt(±κ)`` with no ε, matching
  the historical no-tape index-build path;
- the **fused flavour** (radial and fused-dist kernels):
  ``s = sqrt(|κ| + ε)`` with the named clamp constants, matching the
  composed autodiff chain the fused tape ops replicate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from typing import Callable, Dict, Optional

import numpy as np

# Shared clamp/ε constants — the compiled loops replicate the numpy
# guards only while these stay identical to the composed reference.
from repro.geometry.stereographic import (
    _ARTANH_ARG_MAX,
    _EPS,
    _KAPPA_ZERO_TOL,
    _TAN_ARG_MAX,
    _TANH_ARG_MAX,
)

try:  # pragma: no cover - exercised via both CI legs
    import numba as _numba
    HAVE_NUMBA = True
    NUMBA_VERSION = _numba.__version__
except ImportError:  # pragma: no cover
    _numba = None
    HAVE_NUMBA = False
    NUMBA_VERSION = None

#: trig-kind selector shared by the radial kernels
KIND_TAN = 0
KIND_ARTAN = 1

#: the three-valued dial exposed as ``model.kernels``
KERNEL_MODES = ("auto", "numpy", "compiled")


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
# - tan_k / artan_k:      ``(n,) -> (n,)``          (inference flavour)
# - radial_fwd:           ``(n,d), κ, kind -> (out (n,d), r (n,), f (n,),
#                         aux (n,))``               (fused flavour)
# - radial_bwd:           ``(grad (n,d), v (n,d), r, f, aux, κ, kind) ->
#                         (grad_v (n,d), grad_κ float)``
# - pairwise_mobius_norm: ``(b,d), (n,d), κ -> (b,n)``
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


def _np_tan_k(x, kappa):
    # inference flavour: s = sqrt(±κ) with no ε (historical no-tape path)
    if kappa < -_KAPPA_ZERO_TOL:
        s = np.sqrt(-kappa)
        return np.tanh(np.clip(s * x, -_TANH_ARG_MAX, _TANH_ARG_MAX)) / s
    if kappa > _KAPPA_ZERO_TOL:
        s = np.sqrt(kappa)
        return np.tan(np.clip(s * x, -_TAN_ARG_MAX, _TAN_ARG_MAX)) / s
    return x + kappa * x ** 3 / 3.0


def _np_artan_k(x, kappa):
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


# -- loop kernel implementations --------------------------------------------
#
# The same math scalarised into sequential inner loops.  Each is plain
# Python (testable everywhere) and njit-compatible: when numba is
# present, ``register`` wraps it with ``njit(cache=True, fastmath=False)``
# and the jitted version becomes the ``compiled`` dispatch target.
# Branch thresholds, clip order and guard arithmetic mirror the numpy
# implementations above term by term.


def _loop_tan_k(x, kappa):
    n = x.shape[0]
    out = np.empty(n)
    if kappa < -_KAPPA_ZERO_TOL:
        s = math.sqrt(-kappa)
        for i in range(n):
            u = s * x[i]
            if u > _TANH_ARG_MAX:
                u = _TANH_ARG_MAX
            elif u < -_TANH_ARG_MAX:
                u = -_TANH_ARG_MAX
            out[i] = math.tanh(u) / s
    elif kappa > _KAPPA_ZERO_TOL:
        s = math.sqrt(kappa)
        for i in range(n):
            u = s * x[i]
            if u > _TAN_ARG_MAX:
                u = _TAN_ARG_MAX
            elif u < -_TAN_ARG_MAX:
                u = -_TAN_ARG_MAX
            out[i] = math.tan(u) / s
    else:
        for i in range(n):
            out[i] = x[i] + kappa * x[i] ** 3 / 3.0
    return out


def _loop_artan_k(x, kappa):
    n = x.shape[0]
    out = np.empty(n)
    if kappa < -_KAPPA_ZERO_TOL:
        s = math.sqrt(-kappa)
        for i in range(n):
            u = s * x[i]
            if u > _ARTANH_ARG_MAX:
                u = _ARTANH_ARG_MAX
            elif u < -_ARTANH_ARG_MAX:
                u = -_ARTANH_ARG_MAX
            out[i] = math.atanh(u) / s
    elif kappa > _KAPPA_ZERO_TOL:
        s = math.sqrt(kappa)
        for i in range(n):
            out[i] = math.atan(s * x[i]) / s
    else:
        for i in range(n):
            out[i] = x[i] - kappa * x[i] ** 3 / 3.0
    return out


def _loop_radial_fwd(v, kappa, kind):
    n, d = v.shape
    out = np.empty((n, d))
    r = np.empty(n)
    f = np.empty(n)
    aux = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(d):
            acc += v[i, j] * v[i, j]
        r[i] = math.sqrt(acc + _EPS)
    if kind == KIND_TAN:
        if kappa < -_KAPPA_ZERO_TOL:
            s = math.sqrt(-kappa + _EPS)
            for i in range(n):
                u = r[i] * s
                if u > _TANH_ARG_MAX:
                    u = _TANH_ARG_MAX
                elif u < -_TANH_ARG_MAX:
                    u = -_TANH_ARG_MAX
                th = math.tanh(u)
                aux[i] = th
                f[i] = th / s
        elif kappa > _KAPPA_ZERO_TOL:
            s = math.sqrt(kappa + _EPS)
            for i in range(n):
                u = r[i] * s
                if u > _TAN_ARG_MAX:
                    u = _TAN_ARG_MAX
                elif u < -_TAN_ARG_MAX:
                    u = -_TAN_ARG_MAX
                tn = math.tan(u)
                aux[i] = tn
                f[i] = tn / s
        else:
            for i in range(n):
                aux[i] = r[i]
                f[i] = r[i] + kappa * r[i] ** 3 / 3.0
    else:
        if kappa < -_KAPPA_ZERO_TOL:
            s = math.sqrt(-kappa + _EPS)
            for i in range(n):
                u = r[i] * s
                if u > _ARTANH_ARG_MAX:
                    u = _ARTANH_ARG_MAX
                elif u < -_ARTANH_ARG_MAX:
                    u = -_ARTANH_ARG_MAX
                at = math.atanh(u)
                aux[i] = at
                f[i] = at / s
        elif kappa > _KAPPA_ZERO_TOL:
            s = math.sqrt(kappa + _EPS)
            for i in range(n):
                at = math.atan(r[i] * s)
                aux[i] = at
                f[i] = at / s
        else:
            for i in range(n):
                aux[i] = r[i]
                f[i] = r[i] - kappa * r[i] ** 3 / 3.0
    for i in range(n):
        scale = f[i] / r[i]
        for j in range(d):
            out[i, j] = v[i, j] * scale
    return out, r, f, aux


def _loop_radial_bwd(grad, v, r, f, aux, kappa, kind):
    n, d = v.shape
    gv = np.empty((n, d))
    grad_k = 0.0
    for i in range(n):
        ri = r[i]
        ai = aux[i]
        if kind == KIND_TAN:
            if kappa < -_KAPPA_ZERO_TOL:
                s = math.sqrt(-kappa + _EPS)
                u = ri * s
                inside = 1.0 if (u >= -_TANH_ARG_MAX) and \
                    (u <= _TANH_ARG_MAX) else 0.0
                sech2 = (1.0 - ai * ai) * inside
                df_dr = sech2
                df_dk = ((sech2 * ri * s - ai) / (s * s)) * (-0.5 / s)
            elif kappa > _KAPPA_ZERO_TOL:
                s = math.sqrt(kappa + _EPS)
                u = ri * s
                inside = 1.0 if (u >= -_TAN_ARG_MAX) and \
                    (u <= _TAN_ARG_MAX) else 0.0
                sec2 = (1.0 + ai * ai) * inside
                df_dr = sec2
                df_dk = ((sec2 * ri * s - ai) / (s * s)) * (0.5 / s)
            else:
                df_dr = 1.0 + kappa * ri * ri
                df_dk = ri ** 3 / 3.0
        else:
            if kappa < -_KAPPA_ZERO_TOL:
                s = math.sqrt(-kappa + _EPS)
                u = ri * s
                inside = 1.0 if (u >= -_ARTANH_ARG_MAX) and \
                    (u <= _ARTANH_ARG_MAX) else 0.0
                c = u
                if c > _ARTANH_ARG_MAX:
                    c = _ARTANH_ARG_MAX
                elif c < -_ARTANH_ARG_MAX:
                    c = -_ARTANH_ARG_MAX
                om = 1.0 - c * c
                if om < _EPS:
                    om = _EPS
                dat_dc = 1.0 / om
                df_dr = dat_dc * inside
                df_dk = ((dat_dc * inside * ri * s - ai) / (s * s)) \
                    * (-0.5 / s)
            elif kappa > _KAPPA_ZERO_TOL:
                s = math.sqrt(kappa + _EPS)
                u = ri * s
                dat_du = 1.0 / (1.0 + u * u)
                df_dr = dat_du
                df_dk = ((dat_du * ri * s - ai) / (s * s)) * (0.5 / s)
            else:
                df_dr = 1.0 - kappa * ri * ri
                df_dk = -(ri ** 3) / 3.0
        inner = 0.0
        for j in range(d):
            inner += grad[i, j] * v[i, j]
        coef = inner * (df_dr * ri - f[i]) / ri ** 3
        scale = f[i] / ri
        for j in range(d):
            gv[i, j] = grad[i, j] * scale + v[i, j] * coef
        grad_k += inner / ri * df_dk
    return gv, grad_k


def _loop_pairwise_mobius_norm(x, y, kappa):
    b, d = x.shape
    n = y.shape[0]
    out = np.empty((b, n))
    x2 = np.empty(b)
    y2 = np.empty(n)
    for i in range(b):
        acc = 0.0
        for t in range(d):
            acc += x[i, t] * x[i, t]
        x2[i] = acc
    for j in range(n):
        acc = 0.0
        for t in range(d):
            acc += y[j, t] * y[j, t]
        y2[j] = acc
    for i in range(b):
        for j in range(n):
            inn = 0.0
            for t in range(d):
                inn -= x[i, t] * y[j, t]
            ca = 1.0 - 2.0 * kappa * inn - kappa * y2[j]
            cb = 1.0 + kappa * x2[i]
            den = 1.0 - 2.0 * kappa * inn + kappa * kappa * x2[i] * y2[j]
            aden = abs(den)
            if aden < 1e-15:
                aden = 1e-15
            sq = (ca * ca * x2[i] + 2.0 * ca * cb * inn
                  + cb * cb * y2[j])
            if sq < 0.0:
                sq = 0.0
            out[i, j] = math.sqrt(sq) / aden
    return out


def _loop_pairwise_dist(x, y, kappa):
    b, d = x.shape
    n = y.shape[0]
    out = np.empty((b, n))
    x2 = np.empty(b)
    y2 = np.empty(n)
    for i in range(b):
        acc = 0.0
        for t in range(d):
            acc += x[i, t] * x[i, t]
        x2[i] = acc
    for j in range(n):
        acc = 0.0
        for t in range(d):
            acc += y[j, t] * y[j, t]
        y2[j] = acc
    if kappa < -_KAPPA_ZERO_TOL:
        s = math.sqrt(-kappa)
    elif kappa > _KAPPA_ZERO_TOL:
        s = math.sqrt(kappa)
    else:
        s = 0.0
    for i in range(b):
        for j in range(n):
            inn = 0.0
            for t in range(d):
                inn -= x[i, t] * y[j, t]
            ca = 1.0 - 2.0 * kappa * inn - kappa * y2[j]
            cb = 1.0 + kappa * x2[i]
            den = 1.0 - 2.0 * kappa * inn + kappa * kappa * x2[i] * y2[j]
            aden = abs(den)
            if aden < 1e-15:
                aden = 1e-15
            sq = (ca * ca * x2[i] + 2.0 * ca * cb * inn
                  + cb * cb * y2[j])
            if sq < 0.0:
                sq = 0.0
            norm = math.sqrt(sq) / aden
            if kappa < -_KAPPA_ZERO_TOL:
                u = s * norm
                if u > _ARTANH_ARG_MAX:
                    u = _ARTANH_ARG_MAX
                elif u < -_ARTANH_ARG_MAX:
                    u = -_ARTANH_ARG_MAX
                dist = math.atanh(u) / s
            elif kappa > _KAPPA_ZERO_TOL:
                dist = math.atan(s * norm) / s
            else:
                dist = norm - kappa * norm ** 3 / 3.0
            out[i, j] = 2.0 * dist
    return out


def _loop_rowwise_dist(x, y, kappa):
    b, d = x.shape
    out = np.empty(b)
    if kappa < -_KAPPA_ZERO_TOL:
        s = math.sqrt(-kappa)
    elif kappa > _KAPPA_ZERO_TOL:
        s = math.sqrt(kappa)
    else:
        s = 0.0
    for i in range(b):
        inn = 0.0
        xx = 0.0
        yy = 0.0
        for t in range(d):
            inn -= x[i, t] * y[i, t]
            xx += x[i, t] * x[i, t]
            yy += y[i, t] * y[i, t]
        ca = 1.0 - 2.0 * kappa * inn - kappa * yy
        cb = 1.0 + kappa * xx
        den = 1.0 - 2.0 * kappa * inn + kappa * kappa * xx * yy
        aden = abs(den)
        if aden < 1e-15:
            aden = 1e-15
        sq = ca * ca * xx + 2.0 * ca * cb * inn + cb * cb * yy
        if sq < 0.0:
            sq = 0.0
        norm = math.sqrt(sq) / aden
        if kappa < -_KAPPA_ZERO_TOL:
            u = s * norm
            if u > _ARTANH_ARG_MAX:
                u = _ARTANH_ARG_MAX
            elif u < -_ARTANH_ARG_MAX:
                u = -_ARTANH_ARG_MAX
            dist = math.atanh(u) / s
        elif kappa > _KAPPA_ZERO_TOL:
            dist = math.atan(s * norm) / s
        else:
            dist = norm - kappa * norm ** 3 / 3.0
        out[i] = 2.0 * dist
    return out


def _loop_dist_fwd(a, b, kappa):
    n, d = a.shape
    out = np.empty(n)
    diff = np.empty((n, d))
    r = np.empty(n)
    f = np.empty(n)
    aux = np.empty(n)
    safe = np.empty(n)
    p = np.empty(n)
    alpha = np.empty(n)
    beta = np.empty(n)
    ca = np.empty(n)
    cb = np.empty(n)
    if kappa < -_KAPPA_ZERO_TOL:
        s = math.sqrt(-kappa + _EPS)
    elif kappa > _KAPPA_ZERO_TOL:
        s = math.sqrt(kappa + _EPS)
    else:
        s = 0.0
    for i in range(n):
        pp = 0.0
        aa = 0.0
        bb = 0.0
        for j in range(d):
            pp += a[i, j] * b[i, j]
            aa += a[i, j] * a[i, j]
            bb += b[i, j] * b[i, j]
        p[i] = pp
        alpha[i] = aa
        beta[i] = bb
        cai = 1.0 - 2.0 * kappa * pp - kappa * bb
        cbi = 1.0 + kappa * aa
        ca[i] = cai
        cb[i] = cbi
        den = 1.0 - 2.0 * kappa * pp + kappa * kappa * aa * bb
        if abs(den) < _EPS:
            den = den + _EPS
        safe[i] = den
        rr = 0.0
        for j in range(d):
            dv = (cai * a[i, j] + cbi * b[i, j]) / den
            diff[i, j] = dv
            rr += dv * dv
        ri = math.sqrt(rr + _EPS)
        r[i] = ri
        if kappa < -_KAPPA_ZERO_TOL:
            u = ri * s
            if u > _ARTANH_ARG_MAX:
                u = _ARTANH_ARG_MAX
            elif u < -_ARTANH_ARG_MAX:
                u = -_ARTANH_ARG_MAX
            at = math.atanh(u)
            aux[i] = at
            f[i] = at / s
        elif kappa > _KAPPA_ZERO_TOL:
            at = math.atan(ri * s)
            aux[i] = at
            f[i] = at / s
        else:
            aux[i] = ri
            f[i] = ri - kappa * ri ** 3 / 3.0
        out[i] = 2.0 * f[i]
    return out, diff, r, f, aux, safe, p, alpha, beta, ca, cb


def _loop_dist_bwd(grad, a, b, diff, r, f, aux, safe, p, alpha, beta,
                   ca, cb, kappa):
    n, d = a.shape
    g_a = np.empty((n, d))
    g_b = np.empty((n, d))
    grad_k = 0.0
    if kappa < -_KAPPA_ZERO_TOL:
        s = math.sqrt(-kappa + _EPS)
    elif kappa > _KAPPA_ZERO_TOL:
        s = math.sqrt(kappa + _EPS)
    else:
        s = 0.0
    for i in range(n):
        ri = r[i]
        ati = aux[i]
        if kappa < -_KAPPA_ZERO_TOL:
            u = ri * s
            inside = 1.0 if (u >= -_ARTANH_ARG_MAX) and \
                (u <= _ARTANH_ARG_MAX) else 0.0
            c = u
            if c > _ARTANH_ARG_MAX:
                c = _ARTANH_ARG_MAX
            elif c < -_ARTANH_ARG_MAX:
                c = -_ARTANH_ARG_MAX
            om = 1.0 - c * c
            if om < _EPS:
                om = _EPS
            dat_dc = 1.0 / om
            df_dr = dat_dc * inside
            df_dk = ((dat_dc * inside * ri * s - ati) / (s * s)) \
                * (-0.5 / s)
        elif kappa > _KAPPA_ZERO_TOL:
            u = ri * s
            dat_du = 1.0 / (1.0 + u * u)
            df_dr = dat_du
            df_dk = ((dat_du * ri * s - ati) / (s * s)) * (0.5 / s)
        else:
            df_dr = 1.0 - kappa * ri * ri
            df_dk = -(ri ** 3) / 3.0
        g_f = 2.0 * grad[i]
        g_r = g_f * df_dr
        grad_k += g_f * df_dk
        g_den_acc = 0.0
        g_ca_acc = 0.0
        g_cb_acc = 0.0
        for j in range(d):
            g_diff_j = g_r * diff[i, j] / ri
            g_num_j = g_diff_j / safe[i]
            g_den_acc -= g_diff_j * diff[i, j]
            g_ca_acc += g_num_j * a[i, j]
            g_cb_acc += g_num_j * b[i, j]
            g_a[i, j] = ca[i] * g_num_j
            g_b[i, j] = cb[i] * g_num_j
        g_den = g_den_acc / safe[i]
        g_p = -2.0 * kappa * (g_ca_acc + g_den)
        g_alpha = kappa * kappa * beta[i] * g_den + kappa * g_cb_acc
        g_beta = kappa * kappa * alpha[i] * g_den - kappa * g_ca_acc
        grad_k += (g_den * (-2.0 * p[i] + 2.0 * kappa * alpha[i] * beta[i])
                   + g_ca_acc * (-2.0 * p[i] - beta[i])
                   + g_cb_acc * alpha[i])
        for j in range(d):
            g_a[i, j] += g_p * b[i, j] + 2.0 * g_alpha * a[i, j]
            g_b[i, j] += g_p * a[i, j] + 2.0 * g_beta * b[i, j]
    return g_a, g_b, grad_k


# -- registry and mode management -------------------------------------------


@dataclasses.dataclass
class Kernel:
    """One registered primitive and its selectable implementations."""

    name: str
    numpy: Callable
    loop: Optional[Callable]
    compiled: Optional[Callable]


REGISTRY: Dict[str, Kernel] = {}

_ACTIVE_MODE = "numpy"
_DISPATCH: Dict[str, Callable] = {}


def _target(kern: Kernel, resolved: str) -> Callable:
    """Dispatch target under a resolved mode; numpy-only kernels stay numpy."""
    if resolved == "compiled" and kern.compiled is not None:
        return kern.compiled
    return kern.numpy


def register(name: str, numpy_impl: Callable,
             loop_impl: Optional[Callable] = None) -> None:
    """Register a primitive; jit-wrap its loop impl when numba exists."""
    compiled = None
    if HAVE_NUMBA and loop_impl is not None:
        compiled = _numba.njit(cache=True, fastmath=False)(loop_impl)
    REGISTRY[name] = kern = Kernel(name, numpy_impl, loop_impl, compiled)
    _DISPATCH[name] = _target(kern, _ACTIVE_MODE)


def resolve_mode(mode: str = "auto") -> str:
    """Validate a dial value and resolve ``"auto"`` for this host."""
    if mode not in KERNEL_MODES:
        raise ValueError("kernels mode must be one of %s, got %r"
                         % (", ".join(KERNEL_MODES), mode))
    if mode == "auto":
        return "compiled" if HAVE_NUMBA else "numpy"
    if mode == "compiled" and not HAVE_NUMBA:
        raise ValueError(
            "model.kernels='compiled' requested but numba is not "
            "installed; install the compiled extra "
            "(pip install -e .[compiled]) or use kernels='auto'/'numpy'")
    return mode


def set_mode(mode: str = "auto") -> str:
    """Switch the process-wide dispatch target; returns the resolved mode."""
    global _ACTIVE_MODE
    resolved = resolve_mode(mode)
    _ACTIVE_MODE = resolved
    for name, kern in REGISTRY.items():
        _DISPATCH[name] = _target(kern, resolved)
    return resolved


def get_mode() -> str:
    """The resolved active mode (``"numpy"`` or ``"compiled"``)."""
    return _ACTIVE_MODE


@contextlib.contextmanager
def use(mode: str):
    """Temporarily switch kernel mode (tests and benches)."""
    previous = _ACTIVE_MODE
    set_mode(mode)
    try:
        yield
    finally:
        set_mode(previous)


def impl(name: str) -> Callable:
    """The active implementation of a registered primitive."""
    return _DISPATCH[name]


def warmup() -> float:
    """First-call every compiled kernel on tiny inputs; returns seconds.

    JIT compilation happens on the first call per signature; benches
    call this once so steady-state timings exclude compile cost (which
    is reported separately).  No-op without numba.
    """
    if not HAVE_NUMBA:
        return 0.0
    start = time.perf_counter()
    v = np.array([[0.1, 0.2], [0.3, 0.05]])
    g = np.full_like(v, 0.5)
    grad1 = np.full(2, 0.5)
    for kappa in (-1.0, 0.0, 1.0):
        REGISTRY["tan_k"].compiled(v[0], kappa)
        REGISTRY["artan_k"].compiled(v[0], kappa)
        for kind in (KIND_TAN, KIND_ARTAN):
            _, r, f, aux = REGISTRY["radial_fwd"].compiled(v, kappa, kind)
            REGISTRY["radial_bwd"].compiled(g, v, r, f, aux, kappa, kind)
        REGISTRY["pairwise_mobius_norm"].compiled(v, v, kappa)
        REGISTRY["pairwise_dist"].compiled(v, v, kappa)
        REGISTRY["rowwise_dist"].compiled(v, v, kappa)
        fw = REGISTRY["dist_fwd"].compiled(v, v, kappa)
        REGISTRY["dist_bwd"].compiled(grad1, v, v, fw[1], fw[2], fw[3],
                                      fw[4], fw[5], fw[6], fw[7], fw[8],
                                      fw[9], fw[10], kappa)
    return time.perf_counter() - start


register("tan_k", _np_tan_k, _loop_tan_k)
register("artan_k", _np_artan_k, _loop_artan_k)
register("radial_fwd", _np_radial_fwd, _loop_radial_fwd)
register("radial_bwd", _np_radial_bwd, _loop_radial_bwd)
register("pairwise_mobius_norm", _np_pairwise_mobius_norm,
         _loop_pairwise_mobius_norm)
register("pairwise_dist", _np_pairwise_dist, _loop_pairwise_dist)
register("rowwise_dist", _np_rowwise_dist, _loop_rowwise_dist)
register("dist_fwd", _np_dist_fwd, _loop_dist_fwd)
register("dist_bwd", _np_dist_bwd, _loop_dist_bwd)
register("mobius_add_fwd", _np_mobius_add_fwd)
register("mobius_add_bwd", _np_mobius_add_bwd)
register("project_fwd", _np_project_fwd)
register("project_bwd", _np_project_bwd)

set_mode("auto")
