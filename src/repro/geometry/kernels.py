"""The mixed-curvature geometry of paper Table II: one kernel per primitive.

The paper's space is one product of M κ-stereographic factors with
learned curvatures (§III-B).  Here the factors share one curvature
*vector*: every point block is stacked as ``(M, n, d)`` with the factor
axis leading, κ has shape ``(M,)``, and each primitive runs once over
all M factors — one kernel call and one tape node per operation, not M.
Table VIII's fixed signatures are frozen entries of the same vector
(:class:`Curvature`).  Leading axes are general: a scalar κ with an
``(n, d)`` block is the one-factor case, and each factor's slice of a
stacked call is bit-equal to that one-factor call.

Each primitive — the ``tan_κ``/``artan_κ`` radial maps, Möbius
addition, the boundary projection and the geodesic distance — has one
numpy implementation with a hand-derived backward, registered in
:data:`REGISTRY`.  The tape wiring below (:func:`expmap0`,
:func:`logmap0`, :func:`dist`, :func:`mobius_add`, :func:`project`)
reaches them through :func:`impl`, which reads the registry at call
time, so replacing ``REGISTRY[name].numpy`` re-routes every call — that
is how the end-to-end tracer counts and times them.  The composed
micro-op chain in ``tests/reference/stereographic.py`` is their
gradcheck oracle.

The three curvature regimes split on ``_KAPPA_ZERO_TOL``.  A κ vector
may mix them: :func:`_by_regime` runs each branch (tanh/tan,
arctanh/arctan, the third-order Taylor expansion) only on the factors
whose κ lies in its range, never both branches on every element.  The
clip/ε guards use the composed chain's constants in its evaluation
order, and each backward reuses the forward's cached trig value
(``tanh``/``tan``/``arctanh``/``arctan`` is evaluated once per op).

Two trig *flavours* coexist:

- the **inference flavour** (the ``artan_k`` kernel and the
  pairwise/rowwise distances): ``s = sqrt(±κ)`` with no ε, matching
  the historical no-tape index-build path;
- the **fused flavour** (radial and dist kernels): ``s = sqrt(|κ| + ε)``
  with the named clamp constants, matching the composed chain.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.autodiff import ops
from repro.autodiff.ops import _unbroadcast
from repro.autodiff.tensor import Parameter, Tensor, ensure_tensor

# Curvatures with |κ| up to this take the Taylor branch.
_KAPPA_ZERO_TOL = 1e-5
# Clamp for the tan argument: stay inside (-π/2, π/2) with margin.
_TAN_ARG_MAX = 1.51
# Clamp for the arctanh argument: stay inside (-1, 1).
_ARTANH_ARG_MAX = 1.0 - 1e-7
# Clamp for the tanh argument: avoid saturation-driven overflow.
_TANH_ARG_MAX = 15.0
_EPS = 1e-15

# read by benchmarks/e2e/run.py's host fingerprint; numba is not used
NUMBA_VERSION = None

#: trig-kind selector shared by the radial kernels
KIND_TAN = 0
KIND_ARTAN = 1

_HYPERBOLIC, _FLAT, _SPHERICAL = 0, 1, 2


# -- per-factor regime selection --------------------------------------------
#
# κ is a scalar or an ``(M,)`` vector indexing the leading axis of every
# array it meets.  A factor is *flat* (the Taylor branch) when
# |κ| ≤ ``_KAPPA_ZERO_TOL`` and *curved* otherwise.  The curved algebra
# is shared by both signs — ``s = sqrt(|κ| + ε)``, the sign and the clip
# limit are per-factor constants — so only the transcendental itself
# (tanh or tan, arctanh or arctan) is split by sign, and only the flat
# factors take the Taylor formulas.


def _over_rows(kappa: np.ndarray, ndim: int) -> np.ndarray:
    """κ with trailing unit axes, broadcasting against an ``ndim`` array."""
    kappa = np.asarray(kappa)
    return kappa.reshape(kappa.shape + (1,) * (ndim - kappa.ndim))


def _regime(value: float) -> int:
    if value < -_KAPPA_ZERO_TOL:
        return _HYPERBOLIC
    if value > _KAPPA_ZERO_TOL:
        return _SPHERICAL
    return _FLAT


def _runs(codes):
    """``(code, factors)`` per run of equal consecutive codes; ``factors``
    is the whole leading axis when one code covers it, so the common
    single-regime call slices nothing (slices are views, never copies)."""
    runs, start = [], 0
    for m in range(1, len(codes) + 1):
        if m == len(codes) or codes[m] != codes[start]:
            runs.append((codes[start], slice(start, m)))
            start = m
    if len(runs) == 1:
        return [(runs[0][0], slice(None))]
    return runs


def _regimes(kappa: np.ndarray):
    """Runs of hyperbolic / flat / spherical factors of κ."""
    return _runs([_regime(value) for value in np.reshape(kappa, -1).tolist()])


class _Run:
    """Consecutive factors of one class (flat or curved) and the
    per-factor constants their branch needs, each shaped to broadcast
    against the factors' rows."""

    __slots__ = ("curved", "factors", "k", "s", "s0", "sign", "tan_limit",
                 "artan_limit", "signs")


@functools.lru_cache(maxsize=256)
def _factor_runs(kappa_bytes: bytes, kappa_ndim: int, ndim: int):
    """The runs of one κ value, built once and shared by every kernel
    call at that curvature (a training step reuses each κ vector in
    dozens of calls)."""
    kappa = np.frombuffer(kappa_bytes, dtype=np.float64)
    values = kappa.tolist()
    k = kappa.reshape(kappa.shape + (1,) * (ndim - 1) if kappa_ndim else ())
    runs = []
    for curved, factors in _runs([_regime(v) != _FLAT for v in values]):
        run = _Run()
        run.curved, run.factors = curved, factors
        run.k = k[factors] if kappa_ndim else k
        if curved:
            negative = run.k < 0
            magnitude = np.abs(run.k)
            run.s = np.sqrt(magnitude + _EPS)
            run.s0 = np.sqrt(magnitude)
            run.sign = np.where(negative, -1.0, 1.0)
            run.tan_limit = np.where(negative, _TANH_ARG_MAX, _TAN_ARG_MAX)
            run.artan_limit = np.where(negative, _ARTANH_ARG_MAX, np.inf)
            run.signs = _runs([v < 0 for v in values[factors]])
        runs.append(run)
    return tuple(runs)


def _by_regime(branches, kappa, *arrays):
    """Each factor's rows through its flat or curved branch.

    ``branches = (flat, curved)``; each is called as ``branch(run,
    *rows)`` on only its factors' rows, and the elementwise results
    are stitched back into arrays of the input shape.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    runs = _factor_runs(kappa.tobytes(), kappa.ndim, arrays[0].ndim)
    if len(runs) == 1:
        return branches[runs[0].curved](runs[0], *arrays)
    outs = None
    for run in runs:
        results = branches[run.curved](run,
                                       *[a[run.factors] for a in arrays])
        if outs is None:
            outs = [np.empty(arrays[0].shape) for _ in results]
        for out, result in zip(outs, results):
            out[run.factors] = result
    return tuple(outs)


def _signed(c, run, hyperbolic, spherical):
    """``hyperbolic`` on the rows of the run's factors with κ < 0,
    ``spherical`` on the others (every factor of a curved run)."""
    if len(run.signs) == 1:
        return (hyperbolic if run.signs[0][0] else spherical)(c)
    out = np.empty(c.shape)
    for negative, factors in run.signs:
        out[factors] = (hyperbolic if negative else spherical)(c[factors])
    return out


# -- split trig helpers (fused flavour) -------------------------------------
#
# Forward returns ``(f, aux)`` where ``aux`` caches the raw trig value
# (tanh/tan/arctanh/arctan of the clipped argument; the radius itself on
# the Taylor branch).  Backward takes ``(r, aux, κ)`` and rebuilds the
# clipped argument bitwise, so the trig call happens once, in the
# forward.  The radial/dist kernels look these up as module attributes
# at call time, which is what makes the call-counting test's monkeypatch
# observable.  Writing a hyperbolic ``1 - t²`` as ``1 + sign·t²`` and
# ``-0.5/s`` as ``0.5·sign/s`` changes no bit.


def _tan_flat(run, r):
    return r + run.k * r ** 3 / 3.0, r


def _tan_curved(run, r):
    s, limit = run.s, run.tan_limit
    t = _signed(np.clip(r * s, -limit, limit), run, np.tanh, np.tan)
    return t / s, t


def _tan_bwd_flat(run, r, aux):
    return 1.0 + run.k * r * r, r ** 3 / 3.0


def _tan_bwd_curved(run, r, t):
    s, sign, limit = run.s, run.sign, run.tan_limit
    u = r * s
    inside = (u >= -limit) & (u <= limit)
    dt_du = (1.0 + sign * (t * t)) * inside        # sech² or sec²
    ds_dk = 0.5 * sign / s
    df_ds = (dt_du * r * s - t) / (s * s)
    return dt_du, df_ds * ds_dk


def _artan_flat(run, r):
    return r - run.k * r ** 3 / 3.0, r


def _artan_curved(run, r):
    s, limit = run.s, run.artan_limit
    at = _signed(np.clip(r * s, -limit, limit), run, np.arctanh, np.arctan)
    return at / s, at


def _artan_bwd_flat(run, r, aux):
    return 1.0 - run.k * r * r, -(r ** 3) / 3.0


def _artan_bwd_curved(run, r, at):
    s, sign, limit = run.s, run.sign, run.artan_limit
    u = r * s
    inside = (u >= -limit) & (u <= limit)
    c = np.clip(u, -limit, limit)
    # the composed arctanh guards 1-c² with the same clamp
    dat_dc = 1.0 / np.maximum(1.0 + sign * (c * c), _EPS)
    df_dr = dat_dc * inside
    ds_dk = 0.5 * sign / s
    df_ds = (dat_dc * inside * r * s - at) / (s * s)
    return df_dr, df_ds * ds_dk


def tan_k_fwd_numpy(r: np.ndarray, kappa):
    """``tan_κ(r)`` (fused ε/clips) plus the cached trig value."""
    return _by_regime((_tan_flat, _tan_curved), kappa, r)


def tan_k_bwd_numpy(r: np.ndarray, aux: np.ndarray, kappa):
    """``(∂tan_κ/∂r, ∂tan_κ/∂κ)`` from the cached forward trig value."""
    return _by_regime((_tan_bwd_flat, _tan_bwd_curved), kappa, r, aux)


def artan_k_fwd_numpy(r: np.ndarray, kappa):
    """``tan⁻¹_κ(r)`` (fused ε/clips) plus the cached trig value."""
    return _by_regime((_artan_flat, _artan_curved), kappa, r)


def artan_k_bwd_numpy(r: np.ndarray, aux: np.ndarray, kappa):
    """``(∂tan⁻¹_κ/∂r, ∂tan⁻¹_κ/∂κ)`` from the cached forward trig value."""
    return _by_regime((_artan_bwd_flat, _artan_bwd_curved), kappa, r, aux)


def _artan_inference_curved(run, x):
    # inference flavour: s = sqrt(±κ) with no ε (historical no-tape path)
    s, limit = run.s0, run.artan_limit
    return (_signed(np.clip(s * x, -limit, limit), run, np.arctanh,
                    np.arctan) / s,)


def _artan_inference_flat(run, x):
    return (x - run.k * x ** 3 / 3.0,)


# -- numpy kernel implementations -------------------------------------------
#
# Registry contract (float64).  κ is an ``(M,)`` vector indexing the
# inputs' leading axis — ``(M, n, d)`` blocks, ``(M, n)`` rows — or a
# scalar for one factor's ``(n, d)`` block, and every ∂κ has κ's shape:
# one gradient per factor.  ``K..`` below is that leading axis, if any.
# The sums stay ``np.add.reduce`` over the same axes as the composed
# chain's, so a factor's slice is bit-equal to its one-factor call.
#
# - artan_k:         ``(K.., n), κ -> (K.., n)``      (inference flavour)
# - radial_fwd:      ``v (K.., n, d), κ, kind -> (out, r, f, aux)``
# - radial_bwd:      ``(grad, v, r, f, aux, κ, kind) -> (grad_v, grad_κ)``
# - pairwise_dist:   ``(b, d), (n, d), scalar κ -> (b, n)``
# - rowwise_dist:    ``(b, d), (b, d), scalar κ -> (b,)``
# - dist_fwd:        ``(a, b (K.., n, d), κ) -> (out (K.., n), diff, r, f,
#                    aux, safe, p, alpha, beta, ca, cb)``
# - dist_bwd:        ``(grad (K.., n), a, b, <caches>, κ) ->
#                    (g_a, g_b, grad_κ)``
# - mobius_add_fwd:  ``(x (K.., n, d), y broadcasting against x, κ) ->
#                    (out, <caches>)``
# - mobius_add_bwd:  ``(grad, x, y, out, <caches>, κ) -> (g_x, g_y,
#                    grad_κ)``  (g_y not yet unbroadcast)
# - project_fwd:     ``(x (K.., n, d), κ, boundary_eps) -> (out, clips)``;
#                    ``(x, None)`` when no row of a hyperbolic factor is
#                    over the boundary
# - project_bwd:     ``(grad, x, clips, κ) -> (g_x, grad_κ)``


def _np_artan_k(x, kappa):
    return _by_regime((_artan_inference_flat, _artan_inference_curved),
                      kappa, x)[0]


def _np_radial_fwd(v, kappa, kind):
    r = np.sqrt(np.add.reduce(v * v, axis=-1) + _EPS)
    if kind == KIND_TAN:
        f, aux = tan_k_fwd_numpy(r, kappa)
    else:
        f, aux = artan_k_fwd_numpy(r, kappa)
    out = v * (f / r)[..., None]
    return out, r, f, aux


def _np_radial_bwd(grad, v, r, f, aux, kappa, kind):
    if kind == KIND_TAN:
        df_dr, df_dk = tan_k_bwd_numpy(r, aux, kappa)
    else:
        df_dr, df_dk = artan_k_bwd_numpy(r, aux, kappa)
    gv_inner = np.add.reduce(grad * v, axis=-1)
    grad_v = (grad * (f / r)[..., None]
              + v * (gv_inner * (df_dr * r - f) / r ** 3)[..., None])
    grad_k = np.add.reduce(gv_inner / r * df_dk, axis=-1)
    return grad_v, grad_k


def mobius_norm(inner, x2, y2, kappa):
    """``‖-x ⊕κ y‖`` from ``inner = ⟨-x, y⟩``, ``x2 = ‖x‖²``, ``y2 = ‖y‖²``.

    Expansion: with ``a = -x``, the Möbius sum is
    ``(A·a + B·y) / D`` where ``A = 1 - 2κ⟨a,y⟩ - κ‖y‖²``,
    ``B = 1 + κ‖a‖²`` and ``D = 1 - 2κ⟨a,y⟩ + κ²‖a‖²‖y‖²``; hence
    ``‖·‖² = (A²‖a‖² + 2AB⟨a,y⟩ + B²‖y‖²) / D²``, and only scalars of
    the broadcast shape of the three inputs are formed, never the
    ``d``-wide Möbius sums.  The pairwise and rowwise distance kernels
    and the ANN re-rank (``repro.retrieval.ann.candidate_dist``) all
    evaluate their norms here.
    """
    coeff_a = 1.0 - 2.0 * kappa * inner - kappa * y2
    coeff_b = 1.0 + kappa * x2
    denom = 1.0 - 2.0 * kappa * inner + kappa * kappa * x2 * y2
    denom = np.where(np.abs(denom) < 1e-15, 1e-15, denom)
    squared = np.maximum(coeff_a * coeff_a * x2
                         + 2.0 * coeff_a * coeff_b * inner
                         + coeff_b * coeff_b * y2, 0.0)
    return np.sqrt(squared) / np.abs(denom)


def _np_pairwise_dist(x, y, kappa):
    # every (i, j) pair: (B, N) inner products, (B, 1) and (1, N) norms
    norm = mobius_norm(-(x @ y.T), np.add.reduce(x * x, axis=1)[:, None],
                       np.add.reduce(y * y, axis=1)[None, :], kappa)
    return 2.0 * _np_artan_k(norm, kappa)


def _np_rowwise_dist(x, y, kappa):
    norm = mobius_norm(-np.add.reduce(x * y, axis=1),
                       np.add.reduce(x * x, axis=1),
                       np.add.reduce(y * y, axis=1), kappa)
    return 2.0 * _np_artan_k(norm, kappa)


def _np_dist_fwd(a, b, kappa):
    k = _over_rows(kappa, np.ndim(a) - 1)
    p = np.add.reduce(a * b, axis=-1)
    alpha = np.add.reduce(a * a, axis=-1)
    beta = np.add.reduce(b * b, axis=-1)
    ca = 1.0 - 2.0 * k * p - k * beta
    cb = 1.0 + k * alpha
    den = 1.0 - 2.0 * k * p + k * k * alpha * beta
    safe = np.where(np.abs(den) < _EPS, den + _EPS, den)
    num = ca[..., None] * a + cb[..., None] * b
    diff = num / safe[..., None]
    r = np.sqrt(np.add.reduce(diff * diff, axis=-1) + _EPS)
    f, aux = artan_k_fwd_numpy(r, kappa)
    out = 2.0 * f
    return out, diff, r, f, aux, safe, p, alpha, beta, ca, cb


def _np_dist_bwd(grad, a, b, diff, r, f, aux, safe, p, alpha, beta,
                 ca, cb, kappa):
    k = _over_rows(kappa, np.ndim(r))
    df_dr, df_dk = artan_k_bwd_numpy(r, aux, kappa)
    g_f = 2.0 * grad
    g_r = g_f * df_dr
    grad_k = np.add.reduce(g_f * df_dk, axis=-1)
    g_diff = g_r[..., None] * diff / r[..., None]
    g_num = g_diff / safe[..., None]
    g_den = -np.add.reduce(g_diff * diff, axis=-1) / safe
    g_ca = np.add.reduce(g_num * a, axis=-1)
    g_cb = np.add.reduce(g_num * b, axis=-1)
    g_a = ca[..., None] * g_num
    g_b = cb[..., None] * g_num
    g_p = -2.0 * k * (g_ca + g_den)
    g_alpha = k * k * beta * g_den + k * g_cb
    g_beta = k * k * alpha * g_den - k * g_ca
    grad_k = grad_k + np.add.reduce(
        g_den * (-2.0 * p + 2.0 * k * alpha * beta)
        + g_ca * (-2.0 * p - beta) + g_cb * alpha, axis=-1)
    g_a = g_a + g_p[..., None] * b + 2.0 * g_alpha[..., None] * a
    g_b = g_b + g_p[..., None] * a + 2.0 * g_beta[..., None] * b
    return g_a, g_b, grad_k


def _np_mobius_add_fwd(x, y, kappa):
    k = _over_rows(kappa, np.ndim(x))
    xy = np.add.reduce(x * y, axis=-1, keepdims=True)
    x2 = np.add.reduce(x * x, axis=-1, keepdims=True)
    y2 = np.add.reduce(y * y, axis=-1, keepdims=True)
    ca = 1.0 - 2.0 * k * xy - k * y2
    cb = 1.0 + k * x2
    denominator = 1.0 - 2.0 * k * xy + k * k * x2 * y2
    safe = np.where(np.abs(denominator) < _EPS, denominator + _EPS,
                    denominator)
    return (ca * x + cb * y) / safe, xy, x2, y2, ca, cb, safe


def _np_mobius_add_bwd(grad, x, y, out, xy, x2, y2, ca, cb, safe, kappa):
    k = _over_rows(kappa, np.ndim(x))
    g_num = grad / safe
    g_den = -np.add.reduce(grad * out, axis=-1, keepdims=True) / safe
    g_ca = np.add.reduce(g_num * x, axis=-1, keepdims=True)
    g_cb = np.add.reduce(g_num * y, axis=-1, keepdims=True)
    g_xy = -2.0 * k * (g_ca + g_den)
    g_x2 = k * g_cb + k * k * y2 * g_den
    g_y2 = k * k * x2 * g_den - k * g_ca
    # summed over every row of a factor: one ∂κ per factor
    term = (g_ca * (-2.0 * xy - y2) + g_cb * x2
            + g_den * (-2.0 * xy + 2.0 * k * x2 * y2))
    grad_k = np.add.reduce(term.reshape(np.shape(kappa) + (-1,)), axis=-1)
    g_x = ca * g_num + g_xy * y + 2.0 * g_x2 * x
    g_y = cb * g_num + g_xy * x + 2.0 * g_y2 * y
    return g_x, g_y, grad_k


def _np_project_fwd(x, kappa, boundary_eps):
    # only hyperbolic factors have a boundary; a batch with no row over
    # it is returned as the same object so callers can skip the tape node
    kappa = np.asarray(kappa, dtype=np.float64)
    k = _over_rows(kappa, np.ndim(x))
    clips = []
    for regime, factors in _regimes(kappa):
        if regime != _HYPERBOLIC:
            continue
        xs = x[factors]
        max_norm = (1.0 - boundary_eps) / np.sqrt(np.abs(k[factors]) + _EPS)
        x_norm = np.sqrt(np.add.reduce(xs * xs, axis=-1, keepdims=True)
                         + _EPS)
        over = x_norm > max_norm
        if over.any():
            clips.append((factors, over, x_norm, max_norm))
    if not clips:
        return x, None
    out = x if clips[0][0] == slice(None) else x.copy()
    for factors, over, x_norm, max_norm in clips:
        xs = x[factors]
        clipped = np.where(over, xs * (max_norm / x_norm), xs)
        if out is x:
            out = clipped
        else:
            out[factors] = clipped
    return out, clips


def _np_project_bwd(grad, x, clips, kappa):
    kappa = np.asarray(kappa, dtype=np.float64)
    g_x = grad if clips[0][0] == slice(None) else grad.copy()
    grad_k = np.zeros(kappa.shape)
    for factors, over, x_norm, max_norm in clips:
        gs, xs = grad[factors], x[factors]
        inner = np.add.reduce(gs * xs, axis=-1, keepdims=True) * over
        g_clip = np.where(over, gs * (max_norm / x_norm)
                          - xs * (inner * max_norm / x_norm ** 3), gs)
        if g_x is grad:
            g_x = g_clip
        else:
            g_x[factors] = g_clip
        k = kappa.reshape(-1)[factors]
        # max_norm ∝ (|κ| + ε)^-½ with κ < 0, so
        # ∂max_norm/∂κ = max_norm / 2(|κ| + ε)
        grad_k.reshape(-1)[factors] = (
            np.add.reduce(np.reshape(inner / x_norm, (k.size, -1)), axis=-1)
            * 0.5 * max_norm.reshape(-1) / (np.abs(k) + _EPS))
    return g_x, grad_k


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


# -- plain-array entry points (no tape) --------------------------------------


def _as_2d(x) -> np.ndarray:
    """Float64 view of ``x`` flattened to an ``(n, d)`` block."""
    x = np.asarray(x, dtype=np.float64)
    return np.ascontiguousarray(x).reshape(-1, x.shape[-1])


def artan_k_numpy(x: np.ndarray, kappa: float) -> np.ndarray:
    """Scalar-curvature ``tan⁻¹_κ`` on plain arrays (inference flavour)."""
    x = np.asarray(x, dtype=np.float64)
    return impl("artan_k")(x, float(kappa))


def logmap0_numpy(x: np.ndarray, kappa: float) -> np.ndarray:
    """``tan⁻¹_κ(‖x‖)·x/‖x‖`` on plain arrays — the forward kernel of
    :func:`logmap0`, so values are bit-equal to it."""
    x = np.asarray(x, dtype=np.float64)
    return impl("radial_fwd")(_as_2d(x), float(kappa),
                              KIND_ARTAN)[0].reshape(x.shape)


def pairwise_dist(x: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """Geodesic distance matrix ``d_κ(x_i, y_j)``, shape ``(B, N)``."""
    return impl("pairwise_dist")(_as_2d(x), _as_2d(y), float(kappa))


def rowwise_dist(x: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """Aligned row-by-row distance ``d_κ(x_i, y_i)``, shape ``(B,)``."""
    return impl("rowwise_dist")(_as_2d(x), _as_2d(y), float(kappa))


# -- curvature and tape wiring -----------------------------------------------


class Curvature(Parameter):
    """The curvatures of M factors as one ``(M,)`` vector.

    ``trainable`` marks the learned entries; the others are frozen at
    their initial value (a fixed signature such as ``HS`` freezes all
    of them) and receive no gradient.  :meth:`constrain` clamps the
    vector to its stability bounds after each optimiser step (paper
    §V-B numerical-stability measures).
    """

    __slots__ = ("trainable", "bounds")

    def __init__(self, values: Sequence[float], trainable: Sequence[bool],
                 bounds: tuple = (-2.5, 2.5)):
        super().__init__(np.asarray(values, dtype=np.float64))
        self.trainable = np.asarray(trainable, dtype=bool)
        if self.data.ndim != 1 or self.data.size == 0:
            raise ValueError("a product space needs at least one factor; "
                             "got curvatures of shape %r" % (self.shape,))
        if self.trainable.shape != self.data.shape:
            raise ValueError("trainable mask %r does not match %d factors"
                             % (self.trainable.shape, self.data.size))
        self.bounds = (float(bounds[0]), float(bounds[1]))
        self.requires_grad = bool(self.trainable.any())

    def _accumulate(self, grad: np.ndarray) -> None:
        super()._accumulate(np.where(self.trainable, grad, 0.0))

    def constrain(self) -> None:
        """Clamp κ in place to its stability bounds."""
        np.clip(self.data, *self.bounds, out=self.data)


def _factor_rows(data: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """``data`` as ``κ.shape + (rows, d)``: one row block per factor."""
    return data.reshape(kappa.shape + (-1, data.shape[-1]))


def _radial_map(v, kappa, kind) -> Tensor:
    """Shared body of :func:`expmap0`/:func:`logmap0`: ``f(‖v‖)·v/‖v‖``."""
    v = ensure_tensor(v)
    kappa = ensure_tensor(kappa)
    kval = kappa.data.copy()
    shape = v.data.shape
    v3 = _factor_rows(v.data, kval)
    out, r, f, aux = impl("radial_fwd")(v3, kval, kind)

    def backward(grad):
        g_v, g_k = impl("radial_bwd")(grad.reshape(v3.shape), v3, r, f, aux,
                                      kval, kind)
        return g_v.reshape(shape), np.reshape(g_k, kappa.shape)

    return Tensor._make(out.reshape(shape), (v, kappa), backward)


def expmap0(v, kappa) -> Tensor:
    """``exp^κ_0(v) = tan_κ(‖v‖)·v/‖v‖`` as a single tape node."""
    return _radial_map(v, kappa, KIND_TAN)


def logmap0(x, kappa) -> Tensor:
    """``log^κ_0(x) = tan⁻¹_κ(‖x‖)·x/‖x‖`` as a single tape node."""
    return _radial_map(x, kappa, KIND_ARTAN)


def dist(x, y, kappa) -> Tensor:
    """Geodesic distance ``d_κ(x,y) = 2·tan⁻¹_κ(‖-x ⊕κ y‖)``, one node.

    ``(M, n, d)`` blocks give ``(n, M)``: the factor axis moves last,
    so the per-subspace distances line up with attention weights.  A
    scalar κ gives ``(n, 1)``.
    """
    x = ensure_tensor(x)
    y = ensure_tensor(y)
    kappa = ensure_tensor(kappa)
    kval = kappa.data.copy()
    a, b = np.broadcast_arrays(-x.data, y.data)
    shape = a.shape
    a3 = _factor_rows(a, kval)
    b3 = _factor_rows(b, kval)
    out, *cache = impl("dist_fwd")(a3, b3, kval)
    factors = kval.size
    out_data = np.ascontiguousarray(out.reshape(factors, -1).T).reshape(
        shape[kval.ndim:-1] + (factors,))

    def backward(grad):
        g = np.reshape(grad, (-1, factors)).T.reshape(kval.shape + (-1,))
        g_a, g_b, g_k = impl("dist_bwd")(g, a3, b3, *cache, kval)
        return (_unbroadcast(-g_a.reshape(shape), x.shape),
                _unbroadcast(g_b.reshape(shape), y.shape),
                np.reshape(g_k, kappa.shape))

    return Tensor._make(out_data, (x, y, kappa), backward)


def mobius_add(x, y, kappa) -> Tensor:
    """Möbius addition ``x ⊕κ y`` as a single tape node.

    ``y`` may broadcast against ``x`` (the ``(M, 1, d)`` Möbius bias);
    its gradient is summed back to its shape.
    """
    x = ensure_tensor(x)
    y = ensure_tensor(y)
    kappa = ensure_tensor(kappa)
    kval = kappa.data.copy()
    fwd = impl("mobius_add_fwd")(x.data, y.data, kval)

    def backward(grad):
        g_x, g_y, g_k = impl("mobius_add_bwd")(grad, x.data, y.data, *fwd,
                                               kval)
        return (_unbroadcast(g_x, x.shape), _unbroadcast(g_y, y.shape),
                np.reshape(g_k, kappa.shape))

    return Tensor._make(fwd[0], (x, y, kappa), backward)


def project(x, kappa, boundary_eps: float = 4e-3) -> Tensor:
    """Clip hyperbolic factors' rows back inside the ball, one node.

    Returns ``x`` itself — no node at all — when no factor is
    hyperbolic or no row lies over the boundary.
    """
    x = ensure_tensor(x)
    kappa = ensure_tensor(kappa)
    kval = kappa.data.copy()
    out, cache = impl("project_fwd")(x.data, kval, boundary_eps)
    if cache is None:
        return x

    def backward(grad):
        g_x, g_k = impl("project_bwd")(grad, x.data, cache, kval)
        return g_x, np.reshape(g_k, kappa.shape)

    return Tensor._make(out, (x, kappa), backward)


def matvec(weight, x, kappa) -> Tensor:
    """Möbius matrix multiplication ``W ⊗κ x = exp^κ_0(log^κ_0(x)·W)``."""
    return expmap0(ops.matmul(logmap0(x, kappa), weight), kappa)


def activation(x, kappa, target_kappa=None) -> Tensor:
    """Curved tanh ``σ_{κ1→κ2}(x) = exp^{κ2}_0(tanh(log^{κ1}_0 x))``."""
    target = kappa if target_kappa is None else target_kappa
    return expmap0(ops.tanh(logmap0(x, kappa)), target)
