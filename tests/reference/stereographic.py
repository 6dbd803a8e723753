"""κ-stereographic (gyrovector) operations — paper Table II, composed.

The gradcheck oracle of ``repro.geometry.kernels``: every operation is
spelled out of autodiff micro-ops (``reference.ops`` plus the
arithmetic of ``repro.autodiff.ops``), one tape node each, with a
*scalar* κ — one factor at a time.  The kernels evaluate each operation
as one node over a whole ``(M,)`` curvature vector and must match this
chain factor by factor, in value and in every gradient, ∂κ included.

The unified model ``U^n_κ`` represents all three constant-curvature
geometries with one coordinate chart.  Following the paper's convention:

- ``κ < 0`` — hyperbolic space (Poincaré ball of radius ``1/sqrt(-κ)``),
- ``κ = 0`` — Euclidean space,
- ``κ > 0`` — spherical space (stereographic projection of the sphere).

The curvature-dependent trigonometry is::

    tan_κ(x)  = tanh(√-κ·x)/√-κ   (κ<0) |  x + κx³/3  (κ≈0) |  tan(√κ·x)/√κ   (κ>0)
    artan_κ(x) = tanh⁻¹(√-κ·x)/√-κ (κ<0) |  x - κx³/3  (κ≈0) |  tan⁻¹(√κ·x)/√κ (κ>0)

Branches are selected with masked ``where`` so a *trainable* κ can cross
zero smoothly during optimisation (the κ≈0 branch is the shared
third-order Taylor expansion of both sides).  Each branch clamps its
argument so that the non-selected branch never produces NaNs that would
poison the ``where`` gradient.

All functions accept ``Tensor`` or array-like inputs; ``kappa`` may be a
python float, a numpy scalar or a (trainable) scalar ``Tensor``.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import ops as base_ops
from repro.autodiff.tensor import Tensor, ensure_tensor
# the kernels match this chain only while the constants are shared
from repro.geometry.kernels import (_ARTANH_ARG_MAX, _EPS, _KAPPA_ZERO_TOL,
                                    _TAN_ARG_MAX, _TANH_ARG_MAX)

from reference import ops


def tan_k(x, kappa) -> Tensor:
    """Curvature-dependent tangent ``tan_κ`` (paper Table II).

    κ is a *scalar* (float or 0-d tensor), so the active branch is
    selected in Python from its current value — the gradient with
    respect to κ inside a branch is the correct almost-everywhere
    derivative of the piecewise function, and the Taylor branch covers
    the neighbourhood of κ = 0 where both sides agree to third order.
    """
    x = ensure_tensor(x)
    kappa = ensure_tensor(kappa)
    value = float(kappa.data)
    if value < -_KAPPA_ZERO_TOL:
        scale = ops.sqrt(ops.abs_(kappa) + _EPS)
        return base_ops.tanh(ops.clip(x * scale, -_TANH_ARG_MAX, _TANH_ARG_MAX)) / scale
    if value > _KAPPA_ZERO_TOL:
        scale = ops.sqrt(ops.abs_(kappa) + _EPS)
        return ops.tan(ops.clip(x * scale, -_TAN_ARG_MAX, _TAN_ARG_MAX)) / scale
    return x + kappa * (x * x * x) * (1.0 / 3.0)


def artan_k(x, kappa) -> Tensor:
    """Curvature-dependent arc tangent ``tan⁻¹_κ`` (paper Table II).

    Scalar-κ branch selection; see :func:`tan_k`.
    """
    x = ensure_tensor(x)
    kappa = ensure_tensor(kappa)
    value = float(kappa.data)
    if value < -_KAPPA_ZERO_TOL:
        scale = ops.sqrt(ops.abs_(kappa) + _EPS)
        return ops.arctanh(ops.clip(x * scale, -_ARTANH_ARG_MAX,
                                    _ARTANH_ARG_MAX)) / scale
    if value > _KAPPA_ZERO_TOL:
        scale = ops.sqrt(ops.abs_(kappa) + _EPS)
        return ops.arctan(x * scale) / scale
    return x - kappa * (x * x * x) * (1.0 / 3.0)


def mobius_add(x, y, kappa) -> Tensor:
    """Möbius addition ``x ⊕κ y`` (paper Table II convention).

    At κ=0 this reduces to vector addition; at κ=-1 it is the standard
    Poincaré-ball Möbius addition.
    """
    x, y = ensure_tensor(x), ensure_tensor(y)
    kappa = ensure_tensor(kappa)
    xy = base_ops.sum(x * y, axis=-1, keepdims=True)
    x2 = base_ops.sum(x * x, axis=-1, keepdims=True)
    y2 = base_ops.sum(y * y, axis=-1, keepdims=True)
    numerator = (1.0 - 2.0 * kappa * xy - kappa * y2) * x + (1.0 + kappa * x2) * y
    denominator = 1.0 - 2.0 * kappa * xy + kappa * kappa * x2 * y2
    # The denominator can approach zero only near the boundary of the
    # hyperbolic ball; the projection step keeps points strictly inside,
    # and the clamp below guards the gradient.
    safe = ops.where(np.abs(denominator.data) < _EPS,
                     denominator + _EPS, denominator)
    return numerator / safe


def expmap0(v, kappa) -> Tensor:
    """Exponential map at the origin: ``exp^κ_0(v) = tan_κ(‖v‖)·v/‖v‖``."""
    v = ensure_tensor(v)
    v_norm = ops.norm(v, axis=-1, keepdims=True)
    return tan_k(v_norm, kappa) * (v / v_norm)


def logmap0(x, kappa) -> Tensor:
    """Logarithmic map at the origin: ``log^κ_0(x) = tan⁻¹_κ(‖x‖)·x/‖x‖``."""
    x = ensure_tensor(x)
    x_norm = ops.norm(x, axis=-1, keepdims=True)
    return artan_k(x_norm, kappa) * (x / x_norm)


def dist_k(x, y, kappa) -> Tensor:
    """Geodesic distance ``d_κ(x,y) = 2·tan⁻¹_κ(‖-x ⊕κ y‖)``.

    Returns shape ``(..., 1)`` — the feature axis is reduced but kept as
    a size-1 axis so results broadcast cleanly against vectors; callers
    that want a plain scalar per row index it away with ``[..., 0]``.
    """
    x, y = ensure_tensor(x), ensure_tensor(y)
    diff = mobius_add(ops.neg(x), y, kappa)
    diff_norm = ops.norm(diff, axis=-1, keepdims=True)
    return 2.0 * artan_k(diff_norm, kappa)


def project(x, kappa, boundary_eps: float = 4e-3) -> Tensor:
    """Project ``x`` back inside the valid region of ``U^n_κ``.

    Only hyperbolic space has a boundary (the ball of radius
    ``1/√(-κ)``); spherical and Euclidean points are returned unchanged.
    Mirrors the clipping used to keep training numerically stable
    (paper §V-B discusses exactly this out-of-boundary failure mode).
    """
    x = ensure_tensor(x)
    kappa = ensure_tensor(kappa)
    negative = kappa.data < -_KAPPA_ZERO_TOL
    if not np.any(negative):
        return x
    scale = ops.sqrt(ops.abs_(kappa) + _EPS)
    max_norm = base_ops.div(1.0 - boundary_eps, scale)
    x_norm = ops.norm(x, axis=-1, keepdims=True)
    over = x_norm.data > max_norm.data
    scaled = x * (max_norm / x_norm)
    inside_ball = ops.where(over, scaled, x)
    return ops.where(negative, inside_ball, x)


def per_factor(op):
    """``op`` run factor by factor over ``(M, n, d)`` blocks and an
    ``(M,)`` curvature vector — the per-subspace loop the kernels fuse.

    Each factor's block and κ are sliced off the stacked tensors, the
    composed scalar-κ chain runs on them, and the results are stacked
    back: ``(M, n, d)`` points, or ``(n, M)`` distances for
    :func:`dist_k`.  Patched over a kernel tape function, it turns one
    stacked model into its composed oracle with the same parameters.
    """
    def stacked(*args, **kwargs):
        *blocks, kappa = [ensure_tensor(a) for a in args]
        outs = [op(*[block[m] for block in blocks], kappa[m], **kwargs)
                for m in range(kappa.shape[0])]
        if op is dist_k:
            return base_ops.concatenate(outs, axis=-1)
        return ops.stack(outs, axis=0)

    return stacked
