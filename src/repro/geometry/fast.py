"""Fused kernels for mixed-curvature geometry — inference *and* training.

Two families live here:

1. **Pure-numpy inference kernels.**  The MNN index builder (paper
   §IV-C-1) computes distances from every key node to every candidate
   node — far too many pairs to route through the autodiff tape.  These
   kernels evaluate the κ-stereographic geodesic distance between row
   sets ``X (B,d)`` and ``Y (N,d)`` without ever materialising the
   ``(B,N,d)`` Möbius-sum tensor: the norm of ``-x ⊕κ y`` expands into
   inner products, so only ``(B,N)`` scalars are formed.  This is the
   vectorised (SIMD-style) half of the paper's two-level parallelism;
   the worker half is not reproduced in-process.
   :func:`artan_k_numpy` and :func:`logmap0_numpy` are the plain-array
   maps the ANN tangent-space prune needs.

2. **Fused differentiable kernels** (:func:`fused_expmap0`,
   :func:`fused_logmap0`, :func:`fused_dist`,
   :func:`fused_mobius_add`, :func:`fused_project`).  The
   training-side counterpart of the same idea: each evaluates a whole
   Table II operation chain (norm → curvature trig → scaling, Möbius-add
   → norm → ``tan⁻¹_κ``, the Möbius sum itself, the boundary clip) as
   **one tape node** with a hand-derived vector-Jacobian backward,
   instead of the 10–27 micro-ops the composed
   :mod:`repro.geometry.stereographic` versions record.  Forward values
   and gradients — including the gradient with respect to a trainable
   κ, and every numerical guard (norm ε, clip masks, arctanh/denominator
   clamps) — replicate the composed chain exactly, which the
   encoder-plane tests verify term by term.  The composed micro-op
   versions remain in :mod:`repro.geometry.stereographic` as the
   gradcheck reference; nothing in ``src/`` calls them.  Offline
   inference (``AMCAD.encode_all``) runs these same functions under
   ``no_grad``: the forward kernel runs, no tape node is kept.

The actual array math lives in :mod:`repro.geometry.kernels`, one
numpy implementation per primitive: every public function here
flattens its inputs to the registry's 2-D float64 contract and calls
the kernel through ``kernels.impl``.  The functions in this module own
the tape wiring (tensor wrapping, cached VJP closures,
``_unbroadcast``).
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.ops import _unbroadcast
from repro.autodiff.tensor import Tensor, ensure_tensor

from repro.geometry import kernels as _kernels
from repro.geometry.kernels import KIND_ARTAN, KIND_TAN

__all__ = [
    "artan_k_numpy", "pairwise_dist", "rowwise_dist", "fused_expmap0",
    "fused_logmap0", "fused_dist", "fused_mobius_add", "fused_project",
    "logmap0_numpy",
]


def _as_2d(x) -> np.ndarray:
    """Float64 view of ``x`` flattened to the registry's ``(n, d)`` shape."""
    x = np.asarray(x, dtype=np.float64)
    return np.ascontiguousarray(x).reshape(-1, x.shape[-1])


def artan_k_numpy(x: np.ndarray, kappa: float) -> np.ndarray:
    """Scalar-curvature ``tan⁻¹_κ`` on plain arrays."""
    x = np.asarray(x, dtype=np.float64)
    flat = np.ascontiguousarray(x).reshape(-1)
    return _kernels.impl("artan_k")(flat, float(kappa)).reshape(x.shape)


def logmap0_numpy(x: np.ndarray, kappa: float) -> np.ndarray:
    """``tan⁻¹_κ(‖x‖)·x/‖x‖`` on plain arrays — the forward kernel of
    :func:`fused_logmap0`, so values are bit-equal to it."""
    x = np.asarray(x, dtype=np.float64)
    out2 = _kernels.impl("radial_fwd")(_as_2d(x), float(kappa), KIND_ARTAN)[0]
    return out2.reshape(x.shape)


def pairwise_dist(x: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """Geodesic distance matrix ``d_κ(x_i, y_j)``, shape ``(B, N)``."""
    return _kernels.impl("pairwise_dist")(_as_2d(x), _as_2d(y), float(kappa))


def rowwise_dist(x: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """Aligned row-by-row distance ``d_κ(x_i, y_i)``, shape ``(B,)``."""
    return _kernels.impl("rowwise_dist")(_as_2d(x), _as_2d(y), float(kappa))


# -- fused differentiable kernels -----------------------------------------
#
# Tape wiring only: the forward/backward array math lives behind the
# kernel registry (``radial_fwd``/``radial_bwd``, ``dist_fwd``/
# ``dist_bwd``, ``mobius_add_fwd``/``mobius_add_bwd``, ``project_fwd``/
# ``project_bwd``).  The forward caches the per-row trig value and every
# intermediate the hand-derived VJP needs, so the backward closure
# re-evaluates no tanh/tan/arctanh/arctan — and under ``no_grad`` the
# derivative arithmetic never runs at all.


def _radial_map(v, kappa, kind) -> Tensor:
    """Shared fused body of ``expmap0``/``logmap0``: ``f(‖v‖)·v/‖v‖``.

    One tape node replacing the composed chain norm → trig → rescale
    (sum, sqrt, clip, tanh/arctanh, two divisions, a multiply — each a
    node of its own in the micro-op version).
    """
    v = ensure_tensor(v)
    kappa = ensure_tensor(kappa)
    kval = float(kappa.data)
    data = v.data
    shape = data.shape
    v2 = _as_2d(data)
    out2, r, f, aux = _kernels.impl("radial_fwd")(v2, kval, kind)
    out_data = out2.reshape(shape)

    def backward(grad):
        g2 = np.ascontiguousarray(grad).reshape(v2.shape)
        gv2, grad_k = _kernels.impl("radial_bwd")(g2, v2, r, f, aux,
                                                  kval, kind)
        return (gv2.reshape(shape),
                np.asarray(grad_k).reshape(kappa.shape))

    return Tensor._make(out_data, (v, kappa), backward)


def fused_expmap0(v, kappa) -> Tensor:
    """Fused ``exp^κ_0(v) = tan_κ(‖v‖)·v/‖v‖`` as a single tape node."""
    return _radial_map(v, kappa, KIND_TAN)


def fused_logmap0(x, kappa) -> Tensor:
    """Fused ``log^κ_0(x) = tan⁻¹_κ(‖x‖)·x/‖x‖`` as a single tape node."""
    return _radial_map(x, kappa, KIND_ARTAN)


def fused_dist(x, y, kappa) -> Tensor:
    """Fused geodesic distance ``d_κ(x,y) = 2·tan⁻¹_κ(‖-x ⊕κ y‖)``.

    Collapses the Möbius-addition / norm / ``tan⁻¹_κ`` chain — about a
    dozen tape nodes in the composed version — into one node with a
    hand-derived backward for ``x``, ``y`` *and* the (possibly
    trainable) curvature.  Output keeps the reduced feature axis as
    size 1, matching ``stereographic.dist_k``.
    """
    x = ensure_tensor(x)
    y = ensure_tensor(y)
    kappa = ensure_tensor(kappa)
    kval = float(kappa.data)
    a, b = np.broadcast_arrays(-x.data, y.data)
    shape = a.shape
    a2 = _as_2d(a)
    b2 = _as_2d(b)
    (out, diff, r, f, aux, safe, p, alpha,
     beta, ca, cb) = _kernels.impl("dist_fwd")(a2, b2, kval)
    out_data = out.reshape(shape[:-1] + (1,))

    def backward(grad):
        g = np.ascontiguousarray(grad).reshape(-1)
        g_a, g_b, grad_k = _kernels.impl("dist_bwd")(
            g, a2, b2, diff, r, f, aux, safe, p, alpha, beta, ca, cb,
            kval)
        return (_unbroadcast(-g_a.reshape(shape), x.shape),
                _unbroadcast(g_b.reshape(shape), y.shape),
                np.asarray(grad_k).reshape(kappa.shape))

    return Tensor._make(out_data, (x, y, kappa), backward)


def fused_mobius_add(x, y, kappa) -> Tensor:
    """Fused Möbius addition ``x ⊕κ y`` as a single tape node.

    Replaces the ~27 micro-ops of ``stereographic.mobius_add`` with one
    node whose backward covers ``x``, ``y`` (summed back to its shape
    when it broadcast — the ``(d,)`` Möbius bias) and the curvature.
    """
    x = ensure_tensor(x)
    y = ensure_tensor(y)
    kappa = ensure_tensor(kappa)
    kval = float(kappa.data)
    fwd = _kernels.impl("mobius_add_fwd")(x.data, y.data, kval)

    def backward(grad):
        g_x, g_y, grad_k = _kernels.impl("mobius_add_bwd")(
            grad, x.data, y.data, *fwd, kval)
        return (_unbroadcast(g_x, x.shape), _unbroadcast(g_y, y.shape),
                np.asarray(grad_k).reshape(kappa.shape))

    return Tensor._make(fwd[0], (x, y, kappa), backward)


def fused_project(x, kappa, boundary_eps: float = 4e-3) -> Tensor:
    """Fused boundary clip of ``stereographic.project`` as one tape node.

    Returns ``x`` itself — no node at all — when κ is not hyperbolic or
    no row lies over the boundary: the composed ``where`` chain is the
    identity there, in value and in gradient.
    """
    x = ensure_tensor(x)
    kappa = ensure_tensor(kappa)
    kval = float(kappa.data)
    out, over, x_norm, max_norm = _kernels.impl("project_fwd")(
        x.data, kval, boundary_eps)
    if over is None:
        return x

    def backward(grad):
        g_x, grad_k = _kernels.impl("project_bwd")(
            grad, x.data, over, x_norm, max_norm, kval)
        return g_x, np.asarray(grad_k).reshape(kappa.shape)

    return Tensor._make(out, (x, kappa), backward)
