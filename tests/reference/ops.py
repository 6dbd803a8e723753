"""Autodiff ops only the composed geometry oracle uses.

``tests/reference/stereographic.py`` spells every κ-stereographic
operation out of these micro-ops; ``src/`` evaluates each operation as
one fused kernel (``repro.geometry.kernels``) and no longer needs them.
"""

from typing import Optional, Sequence

import numpy as np

from repro.autodiff import ops
from repro.autodiff.ops import _unbroadcast
from repro.autodiff.tensor import Tensor, ensure_tensor


def neg(a) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        return (-grad,)

    return Tensor._make(-a.data, (a,), backward)


def sqrt(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(grad):
        return (grad * 0.5 / np.maximum(out_data, 1e-15),)

    return Tensor._make(out_data, (a,), backward)


def tan(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.tan(a.data)

    def backward(grad):
        return (grad * (1.0 + out_data * out_data),)

    return Tensor._make(out_data, (a,), backward)


def arctan(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.arctan(a.data)

    def backward(grad):
        return (grad / (1.0 + a.data * a.data),)

    return Tensor._make(out_data, (a,), backward)


def arctanh(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.arctanh(a.data)

    def backward(grad):
        return (grad / np.maximum(1.0 - a.data * a.data, 1e-15),)

    return Tensor._make(out_data, (a,), backward)


def abs_(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.abs(a.data)

    def backward(grad):
        return (grad * np.sign(a.data),)

    return Tensor._make(out_data, (a,), backward)


def clip(a, lo: Optional[float], hi: Optional[float]) -> Tensor:
    """Clamp values; the gradient is masked to zero outside the bounds.

    This is the numerically safe clamp used for the arguments of ``tan``
    and ``arctanh`` in the stereographic operations (mirroring geoopt).
    """
    a = ensure_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = np.ones_like(a.data, dtype=bool)
    if lo is not None:
        inside &= a.data >= lo
    if hi is not None:
        inside &= a.data <= hi

    def backward(grad):
        return (grad * inside,)

    return Tensor._make(out_data, (a,), backward)


def where(cond, a, b) -> Tensor:
    """Select ``a`` where ``cond`` else ``b``; ``cond`` is a plain array."""
    cond = np.asarray(cond, dtype=bool)
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad):
        return (_unbroadcast(np.where(cond, grad, 0.0), a.shape),
                _unbroadcast(np.where(cond, 0.0, grad), b.shape))

    return Tensor._make(out_data, (a, b), backward)


def norm(a, axis: int = -1, keepdims: bool = True, eps: float = 1e-15) -> Tensor:
    """Euclidean norm along ``axis`` with a numerically safe gradient.

    Implemented as ``sqrt(sum(a**2) + eps)`` so the gradient at the
    origin is finite — important because gyrovector formulas divide by
    norms of vectors that can legitimately be zero.
    """
    squared = ops.sum(ops.mul(a, a), axis=axis, keepdims=keepdims)
    return sqrt(ops.add(squared, eps))


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return Tensor._make(out_data, tuple(tensors), backward)
