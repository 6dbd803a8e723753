"""Differentiable operations for the autodiff engine.

Every function takes :class:`~repro.autodiff.tensor.Tensor` (or
array-like) inputs and returns a ``Tensor`` whose backward closure
propagates gradients to its parents.  Broadcasting follows numpy
semantics; gradients of broadcast operands are summed back to the
original shape (:func:`_unbroadcast`).

The operation set is the minimum closure needed by the AMCAD model:
arithmetic, ``matmul``, reductions, the trig/hyperbolic family used by
the κ-stereographic operations of paper Table II, ``softmax`` for the
edge-level subspace attention, ``gather`` for sparse feature-embedding
lookup, plus shape plumbing (``concatenate``, ``stack``, slicing).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autodiff.tensor import Tensor, ensure_tensor


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to invert numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- arithmetic ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data + b.data

    def backward(grad):
        return (_unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data - b.data

    def backward(grad):
        return (_unbroadcast(grad, a.shape), _unbroadcast(-grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data * b.data

    def backward(grad):
        return (_unbroadcast(grad * b.data, a.shape),
                _unbroadcast(grad * a.data, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data / b.data

    def backward(grad):
        ga = grad / b.data
        gb = -grad * a.data / (b.data * b.data)
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def neg(a) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        return (-grad,)

    return Tensor._make(-a.data, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product supporting 1-D/2-D/batched operands."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data @ b.data

    def backward(grad):
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 1:
            return (grad * b_data, grad * a_data)
        if a_data.ndim == 1:
            ga = grad @ np.swapaxes(b_data, -1, -2)
            gb = np.outer(a_data, grad)
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))
        if b_data.ndim == 1:
            ga = np.expand_dims(grad, -1) * b_data
            gb = np.swapaxes(a_data, -1, -2) @ grad
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))
        ga = grad @ np.swapaxes(b_data, -1, -2)
        gb = np.swapaxes(a_data, -1, -2) @ grad
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return Tensor._make(out_data, (a, b), backward)


# -- reductions ----------------------------------------------------------


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = ensure_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor._make(out_data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        count = a.data.shape[axis]

    def backward(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return Tensor._make(out_data, (a,), backward)


def masked_mean(a, mask: np.ndarray) -> Tensor:
    """Mean of ``a (B, k, d)`` over the slots where ``mask (B, k)`` is 1.

    One tape node for the ``mul → sum → div`` chain of masked pooling;
    an all-masked row yields zeros (its denominator is clamped to 1).
    """
    a = ensure_tensor(a)
    mask_t = mask[..., None]
    denom = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
    out_data = np.sum(a.data * mask_t, axis=1) / denom

    def backward(grad):
        return ((grad / denom)[:, None, :] * mask_t,)

    return Tensor._make(out_data, (a,), backward)


# -- elementwise nonlinearities -------------------------------------------


def exp(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        return (grad * out_data,)

    return Tensor._make(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(grad):
        return (grad * 0.5 / np.maximum(out_data, 1e-15),)

    return Tensor._make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - out_data * out_data),)

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


def sigmoid(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        return (grad * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(grad):
        return (grad * (a.data > 0.0),)

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


# -- compositions ----------------------------------------------------------


def norm(a, axis: int = -1, keepdims: bool = True, eps: float = 1e-15) -> Tensor:
    """Euclidean norm along ``axis`` with a numerically safe gradient.

    Implemented as ``sqrt(sum(a**2) + eps)`` so the gradient at the
    origin is finite — important because gyrovector formulas divide by
    norms of vectors that can legitimately be zero.
    """
    squared = sum(mul(a, a), axis=axis, keepdims=keepdims)
    return sqrt(add(squared, eps))


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = ensure_tensor(a)
    shifted = sub(a, Tensor(a.data.max(axis=axis, keepdims=True)))
    exps = exp(shifted)
    return div(exps, sum(exps, axis=axis, keepdims=True))


# -- indexing / shape plumbing ---------------------------------------------


def _scatter_add(shape: tuple, key, grad: np.ndarray) -> np.ndarray:
    """``zeros(shape)`` with ``grad`` added at ``[key]``, repeats summed.

    An integer-array row index into a 2-D table — every gather of the
    encode plane — is one ``np.bincount`` over the flattened
    ``row·d + col`` positions, several times faster than the buffered
    ``np.add.at``; any other key keeps ``np.add.at``.
    """
    if (len(shape) == 2 and isinstance(key, np.ndarray)
            and key.dtype.kind in "iu"):
        rows, cols = shape
        flat = (key.reshape(-1, 1) % rows) * cols + np.arange(cols)
        return np.bincount(flat.ravel(), weights=grad.ravel(),
                           minlength=rows * cols).reshape(shape)
    out = np.zeros(shape)
    np.add.at(out, key, grad)
    return out


def gather(table, index) -> Tensor:
    """Row lookup ``table[index]`` with scatter-add backward.

    This is the embedding-lookup primitive: gradients of repeated rows
    are accumulated (see :func:`_scatter_add`).
    """
    table = ensure_tensor(table)
    index = np.asarray(index)
    out_data = table.data[index]

    def backward(grad):
        return (_scatter_add(table.shape, index, grad),)

    return Tensor._make(out_data, (table,), backward)


def getitem(a, key) -> Tensor:
    a = ensure_tensor(a)
    out_data = a.data[key]

    def backward(grad):
        return (_scatter_add(a.shape, key, grad),)

    return Tensor._make(out_data, (a,), backward)


def reshape(a, shape: tuple) -> Tensor:
    a = ensure_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(a.shape),)

    return Tensor._make(out_data, (a,), backward)


def concatenate(tensors: Sequence, axis: int = -1) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        pieces = []
        for i in range(len(tensors)):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return Tensor._make(out_data, tuple(tensors), backward)
