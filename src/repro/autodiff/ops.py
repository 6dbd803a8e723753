"""Differentiable operations for the autodiff engine.

Every function takes :class:`~repro.autodiff.tensor.Tensor` (or
array-like) inputs and returns a ``Tensor`` whose backward closure
propagates gradients to its parents.  Broadcasting follows numpy
semantics; gradients of broadcast operands are summed back to the
original shape (:func:`_unbroadcast`).

The operation set is the minimum closure needed by the AMCAD model
around its fused geometry kernels (:mod:`repro.geometry.kernels`):
arithmetic, ``matmul``, reductions, ``tanh`` for the curved activation,
``softmax`` for the edge-level subspace attention, ``gather`` for
sparse feature-embedding lookup and row routing of ``(M, n, d)``
blocks, ``gather_pool`` for the input of a GCN round, plus shape
plumbing (``concatenate``, ``transpose``, ``broadcast_to``, slicing).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.autodiff.tensor import Tensor, ensure_tensor


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to invert numpy broadcasting.

    The summed axes are moved innermost and made contiguous first: a
    ``(M, n, d)`` gradient of an ``(M, 1, d)`` bias then sums each
    column in one contiguous run instead of numpy's strided reduce over
    a middle axis (several times faster for a few thousand rows).
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    axes = list(range(extra)) + [extra + i for i, dim in enumerate(shape)
                                 if dim == 1 and grad.shape[extra + i] != 1]
    if axes:
        keep = [i for i in range(grad.ndim) if i not in axes]
        moved = np.ascontiguousarray(grad.transpose(keep + axes))
        kept = moved.shape[:len(keep)]
        grad = moved.reshape(kept + (math.prod(moved.shape[len(keep):]),)
                             ).sum(axis=-1)
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


def _sum_slots(x: np.ndarray) -> np.ndarray:
    """``x`` summed over its second-to-last axis, one slot at a time.

    That is the order numpy's reduction over a non-innermost axis adds
    in, so the values are the same; for the handful of slots of a
    neighbour block it is several times faster than the strided reduce.
    """
    if x.shape[-2] == 0:
        return np.zeros(x.shape[:-2] + x.shape[-1:])
    total = x[..., 0, :]
    for slot in range(1, x.shape[-2]):
        total = total + x[..., slot, :]
    return total


def masked_mean(a, mask: np.ndarray) -> Tensor:
    """Mean of ``a (..., B, k, d)`` over the slots where ``mask (B, k)``
    is 1, for every leading slice (the factor axis of a stacked block).

    One tape node for the ``mul → sum → div`` chain of masked pooling;
    an all-masked row yields zeros (its denominator is clamped to 1).
    """
    a = ensure_tensor(a)
    mask_t = mask[..., None]
    denom = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
    out_data = _sum_slots(a.data * mask_t) / denom

    def backward(grad):
        return ((grad / denom)[..., None, :] * mask_t,)

    return Tensor._make(out_data, (a,), backward)


# -- elementwise nonlinearities -------------------------------------------


def exp(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        return (grad * out_data,)

    return Tensor._make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - out_data * out_data),)

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


# -- compositions ----------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = ensure_tensor(a)
    shifted = sub(a, Tensor(a.data.max(axis=axis, keepdims=True)))
    exps = exp(shifted)
    return div(exps, sum(exps, axis=axis, keepdims=True))


# -- indexing / shape plumbing ---------------------------------------------


def _scatter_rows(shape: tuple, index: np.ndarray,
                  grad: np.ndarray) -> np.ndarray:
    """``zeros(shape)`` with ``grad`` added at rows ``index`` of the
    second-to-last axis of every leading slice, repeats summed.

    One ``np.bincount`` over the flattened ``(slice·rows + row)·d + col``
    positions, several times faster than the buffered ``np.add.at``;
    each bin sums its contributions in index order, per slice.
    """
    *lead, rows, cols = shape
    slices = math.prod(lead)
    flat_rows = (np.arange(slices).reshape(-1, 1) * rows
                 + index.reshape(1, -1) % rows)
    flat = flat_rows.reshape(-1, 1) * cols + np.arange(cols)
    return np.bincount(flat.ravel(), weights=grad.ravel(),
                       minlength=slices * rows * cols).reshape(shape)


def _scatter_add(shape: tuple, key, grad: np.ndarray) -> np.ndarray:
    """``zeros(shape)`` with ``grad`` added at ``[key]``, repeats summed.

    An integer-array row index into a 2-D table is
    :func:`_scatter_rows`; any other key keeps ``np.add.at``.
    """
    if (len(shape) == 2 and isinstance(key, np.ndarray)
            and key.dtype.kind in "iu"):
        return _scatter_rows(shape, key, grad)
    out = np.zeros(shape)
    np.add.at(out, key, grad)
    return out


def gather(table, index) -> Tensor:
    """Row lookup with scatter-add backward.

    ``index`` selects rows of the second-to-last axis — ``table[index]``
    for a 2-D table, the same rows of every factor for a stacked
    ``(M, n, d)`` block.  This is the embedding-lookup primitive:
    gradients of repeated rows are accumulated (see
    :func:`_scatter_rows`).
    """
    table = ensure_tensor(table)
    index = np.asarray(index)
    if table.data.ndim < 2:
        return getitem(table, index)
    out_data = np.take(table.data, index, axis=-2)

    def backward(grad):
        return (_scatter_rows(table.shape, index, grad),)

    return Tensor._make(out_data, (table,), backward)


def gather_pool(self_table, self_index: np.ndarray, blocks) -> Tensor:
    """``[Σ_b masked_mean(table_b[index_b], mask_b) | self_table[self_index]]``
    as one tape node — the input of a GCN round (paper Eq. 5).

    ``blocks`` holds ``(table, index (B, k), mask (B, k))`` triples over
    stacked ``(M, n, d)`` tables; the masked means are summed in block
    order (zeros when there are none) and concatenated before the
    ``self_index`` rows of ``self_table``, with the values of the
    ``gather → masked_mean → add → concatenate`` chain it fuses.  A
    table several blocks read is one parent, and its gradient one
    scatter over all their rows.
    """
    self_table = ensure_tensor(self_table)
    self_index = np.asarray(self_index)
    parents = [self_table]
    # per parent, its reads: (index, None) for the self rows and
    # (index, (denom, mask)) for a pooled block
    reads = [[(self_index, None)]]
    pooled = []
    for table, index, mask in blocks:
        table = ensure_tensor(table)
        slot = next((i for i, p in enumerate(parents) if p is table), None)
        if slot is None:
            slot = len(parents)
            parents.append(table)
            reads.append([])
        denom = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        mask_t = mask[..., None]
        reads[slot].append((index, (denom, mask_t)))
        pooled.append(_sum_slots(np.take(table.data, index, axis=-2) * mask_t)
                      / denom)
    self_rows = np.take(self_table.data, self_index, axis=-2)
    neighbor_sum = pooled[0] if pooled else np.zeros(self_rows.shape)
    for term in pooled[1:]:
        neighbor_sum = neighbor_sum + term
    width = neighbor_sum.shape[-1]
    out_data = np.concatenate([neighbor_sum, self_rows], axis=-1)

    def backward(grad):
        g_sum, g_self = grad[..., :width], grad[..., width:]
        grads = []
        for parent, parent_reads in zip(parents, reads):
            if not parent.requires_grad:
                grads.append(None)
                continue
            rows, index = [], []
            for idx, pool in parent_reads:
                if pool is None:
                    rows.append(g_self)
                else:
                    denom, mask_t = pool
                    rows.append(((g_sum / denom)[..., None, :] * mask_t)
                                .reshape(g_sum.shape[:-2] + (-1, width)))
                index.append(idx.ravel())
            grads.append(_scatter_rows(parent.shape, np.concatenate(index),
                                       np.concatenate(rows, axis=-2)))
        return tuple(grads)

    return Tensor._make(out_data, tuple(parents), backward)


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


def transpose(a, axes: Sequence[int]) -> Tensor:
    """Axis permutation (a contiguous copy, like the concatenation it
    replaces in the attention input)."""
    a = ensure_tensor(a)
    axes = tuple(axes)
    out_data = np.ascontiguousarray(np.transpose(a.data, axes))

    def backward(grad):
        return (np.transpose(grad, np.argsort(axes)),)

    return Tensor._make(out_data, (a,), backward)


def broadcast_to(a, shape: tuple) -> Tensor:
    """``a`` broadcast to ``shape``; the gradient is summed back."""
    a = ensure_tensor(a)
    out_data = np.broadcast_to(a.data, shape)

    def backward(grad):
        return (_unbroadcast(grad, a.shape),)

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
