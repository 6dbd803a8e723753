"""Reverse-mode automatic differentiation over numpy arrays.

This package is the training-engine substrate of the AMCAD reproduction.
The paper trains its model on Alibaba's XDL framework; here a small
tape-based autodiff engine provides the same capability — gradients
through arbitrary compositions of the gyrovector operations of paper
Table II, including gradients with respect to trainable curvatures.

The public surface mirrors the small subset of a deep-learning framework
that the model needs:

- :class:`Tensor` — an array with an optional gradient tape entry.
- :class:`Parameter` — a trainable tensor.
- :func:`no_grad` — context manager disabling tape recording.
- the functional namespace (``repro.autodiff.ops``) with broadcasting
  arithmetic, `matmul`, reductions, `exp`/`tanh`/`sigmoid`/`relu`,
  `softmax`, `gather` and shape plumbing (`concatenate`, `transpose`,
  `broadcast_to`, slicing).  The trig/clip/where micro-ops a composed
  geometry chain needs live with that chain, the kernels' gradcheck
  oracle in ``tests/reference/``: the geometry of ``src/`` is fused
  kernels (``repro.geometry.kernels``).
"""

from repro.autodiff.tensor import Parameter, Tensor, is_grad_enabled, no_grad
from repro.autodiff import ops
from repro.autodiff.ops import (
    concatenate,
    exp,
    gather,
    matmul,
    mean,
    relu,
    sigmoid,
    softmax,
    sum as sum_,
    tanh,
)

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "is_grad_enabled",
    "ops",
    "concatenate",
    "exp",
    "gather",
    "matmul",
    "mean",
    "relu",
    "sigmoid",
    "softmax",
    "sum_",
    "tanh",
]
