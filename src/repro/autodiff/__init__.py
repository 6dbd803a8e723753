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
  arithmetic, `matmul`, reductions, the trigonometric/hyperbolic family
  needed by stereographic geometry, `softmax`, `gather`, `where`,
  `concatenate` and friends.
"""

from repro.autodiff.tensor import Parameter, Tensor, is_grad_enabled, no_grad
from repro.autodiff import ops
from repro.autodiff.ops import (
    arctan,
    arctanh,
    clip,
    concatenate,
    exp,
    gather,
    matmul,
    mean,
    norm,
    relu,
    sigmoid,
    softmax,
    sqrt,
    stack,
    sum as sum_,
    tan,
    tanh,
    where,
)

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "is_grad_enabled",
    "ops",
    "arctan",
    "arctanh",
    "clip",
    "concatenate",
    "exp",
    "gather",
    "matmul",
    "mean",
    "norm",
    "relu",
    "sigmoid",
    "softmax",
    "sqrt",
    "stack",
    "sum_",
    "tan",
    "tanh",
    "where",
]
