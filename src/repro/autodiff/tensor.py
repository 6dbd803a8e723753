"""The :class:`Tensor` core of the autodiff engine.

A ``Tensor`` wraps a ``numpy.ndarray`` together with an optional backward
closure and references to its parents in the computation graph.  Calling
:meth:`Tensor.backward` on a scalar output runs reverse-mode
differentiation over the recorded tape (a topological sort of the graph).

Gradient recording is controlled by a module-level switch so that
inference-time code (index building, online retrieval) pays no tape
overhead; see :func:`no_grad`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record the backward tape."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording.

    Inside the block every operation produces plain value tensors with no
    parents, so no graph is retained and ``backward`` is unavailable.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy array node in a reverse-mode differentiation graph.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64``.
    requires_grad:
        Whether a gradient should be accumulated for this tensor when
        ``backward`` is called on a descendant.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()

    # -- graph construction helpers -------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[["Tensor", np.ndarray], None]) -> "Tensor":
        """Create a result tensor, recording the tape entry if enabled."""
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # -- public API ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def graph_size(self) -> int:
        """Number of distinct tensors reachable through the tape.

        Counts this tensor plus every ancestor linked by a recorded
        backward closure — i.e. the number of tape nodes ``backward``
        would visit.  A pure debugging/benchmark helper: the frontier
        encode plane exists precisely to keep this number small, and
        the encoder-plane tests assert it shrinks versus the recursive
        reference.
        """
        seen: set[int] = {id(self)}
        stack: list[Tensor] = [self]
        while stack:
            node = stack.pop()
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return len(seen)

    def backward(self, grad=None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to 1 for scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only "
                    "defined for scalar outputs; got shape %r" % (self.shape,))
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent._backward is None and not parent._parents:
                    parent._accumulate(pgrad)
                else:
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pgrad
                    else:
                        grads[key] = pgrad

    # -- operator overloads (implemented in ops to avoid import cycle) ---

    def __add__(self, other):
        from repro.autodiff import ops
        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.autodiff import ops
        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.autodiff import ops
        return ops.sub(other, self)

    def __mul__(self, other):
        from repro.autodiff import ops
        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.autodiff import ops
        return ops.div(self, other)

    def __matmul__(self, other):
        from repro.autodiff import ops
        return ops.matmul(self, other)

    def __getitem__(self, index):
        from repro.autodiff import ops
        return ops.getitem(self, index)

    def reshape(self, *shape):
        from repro.autodiff import ops
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return "Tensor(%s%s)" % (np.array2string(self.data, precision=4), grad_flag)


class Parameter(Tensor):
    """A trainable :class:`Tensor`.

    ``Parameter`` always requires a gradient regardless of the tape switch
    at construction time (the switch still controls whether downstream
    operations record the graph).
    """

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.requires_grad = True


def ensure_tensor(value) -> Tensor:
    """Coerce arrays / scalars to a constant :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
