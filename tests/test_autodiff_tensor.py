"""Unit tests for the autodiff Tensor core."""

import numpy as np
import pytest

from repro.autodiff import Tensor, Parameter, no_grad, ops
from repro.autodiff.tensor import ensure_tensor, is_grad_enabled


class TestTensorBasics:
    def test_construction_coerces_to_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_parameter_requires_grad(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad

    def test_plain_tensor_does_not_require_grad(self):
        assert not Tensor(np.zeros(3)).requires_grad

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_backward_requires_scalar(self):
        p = Parameter(np.ones(3))
        out = p * 2.0
        with pytest.raises(ValueError):
            out.backward()

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Parameter(np.ones(2)))

    def test_ensure_tensor_passthrough(self):
        t = Tensor(1.0)
        assert ensure_tensor(t) is t
        assert isinstance(ensure_tensor(2.0), Tensor)


class TestBackward:
    def test_simple_chain(self):
        x = Parameter(np.array(3.0))
        y = x * x + x
        y.backward()
        assert np.isclose(x.grad, 7.0)  # 2x + 1

    def test_grad_accumulates_across_backward_calls(self):
        x = Parameter(np.array(2.0))
        (x * x).backward()
        (x * x).backward()
        assert np.isclose(x.grad, 8.0)

    def test_zero_grad(self):
        x = Parameter(np.array(2.0))
        (x * x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates(self):
        # y = a*b + a*c shares `a` between two products
        a = Parameter(np.array(2.0))
        b, c = Tensor(3.0), Tensor(4.0)
        (a * b + a * c).backward()
        assert np.isclose(a.grad, 7.0)

    def test_reused_tensor_in_same_op(self):
        x = Parameter(np.array(3.0))
        (x * x).backward()
        assert np.isclose(x.grad, 6.0)

    def test_deep_chain(self):
        x = Parameter(np.array(1.0))
        y = x
        for _ in range(50):
            y = y * 1.1
        y.backward()
        assert np.isclose(x.grad, 1.1 ** 50)

    def test_branch_not_on_path_gets_no_grad(self):
        x = Parameter(np.array(1.0))
        z = Parameter(np.array(1.0))
        __ = z * 5.0  # dead branch
        (x * 2.0).backward()
        assert z.grad is None


class TestNoGrad:
    def test_no_grad_disables_tape(self):
        p = Parameter(np.ones(3))
        with no_grad():
            out = p * 2.0
        assert not out.requires_grad
        assert out._parents == ()

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()
