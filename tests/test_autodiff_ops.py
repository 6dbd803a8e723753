"""Gradient correctness tests for every autodiff op (vs finite differences)."""

import numpy as np
import pytest

from repro.autodiff import Parameter, Tensor, ops

from reference import ops as reference_ops


def finite_difference_check(fn, params, eps=1e-6, tol=2e-4):
    """Compare autodiff gradients of scalar fn() against central differences."""
    out = fn()
    out.backward()
    analytic = [p.grad.copy() for p in params]
    for p, grad in zip(params, analytic):
        numeric = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = p.data[idx]
            p.data[idx] = original + eps
            up = fn().item()
            p.data[idx] = original - eps
            down = fn().item()
            p.data[idx] = original
            numeric[idx] = (up - down) / (2 * eps)
        assert np.max(np.abs(numeric - grad)) < tol, (
            "gradient mismatch: analytic %r vs numeric %r" % (grad, numeric))
        p.zero_grad()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestArithmeticGradients:
    def test_add_broadcast(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4,)))
        finite_difference_check(lambda: ops.sum(a + b), [a, b])

    @pytest.mark.parametrize("grad_shape,shape", [
        ((2, 1500, 4), (2, 1, 4)), ((3, 4), (4,)), ((3, 4), ()),
        ((2, 3, 4), (3, 1)), ((2, 0, 4), (2, 1, 4)), ((0, 4), (1, 4)),
        ((3, 4), (3, 4))])
    def test_unbroadcast_sums_to_shape(self, rng, grad_shape, shape):
        grad = rng.normal(size=grad_shape)
        extra = grad.ndim - len(shape)
        want = grad.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, dim in enumerate(shape)
                     if dim == 1 and want.shape[i] != 1)
        want = want.sum(axis=axes, keepdims=True).reshape(shape)
        got = ops._unbroadcast(grad, shape)
        assert got.shape == shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_sub_scalar_left(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        finite_difference_check(lambda: ops.sum(1.5 - a), [a])

    def test_mul_broadcast(self, rng):
        a = Parameter(rng.normal(size=(2, 3)))
        b = Parameter(rng.normal(size=(1, 3)))
        finite_difference_check(lambda: ops.sum(a * b), [a, b])

    def test_div(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        b = Parameter(rng.normal(size=(3,)) + 3.0)
        finite_difference_check(lambda: ops.sum(a / b), [a, b])

    def test_neg(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        finite_difference_check(lambda: ops.sum(reference_ops.neg(a)), [a])


class TestMatmulGradients:
    def test_2d_2d(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4, 2)))
        finite_difference_check(lambda: ops.sum(a @ b), [a, b])

    def test_1d_2d(self, rng):
        a = Parameter(rng.normal(size=(4,)))
        b = Parameter(rng.normal(size=(4, 2)))
        finite_difference_check(lambda: ops.sum(a @ b), [a, b])

    def test_2d_1d(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4,)))
        finite_difference_check(lambda: ops.sum(a @ b), [a, b])

    def test_batched(self, rng):
        a = Parameter(rng.normal(size=(2, 3, 4)))
        b = Parameter(rng.normal(size=(2, 4, 2)))
        finite_difference_check(lambda: ops.sum(a @ b), [a, b])


class TestReductionGradients:
    def test_sum_axis_keepdims(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        finite_difference_check(
            lambda: ops.sum(ops.sum(a, axis=1, keepdims=True) * 2.0), [a])

    def test_mean_axis(self, rng):
        a = Parameter(rng.normal(size=(3, 4)))
        finite_difference_check(lambda: ops.sum(ops.mean(a, axis=0)), [a])

    def test_mean_global(self, rng):
        a = Parameter(rng.normal(size=(5,)))
        finite_difference_check(lambda: ops.mean(a), [a])

    def test_masked_mean_matches_composed_chain(self, rng):
        data = rng.normal(size=(4, 3, 2))
        mask = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0], [1, 1, 1]],
                        dtype=np.float64)              # row 2: all masked
        upstream = rng.normal(size=(4, 2))
        fused_in, composed_in = Parameter(data.copy()), Parameter(data.copy())
        fused = ops.masked_mean(fused_in, mask)
        denom = Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
        composed = ops.sum(composed_in * Tensor(mask[..., None]),
                           axis=1) / denom
        np.testing.assert_array_equal(fused.data, composed.data)
        np.testing.assert_array_equal(fused.data[2], 0.0)
        assert fused.graph_size() == 2 < composed.graph_size()
        fused.backward(upstream)
        composed.backward(upstream)
        np.testing.assert_array_equal(fused_in.grad, composed_in.grad)
        np.testing.assert_array_equal(fused_in.grad[2], 0.0)


class TestGatherPool:
    """The fused Eq. 5 input against the chain it replaces."""

    @staticmethod
    def _chain(self_table, self_index, blocks):
        pooled = None
        for table, index, mask in blocks:
            term = ops.masked_mean(ops.gather(table, index), mask)
            pooled = term if pooled is None else pooled + term
        self_rows = ops.gather(self_table, self_index)
        if pooled is None:
            pooled = Tensor(np.zeros(self_rows.shape))
        return ops.concatenate([pooled, self_rows], axis=-1)

    @pytest.mark.parametrize("layout", ["shared", "distinct", "none",
                                        "constant"])
    def test_matches_composed_chain(self, rng, layout):
        mine = rng.normal(size=(2, 6, 3))
        other = rng.normal(size=(2, 5, 3))
        self_index = np.array([0, 2, 2, 5])
        mask_a = np.array([[1, 1, 0], [0, 0, 0], [1, 0, 1], [1, 1, 1]],
                          dtype=np.float64)          # row 1: all masked
        mask_b = np.ones((4, 3))
        index_a = rng.integers(0, 6, size=(4, 3))
        index_b = rng.integers(0, 5, size=(4, 3))
        upstream = rng.normal(size=(2, 4, 6))

        def run(pool):
            a = Parameter(mine.copy())
            b = (Tensor(other.copy()) if layout == "constant"
                 else Parameter(other.copy()))
            blocks = {"shared": [(a, index_a, mask_a), (b, index_b, mask_b),
                                 (a, index_b, mask_b)],
                      "distinct": [(b, index_b, mask_a)],
                      "none": [],
                      "constant": [(b, index_b, mask_a),
                                   (a, index_a, mask_b)]}[layout]
            out = pool(a, self_index, blocks)
            out.backward(upstream)
            return out, [a.grad, b.grad]

        fused, grads = run(ops.gather_pool)
        chain, want = run(self._chain)
        np.testing.assert_array_equal(fused.data, chain.data)
        assert fused.graph_size() <= 3
        for got, ref in zip(grads, want):
            assert (got is None) == (ref is None)
            if got is not None:
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)


class TestNonlinearityGradients:
    @pytest.mark.parametrize("op", [ops.exp, ops.tanh, ops.sigmoid,
                                    reference_ops.arctan])
    def test_unbounded_domain(self, rng, op):
        a = Parameter(rng.normal(size=(4,)))
        finite_difference_check(lambda: ops.sum(op(a)), [a])

    def test_sqrt(self, rng):
        a = Parameter(np.abs(rng.normal(size=(4,))) + 0.5)
        finite_difference_check(lambda: ops.sum(reference_ops.sqrt(a)), [a])

    def test_tan_within_domain(self, rng):
        a = Parameter(rng.uniform(-1.0, 1.0, size=(4,)))
        finite_difference_check(lambda: ops.sum(reference_ops.tan(a)), [a])

    def test_arctanh_within_domain(self, rng):
        a = Parameter(rng.uniform(-0.8, 0.8, size=(4,)))
        finite_difference_check(lambda: ops.sum(reference_ops.arctanh(a)), [a])

    def test_relu_gradient_masked(self):
        a = Parameter(np.array([-1.0, 2.0, -3.0, 4.0]))
        ops.sum(ops.relu(a)).backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0, 1.0])

    def test_abs(self, rng):
        a = Parameter(rng.normal(size=(4,)) + 2.0)
        finite_difference_check(lambda: ops.sum(reference_ops.abs_(a)), [a])


class TestClipWhereMaximum:
    def test_clip_masks_gradient_outside(self):
        a = Parameter(np.array([-2.0, 0.5, 2.0]))
        ops.sum(reference_ops.clip(a, -1.0, 1.0)).backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_clip_values(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]))
        assert np.allclose(reference_ops.clip(a, -1.0, 1.0).data,
                           [-1.0, 0.5, 1.0])

    def test_where_routes_gradient(self):
        a = Parameter(np.array([1.0, 2.0]))
        b = Parameter(np.array([3.0, 4.0]))
        cond = np.array([True, False])
        ops.sum(reference_ops.where(cond, a, b)).backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])


class TestSoftmaxNorm:
    def test_softmax_rows_sum_to_one(self, rng):
        a = Tensor(rng.normal(size=(5, 7)))
        s = ops.softmax(a, axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_softmax_gradient(self, rng):
        a = Parameter(rng.normal(size=(2, 3)))
        mask = rng.normal(size=(2, 3))
        finite_difference_check(
            lambda: ops.sum(ops.softmax(a, axis=-1) * Tensor(mask)), [a])

    def test_softmax_stable_for_large_logits(self):
        a = Tensor(np.array([[1000.0, 1000.0]]))
        s = ops.softmax(a, axis=-1)
        assert np.allclose(s.data, 0.5)

    def test_norm_value(self, rng):
        a = Tensor(rng.normal(size=(4, 3)))
        n = reference_ops.norm(a, axis=-1)
        assert np.allclose(n.data[:, 0],
                           np.linalg.norm(a.data, axis=-1), atol=1e-6)

    def test_norm_gradient_finite_at_zero(self):
        a = Parameter(np.zeros((2, 3)))
        ops.sum(reference_ops.norm(a, axis=-1)).backward()
        assert np.all(np.isfinite(a.grad))


class TestIndexingShapes:
    def test_gather_accumulates_duplicates(self, rng):
        table = Parameter(rng.normal(size=(6, 3)))
        idx = np.array([2, 2, 5])
        ops.sum(ops.gather(table, idx)).backward()
        assert np.allclose(table.grad[2], 2.0)
        assert np.allclose(table.grad[5], 1.0)
        assert np.allclose(table.grad[0], 0.0)

    def test_gather_2d_index(self, rng):
        table = Parameter(rng.normal(size=(6, 3)))
        idx = np.array([[0, 1], [1, 2]])
        out = ops.gather(table, idx)
        assert out.shape == (2, 2, 3)
        ops.sum(out).backward()
        assert np.allclose(table.grad[1], 2.0)

    def test_getitem_slice(self, rng):
        a = Parameter(rng.normal(size=(5, 3)))
        ops.sum(a[1:3]).backward()
        assert np.allclose(a.grad[1:3], 1.0)
        assert np.allclose(a.grad[0], 0.0)

    def test_getitem_fancy(self, rng):
        a = Parameter(rng.normal(size=(5, 3)))
        ops.sum(a[np.array([0, 0, 4])]).backward()
        assert np.allclose(a.grad[0], 2.0)

    def test_reshape_roundtrip_gradient(self, rng):
        a = Parameter(rng.normal(size=(2, 6)))
        finite_difference_check(
            lambda: ops.sum(ops.reshape(a, (3, 4)) * 2.0), [a])

    def test_concatenate_gradient(self, rng):
        a = Parameter(rng.normal(size=(2, 2)))
        b = Parameter(rng.normal(size=(2, 3)))
        mask = rng.normal(size=(2, 5))
        finite_difference_check(
            lambda: ops.sum(ops.concatenate([a, b], axis=-1) * Tensor(mask)),
            [a, b])

    def test_transpose_and_broadcast_gradients(self, rng):
        a = Parameter(rng.normal(size=(2, 3, 4)))
        b = Parameter(rng.normal(size=(1, 3, 4)))
        mask = rng.normal(size=(3, 2, 4))
        finite_difference_check(
            lambda: ops.sum(ops.transpose(a + ops.broadcast_to(b, a.shape),
                                          (1, 0, 2)) * Tensor(mask)), [a, b])

    def test_stacked_gather_and_pooling_match_per_factor(self, rng):
        # rows of every leading slice at once, bit-equal per slice
        table = rng.normal(size=(3, 6, 2))
        index = np.array([[0, 5, 5], [2, 2, 1]])
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        upstream = rng.normal(size=(3, 2, 2))
        stacked = Parameter(table.copy())
        out = ops.masked_mean(ops.gather(stacked, index), mask)
        out.backward(upstream)
        for m in range(3):
            alone = Parameter(table[m].copy())
            want = ops.masked_mean(ops.gather(alone, index), mask)
            want.backward(upstream[m])
            np.testing.assert_array_equal(out.data[m], want.data)
            np.testing.assert_array_equal(stacked.grad[m], alone.grad)

    def test_stack_gradient(self, rng):
        a = Parameter(rng.normal(size=(3,)))
        b = Parameter(rng.normal(size=(3,)))
        mask = rng.normal(size=(2, 3))
        finite_difference_check(
            lambda: ops.sum(reference_ops.stack([a, b], axis=0)
                            * Tensor(mask)), [a, b])
