"""Unit tests for the autograd Tensor: ops, broadcasting, backward."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, no_grad


def numgrad(f, x, eps=1e-6):
    """Central-difference numeric gradient of scalar-valued f wrt array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
    return g


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_scalar(self):
        t = as_tensor(3.5)
        assert t.item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * 3).detach()
        assert not b.requires_grad

    def test_item_single_element(self):
        assert Tensor([[7.0]]).item() == 7.0

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.size == 12


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_radd_scalar(self):
        a = Tensor([1.0], requires_grad=True)
        (2.0 + a).backward(np.array([1.0]))
        assert np.allclose(a.grad, [1.0])

    def test_sub_backward(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward(np.array([1.0]))
        assert a.grad[0] == 1.0
        assert b.grad[0] == -1.0

    def test_rsub(self):
        a = Tensor([2.0], requires_grad=True)
        (10.0 - a).backward(np.array([1.0]))
        assert a.grad[0] == -1.0

    def test_mul_backward(self):
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        (a * b).backward(np.array([1.0]))
        assert a.grad[0] == 4.0
        assert b.grad[0] == 3.0

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward(np.array([1.0]))
        assert a.grad[0] == pytest.approx(1 / 3)
        assert b.grad[0] == pytest.approx(-6 / 9)

    def test_rtruediv(self):
        a = Tensor([4.0], requires_grad=True)
        (8.0 / a).backward(np.array([1.0]))
        assert a.grad[0] == pytest.approx(-8 / 16)

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward(np.array([1.0]))
        assert a.grad[0] == pytest.approx(6.0)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        a = Tensor([2.0], requires_grad=True)
        (-a).backward(np.array([1.0]))
        assert a.grad[0] == -1.0

    def test_broadcast_add_reduces_grad(self):
        a = Tensor(np.zeros((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_broadcast_mul_numeric(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * b).sum().backward()
        ng = numgrad(lambda: float((a.data * b.data).sum()), b.data)
        assert np.allclose(b.grad, ng, atol=1e-5)


class TestMatmul:
    def test_2d_matmul_grads(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        nga = numgrad(lambda: float((a.data @ b.data).sum()), a.data)
        ngb = numgrad(lambda: float((a.data @ b.data).sum()), b.data)
        assert np.allclose(a.grad, nga, atol=1e-5)
        assert np.allclose(b.grad, ngb, atol=1e-5)

    def test_vector_inner_product(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a @ b).backward(np.array(1.0))
        assert np.allclose(a.grad, [3, 4])
        assert np.allclose(b.grad, [1, 2])

    def test_matrix_vector(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=4), requires_grad=True)
        (a @ v).sum().backward()
        ng = numgrad(lambda: float((a.data @ v.data).sum()), v.data)
        assert np.allclose(v.grad, ng, atol=1e-5)

    def test_vector_matrix(self):
        rng = np.random.default_rng(3)
        v = Tensor(rng.normal(size=3), requires_grad=True)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        (v @ a).sum().backward()
        ng = numgrad(lambda: float((v.data @ a.data).sum()), v.data)
        assert np.allclose(v.grad, ng, atol=1e-5)


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert np.allclose(a.grad, np.ones(6))

    def test_transpose_grad(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = rng.normal(size=(3, 2))
        (a.T * Tensor(w)).sum().backward()
        assert np.allclose(a.grad, w.T)

    def test_transpose_with_axes(self):
        a = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        out = a.transpose((2, 0, 1))
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)

    def test_getitem_scatter_grad(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        a[1:3].sum().backward()
        assert np.allclose(a.grad, [0, 1, 1, 0, 0])

    def test_getitem_fancy_index_accumulates(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 0, 1])
        a[idx].sum().backward()
        assert np.allclose(a.grad, [2, 1, 0, 0])

    def test_concat_grad_split(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        Tensor.concat([a, b], axis=1).sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        Tensor.stack([a, b]).sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 1.0)


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_sum_axis_no_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=0).sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_mean_grad(self):
        a = Tensor(np.ones((4,)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, 0.25)

    def test_mean_axis(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean(axis=1).sum().backward()
        assert np.allclose(a.grad, 0.25)

    def test_max_global(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0, 1, 0])

    def test_max_axis(self):
        a = Tensor([[1.0, 5.0], [7.0, 3.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0, 1], [1, 0]])

    def test_max_ties_split_gradient(self):
        a = Tensor([2.0, 2.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.5, 0.5])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "relu",
                                    "sigmoid", "tanh", "abs"])
    def test_numeric_gradcheck(self, op):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.2, 2.0, size=(3, 3))
        t = Tensor(x.copy(), requires_grad=True)
        getattr(t, op)().sum().backward()
        ng = numgrad(lambda: float(getattr(Tensor(t.data), op)().data.sum()),
                     t.data)
        assert np.allclose(t.grad, ng, atol=1e-5), op

    def test_leaky_relu_negative_slope(self):
        t = Tensor([-2.0, 3.0], requires_grad=True)
        t.leaky_relu(0.1).sum().backward()
        assert np.allclose(t.grad, [0.1, 1.0])

    def test_clip_gradient_masked(self):
        t = Tensor([-5.0, 0.5, 5.0], requires_grad=True)
        t.clip(0.0, 1.0).sum().backward()
        assert np.allclose(t.grad, [0, 1, 0])

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor([-1000.0, 1000.0])
        out = t.sigmoid().data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_where_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        Tensor.where(np.array([True, False]), a, b).sum().backward()
        assert np.allclose(a.grad, [1, 0])
        assert np.allclose(b.grad, [0, 1])


class TestBackwardMechanics:
    def test_backward_requires_scalar_without_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0]))
        (a * 3).backward(np.array([1.0]))
        assert a.grad[0] == 6.0

    def test_diamond_graph_accumulation(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        c = a * 4
        (b + c).backward(np.array([1.0]))
        assert a.grad[0] == 7.0

    def test_shared_subexpression(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * a          # 4
        (b * b).backward(np.array([1.0]))  # a^4, d/da = 4 a^3 = 32
        assert a.grad[0] == pytest.approx(32.0)

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2
        assert not b.requires_grad
        assert (a * 2).requires_grad

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward(np.array([1.0]))
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 0.001
        x.backward(np.array([1.0]))
        assert a.grad[0] == pytest.approx(1.0)

    def test_retain_graph_allows_second_backward(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * a).sum()
        b.backward(retain_graph=True)
        b.backward()
        assert a.grad[0] == pytest.approx(8.0)
