"""Dtype-policy tests: float32 stays float32 through the whole engine.

Covers the policy primitives (``set_default_dtype`` / ``DtypeConfig`` /
``as_tensor``), the dtype behaviour of initialisers, sparse operators and
optimizers, the cached conv lowering plans, and the autograd
buffer-reuse semantics the iterative backward relies on.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import (Adam, DtypeConfig, Linear, Parameter, SparseMatrix,
                      Tensor, as_tensor, get_default_dtype,
                      set_default_dtype, spmm)
from repro.nn import init as init_mod
from repro.nn.conv import (BatchNorm2d, Conv2d, _patch_indices,
                           _scatter_plan, col2im, im2col)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    prev = get_default_dtype()
    yield
    set_default_dtype(prev)


class TestDefaultDtype:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64

    def test_set_and_get(self):
        set_default_dtype(np.float32)
        assert get_default_dtype() == np.float32

    def test_string_accepted(self):
        set_default_dtype("float32")
        assert get_default_dtype() == np.float32

    def test_unsupported_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.float16)
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    def test_dtype_config_scopes(self):
        with DtypeConfig(np.float32):
            assert get_default_dtype() == np.float32
            with DtypeConfig(np.float64):
                assert get_default_dtype() == np.float64
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64


class TestTensorDtype:
    def test_float32_payload_not_upcast(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_as_tensor_preserves_float_dtype(self):
        assert as_tensor(np.zeros(2, dtype=np.float32)).dtype == np.float32
        assert as_tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64

    def test_non_float_coerced_to_default(self):
        assert Tensor([1, 2, 3]).dtype == np.float64
        with DtypeConfig(np.float32):
            assert Tensor([1, 2, 3]).dtype == np.float32
            assert Tensor(np.arange(3)).dtype == np.float32

    def test_explicit_dtype_wins(self):
        t = Tensor(np.zeros(2, dtype=np.float32), dtype=np.float64)
        assert t.dtype == np.float64

    def test_ops_stay_float32(self):
        a = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        out = ((a * 2.0 + 1.0) / 3.0).relu().sigmoid().sum()
        assert out.dtype == np.float32
        out.backward()
        assert a.grad.dtype == np.float32

    def test_where_scalar_branches_stay_float32(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        cond = np.array([True, False, True, False])
        assert Tensor.where(cond, x, 0.0).dtype == np.float32
        assert Tensor.where(cond, 0.0, x).dtype == np.float32

    def test_matmul_scalar_chain_stays_float32(self):
        x = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        out = (x @ w).mean()
        assert out.dtype == np.float32
        out.backward()
        assert x.grad.dtype == np.float32
        assert w.grad.dtype == np.float32


class TestInitDtype:
    def test_initializers_follow_default(self, rng):
        with DtypeConfig(np.float32):
            assert init_mod.xavier_uniform((4, 4), rng).dtype == np.float32
            assert init_mod.kaiming_normal((4, 4), rng).dtype == np.float32
            assert init_mod.zeros(4).dtype == np.float32
            assert init_mod.ones(4).dtype == np.float32
            assert init_mod.normal((4,), rng).dtype == np.float32

    def test_same_seed_same_values_across_dtypes(self):
        draw64 = init_mod.xavier_uniform((8, 8), np.random.default_rng(5))
        with DtypeConfig(np.float32):
            draw32 = init_mod.xavier_uniform((8, 8),
                                             np.random.default_rng(5))
        np.testing.assert_allclose(draw32, draw64, atol=1e-7)

    def test_modules_build_in_default_dtype(self, rng):
        with DtypeConfig(np.float32):
            lin = Linear(4, 3, rng)
            norm = BatchNorm2d(3)
            conv = Conv2d(2, 3, 3, rng, padding=1)
        assert lin.weight.dtype == np.float32
        assert norm.gamma.dtype == np.float32
        assert conv.weight.dtype == np.float32

    def test_to_dtype_casts_params_and_buffers(self, rng):
        bn = BatchNorm2d(3)
        bn.to_dtype(np.float32)
        assert bn.gamma.dtype == np.float32
        assert bn.running_mean.dtype == np.float32
        lin = Linear(4, 3, rng).to_dtype(np.float32)
        assert lin.weight.dtype == np.float32
        assert lin.dtype() == np.float32


class TestSparseDtype:
    def test_transpose_returns_sparse_matrix(self):
        m = SparseMatrix(sp.random(5, 3, density=0.5, random_state=0))
        assert isinstance(m.T, SparseMatrix)
        assert m.T.shape == (3, 5)
        # Round trip is free and cached.
        assert m.T.T is m
        assert m.T is m.T

    def test_wrapping_a_sparse_matrix_unwraps(self):
        m = SparseMatrix(np.eye(3))
        again = SparseMatrix(m)
        assert again.mat is not None and again.shape == (3, 3)

    def test_matmul_operators(self):
        a = SparseMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        dense = a @ np.ones((2, 3))
        assert isinstance(dense, np.ndarray)
        prod = a @ a
        assert isinstance(prod, SparseMatrix)

    def test_as_dtype_memoised(self):
        m = SparseMatrix(np.eye(4))
        assert m.dtype == np.float64
        m32 = m.as_dtype(np.float32)
        assert m32.dtype == np.float32
        assert m.as_dtype(np.float32) is m32
        assert m.as_dtype(np.float64) is m

    def test_spmm_aligns_operator_dtype(self):
        a = SparseMatrix(np.eye(3))  # float64 operator
        x = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        out = spmm(a, x)
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    def test_non_float_matrix_uses_default(self):
        with DtypeConfig(np.float32):
            m = SparseMatrix(sp.csr_matrix(np.eye(3, dtype=np.int64)))
            assert m.dtype == np.float32

    def test_row_normalize_fused_matches_diag_product(self, rng):
        mat = sp.random(12, 7, density=0.4, random_state=2, format="csr")
        from repro.nn.sparse import row_normalize
        wrapped = SparseMatrix(mat)
        normed = row_normalize(wrapped)
        deg = np.asarray(mat.sum(axis=1)).reshape(-1)
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1e-12), 0.0)
        reference = sp.diags(inv) @ mat
        np.testing.assert_allclose(normed.toarray(), reference.toarray(),
                                   atol=1e-12)


class TestConvLoweringCache:
    def test_patch_indices_cached_per_geometry(self):
        a = _patch_indices(3, 8, 8, 3, 3, 1, 1)
        b = _patch_indices(3, 8, 8, 3, 3, 1, 1)
        assert a[0] is b[0] and a[1] is b[1] and a[2] is b[2]
        c = _patch_indices(3, 8, 8, 3, 3, 2, 1)
        assert c[1] is not a[1]

    def test_scatter_plan_cached(self):
        p1 = _scatter_plan(2, 6, 6, 3, 3, 1, 1)
        p2 = _scatter_plan(2, 6, 6, 3, 3, 1, 1)
        assert p1[0] is p2[0]

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_col2im_matches_add_at_reference(self, rng, stride, pad):
        n, c, h, w, k = 2, 3, 8, 8, 3
        cols = rng.standard_normal(
            (n, c * k * k,
             ((h + 2 * pad - k) // stride + 1)
             * ((w + 2 * pad - k) // stride + 1)))
        out = col2im(cols, (n, c, h, w), k, k, stride, pad)
        # Reference: the original np.add.at scatter.
        kk, ii, jj, _, _ = _patch_indices(c, h, w, k, k, stride, pad)
        x_pad = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
        np.add.at(x_pad, (slice(None), kk, ii, jj), cols)
        expected = x_pad[:, :, pad:-pad, pad:-pad] if pad else x_pad
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_col2im_roundtrips_im2col_gradient_dtype(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        cols = im2col(x, 3, 3, 1, 1)
        back = col2im(cols, x.shape, 3, 3, 1, 1)
        assert back.dtype == np.float32


class TestInPlaceOptimizers:
    """The fused out= kernels must match the textbook update rules."""

    def test_adam_matches_reference(self, rng):
        data = rng.standard_normal(32)
        p = Parameter(data.copy())
        opt = Adam([p], lr=0.01, betas=(0.9, 0.999), eps=1e-8,
                   weight_decay=0.02)
        ref = data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in range(1, 6):
            g = 2.0 * p.data  # quadratic-loss gradient at current iterate
            gref = 2.0 * ref
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * gref
            v = 0.999 * v + 0.001 * gref * gref
            ref = ref - 0.01 * 0.02 * ref
            ref = ref - 0.01 * (m / (1 - 0.9 ** t)) / (
                np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(p.data, ref, rtol=1e-10)

    def test_steps_do_not_allocate_after_warmup(self, rng):
        p = Parameter(rng.standard_normal(64))
        opt = Adam([p], lr=0.01)
        p.grad = rng.standard_normal(64)
        opt.step()
        buf_before = opt._scratch[0]
        m_before = opt._m[0]
        p.grad = rng.standard_normal(64)
        opt.step()
        assert opt._scratch[0] is buf_before
        assert opt._m[0] is m_before

    def test_float32_params_update_in_float32(self, rng):
        with DtypeConfig(np.float32):
            p = Parameter(init_mod.normal((8,), rng))
        p.grad = np.ones(8, dtype=np.float32)
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.data.dtype == np.float32
        assert opt._m[0].dtype == np.float32


class TestBackwardBufferReuse:
    def test_diamond_fanin_accumulates_correctly(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        a = x * 2.0
        b = a * 3.0
        c = a * 4.0
        d = a * 5.0
        out = (b + c + d).sum()  # a receives three gradient contributions
        out.backward()
        np.testing.assert_allclose(x.grad, [24.0, 24.0])

    def test_repeated_operand_same_tensor(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        out = (x + x) * x  # d/dx (2x·x) = 4x
        out.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_incoming_gradient_buffer_not_mutated(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        seed = np.ones(3)
        y.backward(seed)
        # The caller's seed must not be written to by buffer reuse.
        np.testing.assert_allclose(seed, 1.0)
        np.testing.assert_allclose(x.grad, 2.0)

    def test_forward_data_not_corrupted_by_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x.reshape(2)        # backward returns a view-shaped gradient
        a = y * 1.0
        b = y * 1.0
        out = (a + b).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])
        np.testing.assert_allclose(x.data, [1.0, 2.0])
