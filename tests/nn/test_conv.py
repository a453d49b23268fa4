"""Tests for the convolution stack: im2col, Conv2d, ConvTranspose2d,
max-pooling, batch-norm."""

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Conv2d, ConvTranspose2d, MaxPool2d, Tensor
from repro.nn.conv import col2im, conv_output_size, im2col


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestIm2Col:
    def test_output_size_formula(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 4, 2, 1) == 16
        assert conv_output_size(5, 3, 1, 0) == 3

    def test_im2col_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 64)

    def test_im2col_identity_kernel(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols = im2col(x, 1, 1, 1, 0)
        assert np.allclose(cols.reshape(4, 4), x[0, 0])

    def test_col2im_adjoint_of_im2col(self, rng):
        """col2im must be the exact adjoint: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.normal(size=(1, 2, 6, 6))
        y = rng.normal(size=(1, 2 * 9, 36))
        lhs = float((im2col(x, 3, 3, 1, 1) * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3, 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConv2d:
    def test_forward_shape(self, rng):
        conv = Conv2d(3, 8, 3, rng, stride=1, padding=1)
        out = conv(Tensor(np.zeros((2, 3, 16, 16))))
        assert out.shape == (2, 8, 16, 16)

    def test_strided_shape(self, rng):
        conv = Conv2d(3, 8, 4, rng, stride=2, padding=1)
        out = conv(Tensor(np.zeros((1, 3, 16, 16))))
        assert out.shape == (1, 8, 8, 8)

    def test_known_convolution_value(self, rng):
        conv = Conv2d(1, 1, 3, rng, padding=0, bias=False)
        conv.weight.data[...] = np.ones((1, 1, 3, 3))
        x = np.ones((1, 1, 3, 3))
        out = conv(Tensor(x))
        assert out.data.reshape(()) == pytest.approx(9.0)

    def test_bias_added(self, rng):
        conv = Conv2d(1, 2, 1, rng)
        conv.weight.data[...] = 0.0
        conv.bias.data[...] = np.array([1.5, -2.0])
        out = conv(Tensor(np.zeros((1, 1, 2, 2)))).data
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)

    def test_gradients_flow(self, rng):
        conv = Conv2d(2, 3, 3, rng, padding=1)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        conv(x).sum().backward()
        assert x.grad is not None and x.grad.shape == x.shape
        assert conv.weight.grad is not None
        assert conv.bias.grad is not None


class TestConvTranspose2d:
    def test_upsampling_shape(self, rng):
        ct = ConvTranspose2d(4, 2, 2, rng, stride=2)
        out = ct(Tensor(np.zeros((1, 4, 8, 8))))
        assert out.shape == (1, 2, 16, 16)

    def test_adjointness_with_conv(self, rng):
        """ConvT with the same weight is the adjoint of Conv (no bias)."""
        w = rng.normal(size=(3, 2, 2, 2))  # (in=3, out=2) for convT
        conv = Conv2d(2, 3, 2, rng, stride=2, padding=0, bias=False)
        conv.weight.data[...] = w
        ct = ConvTranspose2d(3, 2, 2, rng, stride=2, padding=0, bias=False)
        ct.weight.data[...] = w
        x = rng.normal(size=(1, 2, 8, 8))
        y = rng.normal(size=(1, 3, 4, 4))
        lhs = float((conv(Tensor(x)).data * y).sum())
        rhs = float((x * ct(Tensor(y)).data).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_gradients_flow(self, rng):
        ct = ConvTranspose2d(2, 2, 2, rng, stride=2)
        x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        ct(x).sum().backward()
        assert x.grad.shape == (1, 2, 3, 3)
        assert ct.weight.grad is not None


class TestPooling:
    def test_maxpool_value(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(Tensor(x)).data
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_grad_routes_to_max(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        MaxPool2d(2)(x).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        assert np.allclose(x.grad[0, 0], expected)

    def test_maxpool_tie_single_winner(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        MaxPool2d(2)(x).sum().backward()
        assert x.grad.sum() == pytest.approx(1.0)

    def test_maxpool_rejects_indivisible(self):
        with pytest.raises(ValueError):
            MaxPool2d(2)(Tensor(np.zeros((1, 1, 5, 4))))


class TestBatchNorm2d:
    def test_training_normalizes_batch(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(5.0, 3.0, size=(8, 3, 4, 4))
        out = bn(Tensor(x)).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self, rng):
        bn = BatchNorm2d(2, momentum=1.0)
        x = rng.normal(2.0, 1.0, size=(16, 2, 4, 4))
        bn(Tensor(x))
        assert np.allclose(bn.running_mean, x.mean(axis=(0, 2, 3)), atol=1e-10)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2, momentum=1.0)
        x = rng.normal(size=(4, 2, 4, 4))
        bn(Tensor(x))
        bn.eval()
        y = rng.normal(size=(1, 2, 4, 4))
        out = bn(Tensor(y)).data
        expected = (y - bn.running_mean.reshape(1, -1, 1, 1)) / np.sqrt(
            bn.running_var.reshape(1, -1, 1, 1) + bn.eps)
        assert np.allclose(out, expected, atol=1e-10)

    def test_gamma_beta_trainable(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(4, 2, 2, 2)), requires_grad=True)
        bn(x).sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None
