"""Convolutional layers for the CNN baselines (U-Net, Pix2Pix).

All tensors use the NCHW layout.  Convolutions are computed via the classic
im2col lowering (patch extraction → one big matmul) which keeps the autograd
rules simple: the backward pass is col2im plus two matmuls.

These layers exist so the paper's baselines — a U-Net and a Pix2Pix cGAN —
can be trained on the same numpy autograd engine as LHNN, replacing the
"top PyTorch implementations in Github" the authors used.

Performance notes
-----------------
* :func:`im2col` copies the (zero-padded) input once out of a read-only
  ``as_strided`` view of every patch — no index arrays, no ``np.pad``.
  The copy lands in the memory layout of the fancy-index gather it
  replaces (batch axis innermost), so the ``einsum`` weight gradients
  downstream sum in the same order at every batch size.
* :func:`col2im` scatter-adds with ``kh * kw`` strided slice-adds into a
  float64 accumulator, kernel row ``i`` outer and column ``j`` inner.
  That is the per-pixel addition order of the ``np.bincount`` scatter it
  replaces, from the same +0.0 start, and the sum is cast back to the
  compute dtype as before — a free accuracy bonus for float32 backward
  passes.  Unlike the bincount it streams no cached index plan.  When
  the patches tile the padded image exactly (``stride == kh == kw``:
  U-Net's 2×2 up-convolutions and every 1×1 conv) each pixel receives
  one term, so the scatter is a transpose plus ``+ 0``; the ``+ 0``
  turns −0.0 into +0.0 as the float64 sum did.
* Both kernels are byte-exact rewrites: same shape, dtype, memory layout
  and bits (sign of zero included) as the private references
  :func:`_im2col_reference` / :func:`_col2im_reference`, which
  ``tests/nn/test_conv_exact.py`` checks them against.  The memoised
  index plans :func:`_patch_indices` / :func:`_scatter_plan` now back
  only those references.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter as _perf_counter

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..perf import PERF
from . import init as init_mod
from .layers import Module, Parameter
from .tensor import Tensor, as_tensor, get_default_dtype

__all__ = ["Conv2d", "ConvTranspose2d", "MaxPool2d", "BatchNorm2d"]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    return (size + 2 * pad - kernel) // stride + 1


@lru_cache(maxsize=256)
def _patch_indices(channels: int, height: int, width: int, kh: int, kw: int,
                   stride: int, pad: int):
    """Index arrays mapping a padded image to its im2col patch matrix.

    Memoised per geometry — callers must treat the returned arrays as
    read-only (they are shared across every conv at this shape).
    """
    out_h = conv_output_size(height, kh, stride, pad)
    out_w = conv_output_size(width, kw, stride, pad)
    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


@lru_cache(maxsize=256)
def _scatter_plan(channels: int, height: int, width: int, kh: int, kw: int,
                  stride: int, pad: int):
    """Raveled scatter indices for :func:`col2im` at one geometry.

    Flattens the (channel, row, col) patch coordinates into indices of a
    flat ``channels * padded_h * padded_w`` image so the scatter-add can
    run as a single ``np.bincount`` per batch image.
    """
    k, i, j, _, _ = _patch_indices(channels, height, width, kh, kw,
                                   stride, pad)
    padded_h = height + 2 * pad
    padded_w = width + 2 * pad
    flat = ((k * padded_h + i) * padded_w + j).ravel()
    return flat, padded_h, padded_w


def _im2col_reference(x: np.ndarray, kh: int, kw: int, stride: int,
                      pad: int) -> np.ndarray:
    """Fancy-index gather :func:`im2col` is checked against."""
    n, c, h, w = x.shape
    x_pad = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    k, i, j, _, _ = _patch_indices(c, h, w, kh, kw, stride, pad)
    return x_pad[:, k, i, j]


def _col2im_reference(cols: np.ndarray, x_shape: tuple[int, int, int, int],
                      kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Per-image ``np.bincount`` scatter :func:`col2im` is checked against."""
    n, c, h, w = x_shape
    flat, padded_h, padded_w = _scatter_plan(c, h, w, kh, kw, stride, pad)
    size = c * padded_h * padded_w
    flat_cols = cols.reshape(n, -1)
    x_pad = np.empty((n, size), dtype=cols.dtype)
    for b in range(n):
        # bincount accumulates in float64; assignment casts back.
        x_pad[b] = np.bincount(flat, weights=flat_cols[b], minlength=size)
    x_pad = x_pad.reshape(n, c, padded_h, padded_w)
    if pad:
        return np.ascontiguousarray(x_pad[:, :, pad:-pad, pad:-pad])
    return x_pad


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Extract sliding patches: (N,C,H,W) → (N, C*kh*kw, out_h*out_w)."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    if pad:
        x_pad = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        x_pad[:, :, pad:pad + h, pad:pad + w] = x
    else:
        x_pad = x
    # Every patch as a read-only view with axes (C, kh, kw, out_h, out_w,
    # N); conv_output_size keeps the last window inside x_pad.  Its C-order
    # copy has the reference gather's memory layout.
    sn, sc, sh, sw = x_pad.strides
    windows = as_strided(x_pad, (c, kh, kw, out_h, out_w, n),
                         (sc, sh, sw, stride * sh, stride * sw, sn),
                         writeable=False)
    cols = windows.copy().reshape(c * kh * kw, out_h * out_w, n)
    return cols.transpose(2, 0, 1)


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int],
           kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patches back into an image.

    Byte-exact with the bincount reference (see module performance notes).
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    padded_h, padded_w = h + 2 * pad, w + 2 * pad
    patches = cols.reshape(n, c, kh, kw, out_h, out_w)
    if (stride == kh == kw
            and (padded_h, padded_w) == (out_h * kh, out_w * kw)):
        # One term per pixel; ``+ 0`` maps −0.0 to +0.0 as the float64
        # sum from +0.0 does.  Reading cols in order (writing through the
        # transposed view) keeps the inner loop along out_w.
        x_pad = np.empty((n, c, out_h, kh, out_w, kw), dtype=cols.dtype)
        np.add(patches, 0, out=x_pad.transpose(0, 1, 3, 5, 2, 4))
        x_pad = x_pad.reshape(n, c, padded_h, padded_w)
        if pad:
            return np.ascontiguousarray(x_pad[:, :, pad:-pad, pad:-pad])
        return x_pad
    # Kernel row i outer, column j inner: each pixel receives its terms in
    # the bincount's order, into the same float64 +0.0 start.
    acc = np.zeros((n, c, padded_h, padded_w))
    for i in range(kh):
        for j in range(kw):
            window = acc[:, :, i:i + stride * out_h:stride,
                         j:j + stride * out_w:stride]
            np.add(window, patches[:, :, i, j], out=window)
    return acc[:, :, pad:pad + h, pad:pad + w].astype(cols.dtype)


class Conv2d(Module):
    """2-D convolution ``(N, C_in, H, W) → (N, C_out, H', W')``."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 bias: bool = True):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init_mod.kaiming_normal(shape, rng))
        self.bias = Parameter(init_mod.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        n, c, h, w = x.shape
        kh = kw = self.kernel_size
        stride, pad = self.stride, self.padding
        out_h = conv_output_size(h, kh, stride, pad)
        out_w = conv_output_size(w, kw, stride, pad)

        t0 = _perf_counter() if PERF.enabled else 0.0
        cols = im2col(x.data, kh, kw, stride, pad)          # (N, CKK, L)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        out = np.matmul(w2d, cols)                          # (N, out_c, L)
        out = out.reshape(n, self.out_channels, out_h, out_w)
        if self.bias is not None:
            out = out + self.bias.data.reshape(1, -1, 1, 1)
        if PERF.enabled:
            PERF.record("conv2d.forward", _perf_counter() - t0,
                        out.nbytes + cols.nbytes)

        weight, bias_param = self.weight, self.bias
        x_shape = x.shape

        def backward(g):
            t0 = _perf_counter() if PERF.enabled else 0.0
            g2d = g.reshape(n, self.out_channels, -1)       # (N, out_c, L)
            grad_w = np.einsum("nol,nkl->ok", g2d, cols).reshape(weight.shape)
            grad_cols = np.matmul(w2d.T, g2d)               # (N, CKK, L)
            grad_x = col2im(grad_cols, x_shape, kh, kw, stride, pad)
            grads = [grad_x, grad_w]
            if bias_param is not None:
                grads.append(g.sum(axis=(0, 2, 3)))
            if PERF.enabled:
                PERF.record("conv2d.backward", _perf_counter() - t0,
                            grad_x.nbytes + grad_w.nbytes)
            return tuple(grads)

        parents = (x, weight) if self.bias is None else (x, weight, self.bias)
        return Tensor._make(out, parents, backward)


class ConvTranspose2d(Module):
    """2-D transposed convolution (fractionally-strided), for decoders.

    Output size along each spatial axis is ``stride*(in-1) + kernel - 2*pad``.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 bias: bool = True):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        self.weight = Parameter(init_mod.kaiming_normal(shape, rng))
        self.bias = Parameter(init_mod.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        n, c, h, w = x.shape
        k = self.kernel_size
        stride, pad = self.stride, self.padding
        out_h = stride * (h - 1) + k - 2 * pad
        out_w = stride * (w - 1) + k - 2 * pad
        out_shape = (n, self.out_channels, out_h, out_w)

        t0 = _perf_counter() if PERF.enabled else 0.0
        x2d = x.data.reshape(n, c, h * w)                    # (N, in_c, L)
        w2d = self.weight.data.reshape(c, -1)                # (in_c, out_c*k*k)
        cols = np.matmul(w2d.T, x2d)                         # (N, out_c*k*k, L)
        out = col2im(cols, out_shape, k, k, stride, pad)
        if self.bias is not None:
            out = out + self.bias.data.reshape(1, -1, 1, 1)
        if PERF.enabled:
            PERF.record("conv_transpose2d.forward", _perf_counter() - t0,
                        out.nbytes + cols.nbytes)

        weight, bias_param = self.weight, self.bias

        def backward(g):
            t0 = _perf_counter() if PERF.enabled else 0.0
            g_cols = im2col(g, k, k, stride, pad)            # (N, out_c*k*k, L)
            grad_x = np.matmul(w2d, g_cols).reshape(n, c, h, w)
            grad_w = np.einsum("nil,nkl->ik", x2d, g_cols).reshape(weight.shape)
            grads = [grad_x, grad_w]
            if bias_param is not None:
                grads.append(g.sum(axis=(0, 2, 3)))
            if PERF.enabled:
                PERF.record("conv_transpose2d.backward", _perf_counter() - t0,
                            grad_x.nbytes + grad_w.nbytes)
            return tuple(grads)

        parents = (x, weight) if self.bias is None else (x, weight, self.bias)
        return Tensor._make(out, parents, backward)


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride); spatial dims must divide."""

    def __init__(self, kernel_size: int = 2):
        super().__init__()
        self.k = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError(f"spatial dims {(h, w)} not divisible by pool {k}")
        blocks = x.data.reshape(n, c, h // k, k, w // k, k)
        out = blocks.max(axis=(3, 5))
        # Break ties: keep only the first max per block so gradients are not
        # double-counted.
        flat = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // k, w // k, k * k)
        first = np.zeros_like(flat)
        idx = flat.argmax(axis=-1)
        np.put_along_axis(first, idx[..., None], 1.0, axis=-1)
        mask = first.reshape(n, c, h // k, w // k, k, k)

        def backward(g):
            g_blocks = mask * g[:, :, :, :, None, None]
            # (n, c, h//k, w//k, k, k) → (n, c, h, w)
            g_full = g_blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
            return (g_full,)

        return Tensor._make(out, (x,), backward)


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel with running stats."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.gamma = Parameter(init_mod.ones(num_features))
        self.beta = Parameter(init_mod.zeros(num_features))
        self.eps = eps
        self.momentum = momentum
        dtype = get_default_dtype()
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        axes = (0, 2, 3)
        if self.training:
            mean = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
        else:
            mean, var = self.running_mean, self.running_var

        n, c, h, w = x.shape
        count = n * h * w
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x.data - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        out = (self.gamma.data.reshape(1, -1, 1, 1) * x_hat
               + self.beta.data.reshape(1, -1, 1, 1))

        gamma, beta = self.gamma, self.beta
        training = self.training

        def backward(g):
            grad_gamma = (g * x_hat).sum(axis=axes)
            grad_beta = g.sum(axis=axes)
            gsc = g * gamma.data.reshape(1, -1, 1, 1)
            if training:
                # Full batch-norm backward (mean/var depend on x).
                sum_g = gsc.sum(axis=axes).reshape(1, -1, 1, 1)
                sum_gx = (gsc * x_hat).sum(axis=axes).reshape(1, -1, 1, 1)
                grad_x = (inv_std.reshape(1, -1, 1, 1) / count
                          * (count * gsc - sum_g - x_hat * sum_gx))
            else:
                grad_x = gsc * inv_std.reshape(1, -1, 1, 1)
            return (grad_x, grad_gamma, grad_beta)

        return Tensor._make(out, (x, gamma, beta), backward)
