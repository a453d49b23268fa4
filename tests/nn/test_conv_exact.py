"""Byte identity of the strided-view im2col / slice-add col2im kernels.

The kernels replace a fancy-index gather and a per-image ``np.bincount``
scatter (kept as ``_im2col_reference`` / ``_col2im_reference``).  They
must return the same shape, dtype, memory layout and bits — including
the sign of zero, which ReLU backward produces and the float64 bincount
sum normalises to +0.0 — so U-Net / Pix2Pix gradients, checkpoints and
F1 cannot move.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.nn.conv import (_col2im_reference, _im2col_reference, col2im,
                           conv_output_size, im2col)

DTYPES = [np.float32, np.float64]

# (kernel, stride, pad) of every conv in the image baselines.
MODEL_GEOMETRIES = {
    "unet-k3s1p1": (3, 1, 1),
    "unet-k1": (1, 1, 0),
    "unet-convtranspose-k2s2": (2, 2, 0),
    "pix2pix-k4s2p1": (4, 2, 1),
    "pix2pix-k4s1p1": (4, 1, 1),
}


def _layout(a):
    """Strides of the non-singleton axes (a size-1 axis's stride is moot)."""
    return tuple(st for st, size in zip(a.strides, a.shape) if size > 1)


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert _layout(got) == _layout(want)
    assert got.tobytes() == want.tobytes()


def _with_negative_zeros(rng, shape, dtype):
    a = rng.normal(size=shape).astype(dtype)
    a[rng.random(shape) < 0.25] = -0.0
    return a


def _check(rng, n, c, h, w, k, stride, pad, dtype):
    x = _with_negative_zeros(rng, (n, c, h, w), dtype)
    _assert_same_bytes(im2col(x, k, k, stride, pad),
                       _im2col_reference(x, k, k, stride, pad))
    length = (conv_output_size(h, k, stride, pad)
              * conv_output_size(w, k, stride, pad))
    cols = _with_negative_zeros(rng, (n, c * k * k, length), dtype)
    _assert_same_bytes(col2im(cols, x.shape, k, k, stride, pad),
                       _col2im_reference(cols, x.shape, k, k, stride, pad))


@st.composite
def geometries(draw):
    k = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    # At least one output position; h and w drawn independently so
    # non-square inputs, and stride > k (uncovered pixels), are common.
    low = max(1, k - 2 * pad)
    h = draw(st.integers(low, low + 9))
    w = draw(st.integers(low, low + 9))
    if draw(st.booleans()):
        # Patches tile the padded image: col2im's transpose path.
        stride = k
        h = k * draw(st.integers(1, 6)) - 2 * pad
        w = k * draw(st.integers(1, 6)) - 2 * pad
        assume(min(h, w) >= 1)
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    return n, c, h, w, k, stride, pad


@settings(max_examples=300, deadline=None)
@given(geometry=geometries(), dtype=st.sampled_from(DTYPES),
       seed=st.integers(0, 2**32 - 1))
def test_kernels_byte_equal_references(geometry, dtype, seed):
    _check(np.random.default_rng(seed), *geometry, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(MODEL_GEOMETRIES))
@pytest.mark.parametrize("n", [1, 2])
def test_model_geometries_byte_equal(name, dtype, n):
    k, stride, pad = MODEL_GEOMETRIES[name]
    rng = np.random.default_rng(sum(map(ord, name)) + n)
    for h, w in [(16, 16), (8, 12), (4, 4)]:
        _check(rng, n, 3, h, w, k, stride, pad, dtype)


def test_im2col_does_not_alias_its_input():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    cols = im2col(x, 1, 1, 1, 0)
    cols[...] = -1.0
    assert x.min() == 0.0

