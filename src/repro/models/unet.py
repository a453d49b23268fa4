"""U-Net baseline (Ronneberger et al., 2015) for congestion-map prediction.

The paper compares against "the top PyTorch implementation" of U-Net on
the 4-channel crafted-feature image, predicting the congestion mask
pixel-wise.  This is the same encoder-decoder-with-skips topology scaled
to CPU grids: two pooling stages and a width multiplier instead of the
256×256 crops the authors used on GPU.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.conv import BatchNorm2d, Conv2d, ConvTranspose2d, MaxPool2d
from ..nn.layers import Module
from ..nn.tensor import Tensor

__all__ = ["UNet"]


class DoubleConv(Module):
    """(Conv3×3 → BN → ReLU) × 2, the U-Net's basic stage."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        super().__init__()
        self.conv1 = Conv2d(in_ch, out_ch, 3, rng, padding=1)
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng, padding=1)
        self.bn2 = BatchNorm2d(out_ch)

    def forward(self, x: Tensor) -> Tensor:
        x = F.relu(self.bn1(self.conv1(x)))
        return F.relu(self.bn2(self.conv2(x)))


class UNet(Module):
    """Compact U-Net: 2 down / 2 up stages with skip connections.

    Parameters
    ----------
    in_channels:
        Input feature channels (4 crafted G-cell features).
    out_channels:
        1 (uni-channel congestion) or 2 (duo-channel).
    base_width:
        Channel count of the first stage; doubles per depth.
    final_sigmoid:
        Apply sigmoid to the output (congestion probability).  Pix2Pix
        reuses this class with ``final_sigmoid=True`` as its generator.
    """

    def __init__(self, in_channels: int = 4, out_channels: int = 1,
                 base_width: int = 12, rng: np.random.Generator | None = None,
                 final_sigmoid: bool = True):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.base_width = base_width
        w = base_width
        self.enc1 = DoubleConv(in_channels, w, rng)
        self.pool1 = MaxPool2d(2)
        self.enc2 = DoubleConv(w, 2 * w, rng)
        self.pool2 = MaxPool2d(2)
        self.bottleneck = DoubleConv(2 * w, 4 * w, rng)
        self.up2 = ConvTranspose2d(4 * w, 2 * w, 2, rng, stride=2)
        self.dec2 = DoubleConv(4 * w, 2 * w, rng)
        self.up1 = ConvTranspose2d(2 * w, w, 2, rng, stride=2)
        self.dec1 = DoubleConv(2 * w, w, rng)
        self.out_conv = Conv2d(w, out_channels, 1, rng)
        self.final_sigmoid = final_sigmoid

    def forward(self, x: Tensor) -> Tensor:
        """(N, C, H, W) → (N, out_channels, H, W); H and W must be ÷4."""
        e1 = self.enc1(x)
        e2 = self.enc2(self.pool1(e1))
        b = self.bottleneck(self.pool2(e2))
        d2 = self.dec2(F.concat([self.up2(b), e2], axis=1))
        d1 = self.dec1(F.concat([self.up1(d2), e1], axis=1))
        out = self.out_conv(d1)
        if self.final_sigmoid:
            out = F.sigmoid(out)
        return out
