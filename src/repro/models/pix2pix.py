"""Pix2Pix baseline (Isola et al., 2017): conditional GAN image translation.

Generator: the :class:`~repro.models.unet.UNet` mapping crafted-feature
images to congestion probability maps.  Discriminator: a PatchGAN judging
(input, map) pairs locally.  Objective: non-saturating GAN loss plus an
L1 (here: γ-weighted BCE, matching how the paper applies the label-balance
factor to all baselines) reconstruction term.

The GAN training loop lives in :mod:`repro.train.trainer`.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.conv import BatchNorm2d, Conv2d
from ..nn.layers import Module
from ..nn.tensor import Tensor
from .unet import UNet

__all__ = ["Pix2Pix"]


class PatchDiscriminator(Module):
    """PatchGAN discriminator: conditions on the input feature image.

    Three stride-2 conv stages then a 1-channel logit map; each output
    "patch" classifies a local receptive field as real/fake.
    """

    def __init__(self, in_channels: int, rng: np.random.Generator,
                 base_width: int = 16):
        super().__init__()
        w = base_width
        self.conv1 = Conv2d(in_channels, w, 4, rng, stride=2, padding=1)
        self.conv2 = Conv2d(w, 2 * w, 4, rng, stride=2, padding=1)
        self.bn2 = BatchNorm2d(2 * w)
        self.conv3 = Conv2d(2 * w, 1, 4, rng, stride=1, padding=1)

    def forward(self, x: Tensor) -> Tensor:
        """(N, C, H, W) → (N, 1, H/4-ish, W/4-ish) patch logits."""
        x = F.leaky_relu(self.conv1(x), 0.2)
        x = F.leaky_relu(self.bn2(self.conv2(x)), 0.2)
        return self.conv3(x)


class Pix2Pix(Module):
    """Generator + discriminator pair for conditional congestion synthesis."""

    def __init__(self, in_channels: int = 4, out_channels: int = 1,
                 base_width: int = 12, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.base_width = base_width
        self.generator = UNet(in_channels, out_channels,
                              base_width=base_width, rng=rng,
                              final_sigmoid=True)
        self.discriminator = PatchDiscriminator(in_channels + out_channels, rng)

    def forward(self, x: Tensor) -> Tensor:
        """Generate a congestion probability map from features."""
        return self.generator(x)

    def discriminate(self, x: Tensor, y: Tensor) -> Tensor:
        """Patch logits for a (features, map) pair."""
        return self.discriminator(F.concat([x, y], axis=1))
