"""Tests for the MLP, U-Net and Pix2Pix baselines."""

import numpy as np
import pytest

from repro.models import MLPBaseline, Pix2Pix, UNet
from repro.models.pix2pix import PatchDiscriminator
from repro.nn import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestMLPBaseline:
    def test_output_shape_and_range(self, rng):
        m = MLPBaseline(in_features=4, hidden=16, channels=1, rng=rng)
        out = m(Tensor(rng.normal(size=(50, 4))))
        assert out.shape == (50, 1)
        assert (out.data >= 0).all() and (out.data <= 1).all()

    def test_duo_channel(self, rng):
        m = MLPBaseline(channels=2, rng=rng)
        assert m(Tensor(rng.normal(size=(10, 4)))).shape == (10, 2)

    def test_is_strictly_local(self, rng):
        """Changing one row's features must not affect other rows."""
        m = MLPBaseline(rng=rng)
        x = rng.normal(size=(10, 4))
        base = m(Tensor(x)).data
        x2 = x.copy()
        x2[0] += 10.0
        out = m(Tensor(x2)).data
        assert not np.allclose(out[0], base[0])
        assert np.allclose(out[1:], base[1:])

    def test_four_layers(self, rng):
        m = MLPBaseline(rng=rng)
        # input + 3 residual blocks + head = 4 weight layers deep (paper)
        assert len(m.blocks) == 3


class TestUNet:
    def test_output_shape(self, rng):
        m = UNet(in_channels=4, out_channels=1, base_width=4, rng=rng)
        out = m(Tensor(rng.normal(size=(1, 4, 16, 16))))
        assert out.shape == (1, 1, 16, 16)

    def test_output_is_probability(self, rng):
        m = UNet(base_width=4, rng=rng)
        out = m(Tensor(rng.normal(size=(1, 4, 16, 16)))).data
        assert (out >= 0).all() and (out <= 1).all()

    def test_no_sigmoid_mode(self, rng):
        m = UNet(base_width=4, rng=rng, final_sigmoid=False)
        out = m(Tensor(rng.normal(size=(1, 4, 16, 16)))).data
        assert out.min() < 0 or out.max() > 1

    def test_receptive_field_is_geometric(self, rng):
        """U-Net output responds to distant pixels only through pooling —
        but never to pixels in other images of the batch."""
        m = UNet(base_width=4, rng=rng)
        m.eval()
        x = rng.normal(size=(2, 4, 16, 16))
        base = m(Tensor(x)).data
        x2 = x.copy()
        x2[1] += 5.0
        out = m(Tensor(x2)).data
        assert np.allclose(out[0], base[0], atol=1e-10)
        assert not np.allclose(out[1], base[1])

    def test_gradients_reach_all_params(self, rng):
        m = UNet(base_width=4, rng=rng)
        m(Tensor(rng.normal(size=(1, 4, 8, 8)))).sum().backward()
        missing = [n for n, p in m.named_parameters() if p.grad is None]
        assert missing == []


class TestPix2Pix:
    def test_generator_shape(self, rng):
        m = Pix2Pix(in_channels=4, out_channels=1, base_width=4, rng=rng)
        out = m(Tensor(rng.normal(size=(1, 4, 16, 16))))
        assert out.shape == (1, 1, 16, 16)

    def test_discriminator_patch_output(self, rng):
        m = Pix2Pix(base_width=4, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 16, 16)))
        y = Tensor(rng.normal(size=(1, 1, 16, 16)))
        logits = m.discriminate(x, y)
        assert logits.ndim == 4
        assert logits.shape[1] == 1
        assert logits.shape[2] < 16  # patch-level, not pixel-level

    def test_patch_discriminator_standalone(self, rng):
        d = PatchDiscriminator(5, rng, base_width=4)
        out = d(Tensor(rng.normal(size=(2, 5, 16, 16))))
        assert out.shape[0] == 2

    def test_gan_parameters_disjoint(self, rng):
        m = Pix2Pix(base_width=4, rng=rng)
        gen = {id(p) for p in m.generator.parameters()}
        dis = {id(p) for p in m.discriminator.parameters()}
        assert not gen & dis
