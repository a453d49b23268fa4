"""Model parity: the conv lowering kernels change no byte of training.

Runs one U-Net and one Pix2Pix training step twice from the same seed —
once with the ``_im2col_reference`` / ``_col2im_reference`` lowering
patched into :mod:`repro.nn.conv`, once with the shipped kernels — and
requires byte-equal parameter gradients, BatchNorm running statistics
and post-step parameters.  A batch of two crops also covers the
batch-axis memory layout that ``einsum`` weight gradients are sensitive
to.
"""

import numpy as np
import pytest

from repro.models.pix2pix import Pix2Pix
from repro.models.unet import UNet
from repro.nn import Adam, DtypeConfig, Tensor, conv
from repro.nn.conv import BatchNorm2d
from repro.nn.losses import GammaWeightedBCE, GANLoss


def _counting(func, counter):
    def wrapped(*args, **kwargs):
        counter.append(1)
        return func(*args, **kwargs)
    return wrapped


def _batch(dtype):
    rng = np.random.default_rng(7)
    image = rng.normal(size=(2, 4, 16, 16)).astype(dtype)
    label = (rng.random((2, 1, 16, 16)) < 0.3).astype(dtype)
    return image, label


def _snapshot(model):
    state = {}
    for i, p in enumerate(model.parameters()):
        state[f"param{i}"] = p.data.tobytes()
        state[f"grad{i}"] = p.grad.tobytes()
    bns = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    assert bns
    for i, bn in enumerate(bns):
        state[f"bn{i}"] = bn.running_mean.tobytes() + bn.running_var.tobytes()
    return state


def _unet_step(dtype):
    with DtypeConfig(dtype):
        model = UNet(in_channels=4, out_channels=1, base_width=4,
                     rng=np.random.default_rng(0))
        image, label = _batch(dtype)
        opt = Adam(model.parameters(), lr=1e-2)
        opt.zero_grad()
        GammaWeightedBCE(gamma=0.7)(model(Tensor(image)), label).backward()
        opt.step()
        return _snapshot(model)


def _pix2pix_step(dtype):
    with DtypeConfig(dtype):
        model = Pix2Pix(in_channels=4, out_channels=1, base_width=4,
                        rng=np.random.default_rng(0))
        image, label = _batch(dtype)
        x, y_real = Tensor(image), Tensor(label)
        gan_loss = GANLoss()
        opt_d = Adam(model.discriminator.parameters(), lr=1e-2)
        opt_g = Adam(model.generator.parameters(), lr=1e-2)

        opt_d.zero_grad()
        fake = model.generator(x)
        loss_d = (gan_loss(model.discriminate(x, y_real), True)
                  + gan_loss(model.discriminate(x, fake.detach()), False))
        loss_d.backward()
        opt_d.step()

        opt_g.zero_grad()
        fake = model.generator(x)
        loss_g = (gan_loss(model.discriminate(x, fake), True)
                  + GammaWeightedBCE(gamma=0.7)(fake, label))
        loss_g.backward()
        opt_g.step()
        return _snapshot(model)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("step", [_unet_step, _pix2pix_step],
                         ids=["unet", "pix2pix"])
def test_reference_lowering_gives_byte_equal_training(monkeypatch, step,
                                                      dtype):
    fast = step(dtype)

    gathers, scatters = [], []
    monkeypatch.setattr(conv, "im2col", _counting(
        conv._im2col_reference, gathers))
    monkeypatch.setattr(conv, "col2im", _counting(
        conv._col2im_reference, scatters))
    slow = step(dtype)

    # Both references really ran on the reference side.
    assert gathers and scatters
    assert fast.keys() == slow.keys()
    for key in fast:
        assert fast[key] == slow[key], key
