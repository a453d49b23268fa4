"""Tests for optimisers, schedules and loss functions."""

import numpy as np
import pytest

from repro.nn import (Adam, GammaWeightedBCE, GANLoss, JointLoss, Parameter,
                      ResidualMLP, Tensor, clip_grad_norm, two_phase_lr)
from repro.nn.losses import MSELoss
from repro.nn.optim import StepLR
from repro.nn import functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestOptimizers:
    def test_adam_converges_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            p.grad = 2 * p.data  # d/dp p^2
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_adam_skips_none_grads(self):
        p = Parameter(np.array([1.0]))
        Adam([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_noop_when_small(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=5.0)
        assert np.allclose(p.grad, 0.1)


class TestSchedules:
    def test_step_lr_decays(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        sched.step()
        assert opt.lr == pytest.approx(1.0)
        sched.step()
        assert opt.lr == pytest.approx(0.1)

    def _two_phase_trace(self, epochs):
        """Per-epoch lr values as the trainer sees them (step at epoch end)."""
        opt = Adam([Parameter(np.zeros(1))], lr=2e-3)
        sched = two_phase_lr(opt, epochs=epochs, lr_final=5e-4)
        trace = []
        for _ in range(epochs):
            trace.append(opt.lr)
            sched.step()
        return trace

    def test_two_phase_pair_at_twenty_epochs(self):
        trace = self._two_phase_trace(20)
        assert trace[:10] == pytest.approx([2e-3] * 10)
        assert trace[10:] == pytest.approx([5e-4] * 10)

    def test_two_phase_single_epoch_trains_at_initial_lr(self):
        """Regression: epochs == 1 used to spend its only epoch at lr_final."""
        assert self._two_phase_trace(1) == pytest.approx([2e-3])

    def test_two_phase_odd_epochs_round_first_phase_up(self):
        assert self._two_phase_trace(3) == pytest.approx([2e-3, 2e-3, 5e-4])

    def test_two_phase_rejects_bad_args(self):
        opt = Adam([Parameter(np.zeros(1))], lr=2e-3)
        with pytest.raises(ValueError):
            two_phase_lr(opt, epochs=0, lr_final=5e-4)
        with pytest.raises(ValueError):
            two_phase_lr(opt, epochs=4, lr_final=0.0)


class TestLosses:
    def test_mse_value(self):
        loss = MSELoss()(Tensor(np.array([1.0, 3.0])), np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(5.0)

    def test_gamma_bce_downweights_negatives(self):
        prob = Tensor(np.array([0.3]))
        target = np.array([0.0])
        full = GammaWeightedBCE(gamma=1.0)(prob, target).item()
        weak = GammaWeightedBCE(gamma=0.5)(prob, target).item()
        assert weak == pytest.approx(0.5 * full)

    def test_gamma_bce_keeps_positive_weight(self):
        prob = Tensor(np.array([0.3]))
        target = np.array([1.0])
        full = GammaWeightedBCE(gamma=1.0)(prob, target).item()
        weak = GammaWeightedBCE(gamma=0.1)(prob, target).item()
        assert weak == pytest.approx(full)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            GammaWeightedBCE(gamma=0.0)
        with pytest.raises(ValueError):
            GammaWeightedBCE(gamma=1.5)

    def test_joint_loss_drops_regression(self):
        prob = Tensor(np.array([0.5]))
        reg = Tensor(np.array([10.0]))
        with_reg = JointLoss(use_regression=True)(
            prob, reg, np.array([1.0]), np.array([0.0]))
        without = JointLoss(use_regression=False)(
            prob, reg, np.array([1.0]), np.array([0.0]))
        assert with_reg.item() > without.item()

    def test_joint_loss_none_reg_pred(self):
        prob = Tensor(np.array([0.5]))
        loss = JointLoss(use_regression=True)(
            prob, None, np.array([1.0]), np.array([0.0]))
        assert np.isfinite(loss.item())

    def test_gan_loss_signs(self):
        real_logits = Tensor(np.array([5.0]))
        gl = GANLoss()
        assert gl(real_logits, True).item() < gl(real_logits, False).item()

    def test_gan_loss_gradient_direction(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        GANLoss()(x, True).backward()
        assert x.grad[0] < 0  # increase logit to look more real

    def test_gan_loss_stable_extremes(self):
        x = Tensor(np.array([-500.0, 500.0]))
        assert np.isfinite(GANLoss()(x, True).item())
        assert np.isfinite(GANLoss()(x, False).item())


class TestEndToEndTraining:
    def test_mlp_learns_xor(self, rng):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        model = ResidualMLP(2, 16, 1, rng)
        opt = Adam(model.parameters(), lr=5e-2)
        loss_fn = GammaWeightedBCE(gamma=1.0)
        for _ in range(400):
            opt.zero_grad()
            prob = F.sigmoid(model(Tensor(X)))
            loss = loss_fn(prob, y)
            loss.backward()
            opt.step()
        pred = F.sigmoid(model(Tensor(X))).data > 0.5
        assert np.array_equal(pred.reshape(-1), y.reshape(-1) > 0.5)
