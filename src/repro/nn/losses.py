"""Loss functions, including the paper's joint supervision objective.

The LHNN loss (paper §4.4) is ``L = L_reg + L_cls`` where

* ``L_reg`` is mean-squared error between predicted and ground-truth
  routing demand (Eq. 4 — the paper prints a stray leading minus sign,
  which would make the loss negative; we implement the standard positive
  MSE which is clearly what was trained),
* ``L_cls`` is a γ-weighted binary cross-entropy (Eq. 5): each
  non-congested G-cell's contribution is scaled by ``γ ∈ (0, 1]`` to fight
  the heavy label imbalance (17.38 % positives in the paper's split).

Dtype policy: losses compute elementwise in the operands' dtype (float32
stays float32 so the backward pass stays fast), while *accumulation
across steps* — epoch totals, metric averages — happens in python
floats / float64 at the trainer level, per the engine's "float32
compute, float64 accumulators" rule.  Numpy's pairwise summation keeps
the in-loss float32 reductions accurate at the array sizes involved.
"""

from __future__ import annotations

import numpy as np

from .layers import Module
from .tensor import Tensor, as_tensor

__all__ = ["MSELoss", "GammaWeightedBCE", "JointLoss", "GANLoss"]


class MSELoss(Module):
    """Mean squared error over all elements (paper Eq. 4)."""

    def forward(self, pred: Tensor, target) -> Tensor:
        diff = as_tensor(pred) - as_tensor(target)
        return (diff * diff).mean()


class GammaWeightedBCE(Module):
    """γ-weighted BCE of paper Eq. 5.

    ``L = -(1/N) Σ_i [ (1 - y_i) γ + y_i ] · [ y_i log c_i + (1-y_i) log(1-c_i) ]``

    With γ < 1, negatives (non-congested G-cells) contribute less,
    countering the tendency to predict everything as non-congested.
    The paper uses γ = 0.7 for every experiment.
    """

    def __init__(self, gamma: float = 0.7, eps: float = 1e-7):
        super().__init__()
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        self.gamma = gamma
        self.eps = eps

    def forward(self, prob: Tensor, target) -> Tensor:
        prob = as_tensor(prob).clip(self.eps, 1.0 - self.eps)
        target = as_tensor(target)
        weight = (1.0 - target) * self.gamma + target
        ce = target * prob.log() + (1.0 - target) * (1.0 - prob).log()
        return -(weight * ce).mean()


class JointLoss(Module):
    """The paper's joint objective ``L = L_reg + L_cls`` (Eq. 3).

    Parameters
    ----------
    gamma:
        Imbalance weight for the classification branch.
    use_regression:
        When False, the regression term is dropped — this implements the
        "no Jointing" ablation row of Table 3.
    """

    def __init__(self, gamma: float = 0.7, use_regression: bool = True):
        super().__init__()
        self.reg_loss = MSELoss()
        self.cls_loss = GammaWeightedBCE(gamma=gamma)
        self.use_regression = use_regression

    def forward(self, cls_prob: Tensor, reg_pred: Tensor | None,
                cls_target, reg_target) -> Tensor:
        loss = self.cls_loss(cls_prob, cls_target)
        if self.use_regression and reg_pred is not None:
            loss = loss + self.reg_loss(reg_pred, reg_target)
        return loss


class GANLoss(Module):
    """Vanilla (non-saturating) GAN loss on discriminator logits.

    ``forward(logits, target_is_real)`` returns BCE-with-logits against a
    constant real/fake label, matching the Pix2Pix objective.
    """

    def forward(self, logits: Tensor, target_is_real: bool) -> Tensor:
        from scipy.special import expit

        x = as_tensor(logits)
        # softplus(x) = log(1 + e^x), computed stably.
        sp = Tensor(np.logaddexp(0.0, x.data))

        def backward(g):
            return (g * expit(x.data),)

        softplus_x = Tensor._make(sp.data, (x,), backward)
        if target_is_real:
            # -log(sigmoid(x)) = softplus(-x) = softplus(x) - x
            return (softplus_x - x).mean()
        # -log(1 - sigmoid(x)) = softplus(x)
        return softplus_x.mean()
