"""Optimisers and learning-rate schedules.

The paper trains LHNN with Adam at learning rates 2e-3 and 5e-4; we provide
Adam (with optional decoupled weight decay), global gradient-norm clipping
and the paper's two-phase step schedule.

Adam updates entirely in place: every elementwise op writes into the
parameter, its state buffers (first / second moments) or a per-parameter
scratch buffer via ``np.multiply/add/... (..., out=)``.  A step therefore
allocates nothing after the first call — at float32 on CPU the old
temporary-per-expression ``Adam.step`` was a measurable slice of
small-model training time.  Gradients are treated as consumable:
``step`` may write into ``p.grad`` (``clip_grad_norm`` always has), and
``zero_grad`` remains the per-step reset.
"""

from __future__ import annotations

import math
from time import perf_counter as _perf_counter

import numpy as np

from ..perf import PERF
from .layers import Parameter

__all__ = ["Adam", "clip_grad_norm", "two_phase_lr"]


class Optimizer:
    """Base optimiser holding a parameter list and a learning rate."""

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = float(lr)
        # Per-parameter scratch buffers for the in-place update kernels,
        # allocated lazily on the first step (parameters may still be
        # re-dtyped between construction and training).
        self._scratch: list[np.ndarray | None] = [None] * len(self.params)

    def _buf(self, index: int, p: Parameter) -> np.ndarray:
        """The scratch buffer for parameter ``index`` (shape/dtype of p)."""
        buf = self._scratch[index]
        if buf is None or buf.shape != p.data.shape or buf.dtype != p.data.dtype:
            buf = self._scratch[index] = np.empty_like(p.data)
        return buf

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with optional decoupled weight decay (AdamW).

    ``step`` is a fused in-place kernel: moment updates and the parameter
    write all go through ``out=`` ufuncs into the persistent ``m``/``v``
    state and one scratch buffer, so steady-state stepping allocates
    nothing.  The update is algebraically identical to the textbook form
    (``lr · m̂ / (√v̂ + eps)`` with ``m̂ = m/bc1``, ``v̂ = v/bc2``) computed
    as ``lr · m / (bc1 · (√(v/bc2) + eps))``.
    """

    def __init__(self, params, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        t0 = _perf_counter() if PERF.enabled else 0.0
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self._t
        bc2 = 1.0 - b2 ** self._t
        for i, (p, m, v) in enumerate(zip(self.params, self._m, self._v)):
            if p.grad is None:
                continue
            g = p.grad
            if m.dtype != p.data.dtype:
                m = self._m[i] = m.astype(p.data.dtype)
                v = self._v[i] = v.astype(p.data.dtype)
            buf = self._buf(i, p)
            # m ← b1·m + (1-b1)·g
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=buf)
            np.add(m, buf, out=m)
            # v ← b2·v + (1-b2)·g²
            np.multiply(g, g, out=buf)
            np.multiply(buf, 1.0 - b2, out=buf)
            np.multiply(v, b2, out=v)
            np.add(v, buf, out=v)
            if self.weight_decay:
                np.multiply(p.data, self.lr * self.weight_decay, out=buf)
                np.subtract(p.data, buf, out=p.data)
            # p ← p − lr · m / (bc1 · (√(v/bc2) + eps))
            np.divide(v, bc2, out=buf)
            np.sqrt(buf, out=buf)
            np.add(buf, self.eps, out=buf)
            np.multiply(buf, bc1, out=buf)
            np.divide(m, buf, out=buf)
            np.multiply(buf, self.lr, out=buf)
            np.subtract(p.data, buf, out=p.data)
        if PERF.enabled:
            PERF.record("optimizer.step", _perf_counter() - t0)


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).
    """
    total = 0.0  # python-float (double) accumulator across parameters
    for p in params:
        if p.grad is not None:
            flat = p.grad.reshape(-1)
            total += float(np.dot(flat, flat))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                np.multiply(p.grad, scale, out=p.grad)
    return norm


class StepLR:
    """Multiply the optimiser lr by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        """Advance one epoch and update the learning rate."""
        self.epoch += 1
        self.optimizer.lr = self.base_lr * (self.gamma ** (self.epoch // self.step_size))


def two_phase_lr(optimizer: Optimizer, epochs: int, lr_final: float) -> StepLR:
    """The paper's two-phase schedule as a :class:`StepLR` instance.

    Training starts at the optimiser's current lr (the paper's 2e-3) for
    the first ``ceil(epochs / 2)`` epochs and finishes at ``lr_final``
    (5e-4).  Call ``.step()`` once at the end of each epoch.  Rounding the
    first phase *up* guarantees even an ``epochs == 1`` run trains at the
    initial rate rather than spending its only epoch at ``lr_final``.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if lr_final <= 0:
        raise ValueError("lr_final must be positive")
    # epoch // step_size never exceeds 1 for epoch < epochs, so the single
    # multiplicative step lands exactly on lr_final.
    step_size = (epochs + 1) // 2
    return StepLR(optimizer, step_size=step_size,
                  gamma=lr_final / optimizer.lr)
