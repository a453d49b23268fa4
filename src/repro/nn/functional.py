"""Functional interface over :class:`repro.nn.tensor.Tensor`.

Free functions mirroring ``torch.nn.functional`` for the activations and
the concatenation the models call.  All are differentiable.  Elementwise
maths, stacking and selection are :class:`~repro.nn.tensor.Tensor`
methods (``x.exp()``, ``x.log()``, ``x.sqrt()``, ``Tensor.stack``,
``Tensor.where``).
"""

from __future__ import annotations

from .tensor import Tensor, as_tensor

__all__ = ["relu", "leaky_relu", "sigmoid", "concat"]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    return as_tensor(x).leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    return Tensor.concat(tensors, axis=axis)
