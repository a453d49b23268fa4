"""Functional interface over :class:`repro.nn.tensor.Tensor`.

Free functions mirroring ``torch.nn.functional`` for the subset of
operations the LHNN reproduction needs.  All functions are differentiable
unless noted otherwise.
"""

from __future__ import annotations

from .tensor import Tensor, as_tensor

__all__ = [
    "relu", "leaky_relu", "sigmoid", "tanh", "exp", "log", "sqrt",
    "concat", "stack", "where",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    return as_tensor(x).leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    return as_tensor(x).exp()


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    return as_tensor(x).log()


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    return as_tensor(x).sqrt()


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    return Tensor.concat(tensors, axis=axis)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    return Tensor.stack(tensors, axis=axis)


def where(condition, a, b) -> Tensor:
    """Elementwise select (differentiable in ``a`` and ``b``)."""
    return Tensor.where(condition, a, b)
