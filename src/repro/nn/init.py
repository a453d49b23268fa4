"""Parameter initialisation schemes.

Deterministic, generator-based variants of the classic Glorot/He schemes so
that every experiment in the reproduction is exactly repeatable from a seed
(the paper reports mean ± std over 5 random seeds; we do the same).

All initialisers emit arrays in the engine's default compute dtype
(:func:`repro.nn.tensor.get_default_dtype`): the draw itself happens in
float64 for seed-stable streams, then is cast once, so a float32 model
and its float64 twin share identical (up to rounding) initial weights.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import get_default_dtype

__all__ = ["xavier_uniform", "kaiming_normal", "zeros", "ones", "normal"]


def _cast(values: np.ndarray) -> np.ndarray:
    """Cast a freshly drawn float64 array to the default compute dtype."""
    return values.astype(get_default_dtype(), copy=False)


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense or convolutional weight shapes."""
    if len(shape) == 2:
        fan_in, fan_out = shape[0], shape[1]
    elif len(shape) == 4:  # (out_ch, in_ch, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    elif len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fan(tuple(shape))
    a = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return _cast(rng.uniform(-a, a, size=shape))


def kaiming_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """He normal: N(0, 2 / fan_in), suited to ReLU stacks."""
    fan_in, _ = _fan(tuple(shape))
    return _cast(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape))


def zeros(shape) -> np.ndarray:
    """All-zero initialiser (biases)."""
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape) -> np.ndarray:
    """All-one initialiser (normalisation gains)."""
    return np.ones(shape, dtype=get_default_dtype())


def normal(shape, rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """N(0, std^2) initialiser (DCGAN/Pix2Pix convention)."""
    return _cast(rng.normal(0.0, std, size=shape))
