"""Neural-network modules: the building blocks LHNN and baselines share.

The :class:`Module` base class provides parameter registration, train/eval
mode switching and state-dict (de)serialisation.  The concrete layers here
cover everything the paper's architecture diagram (Figure 3) uses: linear
layers ("Lin"), MLPs and residual MLP blocks ("Res").
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import functional as F
from . import init as init_mod
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "Identity", "Activation",
           "MLP", "ResidualMLP"]


class Parameter(Tensor):
    """A Tensor flagged as a trainable parameter of a Module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; they are discovered automatically for optimisation,
    gradient zeroing and checkpointing.
    """

    def __init__(self) -> None:
        self.training = True

    # -- parameter / submodule discovery --------------------------------
    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters (depth-first, deduplicated)."""
        params: list[Parameter] = []
        seen: set[int] = set()
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                params.append(p)
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- training state ---------------------------------------------------
    def train(self) -> "Module":
        """Put this module and children in training mode."""
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        """Put this module and children in evaluation mode."""
        for m in self.modules():
            m.training = False
        return self

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter and floating buffer to ``dtype`` in place.

        Covers :class:`Parameter` attributes (including those held in
        lists/tuples) and plain floating ndarray attributes such as
        batch-norm running statistics.  Used by checkpoint restore to
        honour the dtype a model was trained in, and by ``--dtype``
        overrides at serve time.
        """
        dtype = np.dtype(dtype)
        for module in self.modules():
            for name, value in vars(module).items():
                if isinstance(value, Parameter):
                    value.data = value.data.astype(dtype, copy=False)
                elif isinstance(value, np.ndarray) and value.dtype.kind == "f":
                    setattr(module, name, value.astype(dtype, copy=False))
                elif isinstance(value, (list, tuple)):
                    for item in value:
                        if isinstance(item, Parameter):
                            item.data = item.data.astype(dtype, copy=False)
        return self

    def dtype(self) -> np.dtype:
        """The compute dtype of this module's parameters.

        Defined as the dtype of the first parameter; modules are always
        homogeneous after construction/:meth:`to_dtype`.  Parameter-free
        modules report the process default.
        """
        for _, p in self.named_parameters():
            return p.data.dtype
        from .tensor import get_default_dtype
        return get_default_dtype()

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy every parameter array keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)} "
                           f"unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{p.data.shape} vs {state[name].shape}")
            p.data[...] = state[name]

    # -- call protocol ------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Identity(Module):
    """No-op module (used when ablations strip a transformation)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Activation(Module):
    """Wraps a named activation function as a module.

    Supported names: ``relu``, ``leaky_relu``, ``sigmoid``, ``tanh``,
    ``identity``.
    """

    _FUNCS: dict[str, Callable[[Tensor], Tensor]] = {
        "relu": F.relu,
        "leaky_relu": F.leaky_relu,
        "sigmoid": F.sigmoid,
        "tanh": F.tanh,
        "identity": lambda x: x,
    }

    def __init__(self, name: str = "relu"):
        super().__init__()
        if name not in self._FUNCS:
            raise ValueError(f"unknown activation {name!r}; "
                             f"choose from {sorted(self._FUNCS)}")
        self.name = name

    def forward(self, x: Tensor) -> Tensor:
        return self._FUNCS[self.name](x)


class Linear(Module):
    """Affine layer ``y = x W + b`` (the paper's "Lin" box).

    Weights use Glorot-uniform initialisation; bias starts at zero.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_mod.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init_mod.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class MLP(Module):
    """Multilayer perceptron with a hidden activation after every layer
    except (optionally) the last.

    Parameters
    ----------
    dims:
        Layer widths ``[in, h1, ..., out]``; must have length >= 2.
    activation:
        Name of the hidden activation.
    final_activation:
        If True, also apply the activation after the last layer.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator,
                 activation: str = "relu", final_activation: bool = False):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output widths")
        self.linears = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        self.act = Activation(activation)
        self.final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.linears) - 1
        for i, lin in enumerate(self.linears):
            x = lin(x)
            if i != last or self.final_activation:
                x = self.act(x)
        return x


class ResidualMLP(Module):
    """Two-layer MLP with a skip connection (the paper's "Res" block).

    ``y = act(x W1 + b1) W2 + b2 + proj(x)`` where ``proj`` is identity when
    the widths already match and a linear projection otherwise.
    """

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 rng: np.random.Generator, activation: str = "relu"):
        super().__init__()
        self.fc1 = Linear(in_dim, hidden_dim, rng)
        self.fc2 = Linear(hidden_dim, out_dim, rng)
        self.act = Activation(activation)
        self.proj = Identity() if in_dim == out_dim else Linear(in_dim, out_dim, rng, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.act(self.fc1(x))) + self.proj(x)
