"""Reverse-mode automatic differentiation on top of numpy.

This module is the numerical engine of the reproduction: it replaces the
PyTorch tensor library the paper's implementation relied on.  A
:class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied
to it so that :meth:`Tensor.backward` can propagate gradients through an
arbitrary computation graph (linear layers, residual blocks, sparse message
passing, convolutions, losses).

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ndarray) only for
  tensors created with ``requires_grad=True`` or depending on one.
* Broadcasting follows numpy semantics; gradient reduction over broadcast
  axes is handled by :func:`unbroadcast`.
* The graph is dynamic (define-by-run) and freed after ``backward`` unless
  ``retain_graph=True``.
* **Dtype policy**: floating payloads keep their dtype — a float32 array
  stays float32 through every op — and non-float inputs (ints, bools,
  python lists/scalars) are coerced to the process-wide *default compute
  dtype* (:func:`set_default_dtype` / :class:`DtypeConfig`, float64 out
  of the box).  Historically ``as_tensor``/``Tensor`` silently upcast
  everything to float64, which made float32 training impossible: a
  single coerced operand poisoned the whole graph.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from ..perf import PERF

__all__ = ["Tensor", "no_grad", "as_tensor", "set_default_dtype",
           "get_default_dtype", "DtypeConfig"]


_GRAD_ENABLED = True

_DEFAULT_DTYPE = np.dtype(np.float64)

#: dtypes the engine computes in; float16 accumulates too much error for
#: the paper's metrics and complex types make no sense for congestion maps.
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype) -> None:
    """Set the process-wide default compute dtype (float32 or float64).

    The default governs what non-float payloads (python lists, ints,
    bools) are coerced to and what :mod:`repro.nn.init` initialisers
    emit; floating arrays always keep their own dtype.  Train/serve
    entry points set this once from ``--dtype`` before any parameter is
    created.
    """
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in _SUPPORTED_DTYPES:
        raise ValueError(f"unsupported compute dtype {dtype}; "
                         f"choose float32 or float64")
    _DEFAULT_DTYPE = dtype


def get_default_dtype() -> np.dtype:
    """The current default compute dtype (see :func:`set_default_dtype`)."""
    return _DEFAULT_DTYPE


class DtypeConfig:
    """Context manager scoping the default compute dtype.

    ``with DtypeConfig(np.float32): ...`` builds models, datasets and
    losses in float32 and restores the previous default on exit —
    the parity tests and dtype benches run both precisions side by side
    this way.
    """

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        if self.dtype not in _SUPPORTED_DTYPES:
            raise ValueError(f"unsupported compute dtype {self.dtype}; "
                             f"choose float32 or float64")

    def __enter__(self) -> "DtypeConfig":
        self._prev = get_default_dtype()
        set_default_dtype(self.dtype)
        return self

    def __exit__(self, *exc) -> None:
        set_default_dtype(self._prev)


class no_grad:
    """Context manager disabling graph construction.

    Mirrors ``torch.no_grad()``: inside the block no backward closures are
    recorded, which makes evaluation loops cheaper and prevents accidental
    training-graph growth.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    When an operand of shape ``shape`` was broadcast to the gradient's shape
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, dtype=None) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, scalar, nested list) to a Tensor.

    Floating payloads keep their dtype; non-float payloads are coerced
    to ``dtype`` (default: the process default compute dtype).  Tensors
    pass through untouched.
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Floating arrays keep their dtype (a float32
        array is *not* upcast); everything else is converted to the
        default compute dtype, or to ``dtype`` when given explicitly.
    requires_grad:
        If True, gradients w.r.t. this tensor are accumulated in ``grad``
        during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            self.data = np.asarray(data, dtype=dtype)
        else:
            arr = np.asarray(data)
            self.data = (arr if arr.dtype.kind == "f"
                         else arr.astype(_DEFAULT_DTYPE))
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name: str | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying ndarray."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """dtype of the underlying ndarray."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes), differentiable."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})\n{self.data!r}"

    def numpy(self) -> np.ndarray:
        """Return the raw ndarray (shared memory, no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create an op output node, wiring the backward closure if needed."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, dtype=data.dtype)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None,
                 retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The walk is a single explicit pass over the topological order (no
        closure recursion), and gradient buffers are reused: the first
        time a node's gradient is *summed* a fresh buffer is allocated
        and marked owned, after which further contributions accumulate
        in place with ``np.add(..., out=)`` — fan-in-heavy graphs (the
        residual MLPs, the HyperMP trunk) stop allocating one array per
        incoming edge.

        Parameters
        ----------
        grad:
            Incoming gradient; defaults to ones (must be a scalar tensor in
            the default case, matching common loss usage).
        retain_graph:
            Keep backward closures alive so ``backward`` may be called again.
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        t0 = _perf_counter() if PERF.enabled else 0.0

        # Topological order via iterative DFS (avoids recursion limits on
        # deep graphs such as unrolled routing-cost chains).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        # ids of buffers this backward pass allocated itself and may
        # therefore mutate in place; everything else may alias forward
        # data or a closure's output and must be treated as read-only.
        owned: set[int] = set()
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            # Leaf-style accumulation also applies to intermediate tensors
            # that the user marked; keep graph semantics simple by always
            # accumulating when grad was explicitly requested on creation.
            if not node._parents:
                node._accumulate(node_grad)
                continue
            node._backward_dispatch(node_grad, grads, owned)
            if not retain_graph:
                node._backward = None
                node._parents = ()
        if PERF.enabled:
            PERF.record("autograd.backward", _perf_counter() - t0)

    def _backward_dispatch(self, node_grad: np.ndarray,
                           grads: dict[int, np.ndarray],
                           owned: set[int]) -> None:
        """Run the node's backward closure, routing results into ``grads``."""
        parent_grads = self._backward(node_grad)
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if parent._parents or parent._backward:
                buf = grads.get(pid)
                if buf is None:
                    grads[pid] = pgrad
                elif pid in owned:
                    np.add(buf, pgrad, out=buf)
                else:
                    # First summation: allocate once, then own the buffer
                    # so later fan-in contributions accumulate in place.
                    grads[pid] = buf + pgrad
                    owned.add(pid)
            else:
                parent._accumulate(pgrad)

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data + other.data

        def backward(g):
            return (unbroadcast(g, self.shape), unbroadcast(g, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data - other.data

        def backward(g):
            return (unbroadcast(g, self.shape), unbroadcast(-g, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data * other.data
        a, b = self.data, other.data

        def backward(g):
            return (unbroadcast(g * b, self.shape),
                    unbroadcast(g * a, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data / other.data
        a, b = self.data, other.data

        def backward(g):
            return (unbroadcast(g / b, self.shape),
                    unbroadcast(-g * a / (b * b), other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor ** only supports scalar exponents")
        data = self.data ** exponent
        base = self.data

        def backward(g):
            return (g * exponent * base ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data @ other.data
        a, b = self.data, other.data

        def backward(g):
            if a.ndim == 1 and b.ndim == 1:  # inner product
                return (g * b, g * a)
            if a.ndim == 1:  # (k,) @ (k, n)
                return (g @ b.T, np.outer(a, g))
            if b.ndim == 1:  # (m, k) @ (k,)
                return (np.outer(g, b), a.T @ g)
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return (unbroadcast(ga, a.shape), unbroadcast(gb, b.shape))

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Comparison helpers (non-differentiable, return ndarray masks)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Differentiable reshape; accepts a tuple or varargs."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        data = self.data.reshape(shape)

        def backward(g):
            return (g.reshape(old_shape),)

        return Tensor._make(data, (self,), backward)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        """Differentiable transpose (numpy semantics)."""
        data = np.transpose(self.data, axes)
        if axes is None:
            inv = None
        else:
            inv = np.argsort(axes)

        def backward(g):
            return (np.transpose(g, inv),)

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.shape
        dtype = self.data.dtype

        def backward(g):
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, index, g)
            return (full,)

        return Tensor._make(data, (self,), backward)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable summation."""
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            g_expanded = g
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % len(shape) for a in axes):
                    g_expanded = np.expand_dims(g_expanded, ax)
            return (np.broadcast_to(g_expanded, shape).copy(),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable mean (implemented as sum / count)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable max; gradient flows to (all) argmax positions."""
        data = self.data.max(axis=axis, keepdims=keepdims)
        src = self.data

        def backward(g):
            if axis is None:
                mask = (src == data).astype(src.dtype)
                return (mask * g / mask.sum(),)
            expanded = data if keepdims else np.expand_dims(data, axis)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            mask = (src == expanded).astype(src.dtype)
            counts = mask.sum(axis=axis, keepdims=True)
            return (mask * g_exp / counts,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g):
            return (g * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)
        src = self.data

        def backward(g):
            return (g / src,)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g):
            return (g * 0.5 / data,)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(g):
            return (g * sign,)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(g):
            return (g * mask,)

        return Tensor._make(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)
        data = self.data * scale

        def backward(g):
            return (g * scale,)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        from scipy.special import expit  # numerically stable logistic

        data = expit(self.data)

        def backward(g):
            return (g * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g):
            return (g * (1.0 - data * data),)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Differentiable clamp; gradient is zero outside [low, high]."""
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(g):
            return (g * mask,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Combination ops
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        """Differentiable concatenation along ``axis``."""
        tensors = [as_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(g):
            return tuple(np.split(g, splits, axis=axis))

        return Tensor._make(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Differentiable stacking along a new axis."""
        tensors = [as_tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(g):
            pieces = np.split(g, len(tensors), axis=axis)
            return tuple(np.squeeze(p, axis=axis) for p in pieces)

        return Tensor._make(data, tuple(tensors), backward)

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        """Differentiable selection: ``condition ? a : b``."""
        # Anchor non-tensor operands to the tensor operand's dtype so a
        # python-scalar branch (either side) cannot upcast a float32
        # selection.
        anchor = (a.dtype if isinstance(a, Tensor)
                  else b.dtype if isinstance(b, Tensor) else None)
        a = a if isinstance(a, Tensor) else as_tensor(a, dtype=anchor)
        b = b if isinstance(b, Tensor) else as_tensor(b, dtype=anchor)
        cond = np.asarray(condition, dtype=bool)
        data = np.where(cond, a.data, b.data)

        def backward(g):
            return (unbroadcast(np.where(cond, g, 0.0), a.shape),
                    unbroadcast(np.where(cond, 0.0, g), b.shape))

        return Tensor._make(data, (a, b), backward)
