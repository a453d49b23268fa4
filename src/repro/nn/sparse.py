"""Sparse message-passing primitives.

The LH-graph's relation operators — ``G_nc = H`` (G-net → G-cell),
``G_cn = B⁻¹Hᵀ`` (G-cell → G-net) and ``Ā = P⁻¹A`` (lattice) — are large,
fixed sparse matrices.  This module wraps ``scipy.sparse`` CSR matrices in
a small :class:`SparseMatrix` type and provides :func:`spmm`, a
differentiable sparse × dense product: this single op is the entire
"message passing" mechanism DGL provided to the original implementation.

Performance notes
-----------------
* CSR data follows the engine's dtype policy: floating input keeps its
  dtype, 0/1 integer adjacency is coerced to the default compute dtype.
  :func:`spmm` aligns the operator with its dense operand
  (:meth:`SparseMatrix.as_dtype`, memoised per dtype) so a float32
  forward pass is a float32 CSR matmat instead of a silent upcast.
* Transposes are computed once and cached (:attr:`SparseMatrix.T`), so
  every backward pass reuses the same CSR transpose.
* :func:`row_normalize` scales the CSR data array directly (one
  ``np.repeat`` + one multiply) instead of materialising a ``diag @ A``
  sparse-sparse product, so the normalised operators used by every
  forward pass are built without an extra CSR allocation pass — spmm
  against them is a single CSR matmat.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter

import numpy as np
import scipy.sparse as sp

from ..perf import PERF
from .tensor import Tensor, as_tensor, get_default_dtype

__all__ = ["SparseMatrix", "spmm", "row_normalize", "block_diag"]


class SparseMatrix:
    """Immutable CSR sparse matrix used as a graph operator.

    The matrix never carries gradients — graph structure is data, not a
    parameter — but products against it are differentiable in the dense
    operand.
    """

    def __init__(self, matrix, dtype=None):
        if isinstance(matrix, SparseMatrix):
            matrix = matrix.mat
        if not sp.issparse(matrix):
            matrix = sp.csr_matrix(np.asarray(matrix))
        mat = matrix.tocsr()
        if dtype is None:
            dtype = (mat.dtype if mat.dtype.kind == "f"
                     else get_default_dtype())
        self.mat = mat.astype(np.dtype(dtype), copy=False)
        self._transpose_cache: SparseMatrix | None = None
        self._dtype_cache: dict[np.dtype, SparseMatrix] = {}

    def __getstate__(self):
        # Only the CSR itself is state; the transpose/dtype memos are
        # per-process (and the transpose memo is cyclic), so pickled
        # operators — e.g. LH-graphs in the pipeline stage cache — stay
        # lean and rebuild their memos lazily.
        return {"mat": self.mat}

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Blobs pickled before the memo attributes existed (pre-dtype-
        # policy stage caches) must still restore to working operators.
        self._transpose_cache = None
        self._dtype_cache = {}

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the operator."""
        return self.mat.shape

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return self.mat.nnz

    @property
    def dtype(self) -> np.dtype:
        """dtype of the stored CSR data."""
        return self.mat.dtype

    @property
    def T(self) -> "SparseMatrix":
        """Cached transpose, as a :class:`SparseMatrix`.

        Used by every backward pass (``dx = Aᵀ dy``); computed once.
        The transpose's own ``.T`` is this matrix, so round-tripping is
        free and callers never see a raw scipy type.
        """
        if self._transpose_cache is None:
            transposed = SparseMatrix(self.mat.T.tocsr(),
                                      dtype=self.mat.dtype)
            transposed._transpose_cache = self
            self._transpose_cache = transposed
        return self._transpose_cache

    def as_dtype(self, dtype) -> "SparseMatrix":
        """This operator with CSR data cast to ``dtype``, memoised.

        Graphs are built (and cached on disk) in float64; a float32
        forward pass casts each operator exactly once per process and
        reuses the cast CSR (and its cached transpose) afterwards.
        """
        dtype = np.dtype(dtype)
        if dtype == self.mat.dtype:
            return self
        cached = self._dtype_cache.get(dtype)
        if cached is None:
            cached = SparseMatrix(self.mat.astype(dtype))
            self._dtype_cache[dtype] = cached
        return cached

    def __matmul__(self, other):
        """``self @ other``: SparseMatrix × {SparseMatrix, ndarray, Tensor}.

        Dense operands return a dense ndarray (the CSR matmat); sparse
        operands return a wrapped :class:`SparseMatrix`.  For a
        *differentiable* product use :func:`spmm`.
        """
        if isinstance(other, SparseMatrix):
            return SparseMatrix(self.mat @ other.mat)
        if isinstance(other, Tensor):
            other = other.data
        return self.mat @ np.asarray(other)

    def toarray(self) -> np.ndarray:
        """Densify (tests / tiny graphs only)."""
        return self.mat.toarray()

    def row_sums(self) -> np.ndarray:
        """Vector of per-row sums (degrees for 0/1 adjacency)."""
        return np.asarray(self.mat.sum(axis=1)).reshape(-1)

    def col_sums(self) -> np.ndarray:
        """Vector of per-column sums."""
        return np.asarray(self.mat.sum(axis=0)).reshape(-1)


def row_normalize(adj: SparseMatrix) -> SparseMatrix:
    """Return ``Deg⁻¹ · adj`` with zero-degree rows left at zero.

    This realises the paper's normalised operators ``B⁻¹Hᵀ`` and ``P⁻¹A``:
    the aggregation becomes a *mean* over incident neighbours.  The
    normalisation is fused into the CSR data array (each stored value is
    scaled by its row's inverse degree) rather than computed as a
    ``diags(inv) @ adj`` sparse-sparse product, so building the operator
    costs one vectorised multiply and downstream :func:`spmm` calls hit
    a plain CSR matmat.
    """
    deg = adj.row_sums()
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1e-12), 0.0)
    mat = adj.mat.copy()
    row_lengths = np.diff(mat.indptr)
    mat.data *= np.repeat(inv.astype(mat.dtype, copy=False), row_lengths)
    return SparseMatrix(mat)


def block_diag(operators: list[SparseMatrix]) -> SparseMatrix:
    """Block-diagonal composition of several operators.

    This is the substrate of graph batching: stacking per-design relation
    operators on the diagonal turns many small spmm calls into one large
    one, which amortises per-call overhead on CPU.
    """
    if not operators:
        raise ValueError("cannot compose zero operators")
    if len(operators) == 1:
        return operators[0]
    return SparseMatrix(sp.block_diag([op.mat for op in operators],
                                      format="csr"))


def spmm(a: SparseMatrix, x: Tensor) -> Tensor:
    """Differentiable sparse @ dense product ``a @ x``.

    Forward: ``y = A x`` (CSR matvec/matmat).  Backward: ``dx = Aᵀ dy``.
    The sparse operand is constant and is aligned with the dense
    operand's dtype (memoised cast), so float32 activations flow through
    float32 CSR kernels end to end.
    """
    if not isinstance(a, SparseMatrix):
        a = SparseMatrix(a)
    x = as_tensor(x)
    if a.mat.dtype != x.data.dtype:
        a = a.as_dtype(x.data.dtype)
    t0 = _perf_counter() if PERF.enabled else 0.0
    data = a.mat @ x.data
    if PERF.enabled:
        PERF.record("spmm.forward", _perf_counter() - t0, data.nbytes)

    def backward(g):
        t0 = _perf_counter() if PERF.enabled else 0.0
        grad = a.T.mat @ g
        if PERF.enabled:
            PERF.record("spmm.backward", _perf_counter() - t0, grad.nbytes)
        return (grad,)

    return Tensor._make(np.asarray(data), (x,), backward)
