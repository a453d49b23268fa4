"""Tests for the sparse message-passing primitives."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import SparseMatrix, Tensor, row_normalize, spmm


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestSparseMatrix:
    def test_from_dense(self):
        m = SparseMatrix(np.eye(3))
        assert m.shape == (3, 3)
        assert m.nnz == 3

    def test_row_col_sums(self):
        m = SparseMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(m.row_sums(), [2, 1])
        assert np.allclose(m.col_sums(), [1, 2])

    def test_transpose_cached(self):
        m = SparseMatrix(sp.random(5, 3, density=0.5, random_state=0))
        t1 = m.T
        t2 = m.T
        assert t1 is t2
        assert t1.shape == (3, 5)

    def test_pickle_round_trip_rebuilds_memos(self):
        import pickle
        m = SparseMatrix(sp.random(5, 3, density=0.5, random_state=0))
        m.T  # populate the (cyclic) transpose memo before pickling
        m.as_dtype(np.float32)
        restored = pickle.loads(pickle.dumps(m))
        assert np.allclose(restored.toarray(), m.toarray())
        assert restored.T.shape == (3, 5)
        assert restored.as_dtype(np.float32).dtype == np.float32

    def test_unpickle_pre_memo_state(self):
        """Stage-cache blobs pickled before the transpose/dtype memo
        attributes existed must restore to fully working operators."""
        m = SparseMatrix(np.eye(3))
        legacy = SparseMatrix.__new__(SparseMatrix)
        legacy.__setstate__({"mat": m.mat})     # pre-PR4 pickle payload
        assert legacy.T.shape == (3, 3)
        assert legacy.as_dtype(np.float32).dtype == np.float32


class TestRowNormalize:
    def test_rows_sum_to_one(self, rng):
        m = SparseMatrix(sp.random(10, 6, density=0.4, random_state=1,
                                   format="csr"))
        m.mat.data[:] = 1.0
        normed = row_normalize(m)
        sums = normed.row_sums()
        nonzero = m.row_sums() > 0
        assert np.allclose(sums[nonzero], 1.0)

    def test_zero_rows_stay_zero(self):
        m = SparseMatrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        normed = row_normalize(m)
        assert np.allclose(normed.toarray()[0], 0.0)
        assert np.allclose(normed.toarray()[1], 0.5)


class TestSpmm:
    def test_matches_dense(self, rng):
        a = sp.random(7, 4, density=0.5, random_state=2, format="csr")
        x = rng.normal(size=(4, 3))
        out = spmm(SparseMatrix(a), Tensor(x))
        assert np.allclose(out.data, a @ x)

    def test_backward_is_transpose(self, rng):
        a = SparseMatrix(sp.random(5, 4, density=0.6, random_state=3,
                                   format="csr"))
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(5, 2))
        (spmm(a, x) * Tensor(w)).sum().backward()
        assert np.allclose(x.grad, a.mat.T @ w)

    def test_accepts_raw_scipy(self, rng):
        a = sp.eye(3).tocsr()
        x = Tensor(rng.normal(size=(3, 2)))
        assert np.allclose(spmm(a, x).data, x.data)
