"""Tests for neighbour sampling (paper's {6,3,2} fan-outs)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import sampled_operators
from repro.graph.sampling import sample_neighbors
from repro.nn import SparseMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def operator():
    """10 destinations, 20 sources, dense-ish incidence."""
    mat = sp.random(10, 20, density=0.6, random_state=7, format="csr")
    mat.data[:] = 1.0
    return SparseMatrix(mat)


class TestSampleNeighbors:
    def test_fanout_respected(self, operator, rng):
        sampled = sample_neighbors(operator, fanout=3, rng=rng)
        per_row = np.diff(sampled.mat.indptr)
        assert per_row.max() <= 3

    def test_rows_with_few_neighbours_keep_all(self, rng):
        mat = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        sampled = sample_neighbors(SparseMatrix(mat), fanout=5, rng=rng)
        assert np.allclose(np.diff(sampled.mat.indptr), [2, 1])

    def test_mean_normalization(self, operator, rng):
        sampled = sample_neighbors(operator, fanout=4, rng=rng,
                                   normalize="mean")
        sums = sampled.row_sums()
        nonzero = sums > 0
        assert np.allclose(sums[nonzero], 1.0)

    def test_sum_normalization_keeps_values(self, rng):
        mat = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
        sampled = sample_neighbors(SparseMatrix(mat), fanout=5, rng=rng,
                                   normalize="sum")
        assert np.allclose(sampled.toarray(), mat.toarray())

    def test_unbiased_rescales_by_degree_over_kept(self, rng):
        """Each kept edge is scaled by degree/kept, so row sums of a
        row-constant operator are preserved exactly."""
        mat = sp.csr_matrix(np.full((3, 8), 0.5))
        sampled = sample_neighbors(SparseMatrix(mat), fanout=2, rng=rng,
                                   normalize="unbiased")
        dense = sampled.toarray()
        assert np.allclose(dense[dense > 0], 0.5 * 8 / 2)
        assert np.allclose(sampled.row_sums(), 4.0)

    def test_unbiased_estimates_full_row_sum(self):
        """E[sampled row sum] == full row sum for non-constant values."""
        vals = np.arange(1.0, 7.0)[None, :]
        operator = SparseMatrix(sp.csr_matrix(vals))
        trials = 4000
        total = sum(sample_neighbors(operator, 3, np.random.default_rng(t),
                                     normalize="unbiased").row_sums()[0]
                    for t in range(trials))
        assert total / trials == pytest.approx(vals.sum(), rel=0.05)

    def test_sampled_edges_are_subset(self, operator, rng):
        sampled = sample_neighbors(operator, fanout=2, rng=rng)
        full = operator.toarray() > 0
        sub = sampled.toarray() > 0
        assert np.all(full | ~sub)

    def test_invalid_fanout(self, operator, rng):
        with pytest.raises(ValueError):
            sample_neighbors(operator, fanout=0, rng=rng)

    def test_invalid_normalize(self, operator, rng):
        with pytest.raises(ValueError):
            sample_neighbors(operator, fanout=2, rng=rng, normalize="max")

    def test_empty_rows_stay_empty(self, rng):
        mat = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        sampled = sample_neighbors(SparseMatrix(mat), fanout=1, rng=rng)
        assert sampled.row_sums()[0] == 0.0

    def test_empty_operator(self, rng):
        sampled = sample_neighbors(SparseMatrix(sp.csr_matrix((3, 5))),
                                   fanout=2, rng=rng)
        assert sampled.shape == (3, 5) and sampled.nnz == 0

    def test_kept_counts_equal_min_degree_fanout(self, operator, rng):
        sampled = sample_neighbors(operator, fanout=3, rng=rng)
        degrees = np.diff(operator.mat.indptr)
        assert np.array_equal(np.diff(sampled.mat.indptr),
                              np.minimum(degrees, 3))

    def test_marginal_keep_probabilities(self):
        """The vectorised draw must keep each edge with prob fanout/degree,
        matching the per-row rng.choice loop it replaced."""
        mat = sp.csr_matrix(np.array([
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],   # degree 6
            [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],   # degree 3
            [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],   # degree 2 (< fanout: keep all)
        ]))
        operator = SparseMatrix(mat)
        fanout, trials = 3, 3000
        counts = np.zeros(mat.shape)
        for trial in range(trials):
            s = sample_neighbors(operator, fanout,
                                 np.random.default_rng(trial),
                                 normalize="sum")
            counts += s.toarray() > 0
        empirical = counts / trials
        degrees = np.diff(mat.indptr)
        expected = mat.toarray() * np.minimum(
            fanout / np.maximum(degrees, 1), 1.0)[:, None]
        assert np.abs(empirical - expected).max() < 0.05


class TestSampledOperators:
    def test_all_four_operators(self, small_graph, rng):
        ops = sampled_operators(small_graph,
                                {"featuregen": 6, "hypermp": 3,
                                 "latticemp": 2}, rng)
        assert set(ops) == {"op_nc_sum", "op_cn_mean", "op_nc_mean",
                            "op_cc_mean"}
        assert ops["op_nc_sum"].shape == small_graph.op_nc_sum.shape

    def test_latticemp_fanout(self, small_graph, rng):
        ops = sampled_operators(small_graph, {"latticemp": 2}, rng)
        per_row = np.diff(ops["op_cc_mean"].mat.indptr)
        assert per_row.max() <= 2

    def test_different_draws_differ(self, small_graph):
        a = sampled_operators(small_graph, {}, np.random.default_rng(0))
        b = sampled_operators(small_graph, {}, np.random.default_rng(1))
        assert not np.allclose(a["op_cc_mean"].toarray(),
                               b["op_cc_mean"].toarray())

    def test_featuregen_sampled_sums_match_full_graph(self, small_graph, rng):
        """Sampled FeatureGen aggregation must reproduce the full-graph
        scaled-sum magnitudes: the scaled-sum operator's values are
        row-constant, so the unbiased reweighting (degree/kept per edge)
        makes every sampled row sum *exactly* the full row sum."""
        ops = sampled_operators(small_graph, {"featuregen": 4}, rng)
        assert np.allclose(ops["op_nc_sum"].row_sums(),
                           small_graph.op_nc_scaled_sum.row_sums())

    def test_on_batched_graph(self, tiny_graph_suite, rng):
        from repro.graph import batch_graphs
        batched = batch_graphs(tiny_graph_suite[:2])
        ops = sampled_operators(batched, {"latticemp": 2}, rng)
        assert ops["op_cc_mean"].shape == batched.op_cc_mean.shape
        assert np.diff(ops["op_cc_mean"].mat.indptr).max() <= 2
