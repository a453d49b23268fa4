"""Tests for LH-graph construction."""

import numpy as np
import pytest

from repro.graph import (build_hypergraph_incidence, build_lattice_adjacency,
                         build_lhgraph)


class TestLatticeAdjacency:
    def test_corner_degree_two(self):
        a = build_lattice_adjacency(4, 4)
        deg = a.row_sums()
        assert deg[0] == 2          # corner (0,0)

    def test_interior_degree_four(self):
        a = build_lattice_adjacency(4, 4)
        deg = a.row_sums().reshape(4, 4)
        assert deg[1, 1] == 4
        assert deg[1, 0] == 3       # edge cell

    def test_symmetric(self):
        a = build_lattice_adjacency(5, 3).toarray()
        assert np.allclose(a, a.T)

    def test_no_self_loops(self):
        a = build_lattice_adjacency(5, 5).toarray()
        assert np.allclose(np.diag(a), 0.0)

    def test_total_edges(self):
        # nx*ny grid has nx*(ny-1) + ny*(nx-1) undirected edges
        a = build_lattice_adjacency(6, 4)
        assert a.nnz == 2 * (6 * 3 + 4 * 5)

    def test_neighbours_are_adjacent_cells(self):
        ny = 4
        a = build_lattice_adjacency(4, ny).toarray()
        idx = 1 * ny + 2   # cell (1, 2)
        neighbours = np.flatnonzero(a[idx])
        coords = {(i // ny, i % ny) for i in neighbours}
        assert coords == {(0, 2), (2, 2), (1, 1), (1, 3)}


class TestLHGraph:
    def test_shapes(self, small_graph):
        g = small_graph
        assert g.vc.shape == (g.num_gcells, 4)
        assert g.vn.shape == (g.num_gnets, 4)
        assert g.incidence.shape == (g.num_gcells, g.num_gnets)
        assert g.adjacency.shape == (g.num_gcells, g.num_gcells)

    def test_labels_attached(self, small_graph):
        assert small_graph.demand is not None
        assert small_graph.congestion is not None
        assert small_graph.demand.shape == (small_graph.num_gcells, 2)
        assert set(np.unique(small_graph.congestion)).issubset({0.0, 1.0})

    def test_operator_normalisations(self, small_graph):
        g = small_graph
        # op_cn_mean rows (G-nets) sum to 1 where degree > 0
        sums = g.op_cn_mean.row_sums()
        assert np.allclose(sums[sums > 0], 1.0)
        sums = g.op_nc_mean.row_sums()
        assert np.allclose(sums[sums > 0], 1.0)
        sums = g.op_cc_mean.row_sums()
        assert np.allclose(sums, 1.0)  # lattice has no isolated cells

    def test_scaled_sum_proportional_to_h(self, small_graph):
        g = small_graph
        ratio = g.op_nc_scaled_sum.mat.data / g.incidence.mat.data
        assert np.allclose(ratio, ratio[0])

    def test_incidence_matches_gnets(self, small_graph):
        g = small_graph
        areas = g.incidence.col_sums()
        assert np.allclose(areas, g.gnets.features[:, 3])

    def test_congestion_rate_channel(self, small_graph):
        r = small_graph.congestion_rate(0)
        assert 0.0 <= r <= 1.0
        assert r == pytest.approx(float(small_graph.congestion[:, 0].mean()))

    def test_congestion_rate_requires_labels(self, placed_design,
                                             routing_result):
        g = build_lhgraph(placed_design, routing_result.grid, maps=None)
        with pytest.raises(ValueError):
            g.congestion_rate()

    def test_map_to_grid_roundtrip(self, small_graph):
        g = small_graph
        flat = np.arange(g.num_gcells, dtype=float)
        assert np.allclose(g.map_to_grid(flat).reshape(-1), flat)
