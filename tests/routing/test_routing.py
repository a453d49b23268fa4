"""Tests for the global-routing substrate."""

import numpy as np
import pytest

from repro.circuit import DesignSpec, generate_design
from repro.placement import place
from repro.routing import (GlobalRouter, RouterConfig, RoutingGrid,
                           astar_route, best_pattern_path, congestion_rate,
                           decompose_net, extract_maps, flatten, l_paths,
                           mst_edges, path_cells, path_cost, path_edges,
                           straight_path, z_paths)


@pytest.fixture(scope="module")
def placed():
    d = generate_design(DesignSpec(name="route-t", seed=31, num_movable=150,
                                   num_terminals=12, num_macros=2,
                                   die_size=32.0))
    place(d)
    return d


@pytest.fixture
def grid(placed):
    return RoutingGrid(placed, nx=16, ny=16, capacity_h=5.0, capacity_v=5.0)


@pytest.fixture
def router(placed):
    return GlobalRouter(placed, RouterConfig(
        nx=16, ny=16, capacity_h=5.0, capacity_v=5.0))


def _edges(*cells):
    return path_edges(list(cells), 16, 16)


class TestGrid:
    def test_gcell_mapping_corners(self, grid):
        assert grid.gcell_of(0.0, 0.0) == (0, 0)
        assert grid.gcell_of(31.999, 31.999) == (15, 15)

    def test_gcell_clipping(self, grid):
        assert grid.gcell_of(-5.0, 100.0) == (0, 15)

    def test_vectorized_matches_scalar(self, grid):
        xs = np.array([0.0, 10.0, 31.0])
        ys = np.array([5.0, 15.0, 0.5])
        gx, gy = grid.gcells_of(xs, ys)
        for i in range(3):
            assert (gx[i], gy[i]) == grid.gcell_of(xs[i], ys[i])

    def test_add_remove_path_roundtrip(self, router):
        grid = router.grid
        path = _edges((0, 0), (1, 0), (1, 1))
        router.add_path(path)
        assert grid.h_usage[0, 0] == 1.0
        assert grid.v_usage[1, 0] == 1.0
        router.add_path(path, sign=-1.0)
        assert grid.h_usage.sum() == 0.0
        assert grid.v_usage.sum() == 0.0

    def test_add_path_rejects_diagonal(self):
        with pytest.raises(ValueError):
            _edges((0, 0), (1, 1))

    def test_overflow_accounting(self, router):
        for _ in range(7):
            router.add_path(_edges((0, 0), (1, 0)))
        oh, _ = router.grid.edge_overflow()
        assert oh[0, 0] == pytest.approx(2.0)
        assert router.grid.total_overflow() == pytest.approx(2.0)

    def test_history_bumps_only_overflowed(self, router):
        for _ in range(7):
            router.add_path(_edges((0, 0), (1, 0)))
        router.bump_history()
        assert router.grid.h_history[0, 0] == 0.5
        assert router.grid.h_history[1, 0] == 0.0
        assert router.cost[0] == 1.5 + 4.0 * 3.0

    def test_macro_blockage_derates_capacity(self, placed):
        g = RoutingGrid(placed, nx=16, ny=16, capacity_h=5.0, capacity_v=5.0)
        # At least one edge must be derated (design has macros).
        assert g.h_capacity.min() < 5.0 or g.v_capacity.min() < 5.0

    def test_edge_arrays_write_back(self, grid):
        grid.v_usage = np.full((16, 15), 2.0)
        assert grid.v_usage.sum() == 2.0 * 16 * 15
        assert grid.h_usage.sum() == 0.0
        assert sum(grid.usage) == 2.0 * 16 * 15


class TestSteiner:
    def test_mst_edge_count(self):
        pts = [(0, 0), (5, 0), (0, 5), (5, 5)]
        assert len(mst_edges(pts)) == 3

    def test_mst_total_length_is_minimal_for_line(self):
        pts = [(0, 0), (2, 0), (1, 0)]
        edges = mst_edges(pts)
        total = sum(abs(pts[i][0] - pts[j][0]) for i, j in edges)
        assert total == 2  # chain, not star

    def test_decompose_small(self):
        assert decompose_net([(0, 0)]) == []
        assert len(decompose_net([(0, 0), (3, 3)])) == 1

    def test_decompose_connects_all(self):
        pts = [(0, 0), (4, 1), (2, 6), (7, 7), (1, 3)]
        segs = decompose_net(pts)
        assert len(segs) == len(pts) - 1
        touched = {p for seg in segs for p in seg}
        assert touched == set(pts)


class TestPattern:
    def test_straight_path_horizontal(self):
        p = straight_path((1, 2), (4, 2), 16, 16)
        assert p == _edges((1, 2), (2, 2), (3, 2), (4, 2))

    def test_straight_path_reverse(self):
        p = straight_path((4, 2), (1, 2), 16, 16)
        assert path_cells((4, 2), p, 16, 16)[-1] == (1, 2)
        p = straight_path((3, 5), (3, 0), 16, 16)
        assert path_cells((3, 5), p, 16, 16) == [(3, y) for y in range(5, -1, -1)]

    def test_straight_rejects_diagonal(self):
        with pytest.raises(ValueError):
            straight_path((0, 0), (1, 1), 16, 16)

    def test_l_paths_two_options(self):
        paths = l_paths((0, 0), (3, 2), 16, 16)
        assert len(paths) == 2
        for p in paths:
            cells = path_cells((0, 0), p, 16, 16)
            assert cells[-1] == (3, 2)
            assert len(cells) == 6  # L1 distance 5 → 6 cells

    def test_l_paths_aligned_single(self):
        assert len(l_paths((0, 0), (0, 4), 16, 16)) == 1

    def test_z_paths_have_jog(self):
        paths = z_paths((0, 0), (4, 4), 16, 16)
        assert paths
        for p in paths:
            assert path_cells((0, 0), p, 16, 16)[-1] == (4, 4)

    def test_path_cost_uses_direction_arrays(self):
        h = np.ones((3, 4))
        v = np.full((4, 3), 10.0)
        p = path_edges([(0, 0), (1, 0), (1, 1)], 4, 4)
        assert path_cost(p, flatten(h, v)) == pytest.approx(11.0)

    def test_best_pattern_avoids_congested(self):
        h = np.ones((4, 5))
        v = np.ones((5, 4))
        h[:, 0] = 100.0  # bottom row expensive
        cost = flatten(h, v)
        best = best_pattern_path((0, 0), (3, 3), cost, 5, 5)
        assert path_cost(best, cost) < 100.0  # went up first


def _astar(a, b, h, v, **kwargs):
    """A* on (H, V) cost arrays, as a G-cell walk."""
    nx, ny = v.shape[0], h.shape[1]
    return path_cells(a, astar_route(a, b, flatten(h, v), nx, ny, **kwargs),
                      nx, ny)


class TestAStar:
    def test_shortest_path_uniform_cost(self):
        h = np.ones((7, 8))
        v = np.ones((8, 7))
        p = _astar((0, 0), (5, 5), h, v)
        assert p[0] == (0, 0) and p[-1] == (5, 5)
        assert len(p) == 11  # L1 distance 10

    def test_detours_around_wall(self):
        h = np.ones((7, 8))
        v = np.ones((8, 7))
        v[0:7, 3] = 1000.0  # wall on vertical edges at y=3→4, x<7
        p = _astar((0, 0), (0, 7), h, v, bbox_margin=None)
        # must pass through x=7 to cross the wall cheaply
        assert any(x == 7 for x, _ in p)

    def test_same_start_goal(self):
        h = np.ones((3, 4))
        v = np.ones((4, 3))
        assert astar_route((1, 1), (1, 1), flatten(h, v), 4, 4) == []
        assert _astar((1, 1), (1, 1), h, v) == [(1, 1)]

    def test_path_cells_adjacent(self):
        h = np.ones((7, 8)) + np.random.default_rng(0).random((7, 8))
        v = np.ones((8, 7)) + np.random.default_rng(1).random((8, 7))
        p = _astar((0, 0), (6, 6), h, v)
        assert p[-1] == (6, 6)
        for (ax, ay), (bx, by) in zip(p, p[1:]):
            assert abs(ax - bx) + abs(ay - by) == 1


class TestGlobalRouter:
    def test_run_produces_usage(self, placed):
        cfg = RouterConfig(nx=16, ny=16, capacity_h=8.0, capacity_v=8.0,
                           rrr_iterations=2)
        result = GlobalRouter(placed.copy(), cfg).run()
        grid = result.grid
        assert grid.h_usage.sum() + grid.v_usage.sum() > 0
        assert result.num_segments > 0

    def test_rrr_never_increases_overflow_much(self, placed):
        cfg = RouterConfig(nx=16, ny=16, capacity_h=6.0, capacity_v=6.0,
                           rrr_iterations=4)
        result = GlobalRouter(placed.copy(), cfg).run()
        history = result.overflow_history
        assert history[-1] <= history[0]

    def test_capacity_factor_scales(self, placed):
        d = placed.copy()
        d.metadata["capacity_factor"] = 2.0
        router = GlobalRouter(d, RouterConfig(nx=16, ny=16, capacity_h=5.0,
                                              capacity_v=5.0))
        assert router.grid.h_capacity.max() == pytest.approx(10.0)

    def test_maps_extraction(self, placed):
        cfg = RouterConfig(nx=16, ny=16, rrr_iterations=1)
        result = GlobalRouter(placed.copy(), cfg).run()
        maps = extract_maps(result.grid)
        assert maps.demand_h.shape == (16, 16)
        assert (maps.demand_h >= 0).all()
        assert maps.congestion_h.dtype == bool
        rate = congestion_rate(maps, "h")
        assert 0.0 <= rate <= 1.0
        assert congestion_rate(maps, "any") >= max(
            congestion_rate(maps, "h"), congestion_rate(maps, "v"))

    def test_congestion_rate_bad_channel(self, placed):
        cfg = RouterConfig(nx=16, ny=16, rrr_iterations=0)
        result = GlobalRouter(placed.copy(), cfg).run()
        maps = extract_maps(result.grid)
        with pytest.raises(ValueError):
            congestion_rate(maps, "x")

    def test_higher_capacity_less_congestion(self, placed):
        rates = []
        for cap in (4.0, 16.0):
            cfg = RouterConfig(nx=16, ny=16, capacity_h=cap, capacity_v=cap,
                               rrr_iterations=2)
            result = GlobalRouter(placed.copy(), cfg).run()
            rates.append(congestion_rate(extract_maps(result.grid), "h"))
        assert rates[1] <= rates[0]
