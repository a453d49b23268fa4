"""Tests for the placement substrate: quadratic solve, spreading, legalise."""

import numpy as np
import pytest

from repro.circuit import Design, DesignSpec, generate_design
from repro.placement import (PlacementConfig, QuadraticPlacer,
                             compute_bin_density, density_map, hpwl, legalize,
                             overlap_count, place, spread)
from repro.placement.hpwl import per_net_hpwl
from repro.placement.legalize import row_segments
from repro.placement.spreading import SpreadingConfig


@pytest.fixture
def design():
    return generate_design(DesignSpec(name="place-t", seed=21,
                                      num_movable=150, num_terminals=16,
                                      num_macros=2, die_size=32.0))


def solve_quadratic(design):
    """Quadratic-place the movable cells of ``design`` in place."""
    x, y = QuadraticPlacer(design).solve()
    design.cell_x[~design.cell_fixed] = x
    design.cell_y[~design.cell_fixed] = y


def two_cell_design():
    """One movable cell between two fixed anchors."""
    return Design(
        name="anchors",
        cell_names=["m", "f0", "f1"],
        cell_w=np.array([1.0, 1.0, 1.0]),
        cell_h=np.array([1.0, 1.0, 1.0]),
        cell_fixed=np.array([False, True, True]),
        cell_x=np.array([0.0, 0.0, 8.0]),
        cell_y=np.array([0.0, 4.0, 4.0]),
        net_names=["l", "r"],
        net_ptr=np.array([0, 2, 4]),
        pin_cell=np.array([0, 1, 0, 2]),
        pin_dx=np.array([0.5, 0.5, 0.5, 0.5]),
        pin_dy=np.array([0.5, 0.5, 0.5, 0.5]),
        die=(0.0, 0.0, 10.0, 10.0),
    )


class TestQuadratic:
    def test_movable_pulled_to_midpoint(self):
        d = two_cell_design()
        x, y = QuadraticPlacer(d).solve()
        # centre of movable = average of fixed anchors (4.5, 4.5)
        assert x[0] + 0.5 == pytest.approx(4.5, abs=1e-4)
        assert y[0] + 0.5 == pytest.approx(4.5, abs=1e-4)

    def test_reduces_hpwl(self, design):
        d = design.copy()
        before = hpwl(d)
        solve_quadratic(d)
        assert hpwl(d) < before

    def test_fixed_cells_untouched(self, design):
        d = design.copy()
        fixed_x = d.cell_x[d.cell_fixed].copy()
        solve_quadratic(d)
        assert np.allclose(d.cell_x[d.cell_fixed], fixed_x)

    def test_anchor_pull(self):
        d = two_cell_design()
        solver = QuadraticPlacer(d)
        anchors_x = np.array([9.0])
        anchors_y = np.array([9.0])
        x_weak, _ = solver.solve(anchors_x, anchors_y, anchor_weight=0.01)
        x_strong, _ = solver.solve(anchors_x, anchors_y, anchor_weight=100.0)
        assert x_strong[0] > x_weak[0]
        assert x_strong[0] + 0.5 == pytest.approx(9.0, abs=0.1)

    def test_star_model_for_large_nets(self, design):
        solver = QuadraticPlacer(design)
        deg = design.net_degree()
        if (deg > 4).any():
            assert solver._num_star == int((deg > 4).sum())

    def test_solutions_inside_die(self, design):
        d = design.copy()
        solve_quadratic(d)
        xl, yl, xh, yh = d.die
        mv = ~d.cell_fixed
        assert np.all(d.cell_x[mv] >= xl - 1e-9)
        assert np.all(d.cell_x[mv] + d.cell_w[mv] <= xh + 1e-9)


class TestSpreading:
    def test_reduces_peak_density(self, design):
        d = design.copy()
        solve_quadratic(d)  # collapses cells → dense bins
        before = compute_bin_density(d, 8, 8).max()
        spread(d, SpreadingConfig(bins_x=8, bins_y=8, iterations=20), seed=0)
        after = compute_bin_density(d, 8, 8).max()
        assert after <= before

    def test_blockage_reduces_capacity(self, design):
        density = compute_bin_density(design, 8, 8)
        assert np.isfinite(density).all()

    def test_cells_stay_inside_die(self, design):
        d = design.copy()
        spread(d, SpreadingConfig(iterations=10), seed=1)
        xl, yl, xh, yh = d.die
        mv = ~d.cell_fixed
        assert np.all(d.cell_x[mv] + d.cell_w[mv] <= xh + 1e-9)
        assert np.all(d.cell_y[mv] >= yl - 1e-9)


class TestLegalize:
    def test_no_overlaps_after(self, design):
        d = design.copy()
        solve_quadratic(d)
        legalize(d)
        assert overlap_count(d) == 0

    def test_cells_on_rows(self, design):
        d = design.copy()
        legalize(d)
        mv = ~d.cell_fixed
        offs = (d.cell_y[mv] - d.die[1]) / d.row_height
        assert np.allclose(offs, np.round(offs), atol=1e-9)

    def test_row_segments_exclude_macros(self, design):
        segments = row_segments(design)
        xl, _, xh, _ = design.die
        total_free = sum(s1 - s0 for row in segments for s0, s1 in row)
        full = len(segments) * (xh - xl)
        assert total_free < full  # macros removed some span

    def test_no_overlaps_when_rows_overfill(self):
        """Regression (hypothesis seed 122): the old overfill fallback
        blind-stacked cells at the die edge, overlapping seated cells."""
        spec = DesignSpec(seed=122, num_movable=60, num_terminals=6,
                          num_macros=1, die_size=24.0, utilization=0.3)
        d = generate_design(spec)
        legalize(d)
        assert overlap_count(d) == 0

    def test_no_overlaps_under_extreme_overfill(self):
        for seed in (4, 10, 14):  # previously-failing dense configs
            spec = DesignSpec(seed=seed, num_movable=120, num_terminals=8,
                              num_macros=2, die_size=16.0, utilization=0.6)
            d = generate_design(spec)
            legalize(d)
            assert overlap_count(d) == 0


class TestDriver:
    def test_place_end_to_end(self, design):
        d = design.copy()
        result = place(d, PlacementConfig(outer_iterations=2))
        assert result.hpwl_global <= result.hpwl_initial
        assert overlap_count(d) == 0
        assert result.hpwl_final > 0

    def test_metrics_helpers(self, design):
        values = per_net_hpwl(design)
        assert len(values) == design.num_nets
        assert hpwl(design) == pytest.approx(
            float(values[design.net_degree() >= 2].sum()))

    def test_density_map_mass_conservation(self, design):
        dm = density_map(design, 8, 8)
        xl, yl, xh, yh = design.die
        bin_area = ((xh - xl) / 8) * ((yh - yl) / 8)
        total_cell_area = float((design.cell_w * design.cell_h).sum())
        assert dm.sum() * bin_area == pytest.approx(total_cell_area, rel=0.02)
