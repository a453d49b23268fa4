"""Tests for the synthetic superblue-like benchmark generator."""

import numpy as np
import pytest

from repro.circuit import (DesignSpec, generate_design, superblue_suite,
                           validate_design)
from repro.circuit.generator import SUPERBLUE_IDS


class TestGenerateDesign:
    def test_deterministic_in_seed(self):
        a = generate_design(DesignSpec(seed=5, num_movable=100))
        b = generate_design(DesignSpec(seed=5, num_movable=100))
        assert np.allclose(a.cell_x, b.cell_x)
        assert np.array_equal(a.pin_cell, b.pin_cell)

    def test_different_seeds_differ(self):
        a = generate_design(DesignSpec(seed=5, num_movable=100))
        b = generate_design(DesignSpec(seed=6, num_movable=100))
        assert not np.allclose(a.cell_x, b.cell_x)

    def test_valid(self):
        d = generate_design(DesignSpec(seed=0, num_movable=150))
        assert validate_design(d) == []

    def test_counts_match_spec(self):
        spec = DesignSpec(seed=1, num_movable=200, num_terminals=24)
        d = generate_design(spec)
        assert d.num_movable == 200
        # terminals = pads + macros
        assert d.num_terminals >= 24

    def test_net_degrees_at_least_two(self):
        d = generate_design(DesignSpec(seed=2, num_movable=150))
        assert d.net_degree().min() >= 2

    def test_net_degrees_capped(self):
        spec = DesignSpec(seed=3, num_movable=300, max_degree=10)
        d = generate_design(spec)
        assert d.net_degree().max() <= 10

    def test_cells_inside_die(self):
        d = generate_design(DesignSpec(seed=4, num_movable=150))
        xl, yl, xh, yh = d.die
        assert np.all(d.cell_x >= xl - 1e-9)
        assert np.all(d.cell_y >= yl - 1e-9)
        assert np.all(d.cell_x + d.cell_w <= xh + 1e-9)

    def test_pin_offsets_inside_cells(self):
        d = generate_design(DesignSpec(seed=5, num_movable=150))
        assert np.all(d.pin_dx >= 0)
        assert np.all(d.pin_dx <= d.cell_w[d.pin_cell] + 1e-9)
        assert np.all(d.pin_dy <= d.cell_h[d.pin_cell] + 1e-9)

    def test_no_duplicate_pins_within_net(self):
        d = generate_design(DesignSpec(seed=6, num_movable=150))
        for net in range(d.num_nets):
            s = d.net_pin_slice(net)
            cells = d.pin_cell[s.start:s.stop]
            assert len(set(cells.tolist())) == len(cells)

    def test_capacity_factor_in_metadata(self):
        d = generate_design(DesignSpec(seed=7, capacity_factor=1.3))
        assert d.metadata["capacity_factor"] == pytest.approx(1.3)

    def test_utilization_respected(self):
        spec = DesignSpec(seed=8, num_movable=400, utilization=0.4,
                          die_size=64.0)
        d = generate_design(spec)
        movable_area = float((d.cell_w * d.cell_h)[~d.cell_fixed].sum())
        die_area = 64.0 * 64.0
        assert 0.25 < movable_area / die_area < 0.55


class TestSuite:
    def test_fifteen_designs(self):
        suite = superblue_suite(scale=0.2)
        assert len(suite) == 15
        assert len(SUPERBLUE_IDS) == 15

    def test_names_match_paper_ids(self):
        names = {d.name for d in superblue_suite(scale=0.2)}
        assert "superblue1" in names
        assert "superblue19" in names
        assert "superblue8" not in names  # not in the paper's 15

    def test_deterministic(self):
        a = superblue_suite(scale=0.2)
        b = superblue_suite(scale=0.2)
        assert all(np.allclose(x.cell_x, y.cell_x) for x, y in zip(a, b))

    def test_capacity_diversity(self):
        suite = superblue_suite(scale=0.2)
        factors = [d.metadata["capacity_factor"] for d in suite]
        assert max(factors) - min(factors) > 0.3

    def test_scale_changes_size(self):
        small = superblue_suite(scale=0.2)[0]
        large = superblue_suite(scale=1.0)[0]
        assert large.num_movable > small.num_movable
