"""Tests for Design containers and validation."""

import numpy as np
import pytest

from repro.circuit import Design, validate_design


def make_design() -> Design:
    """Hand-built 3-cell, 2-net design used across tests."""
    return Design(
        name="hand",
        cell_names=["a", "b", "t0"],
        cell_w=np.array([2.0, 2.0, 1.0]),
        cell_h=np.array([1.0, 1.0, 1.0]),
        cell_fixed=np.array([False, False, True]),
        cell_x=np.array([0.0, 4.0, 9.0]),
        cell_y=np.array([0.0, 2.0, 9.0]),
        net_names=["n0", "n1"],
        net_ptr=np.array([0, 2, 4]),
        pin_cell=np.array([0, 1, 1, 2]),
        pin_dx=np.array([1.0, 1.0, 0.0, 0.5]),
        pin_dy=np.array([0.5, 0.5, 0.5, 0.5]),
        die=(0.0, 0.0, 10.0, 10.0),
    )


class TestDesignBasics:
    def test_counts(self):
        d = make_design()
        assert d.num_cells == 3
        assert d.num_movable == 2
        assert d.num_terminals == 1
        assert d.num_nets == 2
        assert d.num_pins == 4

    def test_net_pin_slice(self):
        d = make_design()
        assert d.net_pin_slice(0) == slice(0, 2)
        assert d.net_pin_slice(1) == slice(2, 4)

    def test_net_degree(self):
        assert np.array_equal(make_design().net_degree(), [2, 2])

    def test_pin_positions(self):
        d = make_design()
        px, py = d.pin_positions()
        assert np.allclose(px, [1.0, 5.0, 4.0, 9.5])
        assert np.allclose(py, [0.5, 2.5, 2.5, 9.5])

    def test_bounding_boxes(self):
        d = make_design()
        boxes = d.net_bounding_boxes()
        assert np.allclose(boxes[0], [1.0, 0.5, 5.0, 2.5])
        assert np.allclose(boxes[1], [4.0, 2.5, 9.5, 9.5])

    def test_hpwl_value(self):
        d = make_design()
        # net0: (5-1) + (2.5-0.5) = 6; net1: (9.5-4) + (9.5-2.5) = 12.5
        assert d.hpwl() == pytest.approx(18.5)

    def test_copy_is_deep_for_arrays(self):
        d = make_design()
        c = d.copy()
        c.cell_x[0] = 99.0
        assert d.cell_x[0] == 0.0


class TestValidation:
    def test_valid_design_passes(self):
        assert validate_design(make_design()) == []

    def test_bad_pin_index(self):
        d = make_design()
        d.pin_cell[0] = 10
        assert any("pin_cell" in p for p in validate_design(d))

    def test_bad_net_ptr(self):
        d = make_design()
        d.net_ptr[1] = 5
        assert validate_design(d)

    def test_degenerate_die(self):
        d = make_design()
        d.die = (0.0, 0.0, 0.0, 10.0)
        assert any("die" in p for p in validate_design(d))

    def test_nonpositive_cell_size(self):
        d = make_design()
        d.cell_w[0] = 0.0
        assert any("sizes" in p for p in validate_design(d))


class TestDegenerateNets:
    def test_single_pin_net_boxes(self):
        d = make_design()
        d.net_ptr = np.array([0, 1, 4])
        boxes = d.net_bounding_boxes()
        # Single-pin net collapses to a point.
        assert boxes[0, 0] == boxes[0, 2]

    def test_hpwl_ignores_degenerate(self):
        d = make_design()
        d.net_ptr = np.array([0, 1, 4])
        # only net1 with 3 pins counts
        assert d.hpwl() > 0
