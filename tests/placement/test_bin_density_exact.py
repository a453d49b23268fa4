"""Bit-exactness of the vectorised bin-overlap kernel against its loop.

``compute_bin_density`` and ``density_map`` share one vectorised overlap
kernel (:func:`repro.placement.spreading._bin_overlap_area`).  It must
return the same bits as the per-cell loop reference, not merely close
values: placement feeds the density back into every spreading step, so
one differing ulp would move cells, routes and labels, and the place
stage's cache version relies on the results being unchanged.
"""

import numpy as np
import pytest

from repro.circuit import Design
from repro.circuit.generator import hotspot_suite, macro_heavy_suite
from repro.placement import compute_bin_density, density_map
from repro.placement.spreading import (_bin_overlap_area_reference,
                                       _compute_bin_density_reference)

BINS = [(16, 16), (8, 5), (1, 3), (32, 32)]


def _density_map_reference(design, bins_x, bins_y, movable_only):
    xl, yl, xh, yh = design.die
    mask = (~design.cell_fixed if movable_only
            else np.ones(design.num_cells, bool))
    area = _bin_overlap_area_reference(design, mask, bins_x, bins_y)
    return area / (((xh - xl) / bins_x) * ((yh - yl) / bins_y))


def _assert_exact(design):
    for bins_x, bins_y in BINS:
        assert np.array_equal(
            compute_bin_density(design, bins_x, bins_y),
            _compute_bin_density_reference(design, bins_x, bins_y))
        for movable_only in (False, True):
            assert np.array_equal(
                density_map(design, bins_x, bins_y, movable_only),
                _density_map_reference(design, bins_x, bins_y, movable_only))


def _jitter(design, seed, sigma):
    """Random displacement large enough to push cells across the die edge."""
    rng = np.random.default_rng(seed)
    moved = design.copy()
    moved.cell_x = moved.cell_x + rng.normal(0.0, sigma, moved.num_cells)
    moved.cell_y = moved.cell_y + rng.normal(0.0, sigma, moved.num_cells)
    return moved


def _overhangs(design):
    xl, yl, xh, yh = design.die
    return bool(np.any((design.cell_x < xl) | (design.cell_y < yl)
                       | (design.cell_x + design.cell_w > xh)
                       | (design.cell_y + design.cell_h > yh)))


@pytest.fixture(scope="module")
def suite_designs():
    return hotspot_suite(scale=0.2)[:2] + macro_heavy_suite(scale=0.2)[:2]


def test_suite_designs_exact(suite_designs):
    for design in suite_designs:
        _assert_exact(design)


def test_jittered_suite_designs_exact(suite_designs):
    for k, design in enumerate(suite_designs):
        xl, _, xh, _ = design.die
        moved = _jitter(design, seed=k, sigma=0.1 * (xh - xl))
        assert _overhangs(moved)
        _assert_exact(moved)


def test_edge_straddling_cells_and_wide_macro_exact():
    # Die 10×8: cells overhang every edge and corner, one sits entirely
    # outside, one has zero width, and a fixed macro spans most bins.
    x = np.array([-1.5, 9.2, 3.3, -2.0, 4.0, 12.0, 5.0, 0.0, 0.7])
    y = np.array([2.0, 7.5, -0.4, -1.0, 3.0, 3.0, 1.0, 0.0, 7.9])
    w = np.array([2.0, 3.0, 1.1, 2.5, 0.0, 1.0, 1.0, 9.9, 0.4])
    h = np.array([1.0, 1.0, 0.9, 1.5, 1.0, 1.0, 2.0, 7.9, 0.3])
    fixed = np.zeros(len(x), bool)
    fixed[7] = True
    n = len(x)
    design = Design(
        name="edges", cell_names=[f"c{i}" for i in range(n)],
        cell_w=w, cell_h=h, cell_fixed=fixed, cell_x=x, cell_y=y,
        net_names=[], net_ptr=np.zeros(1, np.int64),
        pin_cell=np.zeros(0, np.int64), pin_dx=np.zeros(0),
        pin_dy=np.zeros(0), die=(0.0, 0.0, 10.0, 8.0))
    assert _overhangs(design)
    _assert_exact(design)
    # Repeated accumulation into one bin keeps the loop's summation order.
    _assert_exact(_jitter(design, seed=3, sigma=0.05))
