"""Bit-exactness of the vectorised legaliser against its per-slot loop.

``legalize`` scores all row segments and fallback slots of a cell at once
and takes the first ``argmin``; ``_legalize_reference`` walks them with a
strict ``<``.  Both must seat every cell on the same row at the same
bits: legal positions feed routing, and the place stage's cache version
relies on the products being unchanged.
"""

import numpy as np
import pytest

from repro.circuit import DesignSpec, generate_design
from repro.circuit.generator import hotspot_suite, macro_heavy_suite
from repro.placement import QuadraticPlacer, legalize, spread
from repro.placement.legalize import _legalize_reference


def _assert_exact(design):
    fast, slow = design.copy(), design.copy()
    legalize(fast)
    _legalize_reference(slow)
    assert fast.cell_x.tobytes() == slow.cell_x.tobytes()
    assert fast.cell_y.tobytes() == slow.cell_y.tobytes()


@pytest.fixture(scope="module")
def spread_designs():
    """Suite designs in their pre-legalisation state (quadratic + spread)."""
    designs = hotspot_suite(scale=0.2)[:2] + macro_heavy_suite(scale=0.2)[:2]
    for design in designs:
        x, y = QuadraticPlacer(design).solve()
        design.cell_x[~design.cell_fixed] = x
        design.cell_y[~design.cell_fixed] = y
        spread(design, seed=0)
    return designs


def test_suite_designs_exact(spread_designs):
    for design in spread_designs:
        _assert_exact(design)


def test_generated_positions_exact():
    # Unplaced generator output: cells pile up, so many slots tie.
    for seed in range(4):
        _assert_exact(generate_design(DesignSpec(
            seed=seed, num_movable=80, num_terminals=6, num_macros=2,
            die_size=20.0)))


def test_overfilled_rows_exact():
    # Dense dies where the overfill fallback slots win.
    for seed in (4, 10, 14, 122):
        _assert_exact(generate_design(DesignSpec(
            seed=seed, num_movable=120, num_terminals=8, num_macros=2,
            die_size=16.0, utilization=0.6)))


def test_fully_blocked_rows_exact():
    design = generate_design(DesignSpec(seed=3, num_movable=30,
                                        num_terminals=4, num_macros=0,
                                        die_size=12.0))
    # One fixed macro over the whole die leaves no free segment.
    design.cell_fixed[0] = True
    xl, yl, xh, yh = design.die
    design.cell_x[0], design.cell_y[0] = xl, yl
    design.cell_w[0], design.cell_h[0] = xh - xl, yh - yl
    _assert_exact(design)
    jittered = design.copy()
    jittered.cell_x = jittered.cell_x + np.random.default_rng(0).normal(
        0.0, 3.0, jittered.num_cells)
    _assert_exact(jittered)
