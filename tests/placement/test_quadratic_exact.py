"""Bit-exactness of the planned quadratic assembly against its edge loop.

``QuadraticPlacer._assemble`` sums the Laplacian diagonal and ``b`` with
``np.bincount`` over a plan built once per placer; the kept
``_assemble_reference`` adds edge by edge.  ``(L, b)`` must match to the
bit, sparse structure included, so conjugate gradients take the same
steps and the placement products do not change.
"""

import numpy as np
import pytest

from repro.circuit import DesignSpec, generate_design
from repro.circuit.generator import hotspot_suite, macro_heavy_suite
from repro.placement import QuadraticPlacer


def _same_system(got, want):
    (lap, b), (ref_lap, ref_b) = got, want
    assert b.dtype == ref_b.dtype and b.tobytes() == ref_b.tobytes()
    assert lap.shape == ref_lap.shape
    for attr in ("data", "indices", "indptr"):
        assert getattr(lap, attr).dtype == getattr(ref_lap, attr).dtype
        assert getattr(lap, attr).tobytes() == getattr(ref_lap, attr).tobytes()


def _assert_exact(design, seed=0):
    placer = QuadraticPlacer(design)
    rng = np.random.default_rng(seed)
    num_mov = int((~design.cell_fixed).sum())
    for axis_pos in (design.cell_x + design.cell_w / 2.0,
                     design.cell_y + design.cell_h / 2.0):
        anchors = axis_pos[~design.cell_fixed] + rng.normal(0, 1, num_mov)
        for args in ((None, 0.0), (anchors, 0.15), (anchors, 0.0)):
            _same_system(placer._assemble(axis_pos, *args),
                         placer._assemble_reference(axis_pos, *args))


@pytest.mark.parametrize("suite", [hotspot_suite, macro_heavy_suite])
def test_suite_designs_exact(suite):
    for design in suite(scale=0.2)[:2]:
        _assert_exact(design)


def test_generated_designs_exact():
    for seed in range(3):
        _assert_exact(generate_design(DesignSpec(
            seed=seed, num_movable=60, num_terminals=10, num_macros=2,
            die_size=20.0)), seed)


def test_no_fixed_neighbours_exact():
    # No edge touches a fixed cell: b has no terms before the anchors.
    design = generate_design(DesignSpec(seed=5, num_movable=30,
                                        num_terminals=4, num_macros=0,
                                        die_size=12.0))
    design.cell_fixed[:] = False
    placer = QuadraticPlacer(design)
    assert len(placer._b_idx) == 0
    _assert_exact(design)
