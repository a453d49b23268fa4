"""Crafted G-cell feature maps.

The reference implementations of the hand-designed features CNN models use
(paper §2.2, §3.2):

* horizontal / vertical **net density** — each net adds ``1/span_v``
  (horizontal) or ``1/span_h`` (vertical) to every G-cell of its G-net,
* **pin density** — pins per G-cell at the current placement,
* **terminal mask** — binary mask of G-cells covered by fixed cells,
* **RUDY** — each net adds ``npin · (span_h + span_v) / area`` over its
  G-net (the fast routing-demand estimate of Spindler & Johannes).

The paper's central observation (§3.2) is that the first three are exactly
one-step message passing on the LH-graph; tests in
``tests/features/test_recovery.py`` and the Figure-2 benchmark verify our
graph reproduces each of these maps to machine precision.

All map builders are closed forms over axis-aligned boxes, so they are
evaluated with the 2-D difference-array (summed-area) trick: each G-net
deposits ``+w`` / ``−w`` at its four box corners and two cumulative sums
materialise the dense map — O(nets + nx·ny) instead of O(nets · area).
The original per-net loops are kept as private ``_*_reference``
implementations and pinned by regression tests in
``tests/features/test_features.py``.
"""

from __future__ import annotations

import numpy as np

from ..circuit.design import Design
from ..routing.grid import RoutingGrid
from .gnet import GNetData

__all__ = ["net_density_maps", "rudy_map", "gcell_feature_stack"]

GCELL_FEATURE_NAMES = ("net_density_h", "net_density_v",
                       "pin_density", "terminal_mask")


def _scatter_boxes(nx: int, ny: int, gx0: np.ndarray, gx1: np.ndarray,
                   gy0: np.ndarray, gy1: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Add ``weights[i]`` over inclusive box ``[gx0..gx1] × [gy0..gy1]``.

    2-D difference array: four corner deposits per box, then a summed-area
    pass.  The scratch array is one cell wider per axis so the ``x1+1`` /
    ``y1+1`` corners never need clipping.  All pipeline weights are
    non-negative, so cancellation residues of the cumulative sums (≈1e-17
    where the exact value is 0) are clamped away.
    """
    diff = np.zeros((nx + 1, ny + 1))
    np.add.at(diff, (gx0, gy0), weights)
    np.add.at(diff, (gx1 + 1, gy0), -weights)
    np.add.at(diff, (gx0, gy1 + 1), -weights)
    np.add.at(diff, (gx1 + 1, gy1 + 1), weights)
    return np.maximum(diff.cumsum(axis=0).cumsum(axis=1)[:nx, :ny], 0.0)


def net_density_maps(gnets: GNetData, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical net density maps, shape ``(nx, ny)`` each.

    Horizontal wires are assumed uniformly distributed over the G-net's
    rows, so each covered G-cell receives ``1/span_v`` horizontal density
    (paper Figure 2(a)); symmetrically ``1/span_h`` for vertical.
    """
    if gnets.num_gnets == 0:
        return np.zeros((nx, ny)), np.zeros((nx, ny))
    span_v = gnets.features[:, 0]
    span_h = gnets.features[:, 1]
    h = _scatter_boxes(nx, ny, gnets.gx0, gnets.gx1, gnets.gy0, gnets.gy1,
                       1.0 / span_v)
    v = _scatter_boxes(nx, ny, gnets.gx0, gnets.gx1, gnets.gy0, gnets.gy1,
                       1.0 / span_h)
    return h, v


def _net_density_maps_reference(gnets: GNetData, nx: int,
                                ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-G-net loop implementation (regression reference)."""
    h = np.zeros((nx, ny))
    v = np.zeros((nx, ny))
    for i in range(gnets.num_gnets):
        span_v, span_h = gnets.features[i, 0], gnets.features[i, 1]
        sl = (slice(gnets.gx0[i], gnets.gx1[i] + 1),
              slice(gnets.gy0[i], gnets.gy1[i] + 1))
        h[sl] += 1.0 / span_v
        v[sl] += 1.0 / span_h
    return h, v


def pin_density_map(design: Design, grid: RoutingGrid) -> np.ndarray:
    """Number of pins per G-cell at the current placement."""
    px, py = design.pin_positions()
    gx, gy = grid.gcells_of(px, py)
    out = np.zeros((grid.nx, grid.ny))
    np.add.at(out, (gx, gy), 1.0)
    return out


def terminal_mask(design: Design, grid: RoutingGrid) -> np.ndarray:
    """Binary mask of G-cells covered by any fixed (terminal/macro) cell."""
    fixed = np.flatnonzero(design.cell_fixed)
    if len(fixed) == 0:
        return np.zeros((grid.nx, grid.ny))
    gx0, gy0 = grid.gcells_of(design.cell_x[fixed], design.cell_y[fixed])
    gx1, gy1 = grid.gcells_of(
        design.cell_x[fixed] + design.cell_w[fixed] - 1e-9,
        design.cell_y[fixed] + design.cell_h[fixed] - 1e-9)
    counts = _scatter_boxes(grid.nx, grid.ny, gx0, gx1, gy0, gy1,
                            np.ones(len(fixed)))
    return (counts > 0.5).astype(np.float64)


def _terminal_mask_reference(design: Design, grid: RoutingGrid) -> np.ndarray:
    """Per-fixed-cell loop implementation (regression reference)."""
    out = np.zeros((grid.nx, grid.ny))
    for cid in np.flatnonzero(design.cell_fixed):
        gx0, gy0 = grid.gcell_of(design.cell_x[cid], design.cell_y[cid])
        gx1, gy1 = grid.gcell_of(design.cell_x[cid] + design.cell_w[cid] - 1e-9,
                                 design.cell_y[cid] + design.cell_h[cid] - 1e-9)
        out[gx0:gx1 + 1, gy0:gy1 + 1] = 1.0
    return out


def rudy_map(gnets: GNetData, nx: int, ny: int) -> np.ndarray:
    """RUDY demand estimate: ``npin · (span_h + span_v) / area`` per G-net."""
    if gnets.num_gnets == 0:
        return np.zeros((nx, ny))
    span_v, span_h, npin, area = gnets.features.T
    return _scatter_boxes(nx, ny, gnets.gx0, gnets.gx1, gnets.gy0, gnets.gy1,
                          npin * (span_h + span_v) / area)


def _rudy_map_reference(gnets: GNetData, nx: int, ny: int) -> np.ndarray:
    """Per-G-net loop implementation (regression reference)."""
    out = np.zeros((nx, ny))
    for i in range(gnets.num_gnets):
        span_v, span_h, npin, area = gnets.features[i]
        sl = (slice(gnets.gx0[i], gnets.gx1[i] + 1),
              slice(gnets.gy0[i], gnets.gy1[i] + 1))
        out[sl] += npin * (span_h + span_v) / area
    return out


def gcell_feature_stack(design: Design, grid: RoutingGrid,
                        gnets: GNetData) -> np.ndarray:
    """The paper's 4-channel G-cell input feature, shape ``(nx, ny, 4)``.

    Channels follow :data:`GCELL_FEATURE_NAMES`: horizontal net density,
    vertical net density, pin density, terminal mask.
    """
    h, v = net_density_maps(gnets, grid.nx, grid.ny)
    pins = pin_density_map(design, grid)
    term = terminal_mask(design, grid)
    return np.stack([h, v, pins, term], axis=-1)
