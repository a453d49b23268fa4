"""Bin-density-based cell spreading.

Quadratic placement collapses cells toward net centres; routability-driven
placers then *spread* cells to meet a density target.  This module
implements a light-weight diffusion spreader in the SimPL spirit: compute
bin densities (with fixed macros as blockage), derive a displacement field
pushing cells from over-full toward under-full bins, and move cells along
it.  The placement driver alternates spreading with anchored quadratic
re-solves.

Bin density is the hot kernel (it runs once per diffusion step).
:func:`_bin_overlap_area` evaluates it without a per-cell loop: every
cell is expanded into its (cell, bin-x, bin-y) candidate triples in the
loop's own order (``np.repeat`` over ``cumsum`` offsets), each overlap is
computed with the same IEEE operations as the loop, and one
``np.bincount`` per cell class adds the areas.  ``bincount`` accumulates
in input order, so every bin receives the same float sum in the same
order as the loop: the result is **bit-identical**, not merely close,
which is why the place stage's cache ``version`` did not change.  The
original per-cell loop is kept as :func:`_bin_overlap_area_reference`
(wrapped by :func:`_compute_bin_density_reference`) and pinned with
``np.array_equal`` by ``tests/placement/test_bin_density_exact.py``.
:func:`repro.placement.hpwl.density_map` shares the same kernel.
"""

from __future__ import annotations

import numpy as np

from ..circuit.design import Design

__all__ = ["SpreadingConfig", "compute_bin_density", "spread_step", "spread"]


class SpreadingConfig:
    """Tuning knobs for the diffusion spreader.

    Attributes
    ----------
    bins_x, bins_y: spreading-grid resolution.
    target_density: desired max bin utilisation.
    step: displacement scale per iteration (in bin widths).
    iterations: number of diffusion steps per :func:`spread` call.
    """

    def __init__(self, bins_x: int = 16, bins_y: int = 16,
                 target_density: float = 0.9, step: float = 0.7,
                 iterations: int = 12):
        self.bins_x = bins_x
        self.bins_y = bins_y
        self.target_density = target_density
        self.step = step
        self.iterations = iterations


def _bin_overlap_area(design: Design, mask: np.ndarray,
                      bins_x: int, bins_y: int) -> np.ndarray:
    """Overlap area of the cells selected by ``mask`` with every bin.

    Cells are clipped to the die: the parts outside the bin grid are not
    counted.  Bit-identical to :func:`_bin_overlap_area_reference`.
    """
    xl, yl, xh, yh = design.die
    bw = (xh - xl) / bins_x
    bh = (yh - yl) / bins_y
    lo_x = design.cell_x[mask]
    lo_y = design.cell_y[mask]
    hi_x = lo_x + design.cell_w[mask]
    hi_y = lo_y + design.cell_h[mask]
    x0 = np.clip((lo_x - xl) / bw, 0, bins_x - 1).astype(np.int64)
    x1 = np.clip((hi_x - xl) / bw, 0, bins_x - 1).astype(np.int64)
    y0 = np.clip((lo_y - yl) / bh, 0, bins_y - 1).astype(np.int64)
    y1 = np.clip((hi_y - yl) / bh, 0, bins_y - 1).astype(np.int64)
    span_y = np.maximum(y1 - y0 + 1, 0)
    count = np.maximum(x1 - x0 + 1, 0) * span_y
    # One row per (cell, bx, by) candidate, in the loop's cell → bx → by
    # order: ``k`` is the row's offset inside its cell's block.
    cell = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
    bx = x0[cell] + k // span_y[cell]
    by = y0[cell] + k % span_y[cell]
    ox = (np.minimum(hi_x[cell], xl + (bx + 1) * bw)
          - np.maximum(lo_x[cell], xl + bx * bw))
    oy = (np.minimum(hi_y[cell], yl + (by + 1) * bh)
          - np.maximum(lo_y[cell], yl + by * bh))
    keep = (ox > 0) & (oy > 0)
    area = np.bincount((bx * bins_y + by)[keep], weights=(ox * oy)[keep],
                       minlength=bins_x * bins_y)
    return area.reshape(bins_x, bins_y)


def _bin_overlap_area_reference(design: Design, mask: np.ndarray,
                                bins_x: int, bins_y: int) -> np.ndarray:
    """Per-cell loop reference of :func:`_bin_overlap_area`."""
    xl, yl, xh, yh = design.die
    bw = (xh - xl) / bins_x
    bh = (yh - yl) / bins_y
    area = np.zeros((bins_x, bins_y))
    cx = design.cell_x
    cy = design.cell_y
    cw = design.cell_w
    ch = design.cell_h
    for i in np.flatnonzero(mask):
        x0 = int(np.clip((cx[i] - xl) / bw, 0, bins_x - 1))
        x1 = int(np.clip((cx[i] + cw[i] - xl) / bw, 0, bins_x - 1))
        y0 = int(np.clip((cy[i] - yl) / bh, 0, bins_y - 1))
        y1 = int(np.clip((cy[i] + ch[i] - yl) / bh, 0, bins_y - 1))
        for bx in range(x0, x1 + 1):
            ox = min(cx[i] + cw[i], xl + (bx + 1) * bw) - max(cx[i], xl + bx * bw)
            if ox <= 0:
                continue
            for by in range(y0, y1 + 1):
                oy = min(cy[i] + ch[i], yl + (by + 1) * bh) - max(cy[i], yl + by * bh)
                if oy > 0:
                    area[bx, by] += ox * oy
    return area


def _bin_density(design: Design, bins_x: int, bins_y: int,
                 overlap_area) -> np.ndarray:
    xl, yl, xh, yh = design.die
    bin_area = ((xh - xl) / bins_x) * ((yh - yl) / bins_y)
    movable_area = overlap_area(design, ~design.cell_fixed, bins_x, bins_y)
    blocked_area = overlap_area(design, design.cell_fixed, bins_x, bins_y)
    capacity = np.maximum(bin_area - blocked_area, 0.05 * bin_area)
    return movable_area / capacity


def compute_bin_density(design: Design, bins_x: int, bins_y: int) -> np.ndarray:
    """Movable-area density per bin, normalised by *free* bin capacity.

    Fixed-cell (macro) area is subtracted from each bin's capacity, so a
    bin fully covered by a macro has effectively zero capacity and reports
    very high density whenever any movable cell sits on it.
    """
    return _bin_density(design, bins_x, bins_y, _bin_overlap_area)


def _compute_bin_density_reference(design: Design, bins_x: int,
                                   bins_y: int) -> np.ndarray:
    """Loop reference of :func:`compute_bin_density` (bit-identical)."""
    return _bin_density(design, bins_x, bins_y, _bin_overlap_area_reference)


def spread_step(design: Design, config: SpreadingConfig,
                rng: np.random.Generator) -> float:
    """One diffusion step; returns the max bin density before the move."""
    xl, yl, xh, yh = design.die
    bw = (xh - xl) / config.bins_x
    bh = (yh - yl) / config.bins_y
    density = compute_bin_density(design, config.bins_x, config.bins_y)
    over = np.maximum(density - config.target_density, 0.0)
    if over.max() <= 0:
        return float(density.max())

    # Potential field = smoothed overflow; cells flow down its gradient.
    potential = over.copy()
    for _ in range(2):  # cheap smoothing for longer-range pressure
        padded = np.pad(potential, 1, mode="edge")
        potential = (padded[1:-1, 1:-1] * 0.4
                     + 0.15 * (padded[:-2, 1:-1] + padded[2:, 1:-1]
                               + padded[1:-1, :-2] + padded[1:-1, 2:]))
    gx, gy = np.gradient(potential)

    movable = np.flatnonzero(~design.cell_fixed)
    ccx = design.cell_x[movable] + design.cell_w[movable] / 2.0
    ccy = design.cell_y[movable] + design.cell_h[movable] / 2.0
    bx = np.clip(((ccx - xl) / bw).astype(int), 0, config.bins_x - 1)
    by = np.clip(((ccy - yl) / bh).astype(int), 0, config.bins_y - 1)

    scale_x = config.step * bw
    scale_y = config.step * bh
    norm = max(float(np.abs(gx).max()), float(np.abs(gy).max()), 1e-12)
    dx = -gx[bx, by] / norm * scale_x
    dy = -gy[bx, by] / norm * scale_y
    # Jitter breaks symmetry when many cells share one bin centre.
    dx += rng.normal(0.0, 0.05 * bw, size=len(movable)) * (over[bx, by] > 0)
    dy += rng.normal(0.0, 0.05 * bh, size=len(movable)) * (over[bx, by] > 0)

    design.cell_x[movable] = np.clip(design.cell_x[movable] + dx,
                                     xl, xh - design.cell_w[movable])
    design.cell_y[movable] = np.clip(design.cell_y[movable] + dy,
                                     yl, yh - design.cell_h[movable])
    return float(density.max())


def spread(design: Design, config: SpreadingConfig | None = None,
           seed: int = 0) -> Design:
    """Run the configured number of diffusion steps in place."""
    config = config or SpreadingConfig()
    rng = np.random.default_rng(seed)
    for _ in range(config.iterations):
        peak = spread_step(design, config, rng)
        if peak <= config.target_density:
            break
    return design
