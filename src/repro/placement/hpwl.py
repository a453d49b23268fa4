"""Placement quality metrics.

Half-perimeter wirelength (HPWL) is the classical placement objective, and
bin-density overflow is the spreading constraint; both are reported by the
placer driver and asserted on by tests.
"""

from __future__ import annotations

import numpy as np

from ..circuit.design import Design
from .spreading import _bin_overlap_area

__all__ = ["hpwl", "per_net_hpwl", "density_map", "density_overflow"]


def per_net_hpwl(design: Design) -> np.ndarray:
    """Per-net half-perimeter wirelength at the current placement."""
    boxes = design.net_bounding_boxes()
    return (boxes[:, 2] - boxes[:, 0]) + (boxes[:, 3] - boxes[:, 1])


def hpwl(design: Design) -> float:
    """Total HPWL, ignoring degenerate (<2-pin) nets."""
    values = per_net_hpwl(design)
    return float(values[design.net_degree() >= 2].sum())


def density_map(design: Design, bins_x: int, bins_y: int,
                movable_only: bool = False) -> np.ndarray:
    """Cell-area density per bin, as a ``(bins_x, bins_y)`` array.

    Each cell's area is distributed over the bins it overlaps,
    proportionally to the overlap area.  Values are normalised by bin area,
    so 1.0 means completely full.
    """
    xl, yl, xh, yh = design.die
    mask = ~design.cell_fixed if movable_only else np.ones(design.num_cells, bool)
    area = _bin_overlap_area(design, mask, bins_x, bins_y)
    return area / (((xh - xl) / bins_x) * ((yh - yl) / bins_y))


def density_overflow(design: Design, bins_x: int = 16, bins_y: int = 16,
                     target: float = 1.0) -> float:
    """Total overflow area fraction above ``target`` density."""
    d = density_map(design, bins_x, bins_y)
    return float(np.maximum(d - target, 0.0).sum() / (bins_x * bins_y))
