"""Pattern routing: L- and Z-shaped candidate paths for two-pin segments.

Pattern routing tries a small set of canonical shapes and picks the one
with the lowest congestion cost — it is the fast first phase of NCTU-GR
style routers, with maze routing reserved for segments that stay
overflowed.

Paths are lists of flat edge ids in walk order (see
:mod:`repro.routing.grid`): a straight run is one ``range`` of ids
(stride ``ny`` along x, 1 along y), so candidates are built without
visiting G-cells.  A path's cost is the left-to-right float sum of its
edges' costs, starting from 0.0 — the same additions in the same order
as summing ``(H, V)`` cost arrays along the G-cell walk.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

__all__ = ["best_pattern_path"]


def _run(a: tuple[int, int], b: tuple[int, int], nx: int, ny: int) -> range:
    """Edge ids of the straight walk ``a → b`` (they share a row or column)."""
    ax, ay = a
    bx, by = b
    if ay == by:
        if bx >= ax:
            return range(ax * ny + ay, bx * ny + ay, ny)
        return range((ax - 1) * ny + ay, (bx - 1) * ny + ay, -ny)
    if ax == bx:
        base = nx * ny + ax * ny
        if by >= ay:
            return range(base + ay, base + by)
        return range(base + ay - 1, base + by - 1, -1)
    raise ValueError("straight_path requires aligned endpoints")


def straight_path(a: tuple[int, int], b: tuple[int, int],
                  nx: int, ny: int) -> list[int]:
    """Axis-aligned walk from ``a`` to ``b`` (must share a row/col)."""
    return list(_run(a, b, nx, ny))


def l_paths(a: tuple[int, int], b: tuple[int, int],
            nx: int, ny: int) -> list[list[int]]:
    """The two L-shaped paths between ``a`` and ``b`` (one if aligned)."""
    ax, ay = a
    bx, by = b
    if ax == bx or ay == by:
        return [straight_path(a, b, nx, ny)]
    via1 = (bx, ay)  # horizontal first
    via2 = (ax, by)  # vertical first
    return [[*_run(a, via1, nx, ny), *_run(via1, b, nx, ny)],
            [*_run(a, via2, nx, ny), *_run(via2, b, nx, ny)]]


def z_paths(a: tuple[int, int], b: tuple[int, int], nx: int, ny: int,
            max_candidates: int = 8) -> list[list[int]]:
    """Z-shaped paths: one intermediate jog between the endpoints.

    Candidates are sub-sampled evenly when the span is wide, to bound the
    per-segment work.
    """
    ax, ay = a
    bx, by = b
    paths: list[list[int]] = []
    if ax != bx and ay != by:
        xs = list(range(min(ax, bx) + 1, max(ax, bx)))
        ys = list(range(min(ay, by) + 1, max(ay, by)))
        if len(xs) > max_candidates:
            xs = [xs[i] for i in np.linspace(0, len(xs) - 1, max_candidates).astype(int)]
        if len(ys) > max_candidates:
            ys = [ys[i] for i in np.linspace(0, len(ys) - 1, max_candidates).astype(int)]
        for x in xs:  # HVH: jog at column x
            via1, via2 = (x, ay), (x, by)
            paths.append([*_run(a, via1, nx, ny), *_run(via1, via2, nx, ny),
                          *_run(via2, b, nx, ny)])
        for y in ys:  # VHV: jog at row y
            via1, via2 = (ax, y), (bx, y)
            paths.append([*_run(a, via1, nx, ny), *_run(via1, via2, nx, ny),
                          *_run(via2, b, nx, ny)])
    return paths


def path_cost(path: list[int], cost: list[float]) -> float:
    """Total cost of an edge-id path under a flat edge-cost list."""
    return reduce(add, map(cost.__getitem__, path), 0.0)


def best_pattern_path(a: tuple[int, int], b: tuple[int, int],
                      cost: list[float], nx: int, ny: int) -> list[int]:
    """Cheapest L or Z path between two G-cells.

    The first candidate of least cost wins (L before Z, in generation
    order).
    """
    candidates = l_paths(a, b, nx, ny) + z_paths(a, b, nx, ny)
    best = None
    best_cost = np.inf
    for path in candidates:
        c = path_cost(path, cost)
        if c < best_cost:
            best_cost = c
            best = path
    return best
