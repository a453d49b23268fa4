"""Routing grid: G-cells, edge capacities and demand accumulation.

The die is tessellated into ``nx × ny`` rectangular G-cells (the paper's
grid cells).  Global routing happens on the grid graph whose vertices are
G-cells and whose edges connect 4-neighbours; horizontal edges consume
horizontal track capacity, vertical edges vertical capacity.  Macro
blockages reduce the capacity of edges they cover.

The router's state is flat.  G-cell ``(x, y)`` has index ``x*ny + y``;
the horizontal edge from it to ``(x+1, y)`` has edge id ``x*ny + y`` and
the vertical edge to ``(x, y+1)`` has id ``N + x*ny + y``, with
``N = nx*ny`` (:func:`path_edges` / :func:`path_cells` convert G-cell
walks, :func:`flatten` / :func:`unflatten` edge arrays).
:attr:`RoutingGrid.usage`, :attr:`~RoutingGrid.capacity` and
:attr:`~RoutingGrid.history` are Python lists of ``2N`` floats indexed by
edge id, so the router's per-edge bookkeeping is plain list indexing; the
id slots of the missing last-column H edges and last-row V edges stay 0.
The numpy ``(nx-1, ny)`` / ``(nx, ny-1)`` arrays ``h_usage``,
``v_capacity``, … are views of those lists built on each read (assign a
whole array to write one).  :meth:`~RoutingGrid.edge_overflow`,
:meth:`~RoutingGrid.total_overflow`, :meth:`~RoutingGrid.bump_history`
and :meth:`~RoutingGrid.edge_costs` work on them, so reductions keep
numpy's summation order and the routing products their bytes.

The router accumulates wire *usage* on edges; the paper's per-G-cell
horizontal/vertical **demand maps** and binary **congestion maps** are then
derived here (see :mod:`repro.routing.congestion` for the map extraction).
"""

from __future__ import annotations

import numpy as np

from ..circuit.design import Design

__all__ = ["RoutingGrid", "path_edges", "path_cells", "flatten"]


def path_edges(path: list[tuple[int, int]], nx: int, ny: int) -> list[int]:
    """Edge ids of a G-cell walk (list of adjacent G-cells), in walk order."""
    n = nx * ny
    edges = []
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        if ay == by and abs(ax - bx) == 1:
            edges.append(min(ax, bx) * ny + ay)
        elif ax == bx and abs(ay - by) == 1:
            edges.append(n + ax * ny + min(ay, by))
        else:
            raise ValueError(f"non-adjacent step {(ax, ay)} → {(bx, by)}")
    return edges


def flatten(h: np.ndarray, v: np.ndarray) -> list[float]:
    """The flat edge-id list of an (H, V) edge-array pair (unused ids 0).

    ``h`` has shape ``(nx-1, ny)`` and ``v`` shape ``(nx, ny-1)``.
    """
    nx, ny = v.shape[0], h.shape[1]
    n = nx * ny
    out = np.zeros(2 * n)
    out[:n - ny] = np.ravel(h)
    out[n:].reshape(nx, ny)[:, :-1] = v
    return out.tolist()


def unflatten(flat: list[float], nx: int, ny: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """The (H, V) arrays of a flat edge-id list (fresh, C-contiguous)."""
    n = nx * ny
    h = np.array(flat[:n - ny], dtype=float).reshape(nx - 1, ny)
    v = np.array(flat[n:], dtype=float).reshape(nx, ny)[:, :-1].copy()
    return h, v


def path_cells(a: tuple[int, int], path: list[int], nx: int, ny: int
               ) -> list[tuple[int, int]]:
    """The G-cell walk from ``a`` along edge ids (inverse of :func:`path_edges`)."""
    n = nx * ny
    cells = [a]
    for e in path:
        vertical = e >= n
        x, y = divmod(e - n if vertical else e, ny)
        lo, hi = (x, y), ((x, y + 1) if vertical else (x + 1, y))
        if cells[-1] == lo:
            cells.append(hi)
        elif cells[-1] == hi:
            cells.append(lo)
        else:
            raise ValueError(f"edge {e} does not touch G-cell {cells[-1]}")
    return cells


class _EdgeArray:
    """Numpy ``(nx-1, ny)`` (H) or ``(nx, ny-1)`` (V) view of a flat list.

    Each read builds a fresh array; assigning an array writes it back into
    the grid's list in place.
    """

    def __init__(self, state: str, vertical: bool):
        self.state = state
        self.vertical = vertical

    def __get__(self, grid, owner=None):
        if grid is None:
            return self
        h, v = unflatten(getattr(grid, self.state), grid.nx, grid.ny)
        return v if self.vertical else h

    def __set__(self, grid, value) -> None:
        flat = getattr(grid, self.state)
        h, v = unflatten(flat, grid.nx, grid.ny)
        if self.vertical:
            v = np.asarray(value, dtype=float).reshape(v.shape)
        else:
            h = np.asarray(value, dtype=float).reshape(h.shape)
        flat[:] = flatten(h, v)


class RoutingGrid:
    """State of the global-routing grid.

    Parameters
    ----------
    design:
        Placed design (used for die bounds and macro blockages).
    nx, ny:
        Number of G-cells per axis.
    capacity_h, capacity_v:
        Per-edge track capacity in the horizontal / vertical direction
        before blockage derating.
    blockage_derate:
        Remaining capacity fraction for edges fully under a fixed macro.
    """

    # h_*[i, j] joins G-cell (i, j) to (i+1, j); v_*[i, j] joins (i, j)
    # to (i, j+1).
    h_usage = _EdgeArray("usage", vertical=False)
    v_usage = _EdgeArray("usage", vertical=True)
    h_capacity = _EdgeArray("capacity", vertical=False)
    v_capacity = _EdgeArray("capacity", vertical=True)
    # PathFinder-style history cost, grown on overflowed edges each
    # rip-up-and-reroute round.
    h_history = _EdgeArray("history", vertical=False)
    v_history = _EdgeArray("history", vertical=True)

    def __init__(self, design: Design, nx: int = 32, ny: int = 32,
                 capacity_h: float = 4.0, capacity_v: float = 4.0,
                 blockage_derate: float = 0.35):
        self.design = design
        self.nx = nx
        self.ny = ny
        xl, yl, xh, yh = design.die
        self.xl, self.yl = xl, yl
        self.cell_w = (xh - xl) / nx
        self.cell_h = (yh - yl) / ny

        self.usage = [0.0] * (2 * nx * ny)
        self.history = [0.0] * (2 * nx * ny)
        h_block, v_block = self._blocked_edges()
        derated = 1.0 - blockage_derate
        self.capacity = flatten(
            np.full((nx - 1, ny), float(capacity_h)) * (1.0 - derated * h_block),
            np.full((nx, ny - 1), float(capacity_v)) * (1.0 - derated * v_block))

    # ------------------------------------------------------------------
    def _blocked_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(H, V) arrays, 1.0 on edges whose both G-cells a macro covers.

        A macro is any fixed cell covering more than one G-cell.
        """
        coverage = np.zeros((self.nx, self.ny))
        design = self.design
        for cid in np.flatnonzero(design.cell_fixed):
            w, h = design.cell_w[cid], design.cell_h[cid]
            if w <= self.cell_w and h <= self.cell_h:
                continue  # pad-sized terminal, no blockage
            gx0, gy0 = self.gcell_of(design.cell_x[cid], design.cell_y[cid])
            gx1, gy1 = self.gcell_of(design.cell_x[cid] + w - 1e-9,
                                     design.cell_y[cid] + h - 1e-9)
            coverage[gx0:gx1 + 1, gy0:gy1 + 1] = 1.0
        return (coverage[:-1, :] * coverage[1:, :],
                coverage[:, :-1] * coverage[:, 1:])

    # ------------------------------------------------------------------
    # Coordinate mapping
    # ------------------------------------------------------------------
    def gcell_of(self, x: float, y: float) -> tuple[int, int]:
        """Map a die coordinate to its (gx, gy) G-cell index."""
        gx = int(np.clip((x - self.xl) / self.cell_w, 0, self.nx - 1))
        gy = int(np.clip((y - self.yl) / self.cell_h, 0, self.ny - 1))
        return gx, gy

    def gcells_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`gcell_of`."""
        gx = np.clip(((x - self.xl) / self.cell_w).astype(np.int64), 0, self.nx - 1)
        gy = np.clip(((y - self.yl) / self.cell_h).astype(np.int64), 0, self.ny - 1)
        return gx, gy

    # ------------------------------------------------------------------
    # Overflow accounting
    # ------------------------------------------------------------------
    def edge_overflow(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge overflow ``max(usage - capacity, 0)`` for (H, V)."""
        return (np.maximum(self.h_usage - self.h_capacity, 0.0),
                np.maximum(self.v_usage - self.v_capacity, 0.0))

    def total_overflow(self) -> float:
        """Sum of edge overflow over both directions."""
        oh, ov = self.edge_overflow()
        return float(oh.sum() + ov.sum())

    def bump_history(self, increment: float = 0.5) -> None:
        """Raise history cost on currently overflowed edges (PathFinder)."""
        oh, ov = self.edge_overflow()
        self.h_history += increment * (oh > 0)
        self.v_history += increment * (ov > 0)

    # ------------------------------------------------------------------
    # Edge costs for the maze router
    # ------------------------------------------------------------------
    def edge_costs(self, overflow_penalty: float = 4.0) -> tuple[np.ndarray, np.ndarray]:
        """Congestion-aware edge costs (H, V arrays).

        Cost = 1 + history + penalty · max(usage + 1 − capacity, 0); i.e.
        an edge that *would* overflow if one more wire crossed it becomes
        expensive, realising negotiated congestion.  This is the
        definition the router's flat per-edge cost list is kept equal to.
        """
        h = (1.0 + self.h_history
             + overflow_penalty * np.maximum(
                 self.h_usage + 1.0 - self.h_capacity, 0.0))
        v = (1.0 + self.v_history
             + overflow_penalty * np.maximum(
                 self.v_usage + 1.0 - self.v_capacity, 0.0))
        return h, v
