"""A* maze routing on the G-cell grid.

The escape hatch of the rip-up-and-reroute loop: finds the cheapest path
between two G-cells under the current congestion-aware edge costs, with an
admissible L1 lower bound as heuristic (unit edge cost floor).

:func:`astar_route` is the hot kernel of routing (tens of thousands of
calls per suite).  It runs the same A* as the original dict-and-set
implementation, kept as :func:`_astar_route_reference`, on the router's
flat state (:mod:`repro.routing.grid`): nodes are full-grid G-cell
indices ``c = x*ny + y``, and the edge costs are read straight from the
router's flat cost list — east of ``c`` is edge ``c``, north of it
``N + c`` — so a call slices and copies nothing.  The search window is a
bounds check on ``c`` (columns) and ``c % ny`` (rows).  Heap entries
``(f, c)`` order exactly like the reference's ``(f, (x, y))``, the L1
heuristic is an int summed from per-axis tables and added to the float
``g`` in one step, ``dist``/``parent`` are lists and the closed set a
``bytearray``.  Neighbours expand in the same E, W, N, S order with the
same float additions, so every tie breaks the same way and the returned
path is **identical** to the reference's — which is why the route stage's
cache ``version`` did not change.  ``tests/routing/test_astar_exact.py``
pins this on tie-heavy integer cost grids.
"""

from __future__ import annotations

import heapq

import numpy as np

from .grid import path_edges

__all__ = ["astar_route"]


def _search_window(a: tuple[int, int], b: tuple[int, int], nx: int, ny: int,
                   bbox_margin: int | None) -> tuple[int, int, int, int]:
    """Inclusive ``(x_lo, x_hi, y_lo, y_hi)`` search window of a query."""
    if bbox_margin is None:
        return 0, nx - 1, 0, ny - 1
    return (max(0, min(a[0], b[0]) - bbox_margin),
            min(nx - 1, max(a[0], b[0]) + bbox_margin),
            max(0, min(a[1], b[1]) - bbox_margin),
            min(ny - 1, max(a[1], b[1]) + bbox_margin))


def astar_route(a: tuple[int, int], b: tuple[int, int], cost: list[float],
                nx: int, ny: int,
                bbox_margin: int | None = 6) -> list[int] | None:
    """Cheapest path from ``a`` to ``b`` under the given edge costs.

    Parameters
    ----------
    cost:
        Flat edge-cost list of an ``nx × ny`` grid, indexed by edge id
        (:mod:`repro.routing.grid`); every edge cost must be >= 1 for the
        heuristic to stay admissible.
    bbox_margin:
        Restrict the search to the bounding box of the endpoints expanded
        by this many G-cells (detours outside rarely pay off and the
        restriction bounds worst-case work).  ``None`` searches the whole
        grid.

    Returns the path as edge ids in walk order (empty if ``a == b``), or
    ``None`` if no path exists inside the search window (never happens on
    a connected grid).
    """
    if a == b:
        return []
    n = nx * ny
    x_lo, x_hi, y_lo, y_hi = _search_window(a, b, nx, ny, bbox_margin)
    bx, by = b
    hx = [*range(bx, 0, -1), *range(nx - bx)]  # hx[x] = |x - bx|
    hy = [*range(by, 0, -1), *range(ny - by)]
    east_end = x_hi * ny  # c < east_end: column x < x_hi
    west_end = (x_lo + 1) * ny  # c >= west_end: column x > x_lo

    start = a[0] * ny + a[1]
    goal = bx * ny + by
    dist = [np.inf] * n
    dist[start] = 0.0
    parent = [-1] * n
    closed = bytearray(n)
    heap = [(hx[a[0]] + hy[a[1]], start)]
    push, pop = heapq.heappush, heapq.heappop

    while heap:
        c = pop(heap)[1]
        if closed[c]:
            continue
        if c == goal:
            edges = []
            while c != start:
                p = parent[c]
                d = c - p
                edges.append(p if d == ny else c if d == -ny
                             else n + p if d == 1 else n + c)
                c = p
            edges.reverse()
            return edges
        closed[c] = 1
        g = dist[c]
        x = c // ny
        y = c - x * ny
        hxx = hx[x]
        hyy = hy[y]
        if c < east_end:  # East
            j = c + ny
            if not closed[j]:
                cand = g + cost[c]
                if cand < dist[j]:
                    dist[j] = cand
                    parent[j] = c
                    push(heap, (cand + (hx[x + 1] + hyy), j))
        if c >= west_end:  # West
            j = c - ny
            if not closed[j]:
                cand = g + cost[j]
                if cand < dist[j]:
                    dist[j] = cand
                    parent[j] = c
                    push(heap, (cand + (hx[x - 1] + hyy), j))
        if y < y_hi:  # North
            j = c + 1
            if not closed[j]:
                cand = g + cost[n + c]
                if cand < dist[j]:
                    dist[j] = cand
                    parent[j] = c
                    push(heap, (cand + (hxx + hy[y + 1]), j))
        if y > y_lo:  # South
            j = c - 1
            if not closed[j]:
                cand = g + cost[n + j]
                if cand < dist[j]:
                    dist[j] = cand
                    parent[j] = c
                    push(heap, (cand + (hxx + hy[y - 1]), j))
    return None


def _astar_route_reference(a: tuple[int, int], b: tuple[int, int],
                           cost: list[float], nx: int, ny: int,
                           bbox_margin: int | None = 6) -> list[int] | None:
    """Dict-and-set loop reference of :func:`astar_route` (same paths)."""
    n = nx * ny
    ax, ay = a
    bx, by = b
    if a == b:
        return []

    x_lo, x_hi, y_lo, y_hi = _search_window(a, b, nx, ny, bbox_margin)

    def heuristic(x: int, y: int) -> float:
        return abs(x - bx) + abs(y - by)

    start = (ax, ay)
    dist: dict[tuple[int, int], float] = {start: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    heap: list[tuple[float, tuple[int, int]]] = [(heuristic(ax, ay), start)]
    closed: set[tuple[int, int]] = set()

    while heap:
        f, (x, y) = heapq.heappop(heap)
        if (x, y) in closed:
            continue
        if (x, y) == (bx, by):
            path = [(x, y)]
            while path[-1] != start:
                path.append(parent[path[-1]])
            path.reverse()
            return path_edges(path, nx, ny)
        closed.add((x, y))
        g = dist[(x, y)]
        # East, West, North, South with direction-specific edge costs.
        neighbours = (
            (x + 1, y, cost[x * ny + y] if x + 1 <= x_hi else None),
            (x - 1, y, cost[(x - 1) * ny + y] if x - 1 >= x_lo else None),
            (x, y + 1, cost[n + x * ny + y] if y + 1 <= y_hi else None),
            (x, y - 1, cost[n + x * ny + y - 1] if y - 1 >= y_lo else None),
        )
        for nx_, ny_, w in neighbours:
            if w is None or (nx_, ny_) in closed:
                continue
            cand = g + float(w)
            if cand < dist.get((nx_, ny_), np.inf):
                dist[(nx_, ny_)] = cand
                parent[(nx_, ny_)] = (x, y)
                heapq.heappush(heap, (cand + heuristic(nx_, ny_), (nx_, ny_)))
    return None
