"""A* maze routing on the G-cell grid.

The escape hatch of the rip-up-and-reroute loop: finds the cheapest path
between two G-cells under the current congestion-aware edge costs, with an
admissible L1 lower bound as heuristic (unit edge cost floor).

:func:`astar_route` is the hot kernel of routing (tens of thousands of
calls per suite).  It runs the same A* as the original dict-and-set
implementation, kept as :func:`_astar_route_reference`, on flat arrays:
the search window is indexed x-major (``i = (x - x_lo) * H + (y - y_lo)``)
so heap entries ``(f, i)`` order exactly like the reference's
``(f, (x, y))``; the window's edge costs are sliced once into Python lists
and the L1 heuristic is precomputed per window cell; ``dist``/``parent``
are lists and the closed set a ``bytearray``.  Neighbours expand in the
same E, W, N, S order with the same float additions, so every tie breaks
the same way and the returned path is **identical** to the reference's —
which is why the route stage's cache ``version`` did not change.
``tests/routing/test_astar_exact.py`` pins this on tie-heavy integer
cost grids.
"""

from __future__ import annotations

import heapq

import numpy as np

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


def astar_route(a: tuple[int, int], b: tuple[int, int],
                h_cost: np.ndarray, v_cost: np.ndarray,
                bbox_margin: int | None = 6) -> list[tuple[int, int]] | None:
    """Cheapest path from ``a`` to ``b`` under the given edge costs.

    Parameters
    ----------
    h_cost, v_cost:
        Edge-cost arrays of shape ``(nx-1, ny)`` and ``(nx, ny-1)``; all
        entries must be >= 1 for the heuristic to stay admissible.
    bbox_margin:
        Restrict the search to the bounding box of the endpoints expanded
        by this many G-cells (detours outside rarely pay off and the
        restriction bounds worst-case work).  ``None`` searches the whole
        grid.

    Returns the G-cell path including both endpoints, or ``None`` if no
    path exists inside the search window (never happens on a connected
    grid).
    """
    if a == b:
        return [a]
    nx = v_cost.shape[0]
    ny = h_cost.shape[1]
    x_lo, x_hi, y_lo, y_hi = _search_window(a, b, nx, ny, bbox_margin)
    H = y_hi - y_lo + 1
    n = (x_hi - x_lo + 1) * H
    # east[i]: cost of the edge from cell i to i + H (its west neighbour
    # reads east[i - H]); north[i]: cell i to i + 1, padded by one unused
    # column so it shares the window index (south reads north[i - 1]).
    east = np.asarray(h_cost[x_lo:x_hi, y_lo:y_hi + 1],
                      dtype=float).ravel().tolist()
    north = np.zeros((x_hi - x_lo + 1, H))
    north[:, :-1] = v_cost[x_lo:x_hi + 1, y_lo:y_hi]
    north = north.ravel().tolist()
    heuristic = (np.abs(np.arange(x_lo, x_hi + 1) - b[0])[:, None]
                 + np.abs(np.arange(y_lo, y_hi + 1) - b[1])).ravel().tolist()

    start = (a[0] - x_lo) * H + (a[1] - y_lo)
    goal = (b[0] - x_lo) * H + (b[1] - y_lo)
    dist = [np.inf] * n
    dist[start] = 0.0
    parent = [-1] * n
    closed = bytearray(n)
    heap = [(heuristic[start], start)]
    push, pop = heapq.heappush, heapq.heappop
    last_column = n - H
    top = H - 1

    while heap:
        i = pop(heap)[1]
        if closed[i]:
            continue
        if i == goal:
            path = [i]
            while i != start:
                i = parent[i]
                path.append(i)
            return [(x_lo + i // H, y_lo + i % H) for i in reversed(path)]
        closed[i] = 1
        g = dist[i]
        y = i % H
        if i < last_column:  # East
            j = i + H
            if not closed[j]:
                cand = g + east[i]
                if cand < dist[j]:
                    dist[j] = cand
                    parent[j] = i
                    push(heap, (cand + heuristic[j], j))
        if i >= H:  # West
            j = i - H
            if not closed[j]:
                cand = g + east[j]
                if cand < dist[j]:
                    dist[j] = cand
                    parent[j] = i
                    push(heap, (cand + heuristic[j], j))
        if y != top:  # North
            j = i + 1
            if not closed[j]:
                cand = g + north[i]
                if cand < dist[j]:
                    dist[j] = cand
                    parent[j] = i
                    push(heap, (cand + heuristic[j], j))
        if y:  # South
            j = i - 1
            if not closed[j]:
                cand = g + north[j]
                if cand < dist[j]:
                    dist[j] = cand
                    parent[j] = i
                    push(heap, (cand + heuristic[j], j))
    return None


def _astar_route_reference(a: tuple[int, int], b: tuple[int, int],
                           h_cost: np.ndarray, v_cost: np.ndarray,
                           bbox_margin: int | None = 6
                           ) -> list[tuple[int, int]] | None:
    """Dict-and-set loop reference of :func:`astar_route` (same paths)."""
    nx = v_cost.shape[0]
    ny = h_cost.shape[1]
    ax, ay = a
    bx, by = b
    if a == b:
        return [a]

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
            return path
        closed.add((x, y))
        g = dist[(x, y)]
        # East, West, North, South with direction-specific edge costs.
        neighbours = (
            (x + 1, y, h_cost[x, y] if x + 1 <= x_hi else None),
            (x - 1, y, h_cost[x - 1, y] if x - 1 >= x_lo else None),
            (x, y + 1, v_cost[x, y] if y + 1 <= y_hi else None),
            (x, y - 1, v_cost[x, y - 1] if y - 1 >= y_lo else None),
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
