"""Property-based tests (hypothesis) on routing invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.routing import astar_route, decompose_net, flatten, path_cells
from repro.routing.pattern import l_paths
from repro.routing.steiner import mst_edges
from repro.routing.pattern import path_cost

COORD = st.tuples(st.integers(0, 11), st.integers(0, 11))


def is_valid_path(path):
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        if abs(ax - bx) + abs(ay - by) != 1:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(a=COORD, b=COORD)
def test_l_paths_connect_and_have_l1_length(a, b):
    for edges in l_paths(a, b, 12, 12):
        path = path_cells(a, edges, 12, 12)
        assert path[0] == a and path[-1] == b
        assert is_valid_path(path)
        assert len(path) == abs(a[0] - b[0]) + abs(a[1] - b[1]) + 1


@settings(max_examples=40, deadline=None)
@given(a=COORD, b=COORD)
def test_astar_optimal_under_uniform_cost(a, b):
    cost = flatten(np.ones((11, 12)), np.ones((12, 11)))
    path = path_cells(a, astar_route(a, b, cost, 12, 12, bbox_margin=None),
                      12, 12)
    assert path[0] == a and path[-1] == b
    assert is_valid_path(path)
    # Uniform costs → A* returns an L1-shortest path.
    assert len(path) == abs(a[0] - b[0]) + abs(a[1] - b[1]) + 1


@settings(max_examples=30, deadline=None)
@given(a=COORD, b=COORD, data=st.data())
def test_astar_never_worse_than_patterns(a, b, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    cost = flatten(1.0 + 3.0 * rng.random((11, 12)),
                   1.0 + 3.0 * rng.random((12, 11)))
    maze = astar_route(a, b, cost, 12, 12, bbox_margin=None)
    for pattern in l_paths(a, b, 12, 12):
        assert path_cost(maze, cost) <= path_cost(pattern, cost) + 1e-9


@settings(max_examples=40, deadline=None)
@given(points=st.lists(COORD, min_size=2, max_size=10, unique=True))
def test_mst_spans_all_points(points):
    edges = mst_edges(points)
    assert len(edges) == len(points) - 1
    # union-find connectivity check
    parent = list(range(len(points)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    assert len({find(k) for k in range(len(points))}) == 1


@settings(max_examples=40, deadline=None)
@given(points=st.lists(COORD, min_size=1, max_size=8, unique=True))
def test_decompose_segments_cover_terminals(points):
    segs = decompose_net(points)
    if len(points) < 2:
        assert segs == []
        return
    endpoints = {p for seg in segs for p in seg}
    assert endpoints == set(points)
