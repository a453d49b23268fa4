"""Path identity of the flat-state A* against its dict-and-set reference.

Rip-up-and-reroute labels depend on *which* cheapest path A* returns, so
the kernel must break every tie exactly as the reference does.  Small
integer edge costs make equal-cost paths (and equal heap keys) common,
which is where a different node order or float summation would show.
Both read the same flat edge-cost list and return edge ids.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.routing import astar_route, flatten, path_cells, path_edges
from repro.routing.maze import _astar_route_reference

MARGINS = st.sampled_from([0, 2, 6, None])


@st.composite
def queries(draw, max_side=10):
    nx = draw(st.integers(1, max_side))
    ny = draw(st.integers(1, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.integers(1, 3))
    h = rng.integers(1, top + 1, size=(nx - 1, ny)).astype(float)
    v = rng.integers(1, top + 1, size=(nx, ny - 1)).astype(float)
    point = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    return draw(point), draw(point), h, v


def _same(a, b, h, v, margin):
    nx, ny = v.shape[0], h.shape[1]
    cost = flatten(h, v)
    got = astar_route(a, b, cost, nx, ny, bbox_margin=margin)
    assert got == _astar_route_reference(a, b, cost, nx, ny,
                                         bbox_margin=margin)
    return path_cells(a, got, nx, ny)


@settings(max_examples=300, deadline=None)
@given(query=queries(), margin=MARGINS)
def test_paths_identical_on_tie_heavy_grids(query, margin):
    a, b, h, v = query
    path = _same(a, b, h, v, margin)
    assert path[0] == a and path[-1] == b


@settings(max_examples=50, deadline=None)
@given(query=queries(max_side=16), margin=MARGINS)
def test_paths_identical_on_real_valued_costs(query, margin):
    a, b, h, v = query
    rng = np.random.default_rng(len(h.ravel()) + 7 * len(v.ravel()))
    _same(a, b, h + rng.random(h.shape), v + 0.5 * rng.random(v.shape),
          margin)


def test_same_endpoint():
    h, v = np.ones((4, 5)), np.ones((5, 4))
    for margin in (0, 2, None):
        assert _same((2, 3), (2, 3), h, v, margin) == [(2, 3)]


def test_single_row_and_single_column_windows():
    rng = np.random.default_rng(0)
    h = rng.integers(1, 3, size=(7, 6)).astype(float)
    v = rng.integers(1, 3, size=(8, 5)).astype(float)
    # Margin 0 with a shared row / column gives a one-cell-wide window.
    assert _same((1, 4), (6, 4), h, v, 0) == [(x, 4) for x in range(1, 7)]
    assert _same((3, 5), (3, 0), h, v, 0) == [(3, y) for y in range(5, -1, -1)]
    # One-row and one-column grids.
    row_h = rng.integers(1, 3, size=(8, 1)).astype(float)
    assert _same((0, 0), (8, 0), row_h, np.ones((9, 0)), None) == [
        (x, 0) for x in range(9)]
    col_v = rng.integers(1, 3, size=(1, 8)).astype(float)
    assert _same((0, 8), (0, 2), np.ones((0, 9)), col_v, 2) == [
        (0, y) for y in range(8, 1, -1)]


def test_edge_ids_match_the_cell_walk():
    h = np.ones((5, 4))
    v = np.ones((6, 3))
    cells = [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)]
    edges = path_edges(cells, 6, 4)
    # H edge (x, y) is x*ny + y; V edge (x, y) is nx*ny + x*ny + y.
    assert edges == [0, 24 + 4, 24 + 5, 1 * 4 + 2]
    assert path_cells((0, 0), edges, 6, 4) == cells
    assert path_cells((2, 2), edges[::-1], 6, 4) == cells[::-1]
    assert _same((0, 0), (2, 2), h, v, None)[-1] == (2, 2)
