"""The router's flat edge costs equal ``RoutingGrid.edge_costs()`` bit for bit.

``GlobalRouter.add_path`` re-costs only the edges a path touches, with
Python float arithmetic, and ``bump_history`` refreshes every edge from
the numpy definition.  Pattern routing and A* read the flat list, so any
drift from ``edge_costs()`` — a reordered sum, a different ``max`` on a
signed zero — would move paths and labels.  Capacities here are
fractional and partly derated under macros, and penalties and history
increments are fractional, so ``use + 1.0 - cap`` and the history sums
are not integers and a reassociated sum rounds differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import DesignSpec, generate_design
from repro.routing import GlobalRouter, RouterConfig
from repro.routing.grid import unflatten
from repro.routing.pattern import l_paths


@pytest.fixture(scope="module")
def design():
    return generate_design(DesignSpec(name="flat-costs", seed=31,
                                      num_movable=40, num_terminals=6,
                                      num_macros=3, die_size=24.0))


def _router(design, nx, ny, **knobs):
    return GlobalRouter(design, RouterConfig(nx=nx, ny=ny, **knobs))


def _assert_costs_exact(router):
    grid = router.grid
    h, v = unflatten(router.cost, grid.nx, grid.ny)
    want_h, want_v = grid.edge_costs(router.config.overflow_penalty)
    assert h.tobytes() == want_h.tobytes()  # sign of zero included
    assert v.tobytes() == want_v.tobytes()


def test_grid_has_derated_fractional_capacities(design):
    grid = _router(design, 8, 8, capacity_h=2.3, capacity_v=1.7).grid
    derated = [c for c in grid.capacity if c and c not in (2.3, 1.7)]
    assert derated and all(c != int(c) for c in derated)


FRACTION = st.floats(0.05, 8.0, allow_nan=False).filter(
    lambda f: f != int(f))


@st.composite
def sessions(draw):
    nx = draw(st.integers(2, 9))
    ny = draw(st.integers(2, 9))
    point = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    op = st.one_of(
        st.tuples(st.just("add"), point, point, st.integers(0, 1)),
        st.tuples(st.just("rip"), st.integers(0, 10**6)),
        st.tuples(st.just("bump")))
    knobs = {"capacity_h": draw(FRACTION), "capacity_v": draw(FRACTION),
             "overflow_penalty": draw(FRACTION),
             "history_increment": draw(FRACTION)}
    return nx, ny, knobs, draw(st.lists(op, min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@given(session=sessions())
def test_flat_costs_track_edge_costs(design, session):
    nx, ny, knobs, ops = session
    router = _router(design, nx, ny, **knobs)
    _assert_costs_exact(router)
    routed = []
    for op in ops:
        if op[0] == "add":
            _, a, b, which = op
            candidates = l_paths(a, b, nx, ny)
            path = candidates[which % len(candidates)]
            router.add_path(path)
            routed.append(path)
        elif op[0] == "rip" and routed:
            router.add_path(routed.pop(op[1] % len(routed)), sign=-1.0)
        elif op[0] == "bump":
            router.bump_history()
        _assert_costs_exact(router)
