"""Stage parity: the vectorised placement/routing kernels change no byte.

Prepares one small ``hotspot`` design twice — once with the loop
references of bin density and A* patched in at their call sites, once
with the shipped kernels — and requires byte-equal stage products.  This
is what lets ``PLACE_STAGE`` / ``ROUTE_STAGE`` keep their cache
``version`` across the kernel rewrite.
"""

from dataclasses import fields

import numpy as np

import repro.placement.spreading as spreading
import repro.routing.router as router
from repro.circuit.generator import hotspot_suite
from repro.pipeline import PipelineConfig
from repro.pipeline.stages import run_place_stage, run_route_stage
from repro.routing.maze import _astar_route_reference


def _counting(func, counter):
    def wrapped(*args, **kwargs):
        counter.append(1)
        return func(*args, **kwargs)
    return wrapped


def _prepare(design, config):
    placed = design.copy()
    placement = run_place_stage(placed, config)
    return placement, run_route_stage(placed, config)


def _as_bytes(product):
    out = {}
    for f in fields(product):
        value = getattr(product, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = (value.dtype.str, value.shape, value.tobytes())
        else:
            out[f.name] = repr(value)
    return out


def test_reference_kernels_give_byte_equal_products(monkeypatch):
    config = PipelineConfig(scale=0.2, grid_nx=16, grid_ny=16)
    design = hotspot_suite(scale=0.2)[0]
    fast = _prepare(design, config)

    density_calls, astar_calls = [], []
    monkeypatch.setattr(spreading, "compute_bin_density", _counting(
        spreading._compute_bin_density_reference, density_calls))
    monkeypatch.setattr(router, "astar_route", _counting(
        _astar_route_reference, astar_calls))
    slow = _prepare(design, config)

    # Both kernels really ran on the reference side.
    assert density_calls and astar_calls
    for got, want in zip(fast, slow):
        assert _as_bytes(got) == _as_bytes(want)
