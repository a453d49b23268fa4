"""Shared fixtures: small designs, placed/routed pipelines, LH-graphs.

Everything is session-scoped and deterministic so the full suite stays
fast; pipeline products are computed once and shared read-only (tests that
mutate must copy).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import DesignSpec, generate_design
from repro.graph import build_lhgraph
from repro.pipeline import PipelineConfig, prepare_design
from repro.placement import PlacementConfig, place
from repro.routing import GlobalRouter, RouterConfig, extract_maps


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_spec():
    return DesignSpec(name="tiny", seed=3, num_movable=200, num_terminals=16,
                      num_macros=2, die_size=32.0, num_clusters=4)


@pytest.fixture(scope="session")
def small_design(small_spec):
    """A small unplaced design (do not mutate; copy first)."""
    return generate_design(small_spec)


@pytest.fixture(scope="session")
def placed_design(small_design):
    """The small design after full placement."""
    design = small_design.copy()
    place(design, PlacementConfig(outer_iterations=2))
    return design


@pytest.fixture(scope="session")
def router_config():
    return RouterConfig(nx=16, ny=16, capacity_h=10.0, capacity_v=10.0,
                        rrr_iterations=3)


@pytest.fixture(scope="session")
def routing_result(placed_design, router_config):
    """Routed small design."""
    return GlobalRouter(placed_design.copy(), router_config).run()


@pytest.fixture(scope="session")
def congestion_maps(routing_result):
    return extract_maps(routing_result.grid)


@pytest.fixture(scope="session")
def small_graph(placed_design, routing_result, congestion_maps):
    """Labelled LH-graph of the small design."""
    return build_lhgraph(placed_design, routing_result.grid, congestion_maps,
                         max_gnet_fraction=0.1)


@pytest.fixture(scope="session")
def tiny_pipeline_config():
    """Very small full-pipeline config used by integration tests."""
    return PipelineConfig(scale=0.25, use_cache=False,
                          placement=PlacementConfig(outer_iterations=2),
                          router=RouterConfig(nx=16, ny=16,
                                              capacity_h=5.0, capacity_v=5.0,
                                              rrr_iterations=2))


@pytest.fixture(scope="session")
def tiny_graph_suite(tiny_pipeline_config):
    """Six labelled LH-graphs from fast, scaled-down pipeline runs."""
    from repro.circuit import superblue_suite
    designs = superblue_suite(scale=0.25)[:6]
    return [prepare_design(d, tiny_pipeline_config) for d in designs]
