"""The three pipeline stages: place → route → graph.

Each stage is a pure function of (design, upstream product, config slice)
with an explicit, picklable **product** dataclass, a stage ``version``
(bump to invalidate only that stage's cache entries) and a
``config_fingerprint`` covering *only the knobs the stage reads*.  That
scoping is what makes the per-stage cache useful: changing
:class:`~repro.routing.router.RouterConfig` re-routes and re-graphs but
never re-places, and changing ``max_gnet_fraction`` rebuilds graphs from
the cached routing grids in milliseconds.

Stage invocations are counted in :data:`STAGE_CALLS` (a module-level
counter keyed by stage name); tests use it to prove that a warm cache
does zero placement/routing work.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from ..circuit.design import Design
from ..graph.lhgraph import LHGraph, build_lhgraph
from ..placement.placer import PlacementConfig, place
from ..routing.congestion import CongestionMaps, extract_maps
from ..routing.grid import RoutingGrid
from ..routing.router import GlobalRouter, RouterConfig
from .config import PipelineConfig, fingerprint_of

__all__ = ["STAGE_CALLS", "reset_stage_calls", "derive_placement_seed",
           "PlacementProduct", "RoutingProduct",
           "run_place_stage", "run_route_stage", "run_graph_stage",
           "PLACE_STAGE", "ROUTE_STAGE", "GRAPH_STAGE", "StageSpec"]

#: Number of times each stage actually executed (cache hits don't count).
STAGE_CALLS: Counter = Counter()


def reset_stage_calls() -> None:
    """Zero the stage-execution counters (test helper)."""
    STAGE_CALLS.clear()


def derive_placement_seed(config: PipelineConfig, design_fp: str) -> int:
    """Deterministic per-design placement seed.

    Mixes ``base_seed`` with the design content fingerprint, so the seed
    is stable across runs, process restarts and worker counts, yet
    independent between designs.  Only used when
    ``config.per_design_seeds`` is set; otherwise every design uses
    ``config.placement.seed`` (the historical behaviour).
    """
    if not config.per_design_seeds:
        return config.placement.seed
    payload = f"{config.base_seed}:{design_fp}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "big") % (2 ** 31)


# ----------------------------------------------------------------------
# Stage products
# ----------------------------------------------------------------------

@dataclass
class PlacementProduct:
    """Output of the placement stage: final cell coordinates + diagnostics."""

    cell_x: np.ndarray
    cell_y: np.ndarray
    hpwl_initial: float
    hpwl_global: float
    hpwl_final: float
    seed: int

    def apply(self, design: Design) -> Design:
        """Write the placed coordinates into ``design`` (returned)."""
        design.cell_x = self.cell_x.copy()
        design.cell_y = self.cell_y.copy()
        return design


@dataclass
class RoutingProduct:
    """Output of the routing stage: grid usage/capacity + statistics.

    Stores the raw edge arrays rather than the :class:`RoutingGrid`
    object so the pickle stays small, schema-stable and design-free.
    """

    nx: int
    ny: int
    h_usage: np.ndarray
    v_usage: np.ndarray
    h_capacity: np.ndarray
    v_capacity: np.ndarray
    total_overflow: float
    num_segments: int
    rerouted_segments: int = 0
    overflow_history: list = field(default_factory=list)

    def rebuild_grid(self, design: Design) -> RoutingGrid:
        """Materialise a :class:`RoutingGrid` carrying these arrays."""
        grid = RoutingGrid(design, nx=self.nx, ny=self.ny)
        grid.h_usage = self.h_usage.copy()
        grid.v_usage = self.v_usage.copy()
        grid.h_capacity = self.h_capacity.copy()
        grid.v_capacity = self.v_capacity.copy()
        return grid

    def maps(self, design: Design) -> CongestionMaps:
        """The per-G-cell demand/congestion label maps."""
        return extract_maps(self.rebuild_grid(design))


# ----------------------------------------------------------------------
# Stage runners
# ----------------------------------------------------------------------

def run_place_stage(design: Design, config: PipelineConfig,
                    seed: int | None = None) -> PlacementProduct:
    """Place ``design`` **in place** and return the placement product.

    Callers that must preserve the input design pass a copy (the runner
    does; see :func:`repro.pipeline.prepare_design`).
    """
    STAGE_CALLS["place"] += 1
    placement_cfg = config.placement
    if seed is not None and seed != placement_cfg.seed:
        placement_cfg = PlacementConfig(**{**asdict(placement_cfg),
                                           "seed": seed})
    result = place(design, placement_cfg)
    return PlacementProduct(
        cell_x=design.cell_x.copy(), cell_y=design.cell_y.copy(),
        hpwl_initial=result.hpwl_initial, hpwl_global=result.hpwl_global,
        hpwl_final=result.hpwl_final,
        seed=placement_cfg.seed,
    )


def run_route_stage(design: Design, config: PipelineConfig) -> RoutingProduct:
    """Globally route the (placed) ``design``; returns the grid product."""
    STAGE_CALLS["route"] += 1
    router_cfg = RouterConfig(**{**asdict(config.router),
                                 "nx": config.grid_nx, "ny": config.grid_ny})
    result = GlobalRouter(design, router_cfg).run()
    grid = result.grid
    return RoutingProduct(
        nx=grid.nx, ny=grid.ny,
        h_usage=grid.h_usage, v_usage=grid.v_usage,
        h_capacity=grid.h_capacity, v_capacity=grid.v_capacity,
        total_overflow=result.total_overflow,
        num_segments=result.num_segments,
        rerouted_segments=result.rerouted_segments,
        overflow_history=list(result.overflow_history),
    )


def run_graph_stage(design: Design, routing: RoutingProduct,
                    config: PipelineConfig) -> LHGraph:
    """Build the labelled LH-graph from a placed design + routing product."""
    STAGE_CALLS["graph"] += 1
    grid = routing.rebuild_grid(design)
    maps = extract_maps(grid)
    graph = build_lhgraph(design, grid, maps,
                          max_gnet_fraction=config.max_gnet_fraction)
    graph.metadata.update({
        "total_overflow": routing.total_overflow,
        "num_segments": routing.num_segments,
        "num_cells": design.num_cells,
        "num_nets": design.num_nets,
        "num_pins": design.num_pins,
    })
    return graph


# ----------------------------------------------------------------------
# Stage specs (name, version, config scoping) for cache keying
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StageSpec:
    """Identity of a stage for cache keying.

    ``version`` is bumped when the stage's *algorithm or product layout*
    changes; ``config_slice`` extracts exactly the config subset the
    stage reads, so unrelated knob changes never invalidate its entries.
    """

    name: str
    version: int

    def config_fingerprint(self, config: PipelineConfig) -> str:
        return fingerprint_of({"stage": self.name, "v": self.version,
                               "cfg": self.config_slice(config)})

    def config_slice(self, config: PipelineConfig):
        raise NotImplementedError


class _PlaceSpec(StageSpec):
    def config_slice(self, config: PipelineConfig):
        return {"placement": config.placement}


class _RouteSpec(StageSpec):
    def config_slice(self, config: PipelineConfig):
        return {"router": config.router,
                "grid_nx": config.grid_nx, "grid_ny": config.grid_ny}


class _GraphSpec(StageSpec):
    def config_slice(self, config: PipelineConfig):
        return {"max_gnet_fraction": config.max_gnet_fraction}


# The vectorised bin density (placement) and flat-array A* (routing)
# return the same bits and paths as their loop references, so products
# cached before that rewrite stay valid and both versions stay 1
# (pinned by tests/integration/test_stage_kernel_parity.py).  A kernel
# change that moves density bits or A* paths must bump the version.
PLACE_STAGE = _PlaceSpec("place", version=1)
ROUTE_STAGE = _RouteSpec("route", version=1)
GRAPH_STAGE = _GraphSpec("graph", version=1)
