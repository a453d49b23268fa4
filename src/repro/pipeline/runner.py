"""Pipeline orchestration: staged per-design preparation, optionally parallel.

The runner ties the pieces together:

* :func:`prepare_design` — one design through place → route → graph with
  per-stage content-addressed caching (the input design is never
  mutated),
* :func:`prepare_designs` — a list of designs, sequentially or across a
  ``ProcessPoolExecutor`` (``workers=N``); every design is placed with
  ``config.placement.seed``, so any worker count produces bit-identical
  graphs,
* :func:`prepare_workload` — look a workload up in the registry
  (:mod:`repro.pipeline.workloads`), prepare it and hand back its graph
  list; a warm run loads each design's graph blob from the stage cache.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

from ..circuit.design import Design
from ..graph.lhgraph import LHGraph
from ..testing.faults import current_injector
from .cache import StageCache, default_cache_dir, design_fingerprint
from .config import PipelineConfig
from .stages import (GRAPH_STAGE, PLACE_STAGE, ROUTE_STAGE,
                     run_graph_stage, run_place_stage, run_route_stage)

__all__ = ["prepare_design", "prepare_designs", "prepare_workload",
           "stage_keys_for"]


def _resolve_cache(config: PipelineConfig,
                   cache: StageCache | None) -> StageCache:
    if cache is not None:
        return cache
    return StageCache(default_cache_dir() if config.use_cache else None)


def stage_keys_for(design: Design, config: PipelineConfig) -> dict[str, str]:
    """The chained (place, route, graph) cache keys of one design.

    Each key chains its parent's key with the stage's config slice, so
    the place key covers ``placement.seed`` through the placement
    config.  Pure hashing — no stage work.  Exposed so tests and tools
    can reason about cache state without running the pipeline.
    """
    fp = design_fingerprint(design)
    place_key = StageCache.chain_key(
        fp, PLACE_STAGE.config_fingerprint(config))
    route_key = StageCache.chain_key(
        place_key, ROUTE_STAGE.config_fingerprint(config))
    graph_key = StageCache.chain_key(
        route_key, GRAPH_STAGE.config_fingerprint(config))
    return {"design": fp, "place": place_key, "route": route_key,
            "graph": graph_key}


#: Poll interval while waiting on another worker's in-progress lease.
_LEASE_POLL_S = 0.2


def _locked_compute(cache: StageCache, key: str, stage: str,
                    design_name: str, compute):
    """Compute a missing stage product under a cross-process lease.

    The caller has already taken a miss for ``key``.  With a persistent
    cache, a lease file under ``<root>/leases/`` marks the computation
    in progress so parallel ``prepare`` invocations (including workers
    on other hosts sharing the cache FS) wait for the product instead
    of duplicating place-and-route work.  A holder that dies mid-stage
    leaves a stale lease (dead pid, or heartbeat past the ttl) that the
    next contender breaks — a crashed worker never wedges the suite.
    """
    faults = current_injector()
    tag = f"{stage}:{design_name}"
    while True:
        lease = cache.try_lease(key)
        if lease is None:
            # Someone else is computing this exact product: wait for
            # their blob (or their death — try_lease steals stale).
            time.sleep(_LEASE_POLL_S)
            obj = cache.load_if_present(key)
            if obj is not None:
                return obj
            continue
        with lease:
            # The previous holder may have finished between our miss
            # and our acquisition; a steal race loser may also land
            # here after the winner stored.
            obj = cache.load_if_present(key)
            if obj is None:
                if faults is not None:
                    faults.barrier("stage.start", tag)
                obj = compute()
                cache.store(key, obj)
                if faults is not None:
                    faults.barrier("stage.stored", tag)
        return obj


def _prepare_one(design: Design, config: PipelineConfig,
                 cache: StageCache) -> LHGraph:
    """Run (or load) the three stages for one design."""
    keys = stage_keys_for(design, config)
    graph = cache.load(keys["graph"])
    if graph is not None:
        return graph

    target = design.copy()
    placement = cache.load(keys["place"])
    if placement is None:
        placed_here = []

        def compute_place():
            result = run_place_stage(target, config)
            placed_here.append(True)
            return result

        placement = _locked_compute(cache, keys["place"], "place",
                                    design.name, compute_place)
        if not placed_here:  # another worker placed it: apply their result
            placement.apply(target)
    else:
        placement.apply(target)

    routing = cache.load(keys["route"])
    if routing is None:
        routing = _locked_compute(cache, keys["route"], "route", design.name,
                                  lambda: run_route_stage(target, config))

    return _locked_compute(
        cache, keys["graph"], "graph", design.name,
        lambda: run_graph_stage(target, routing, config))


def prepare_design(design: Design, config: PipelineConfig | None = None,
                   *, cache: StageCache | None = None) -> LHGraph:
    """Place, route and graph one design; returns a labelled LH-graph.

    The input design is **not** modified: placement happens on an
    internal copy (stage products are cached per design and config under
    the staged cache).
    """
    config = config or PipelineConfig()
    cache = _resolve_cache(config, cache)
    return _prepare_one(design, config, cache)


# ----------------------------------------------------------------------
# Parallel preparation
# ----------------------------------------------------------------------

def _worker(payload) -> LHGraph:
    """Top-level worker (must be picklable for ProcessPoolExecutor)."""
    design, config, cache_root = payload
    return _prepare_one(design, config, StageCache(cache_root))


def prepare_designs(designs: list[Design],
                    config: PipelineConfig | None = None, *,
                    workers: int = 1, verbose: bool = False,
                    cache: StageCache | None = None) -> list[LHGraph]:
    """Prepare many designs; returns their graphs in order.

    ``workers > 1`` fans designs out over a ``ProcessPoolExecutor``.
    Results are collected in submission order and every stage is a pure
    function of (design, config) — placement uses
    ``config.placement.seed`` — so the output is bit-identical for any
    worker count.  Workers share the cache root through atomic writes.
    """
    config = config or PipelineConfig()
    cache = _resolve_cache(config, cache)
    graphs: list[LHGraph] = []
    if workers <= 1 or len(designs) <= 1:
        for design in designs:
            if verbose:
                print(f"[pipeline] preparing {design.name} "
                      f"({design.num_cells} cells, {design.num_nets} nets)")
            graphs.append(_prepare_one(design, config, cache))
        return graphs

    payloads = [(d, config, cache.root) for d in designs]
    max_workers = min(workers, len(designs), (os.cpu_count() or 1) * 4)
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        for design, graph in zip(designs, pool.map(_worker, payloads)):
            if verbose:
                print(f"[pipeline] prepared {design.name} "
                      f"({design.num_cells} cells, {design.num_nets} nets)")
            graphs.append(graph)
    return graphs


# ----------------------------------------------------------------------
# Workload-level entry points
# ----------------------------------------------------------------------

def prepare_workload(suite: str = "superblue",
                     config: PipelineConfig | None = None, *,
                     workers: int = 1, verbose: bool = False,
                     cache: StageCache | None = None,
                     designs: list[Design] | None = None,
                     **workload_params) -> list[LHGraph]:
    """Prepare a registered workload end to end; returns its graphs.

    Looks ``suite`` up in the workload registry and prepares every
    design through :func:`prepare_designs` (honouring the per-stage
    cache and ``workers``): a warm cache serves each design's graph
    blob without running a stage.  Callers that already instantiated
    the workload (e.g. to validate user input first) pass ``designs``
    to skip the second factory call.
    """
    from .workloads import load_workload  # late: registry may be extended
    config = config or PipelineConfig()
    cache = _resolve_cache(config, cache)
    if cache.root is not None:
        # Suite start is the natural sweep point: reap tmp files and
        # leases orphaned by a previous run that died uncleanly.
        cache.gc()
    if designs is None:
        designs = load_workload(suite, config, **workload_params)
    return prepare_designs(designs, config, workers=workers,
                           verbose=verbose, cache=cache)
