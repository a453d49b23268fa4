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
  (:mod:`repro.pipeline.workloads`), prepare it, persist a
  :class:`~repro.pipeline.cache.SuiteManifest` and hand back either the
  graph list or the lazy :class:`~repro.pipeline.cache.ManifestGraphs`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..circuit.design import Design
from ..graph.lhgraph import LHGraph
from ..testing.faults import current_injector
from .cache import (ManifestEntry, ManifestGraphs, StageCache, SuiteManifest,
                    default_cache_dir, design_fingerprint)
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


def stage_keys_for(design: Design, config: PipelineConfig,
                   design_fp: str | None = None) -> dict[str, str]:
    """The chained (place, route, graph) cache keys of one design.

    Each key chains its parent's key with the stage's config slice, so
    the place key covers ``placement.seed`` through the placement
    config.  Pure hashing — no stage work.  Exposed so tests and tools
    can reason about cache state without running the pipeline.
    """
    fp = design_fp or design_fingerprint(design)
    place_key = StageCache.chain_key(
        fp, PLACE_STAGE.config_fingerprint(config))
    route_key = StageCache.chain_key(
        place_key, ROUTE_STAGE.config_fingerprint(config))
    graph_key = StageCache.chain_key(
        route_key, GRAPH_STAGE.config_fingerprint(config))
    return {"design": fp, "place": place_key, "route": route_key,
            "graph": graph_key}


@dataclass
class _PreparedDesign:
    """Internal result of one staged preparation."""

    graph: LHGraph
    entry: ManifestEntry


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


def _prepare_one(design: Design, config: PipelineConfig, cache: StageCache,
                 design_fp: str | None = None) -> _PreparedDesign:
    """Run (or load) the three stages for one design."""
    fp = design_fp or design_fingerprint(design)
    keys = stage_keys_for(design, config, design_fp=fp)

    def entry_for(graph: LHGraph) -> ManifestEntry:
        return ManifestEntry(
            design_name=design.name, design_fp=fp,
            place_key=keys["place"], route_key=keys["route"],
            graph_key=keys["graph"],
            num_cells=design.num_cells, num_nets=design.num_nets,
            congestion_rate_h=graph.congestion_rate(0),
            congestion_rate_v=graph.congestion_rate(1),
        )

    graph = cache.load(keys["graph"])
    if graph is not None:
        return _PreparedDesign(graph=graph, entry=entry_for(graph))

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

    graph = _locked_compute(
        cache, keys["graph"], "graph", design.name,
        lambda: run_graph_stage(target, routing, config))
    return _PreparedDesign(graph=graph, entry=entry_for(graph))


def prepare_design(design: Design, config: PipelineConfig | None = None,
                   *, cache: StageCache | None = None) -> LHGraph:
    """Place, route and graph one design; returns a labelled LH-graph.

    The input design is **not** modified: placement happens on an
    internal copy (stage products are cached per design and config under
    the staged cache).
    """
    config = config or PipelineConfig()
    cache = _resolve_cache(config, cache)
    return _prepare_one(design, config, cache).graph


# ----------------------------------------------------------------------
# Parallel preparation
# ----------------------------------------------------------------------

def _worker(payload) -> tuple[LHGraph, ManifestEntry]:
    """Top-level worker (must be picklable for ProcessPoolExecutor)."""
    design, config, cache_root, design_fp = payload
    cache = StageCache(cache_root)
    done = _prepare_one(design, config, cache, design_fp=design_fp)
    return done.graph, done.entry


def prepare_designs(designs: list[Design],
                    config: PipelineConfig | None = None, *,
                    workers: int = 1, verbose: bool = False,
                    cache: StageCache | None = None,
                    design_fps: list[str] | None = None
                    ) -> tuple[list[LHGraph], list[ManifestEntry]]:
    """Prepare many designs; returns (graphs, manifest entries) in order.

    ``workers > 1`` fans designs out over a ``ProcessPoolExecutor``.
    Results are collected in submission order and every stage is a pure
    function of (design, config) — placement uses
    ``config.placement.seed`` — so the output is bit-identical for any
    worker count.  Workers share the cache root through atomic writes;
    the parent process aggregates the entries.
    """
    config = config or PipelineConfig()
    cache = _resolve_cache(config, cache)
    fps = design_fps or [None] * len(designs)
    graphs: list[LHGraph] = []
    entries: list[ManifestEntry] = []
    if workers <= 1 or len(designs) <= 1:
        for design, fp in zip(designs, fps):
            if verbose:
                print(f"[pipeline] preparing {design.name} "
                      f"({design.num_cells} cells, {design.num_nets} nets)")
            done = _prepare_one(design, config, cache, design_fp=fp)
            graphs.append(done.graph)
            entries.append(done.entry)
        return graphs, entries

    payloads = [(d, config, cache.root, fp) for d, fp in zip(designs, fps)]
    max_workers = min(workers, len(designs), (os.cpu_count() or 1) * 4)
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        for design, (graph, entry) in zip(designs,
                                          pool.map(_worker, payloads)):
            if verbose:
                print(f"[pipeline] prepared {design.name} "
                      f"({design.num_cells} cells, {design.num_nets} nets)")
            graphs.append(graph)
            entries.append(entry)
    return graphs, entries


# ----------------------------------------------------------------------
# Workload-level entry points
# ----------------------------------------------------------------------

def prepare_workload(suite: str = "superblue",
                     config: PipelineConfig | None = None, *,
                     workers: int = 1, verbose: bool = False,
                     lazy: bool = False,
                     cache: StageCache | None = None,
                     designs: list[Design] | None = None,
                     **workload_params):
    """Prepare a registered workload end to end; returns its graphs.

    Looks ``suite`` up in the workload registry, prepares every design
    (honouring the per-stage cache and ``workers``), persists the suite
    manifest, and returns either the eager graph list or — with
    ``lazy=True`` and a persistent cache — a
    :class:`~repro.pipeline.cache.ManifestGraphs` view that loads each
    graph on first access.  Callers that already instantiated the
    workload (e.g. to validate user input first) pass ``designs`` to
    skip the second factory call.
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

    # One fingerprint pass per design, shared by suite key and stages.
    keys = [stage_keys_for(d, config) for d in designs]
    suite_key = StageCache.chain_key(
        f"suite:{suite}", config.fingerprint(), *[k["graph"] for k in keys])

    manifest = cache.load_manifest(suite_key)
    if manifest is None or not manifest.is_complete(cache):
        graphs, entries = prepare_designs(
            designs, config, workers=workers, verbose=verbose, cache=cache,
            design_fps=[k["design"] for k in keys])
        manifest = SuiteManifest(suite_key=suite_key, suite_name=suite,
                                 config_fp=config.fingerprint(),
                                 entries=entries)
        cache.store_manifest(manifest)
        if not lazy or cache.root is None:
            return graphs
        # Seed the lazy view with what we just computed — no re-loads.
        return ManifestGraphs(manifest, cache, graphs=graphs)
    if lazy:
        return ManifestGraphs(manifest, cache)
    return list(ManifestGraphs(manifest, cache))

