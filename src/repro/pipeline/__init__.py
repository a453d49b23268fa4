"""End-to-end data pipeline: netlist → placement → routing → LH-graph.

This is the reproduction of the paper's data preparation (§5.1), grown
from a sequential monolith into a staged pipeline package:

* :mod:`repro.pipeline.config`    — :class:`PipelineConfig` and canonical
  JSON fingerprinting (schema-versioned cache keys),
* :mod:`repro.pipeline.stages`    — the place / route / graph stages with
  explicit picklable products and per-stage config scoping,
* :mod:`repro.pipeline.cache`     — content-addressed per-design,
  per-stage cache plus suite manifests and the lazy
  :class:`~repro.pipeline.cache.ManifestGraphs` view,
* :mod:`repro.pipeline.runner`    — orchestration, including parallel
  preparation over a ``ProcessPoolExecutor`` (``workers=N``) with
  deterministic per-design seeds,
* :mod:`repro.pipeline.workloads` — the workload registry (synthetic
  superblue, macro-heavy and hotspot scenario families, Bookshelf
  directory loader) behind ``repro.cli prepare --suite NAME``.

Since routing dominates preparation time, results are cached on disk
per design and per stage: changing the router config does not re-place,
and an interrupted run resumes where it stopped.
"""

from __future__ import annotations

# Re-exported so callers (and test doubles) can treat the package like the
# old flat module, which routed the suite through this very attribute.
from ..circuit.generator import superblue_suite  # noqa: F401
from .cache import (ManifestEntry, ManifestGraphs, StageCache, SuiteManifest,
                    default_cache_dir, design_fingerprint)
from .config import SCHEMA_VERSION, PipelineConfig, fingerprint_of
from .runner import (prepare_design, prepare_designs, prepare_workload,
                     stage_keys_for)
from .stages import (PlacementProduct, RoutingProduct, STAGE_CALLS,
                     derive_placement_seed, reset_stage_calls)
from .workloads import (Workload, get_workload, list_workloads,
                        load_workload, register_workload)

__all__ = [
    "PipelineConfig", "prepare_design", "default_cache_dir",
    "SCHEMA_VERSION", "fingerprint_of", "design_fingerprint",
    "StageCache", "SuiteManifest", "ManifestEntry", "ManifestGraphs",
    "PlacementProduct", "RoutingProduct", "STAGE_CALLS", "reset_stage_calls",
    "derive_placement_seed", "stage_keys_for",
    "prepare_designs", "prepare_workload",
    # workload registry
    "Workload", "register_workload", "get_workload", "list_workloads",
    "load_workload",
    "superblue_suite",
]
