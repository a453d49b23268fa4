"""Workload registry: named design suites the pipeline can prepare.

The old pipeline hardcoded one call to
:func:`repro.circuit.generator.superblue_suite`; every data-touching
command could only ever see the 15 synthetic superblue-like designs.
This registry decouples *what to prepare* from *how to prepare it*:

* ``superblue``   — the paper's 15-design synthetic suite (Table 1),
* ``macro-heavy`` — macro-dominated blockage-congestion scenarios,
* ``hotspot``     — clustered congestion-hotspot scenarios,
* ``bookshelf``   — every ``.aux`` bundle under a directory, parsed by
  :mod:`repro.circuit.bookshelf` (``root=...`` parameter / CLI
  ``--bookshelf-dir``), so the real contest benchmarks run through the
  identical staged pipeline.

Register new workloads with :func:`register_workload`; they become
selectable immediately via ``repro.cli prepare --suite NAME``.
"""

from __future__ import annotations

import glob
import inspect
import os
from dataclasses import dataclass
from typing import Callable

from ..circuit.bookshelf import read_design
from ..circuit.design import Design
from ..circuit.generator import hotspot_suite, macro_heavy_suite
from .config import PipelineConfig

__all__ = ["list_workloads", "load_workload"]


@dataclass(frozen=True)
class Workload:
    """A named design-suite factory.

    ``factory(config, **params) -> list[Design]``; ``params`` are
    workload-specific keyword arguments forwarded from the caller (e.g.
    the bookshelf loader's ``root``).
    """

    name: str
    description: str
    factory: Callable[..., list[Design]]


_REGISTRY: dict[str, Workload] = {}


def register_workload(name: str, description: str = ""):
    """Decorator: register ``factory`` under ``name`` (last wins)."""
    def wrap(factory: Callable[..., list[Design]]):
        _REGISTRY[name] = Workload(name=name, description=description,
                                   factory=factory)
        return factory
    return wrap


def get_workload(name: str) -> Workload:
    """Look a workload up by name; raises ``KeyError`` with suggestions."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown workload {name!r}; registered: {known}") \
            from None


def list_workloads() -> list[Workload]:
    """All registered workloads, sorted by name."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def load_workload(name: str, config: PipelineConfig | None = None,
                  **params) -> list[Design]:
    """Instantiate the designs of workload ``name`` for ``config``.

    Raises ``KeyError`` for an unknown name and ``ValueError`` for
    parameters the factory's signature does not take (or a factory that
    rejects them or produces nothing).  Anything else a factory raises
    propagates unchanged: it is a bug, not a user error.
    """
    config = config or PipelineConfig()
    factory = get_workload(name).factory
    try:
        inspect.signature(factory).bind(config, **params)
    except TypeError as exc:
        raise ValueError(f"suite {name!r} does not accept parameters "
                         f"{sorted(params)}: {exc}") from None
    designs = factory(config, **params)
    if not designs:
        raise ValueError(f"workload {name!r} produced no designs "
                         f"(params: {params!r})")
    return designs


# ----------------------------------------------------------------------
# Built-in workloads
# ----------------------------------------------------------------------

@register_workload("superblue",
                   "15 synthetic superblue-like designs (paper Table 1)")
def _superblue(config: PipelineConfig) -> list[Design]:
    # Resolved through the package attribute so test doubles patched onto
    # ``repro.pipeline.superblue_suite`` keep working.
    import repro.pipeline as _pkg
    return _pkg.superblue_suite(scale=config.scale,
                                base_seed=config.base_seed)


@register_workload("macro-heavy",
                   "macro-dominated blockage-congestion scenarios")
def _macro_heavy(config: PipelineConfig, count: int = 8) -> list[Design]:
    return macro_heavy_suite(scale=config.scale, base_seed=config.base_seed,
                             count=count)


@register_workload("hotspot",
                   "clustered congestion-hotspot scenarios")
def _hotspot(config: PipelineConfig, count: int = 8) -> list[Design]:
    return hotspot_suite(scale=config.scale, base_seed=config.base_seed,
                         count=count)


@register_workload("bookshelf",
                   "every .aux Bookshelf bundle under a directory (root=DIR)")
def _bookshelf(config: PipelineConfig, root: str | None = None) -> list[Design]:
    if not root:
        raise ValueError("the bookshelf workload needs a directory: pass "
                         "root=DIR (CLI: --bookshelf-dir DIR)")
    if not os.path.isdir(root):
        raise ValueError(f"bookshelf root {root!r} is not a directory")
    aux_files = sorted(glob.glob(os.path.join(root, "**", "*.aux"),
                                 recursive=True))
    if not aux_files:
        raise ValueError(f"no .aux files found under {root!r}")
    return [read_design(path) for path in aux_files]
