"""Pipeline configuration and canonical fingerprinting.

Cache keys must be *stable across process restarts* and *sensitive to
every knob that changes the on-disk products*.  The old implementation
hashed ``repr(sorted(asdict(config).items()))``, which is fragile: dict
ordering of nested dataclasses is invisible to the top-level sort, float
``repr`` is version-dependent, and there was no way to invalidate caches
when the pickle layout itself changed.

This module provides

* :data:`SCHEMA_VERSION` — bump when the cached on-disk format changes;
  every fingerprint mixes it in, so stale caches self-invalidate,
* :func:`canonical_payload` — recursive conversion of nested dataclasses
  (and dicts/sequences/numpy scalars) into a JSON-serialisable tree with
  sorted keys and explicit class tags,
* :func:`fingerprint_of` — SHA-256 of the canonical JSON encoding,
* :class:`PipelineConfig` — all knobs of the data-preparation pipeline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..placement.placer import PlacementConfig
from ..routing.router import RouterConfig

__all__ = ["SCHEMA_VERSION", "PipelineConfig", "canonical_payload",
           "fingerprint_of"]

#: Version of the cached on-disk format.  Bump whenever the pickle layout
#: of any stage product changes; every stage key includes it, so old cache
#: entries simply stop matching instead of deserialising garbage.
SCHEMA_VERSION = 2


def canonical_payload(obj):
    """Convert ``obj`` into a canonical JSON-serialisable tree.

    Dataclasses are tagged with their class name and recursed field by
    field (``dataclasses.asdict`` would lose the type identity of nested
    configs); dict keys are stringified and sorted by the JSON encoder;
    numpy scalars and arrays become plain Python values.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__,
                **{f.name: canonical_payload(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)}}
    if isinstance(obj, dict):
        return {str(k): canonical_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__!r} for "
                    f"fingerprinting: {obj!r}")


def fingerprint_of(obj, *, digest_size: int = 16) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``.

    The schema version is always mixed in, so bumping
    :data:`SCHEMA_VERSION` invalidates every existing cache entry.
    """
    payload = json.dumps({"schema": SCHEMA_VERSION,
                          "payload": canonical_payload(obj)},
                         sort_keys=True, separators=(",", ":"),
                         allow_nan=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:2 * digest_size]


@dataclass
class PipelineConfig:
    """All knobs of the data-preparation pipeline.

    ``router.nx`` × ``router.ny`` is the one G-cell grid: the router's
    grid and the LH-graph's lattice are the same grid (paper §3).
    Every design is placed with ``placement.seed``, so any worker count
    prepares bit-identical products; ``base_seed`` seeds the synthetic
    workload generators.

    ``max_gnet_fraction`` is the large-G-net filter (paper: 0.25 % at
    ~350 K G-cells; 5 % plays the same tail-trimming role at our default
    32 × 32 grids).
    """

    scale: float = 1.0
    base_seed: int = 2022
    max_gnet_fraction: float = 0.05
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    use_cache: bool = True

    def fingerprint(self) -> str:
        """Stable hash of every parameter (cache key component).

        Canonical-JSON based: recurses into the nested
        :class:`PlacementConfig` / :class:`RouterConfig` dataclasses and
        includes :data:`SCHEMA_VERSION`, so the key survives process
        restarts and changes when the on-disk format does.
        """
        return fingerprint_of(self)
