"""Content-addressed, per-design, per-stage pipeline cache.

Layout under the cache root (``REPRO_CACHE_DIR`` or
``~/.cache/repro-lhnn``)::

    objects/<kk>/<key>.pkl      one stage product per key (content address)
    manifests/<suite-key>.json  per-suite manifest of designs → stage keys

Keys chain: the placement key hashes the design content and the
placement-config slice; the routing key hashes the placement key and the
router slice; the graph key hashes the routing key and the graph slice.
Changing a downstream knob therefore never invalidates upstream entries,
and a crashed run resumes exactly where it stopped — every finished
stage of every finished design is already on disk.

Persistence goes through :class:`repro.store.BlobStore`: every blob is
written atomically (tmp + fsync + rename) with a SHA-256 footer that is
verified on read.  Corrupt blobs — bad checksum *or* unpicklable
payload — are quarantined with a reason record and counted separately
(``corrupt``) from plain misses, in-progress stages are coordinated via
lease files (see :mod:`repro.pipeline.runner`), and a cache root that
turns out to be unwritable degrades the run to uncached operation with
a :class:`repro.store.StoreDegradedWarning` instead of crashing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from ..circuit.design import Design
from ..store import BlobStore
from .config import SCHEMA_VERSION, canonical_payload, fingerprint_of

__all__ = ["default_cache_dir", "design_fingerprint", "StageCache",
           "ManifestEntry", "SuiteManifest", "ManifestGraphs"]


def default_cache_dir() -> str:
    """Cache directory, override with ``REPRO_CACHE_DIR``."""
    return os.environ.get("REPRO_CACHE_DIR",
                          os.path.join(os.path.expanduser("~"),
                                       ".cache", "repro-lhnn"))


def design_fingerprint(design: Design) -> str:
    """Content hash of a design: geometry, netlist, positions, metadata.

    Everything the pipeline stages can read goes in, so two designs with
    the same fingerprint produce bit-identical products.  Array bytes are
    hashed directly (fast); names and metadata go through the canonical
    JSON encoding.
    """
    h = hashlib.sha256()
    h.update(f"schema:{SCHEMA_VERSION}".encode())
    meta = json.dumps(canonical_payload({
        "name": design.name,
        "cell_names": design.cell_names,
        "net_names": design.net_names,
        "die": list(design.die),
        "row_height": design.row_height,
        "metadata": design.metadata,
    }), sort_keys=True, separators=(",", ":")).encode()
    h.update(meta)
    for arr in (design.cell_w, design.cell_h, design.cell_fixed,
                design.cell_x, design.cell_y, design.net_ptr,
                design.pin_cell, design.pin_dx, design.pin_dy):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:32]


#: Exceptions that mean "this pickle payload cannot become an object".
#: The bytes already passed their checksum, so these indicate schema
#: drift: a class renamed or removed since the blob was written.
_UNPICKLE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError)


class StageCache:
    """Pickle store addressed by stage keys, with hit/miss accounting.

    ``root=None`` disables persistence entirely (every ``load`` misses,
    ``store`` is a no-op) — the runner then behaves like the old
    uncached pipeline.  A persistent cache sits on a
    :class:`repro.store.BlobStore`: checksummed write-once blobs,
    quarantine for corruption (counted in ``corrupt``, not ``misses``),
    per-key leases for in-progress computation, and graceful
    degradation to uncached mode when the root is unwritable.
    """

    def __init__(self, root: str | None, *, lease_ttl_s: float = 300.0):
        self.root = root
        self.blobs = BlobStore(root, lease_ttl_s=lease_ttl_s)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    @property
    def degraded(self) -> bool:
        """True once the store downgraded itself to uncached operation."""
        return self.blobs.degraded

    # -- key derivation ------------------------------------------------
    @staticmethod
    def chain_key(*parts: str) -> str:
        """Derive a child key from parent keys / fingerprints."""
        return fingerprint_of({"chain": list(parts)})

    # -- object store --------------------------------------------------
    def _path(self, key: str) -> str:
        return self.blobs.object_path(key)

    def load(self, key: str):
        """Return the cached object for ``key`` or ``None`` on a miss.

        Corruption — checksum-failed bytes or an unpicklable payload —
        quarantines the blob, increments ``corrupt`` (not ``misses``)
        and reads as ``None``, so the caller recomputes against a clean
        slot instead of racing a permanently-poisoned file.
        """
        if self.root is not None:
            checksum_corrupt = self.blobs.corrupt
            payload = self.blobs.get(key)
            if payload is not None:
                try:
                    obj = pickle.loads(payload)
                except _UNPICKLE_ERRORS as exc:
                    self.corrupt += 1
                    self.blobs.quarantine_object(
                        key, f"unpicklable payload: "
                             f"{type(exc).__name__}: {exc}")
                    return None
                self.hits += 1
                return obj
            if self.blobs.corrupt > checksum_corrupt:
                self.corrupt += 1
                return None
        self.misses += 1
        return None

    def load_if_present(self, key: str):
        """``load`` that skips the miss counter when the blob is absent.

        The lease-coordination path re-checks keys it already counted a
        miss for; this keeps that re-check from double-counting.
        """
        if not self.contains(key):
            return None
        return self.load(key)

    def store(self, key: str, obj) -> None:
        """Atomically persist ``obj`` under ``key`` (no-op when disabled).

        The blob carries a SHA-256 footer; a write that fails for
        non-transient reasons degrades the cache (with a structured
        warning) rather than raising, so a full or read-only cache root
        never kills the computation that produced ``obj``.
        """
        if self.blobs.put(key, pickle.dumps(
                obj, protocol=pickle.HIGHEST_PROTOCOL)):
            self.stores += 1

    def contains(self, key: str) -> bool:
        """True when ``key`` is present (does not touch counters)."""
        return self.blobs.contains(key)

    # -- coordination / maintenance ------------------------------------
    def try_lease(self, key: str):
        """Claim (or steal a stale) computation lease for ``key``."""
        return self.blobs.try_lease(key)

    def gc(self, *, max_tmp_age_s: float = 600.0) -> dict:
        """Sweep orphaned tmp files and expired leases (see store docs)."""
        return self.blobs.gc(max_tmp_age_s=max_tmp_age_s)

    # -- manifests -----------------------------------------------------
    def manifest_path(self, suite_key: str) -> str:
        return os.path.join(self.root, "manifests", f"{suite_key}.json")

    def load_manifest(self, suite_key: str) -> "SuiteManifest | None":
        if self.root is None:
            return None
        path = self.manifest_path(suite_key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                return SuiteManifest.from_json(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError):
            return None  # corrupt / schema-drifted manifest: cache miss

    def store_manifest(self, manifest: "SuiteManifest") -> None:
        if self.root is None:
            return
        payload = json.dumps(manifest.to_json(), indent=1,
                             sort_keys=True).encode()
        self.blobs.write_plain(self.manifest_path(manifest.suite_key),
                               payload)


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------

@dataclass
class ManifestEntry:
    """One design's stage keys and summary stats inside a suite manifest."""

    design_name: str
    design_fp: str
    place_key: str
    route_key: str
    graph_key: str
    num_cells: int = 0
    num_nets: int = 0
    congestion_rate_h: float = 0.0
    congestion_rate_v: float = 0.0


@dataclass
class SuiteManifest:
    """Record of one prepared suite: per-design stage keys + provenance.

    The manifest is what downstream consumers (the dataset, the CLI
    ``stats`` summary) read instead of a monolithic suite pickle; the
    actual graphs are loaded lazily per design through
    :class:`ManifestGraphs`.
    """

    suite_key: str
    suite_name: str
    config_fp: str
    schema_version: int = SCHEMA_VERSION
    entries: list[ManifestEntry] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "suite_key": self.suite_key,
            "suite_name": self.suite_name,
            "config_fp": self.config_fp,
            "schema_version": self.schema_version,
            "entries": [vars(e).copy() for e in self.entries],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SuiteManifest":
        return cls(
            suite_key=payload["suite_key"],
            suite_name=payload["suite_name"],
            config_fp=payload["config_fp"],
            schema_version=int(payload.get("schema_version", 0)),
            entries=[ManifestEntry(**e) for e in payload["entries"]],
        )

    def is_complete(self, cache: StageCache) -> bool:
        """True when every entry's graph blob is present in ``cache``."""
        return bool(self.entries) and all(
            cache.contains(e.graph_key) for e in self.entries)


class ManifestGraphs:
    """Lazy, memoised sequence of LH-graphs behind a suite manifest.

    Quacks like the ``list[LHGraph]`` the dataset historically consumed,
    but loads each per-design graph blob from the stage cache on first
    access only.  Congestion rates are answered straight from the
    manifest without touching any blob, which keeps split selection and
    ``stats`` summaries free of deserialisation cost.
    """

    def __init__(self, manifest: SuiteManifest, cache: StageCache,
                 graphs: "list | None" = None):
        self.manifest = manifest
        self.cache = cache
        # ``graphs`` pre-seeds the memo (entry order) so a run that just
        # computed the suite doesn't re-deserialise its own blobs.
        if graphs is not None and len(graphs) != len(manifest.entries):
            raise ValueError("preloaded graphs disagree with manifest size")
        self._graphs: list = (list(graphs) if graphs is not None
                              else [None] * len(manifest.entries))

    def __len__(self) -> int:
        return len(self.manifest.entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        if self._graphs[index] is None:
            entry = self.manifest.entries[index]
            graph = self.cache.load(entry.graph_key)
            if graph is None:
                raise KeyError(
                    f"graph blob {entry.graph_key} for design "
                    f"{entry.design_name!r} missing from cache "
                    f"{self.cache.root!r}; re-run prepare")
            self._graphs[index] = graph
        return self._graphs[index]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def congestion_rates(self, channel: int = 0) -> np.ndarray:
        """Per-design congestion rates from manifest metadata (no I/O)."""
        if channel == 0:
            return np.array([e.congestion_rate_h
                             for e in self.manifest.entries])
        return np.array([e.congestion_rate_v for e in self.manifest.entries])

    @property
    def names(self) -> list[str]:
        return [e.design_name for e in self.manifest.entries]
