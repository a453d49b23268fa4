"""Content-addressed, per-design, per-stage pipeline cache.

Layout under the cache root (``REPRO_CACHE_DIR`` or
``~/.cache/repro-lhnn``)::

    objects/<kk>/<key>.pkl      one stage product per key (content address)
    leases/<key>.json           in-progress stage computations
    quarantine/                 corrupt blobs and their reason records

The graph blobs are the only record of a prepared suite: preparing a
workload again re-derives every design's keys and loads its graph.

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

import numpy as np

from ..circuit.design import Design
from ..store import BlobStore
from .config import SCHEMA_VERSION, canonical_payload, fingerprint_of

__all__ = ["default_cache_dir", "design_fingerprint", "StageCache"]


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
