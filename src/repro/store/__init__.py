"""``repro.store`` — the durable artifact-store layer.

One backend for every persistence path in the repo: stage-cache pickles
(:class:`repro.pipeline.cache.StageCache` sits on :class:`BlobStore`),
model checkpoints (:mod:`repro.nn.serialize` uses the atomic-write and
checksum primitives), and experiment result manifests
(:func:`repro.api.run_experiment`).  Guarantees, in one line each:

* **Crash-safe** — every write is tmp + fsync + rename; a crash at any
  instant leaves the previous artifact intact.
* **Checksummed** — blobs carry a SHA-256 footer verified on read.
* **Quarantined** — corrupt artifacts move to ``quarantine/`` with a
  reason record instead of being silently re-read (or re-missed)
  forever.
* **Coordinated** — lease files with heartbeats stop parallel workers
  (or hosts, on a shared FS) from duplicating in-progress computation,
  and a dead worker's lease breaks instead of wedging the suite.
* **Degradable** — transient I/O retries with bounded backoff; a root
  that stays unwritable downgrades the caller to uncached operation
  with a :class:`StoreDegradedWarning` instead of crashing the run.

Failure semantics and the fault-injection harness that proves them are
documented in ``docs/reliability.md``.
"""

from .blobs import (FOOTER_BYTES, BlobCorruptError, BlobStore,
                    StoreDegradedWarning, atomic_write_bytes, frame_blob,
                    quarantine_file, read_bytes, sweep, unframe_blob)
from .leases import Lease, NullLease, lease_is_stale

__all__ = ["FOOTER_BYTES", "BlobCorruptError", "BlobStore", "Lease",
           "NullLease", "StoreDegradedWarning", "atomic_write_bytes",
           "frame_blob", "lease_is_stale", "quarantine_file", "read_bytes",
           "sweep", "unframe_blob"]
