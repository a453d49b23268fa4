"""Crash-safe, checksummed blob primitives and the :class:`BlobStore`.

Every durable artifact in the repo — stage-cache pickles, suite
manifests, checkpoints, experiment manifests — goes to disk through the
primitives in this module:

* :func:`atomic_write_bytes` — tmp file in the destination directory,
  ``fsync``, ``os.replace``; bounded-backoff retries on transient I/O
  errors; fault-injection hooks compiled in.  A crash at any instant
  leaves either the old file or the new file, never a torn one — the
  worst debris is an orphaned ``*.tmp`` (reaped by :func:`sweep`).
* :func:`frame_blob` / :func:`unframe_blob` — a 40-byte footer (8-byte
  magic + raw SHA-256 of the payload) appended to every blob and
  checkpoint, verified on read.  Bytes without the footer are rejected
  like bytes with a wrong digest: there is no unverified read.
* :func:`quarantine_file` — corruption is never treated as a plain
  miss: the bad file moves to ``quarantine/`` next to a JSON *reason
  record*, so the recompute's ``store`` isn't racing a poisoned file
  and the operator can inspect what happened.

:class:`BlobStore` composes these into the content-addressed layout the
stage cache (and any future shared-FS backend) sits on::

    <root>/objects/<kk>/<key>.pkl      write-once checksummed blobs
    <root>/leases/<name>.json          in-progress leases (see leases.py)
    <root>/quarantine/<file>,<file>.reason.json
    <root>/manifests/<suite>.json      plain-JSON suite manifests

A store whose root turns out to be unwritable (read-only FS, disk
full) **degrades instead of raising**: the first failed write emits a
structured :class:`StoreDegradedWarning` and every later write becomes
a no-op, so a pipeline run completes uncached rather than crashing.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field

from ..testing.faults import FaultInjector, current_injector
from .leases import Lease, NullLease, lease_is_stale

__all__ = ["BLOB_MAGIC", "FOOTER_BYTES", "BlobCorruptError", "RetryPolicy",
           "StoreDegradedWarning", "frame_blob", "unframe_blob",
           "atomic_write_bytes", "read_bytes", "quarantine_file",
           "sweep", "BlobStore"]

#: Footer magic: present ⇒ the last 40 bytes are ``MAGIC + sha256(payload)``.
BLOB_MAGIC = b"RPRBLOB1"
FOOTER_BYTES = len(BLOB_MAGIC) + 32

#: Errno values retried with backoff (everything else fails fast and,
#: on the write side, degrades the store).
TRANSIENT_ERRNOS = frozenset({errno.EIO, errno.EAGAIN, errno.EINTR,
                              errno.EBUSY})


class BlobCorruptError(RuntimeError):
    """A blob failed its checksum (or structural) verification."""


class StoreDegradedWarning(UserWarning):
    """The artifact store downgraded itself to uncached operation.

    Carries ``root`` and ``reason`` attributes so log scrapers and tests
    can assert on the structured cause rather than message text.
    """

    def __init__(self, root: str, reason: str):
        super().__init__(f"artifact store at {root!r} degraded to "
                         f"uncached operation: {reason}")
        self.root = root
        self.reason = reason


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient I/O errors."""

    attempts: int = 4
    base_delay_s: float = 0.02
    max_delay_s: float = 0.5

    def run(self, fn):
        """Call ``fn`` retrying transient ``OSError``s with backoff."""
        for attempt in range(self.attempts):
            try:
                return fn()
            except OSError as exc:
                last = attempt == self.attempts - 1
                if last or exc.errno not in TRANSIENT_ERRNOS:
                    raise
                time.sleep(min(self.max_delay_s,
                               self.base_delay_s * (2 ** attempt)))
        raise AssertionError("unreachable")  # pragma: no cover


# ----------------------------------------------------------------------
# Checksummed framing
# ----------------------------------------------------------------------

def frame_blob(payload: bytes) -> bytes:
    """Append the checksum footer: ``payload + MAGIC + sha256(payload)``."""
    return payload + BLOB_MAGIC + hashlib.sha256(payload).digest()


def unframe_blob(data: bytes, verify: bool = True) -> bytes:
    """Strip and check the footer; returns the payload.

    A missing footer or a digest mismatch raises
    :class:`BlobCorruptError`.  ``verify=False`` skips the digest
    comparison (the caller has already verified these exact bytes, e.g.
    via the store's per-process digest cache) but still requires the
    footer.
    """
    if len(data) < FOOTER_BYTES or \
            data[-FOOTER_BYTES:-32] != BLOB_MAGIC:
        raise BlobCorruptError("missing checksum footer")
    payload, digest = data[:-FOOTER_BYTES], data[-32:]
    if verify and hashlib.sha256(payload).digest() != digest:
        raise BlobCorruptError(
            f"checksum mismatch: payload of {len(payload)} bytes does "
            f"not hash to its recorded sha-256 footer")
    return payload


# ----------------------------------------------------------------------
# Atomic, retried, injectable file I/O
# ----------------------------------------------------------------------

def atomic_write_bytes(path: str, data: bytes, *,
                       retry: RetryPolicy | None = None,
                       faults: FaultInjector | None = None,
                       point: str = "store.write") -> None:
    """Write ``data`` to ``path`` via tmp + ``fsync`` + ``os.replace``.

    Transient I/O errors (including injected ones) are retried with
    bounded backoff; any crash — up to and including SIGKILL between the
    tmp write and the rename (the ``<point>.tmp`` barrier) — leaves the
    previous file intact.
    """
    retry = retry or RetryPolicy()
    if faults is None:
        faults = current_injector()
    directory = os.path.dirname(path) or "."

    def write() -> None:
        payload = data if faults is None \
            else faults.on_write(point, path, data)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            if faults is not None:
                faults.barrier(point + ".tmp", path)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    retry.run(write)


def read_bytes(path: str, *, retry: RetryPolicy | None = None,
               faults: FaultInjector | None = None,
               point: str = "store.read") -> bytes:
    """Read a file whole, with transient-error retries and fault hooks."""
    retry = retry or RetryPolicy()
    if faults is None:
        faults = current_injector()

    def read() -> bytes:
        with open(path, "rb") as handle:
            data = handle.read()
        return data if faults is None else faults.on_read(point, path, data)

    return retry.run(read)


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------

def quarantine_file(path: str, quarantine_dir: str, reason: str,
                    extra: dict | None = None) -> str | None:
    """Move ``path`` into ``quarantine_dir`` with a JSON reason record.

    Returns the quarantined file's new path, or ``None`` when the move
    itself failed (e.g. a read-only filesystem) — in which case the
    caller treats the blob as a miss and moves on; corruption handling
    must never be the thing that crashes the pipeline.
    """
    try:
        os.makedirs(quarantine_dir, exist_ok=True)
        dest = os.path.join(
            quarantine_dir, f"{os.path.basename(path)}.{time.time_ns():x}")
        os.replace(path, dest)
    except OSError:
        return None
    record = {
        "reason": reason,
        "source_path": os.path.abspath(path),
        "quarantined_unix": time.time(),
        **(extra or {}),
    }
    try:
        atomic_write_bytes(dest + ".reason.json",
                           (json.dumps(record, indent=1, sort_keys=True)
                            + "\n").encode(),
                           point="store.quarantine")
    except OSError:
        pass  # the move already de-poisoned the cache; the record is best-effort
    return dest


# ----------------------------------------------------------------------
# GC sweep
# ----------------------------------------------------------------------

def sweep(root: str, *, max_tmp_age_s: float = 600.0,
          lease_ttl_s: float = 300.0) -> dict:
    """Reap SIGKILL debris under ``root``: stale tmp files, dead leases.

    ``*.tmp`` files older than ``max_tmp_age_s`` are orphans — a live
    writer holds its tmp for at most one write — and are removed.
    Lease files whose holder is provably gone (dead pid on this host, or
    no heartbeat for ``lease_ttl_s``) are removed.  Every removal is
    best-effort: a racing writer winning a rename, or a read-only root,
    just shrinks the report.  Returns ``{"tmp_removed": [...],
    "leases_removed": [...]}``.
    """
    removed_tmp: list[str] = []
    removed_leases: list[str] = []
    now = time.time()
    # One walk covers objects/, manifests/ and the files of a bare root
    # (e.g. a checkpoint directory); lease and quarantine files are skipped.
    for dirpath, _, names in os.walk(root):
        if os.path.basename(dirpath) in ("leases", "quarantine"):
            continue
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(dirpath, name)
            try:
                if now - os.stat(path).st_mtime >= max_tmp_age_s:
                    os.unlink(path)
                    removed_tmp.append(path)
            except OSError:
                continue
    lease_dir = os.path.join(root, "leases")
    if os.path.isdir(lease_dir):
        for name in sorted(os.listdir(lease_dir)):
            path = os.path.join(lease_dir, name)
            try:
                if lease_is_stale(path, ttl_s=lease_ttl_s):
                    os.unlink(path)
                    removed_leases.append(path)
            except OSError:
                continue
    return {"tmp_removed": removed_tmp, "leases_removed": removed_leases}


# ----------------------------------------------------------------------
# The content-addressed store
# ----------------------------------------------------------------------

@dataclass
class BlobStore:
    """Checksummed, write-once, lease-coordinated blob store.

    ``root=None`` disables persistence: every read misses, every write
    is a no-op, ``try_lease`` hands out process-local null leases.  A
    root that *fails* at runtime degrades to the same behaviour with a
    :class:`StoreDegradedWarning` instead of crashing the caller.
    """

    root: str | None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    lease_ttl_s: float = 300.0
    degraded: bool = False
    degraded_reason: str | None = None

    def __post_init__(self):
        self.reads = 0
        self.writes = 0
        self.corrupt = 0
        # Per-process digest cache (Bazel-style): blob path -> the stat
        # signature (size, mtime_ns, inode) its bytes last verified
        # under.  Every blob is sha-256-checked on first contact per
        # process; while the signature is unchanged, repeat warm reads
        # skip the re-hash (an atomic replace always changes the
        # signature, so external modification forces re-verification).
        self._verified: dict[str, tuple] = {}

    @property
    def faults(self) -> FaultInjector | None:
        # Resolved per call: tests install/clear injectors mid-object.
        return current_injector()

    # -- paths ---------------------------------------------------------
    def object_path(self, key: str, suffix: str = ".pkl") -> str:
        return os.path.join(self.root, "objects", key[:2],
                            f"{key}{suffix}")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    def lease_path(self, name: str) -> str:
        return os.path.join(self.root, "leases", f"{name}.json")

    # -- degradation ---------------------------------------------------
    def _degrade(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = reason
        warnings.warn(StoreDegradedWarning(str(self.root), reason),
                      stacklevel=3)

    @property
    def writable(self) -> bool:
        return self.root is not None and not self.degraded

    # -- blob I/O ------------------------------------------------------
    def put(self, key: str, payload: bytes, suffix: str = ".pkl") -> bool:
        """Persist a checksummed blob; ``False`` when disabled/degraded."""
        if not self.writable:
            return False
        try:
            atomic_write_bytes(self.object_path(key, suffix),
                               frame_blob(payload), retry=self.retry,
                               faults=self.faults, point="store.write")
        except OSError as exc:
            self._degrade(f"writing blob {key[:12]}…{suffix}: {exc}")
            return False
        self._verified.pop(self.object_path(key, suffix), None)
        self.writes += 1
        return True

    def get(self, key: str, suffix: str = ".pkl") -> bytes | None:
        """Verified payload for ``key``, or ``None``.

        A missing footer or a checksum failure quarantines the blob
        (bumping ``corrupt``) and reads as ``None`` — indistinguishable
        from a miss to the caller, but the poisoned file is off the fast
        path forever.
        """
        if self.root is None:
            return None
        path = self.object_path(key, suffix)
        try:
            stat = os.stat(path)
        except OSError:
            return None
        # Stat *before* the read: if a writer replaces the file mid-read
        # we record the old signature against the new bytes at worst,
        # and the next read re-verifies.
        signature = (stat.st_size, stat.st_mtime_ns, stat.st_ino)
        already_verified = self._verified.get(path) == signature
        try:
            data = read_bytes(path, retry=self.retry, faults=self.faults,
                              point="store.read")
        except OSError:
            return None  # unreadable right now: a miss, not a crash
        try:
            payload = unframe_blob(data, verify=not already_verified)
        except BlobCorruptError as exc:
            self._verified.pop(path, None)
            self.quarantine_object(key, str(exc), suffix=suffix)
            return None
        self._verified[path] = signature
        self.reads += 1
        return payload

    def contains(self, key: str, suffix: str = ".pkl") -> bool:
        return self.root is not None and \
            os.path.exists(self.object_path(key, suffix))

    def quarantine_object(self, key: str, reason: str,
                          suffix: str = ".pkl") -> str | None:
        """Move a blob out of ``objects/`` into quarantine; count it."""
        self.corrupt += 1
        return quarantine_file(self.object_path(key, suffix),
                               self.quarantine_dir, reason,
                               extra={"key": key})

    def write_plain(self, path: str, data: bytes,
                    point: str = "store.manifest") -> bool:
        """Atomic unframed write (JSON manifests stay human-readable)."""
        if not self.writable:
            return False
        try:
            atomic_write_bytes(path, data, retry=self.retry,
                               faults=self.faults, point=point)
        except OSError as exc:
            self._degrade(f"writing {os.path.basename(path)}: {exc}")
            return False
        return True

    # -- leases ----------------------------------------------------------
    def try_lease(self, name: str, ttl_s: float | None = None
                  ) -> Lease | None:
        """Claim the work named ``name``; ``None`` means someone owns it.

        Stale leases (dead holder pid on this host, or heartbeat older
        than the ttl) are broken and re-claimed.  With persistence off
        — or lease I/O failing on a degraded root — a :class:`NullLease`
        is returned so the caller simply computes without coordination.
        """
        if self.root is None or self.degraded:
            return NullLease()
        ttl = self.lease_ttl_s if ttl_s is None else ttl_s
        lease = Lease(self.lease_path(name), ttl_s=ttl)
        try:
            if lease.acquire():
                return lease
            if lease_is_stale(lease.path, ttl_s=ttl) and lease.steal():
                return lease
        except OSError as exc:
            self._degrade(f"lease {name[:12]}…: {exc}")
            return NullLease()
        return None

    def lease_holder(self, name: str) -> dict | None:
        """The live lease record for ``name``, if one exists."""
        if self.root is None:
            return None
        try:
            with open(self.lease_path(name)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- maintenance -----------------------------------------------------
    def gc(self, *, max_tmp_age_s: float = 600.0) -> dict:
        """Sweep orphaned tmp files and expired leases under the root."""
        if self.root is None or not os.path.isdir(self.root):
            return {"tmp_removed": [], "leases_removed": []}
        return sweep(self.root, max_tmp_age_s=max_tmp_age_s,
                     lease_ttl_s=self.lease_ttl_s)

    def stats(self) -> dict:
        """Counters plus an on-disk census (objects/quarantine/leases)."""
        census = {"objects": 0, "object_bytes": 0, "quarantined": 0,
                  "leases": 0}
        if self.root is not None:
            objects = os.path.join(self.root, "objects")
            for dirpath, _, names in os.walk(objects):
                for name in names:
                    if name.endswith(".tmp"):
                        continue
                    census["objects"] += 1
                    try:
                        census["object_bytes"] += os.stat(
                            os.path.join(dirpath, name)).st_size
                    except OSError:
                        pass
            if os.path.isdir(self.quarantine_dir):
                census["quarantined"] = sum(
                    1 for n in os.listdir(self.quarantine_dir)
                    if not n.endswith(".reason.json"))
            lease_dir = os.path.join(self.root, "leases")
            if os.path.isdir(lease_dir):
                census["leases"] = len(os.listdir(lease_dir))
        return {"root": self.root, "degraded": self.degraded,
                "degraded_reason": self.degraded_reason,
                "reads": self.reads, "writes": self.writes,
                "corrupt": self.corrupt, **census}

    def quarantine_records(self) -> list[dict]:
        """Parsed reason records of everything in quarantine, oldest first."""
        if self.root is None or not os.path.isdir(self.quarantine_dir):
            return []
        records = []
        for name in sorted(os.listdir(self.quarantine_dir)):
            if not name.endswith(".reason.json"):
                continue
            try:
                with open(os.path.join(self.quarantine_dir, name)) as fh:
                    record = json.load(fh)
            except (OSError, ValueError):
                continue
            record["file"] = name[:-len(".reason.json")]
            records.append(record)
        records.sort(key=lambda r: r.get("quarantined_unix", 0))
        return records
