"""Sweep execution: exactly-once, crash-resumable grid fan-out.

The runner turns a grid of :class:`~repro.sweep.grid.GridPoint`\\ s into
completed ``repro-experiment-v1`` manifests with three guarantees:

* **Exactly once.**  Each point is guarded by a cross-process lease
  (``<artifacts_dir>/leases/sweep-point-<fingerprint>.json``, the PR 7
  protocol) and by its manifest: a worker only executes after winning
  the lease *and* re-checking that no matching manifest exists.  Two
  concurrent ``sweep run`` invocations on the same grid therefore
  execute every point once between them — the loser of each lease race
  polls until the winner's manifest lands.
* **Crash-resumable.**  A point is *done* iff a result manifest with a
  matching ``spec_fingerprint`` exists at its fingerprint-derived path
  ``experiments/<fingerprint>.json``.  A SIGKILLed run
  leaves done points' manifests on disk and its leases stale (dead pid
  / expired heartbeat); the next invocation skips the former, steals
  the latter, and completes only the missing work.
* **Corruption is not completion.**  A manifest that fails to parse,
  fails schema validation, or embeds the wrong fingerprint is moved to
  ``<artifacts_dir>/quarantine/`` with a reason record and the point is
  re-executed — a torn or bit-flipped manifest can never freeze a hole
  into the comparison matrix.

Grid points fan out over a ``ProcessPoolExecutor``; workers share the
staged pipeline's content-addressed stage cache, so points that differ
only in model/train knobs reuse each other's prepared designs (the
first point on a suite pays place-and-route, the rest hit the cache).

Fault-injection points (:mod:`repro.testing.faults`):
``sweep.point.start`` — barrier after the lease is won, immediately
before a grid point executes (tag = the point fingerprint);
``sweep.manifest.read`` — result-manifest bytes just read during
done-detection.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from ..api.experiment import (find_result_manifest, run_experiment,
                              validate_result_manifest)
from ..api.spec import SpecError, spec_from_dict, spec_to_dict
from ..store.blobs import BlobStore, quarantine_file, read_bytes
from ..store.leases import lease_is_stale
from ..testing.faults import current_injector
from .grid import GridPoint, SweepSpec, expand_grid

__all__ = ["SweepError", "PointStatus", "point_lease_name", "point_state",
           "sweep_status", "run_sweep", "JOURNAL_NAME"]

#: Append-only execution journal under ``<artifacts_dir>/experiments/``:
#: one JSON line per *executed* (not skipped) grid point, so tests and
#: operators can audit exactly-once behaviour across processes.
JOURNAL_NAME = "sweep-journal.jsonl"

#: Poll interval while waiting on grid points leased by another process.
_POINT_POLL_S = 0.25


class SweepError(RuntimeError):
    """A sweep could not complete (failed grid points, bad state)."""


def point_lease_name(fingerprint: str) -> str:
    return f"sweep-point-{fingerprint}"


@dataclass
class PointStatus:
    """Observed state of one grid point (read-only snapshot)."""

    index: int
    fingerprint: str
    axes: dict
    state: str  # "done" | "leased" | "pending" | "quarantined"
    manifest_path: str | None = None
    holder: dict | None = None
    detail: str = ""


# ----------------------------------------------------------------------
# Done / state detection
# ----------------------------------------------------------------------

def _manifest_for(artifacts_dir: str, fingerprint: str
                  ) -> tuple[str, dict] | tuple[None, None] | tuple[str, str]:
    """Classify the on-disk manifest for one point.

    Returns ``(path, manifest)`` when a valid manifest with the right
    embedded fingerprint exists, ``(None, None)`` when there is none,
    and ``(path, reason_str)`` when a file exists but is corrupt or
    mismatched (the caller quarantines or reports it).
    """
    found = find_result_manifest(artifacts_dir, fingerprint)
    if found is None:
        return None, None
    path, manifest = found
    faults = current_injector()
    if faults is not None and os.path.exists(path):
        # Re-read through the injectable path so chaos tests can flip
        # bytes on the wire; the plain-read fast path above stays free.
        try:
            manifest = json.loads(read_bytes(
                path, point="sweep.manifest.read").decode())
        except (OSError, ValueError) as exc:
            return path, f"unreadable manifest: {exc}"
    if not manifest:
        return path, "manifest does not parse as JSON"
    try:
        validate_result_manifest(manifest)
    except SpecError as exc:
        return path, f"manifest fails validation: {exc}"
    if manifest.get("fingerprint") != fingerprint:
        return path, (f"manifest embeds fingerprint "
                      f"{manifest.get('fingerprint')!r}, expected "
                      f"{fingerprint}")
    return path, manifest


def point_state(artifacts_dir: str, point: GridPoint, *,
                lease_ttl_s: float = 300.0) -> PointStatus:
    """Observe one point's state without acquiring anything.

    Reads the manifest (valid → ``done``, present-but-broken →
    ``quarantined``), then the lease file (live → ``leased`` with the
    holder record, stale or absent → ``pending``).  Never creates,
    renews or steals a lease — safe to call while a sweep is running.
    """
    path, manifest = _manifest_for(artifacts_dir, point.fingerprint)
    if isinstance(manifest, dict) and manifest:
        return PointStatus(index=point.index,
                           fingerprint=point.fingerprint,
                           axes=point.axes, state="done",
                           manifest_path=path)
    if path is not None:
        return PointStatus(index=point.index,
                           fingerprint=point.fingerprint,
                           axes=point.axes, state="quarantined",
                           manifest_path=path, detail=str(manifest))
    lease_path = os.path.join(artifacts_dir, "leases",
                              f"{point_lease_name(point.fingerprint)}.json")
    if os.path.exists(lease_path) and \
            not lease_is_stale(lease_path, ttl_s=lease_ttl_s):
        try:
            with open(lease_path) as fh:
                holder = json.load(fh)
        except (OSError, ValueError):
            holder = None
        return PointStatus(index=point.index,
                           fingerprint=point.fingerprint,
                           axes=point.axes, state="leased", holder=holder)
    return PointStatus(index=point.index, fingerprint=point.fingerprint,
                       axes=point.axes, state="pending")


def sweep_status(sweep: SweepSpec, *,
                 lease_ttl_s: float = 300.0) -> list[PointStatus]:
    """Snapshot every grid point's state; acquires nothing, writes nothing."""
    return [point_state(sweep.artifacts_dir, point,
                        lease_ttl_s=lease_ttl_s)
            for point in expand_grid(sweep)]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _journal(artifacts_dir: str, event: dict) -> None:
    """Best-effort append to the execution journal (atomic per line)."""
    path = os.path.join(artifacts_dir, "experiments", JOURNAL_NAME)
    line = json.dumps({**event, "pid": os.getpid(),
                       "unix": time.time()}, sort_keys=True) + "\n"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
    except OSError:
        pass


def _quarantine_manifest(artifacts_dir: str, path: str, reason: str,
                         fingerprint: str) -> None:
    quarantine_file(path, os.path.join(artifacts_dir, "quarantine"),
                    reason, extra={"fingerprint": fingerprint})


def _execute_point(spec_payload: dict) -> dict:
    """Run one grid point's experiment (in the worker process)."""
    result = run_experiment(spec_from_dict(spec_payload), verbose=False)
    return result.manifest


def _attempt_point(payload: tuple) -> tuple[int, str, str]:
    """Try to complete one grid point; returns ``(index, outcome, detail)``.

    Top-level so it pickles into pool workers.  Outcomes: ``done``
    (manifest already valid), ``ran`` (executed here), ``busy`` (lease
    held by a live contender elsewhere — caller polls), ``failed``
    (the experiment itself raised).
    """
    (index, spec_payload, fingerprint, artifacts_dir, lease_ttl_s,
     execute_name) = payload
    execute = _EXECUTORS[execute_name]
    store = BlobStore(artifacts_dir, lease_ttl_s=lease_ttl_s)

    path, manifest = _manifest_for(artifacts_dir, fingerprint)
    if isinstance(manifest, dict) and manifest:
        return index, "done", path
    if path is not None:
        _quarantine_manifest(artifacts_dir, path, str(manifest),
                             fingerprint)

    lease = store.try_lease(point_lease_name(fingerprint))
    if lease is None:
        return index, "busy", ""
    with lease:
        # The previous holder may have finished between our check and
        # our acquisition (or we stole a stale lease whose holder had
        # already stored the manifest): re-check before computing.
        path, manifest = _manifest_for(artifacts_dir, fingerprint)
        if isinstance(manifest, dict) and manifest:
            return index, "done", path
        if path is not None:
            _quarantine_manifest(artifacts_dir, path, str(manifest),
                                 fingerprint)
        faults = current_injector()
        if faults is not None:
            faults.barrier("sweep.point.start", fingerprint)
        try:
            execute(spec_payload)
        except Exception as exc:  # noqa: BLE001 - reported per point
            return index, "failed", f"{type(exc).__name__}: {exc}"
        _journal(artifacts_dir, {"event": "executed",
                                 "fingerprint": fingerprint,
                                 "index": index})
    return index, "ran", ""


#: Named execution strategies, so tests can swap the experiment body for
#: a stub by *name* (names pickle across process pools; closures don't).
_EXECUTORS = {"experiment": _execute_point}


@dataclass
class SweepRunReport:
    """What one ``run_sweep`` invocation did (not the whole grid's history)."""

    total: int
    executed: int = 0
    skipped: int = 0
    waited_on: int = 0
    failed: dict = None  # index -> error detail

    def __post_init__(self):
        self.failed = self.failed or {}


def run_sweep(sweep: SweepSpec, *, workers: int = 1,
              verbose: bool = False, lease_ttl_s: float = 300.0,
              poll_s: float = _POINT_POLL_S,
              execute: str = "experiment") -> SweepRunReport:
    """Drive every grid point to completion; returns what *this* run did.

    ``workers > 1`` fans points out over a ``ProcessPoolExecutor``
    (each worker re-checks, leases and executes independently; the
    stage cache is shared).  Points leased by another live process are
    polled until their manifest appears or their lease goes stale and
    is stolen.  Raises :class:`SweepError` if any point ultimately
    fails — after every other point has been driven as far as possible,
    so one broken configuration never blocks the rest of the matrix.
    """
    points = expand_grid(sweep)
    artifacts_dir = sweep.artifacts_dir
    store = BlobStore(artifacts_dir, lease_ttl_s=lease_ttl_s)
    if store.root is not None and os.path.isdir(store.root):
        store.gc()  # reap leases/tmp orphaned by a SIGKILLed prior run

    report = SweepRunReport(total=len(points))
    pending: dict[int, GridPoint] = {p.index: p for p in points}
    busy_waits: set[int] = set()

    def note(index: int, outcome: str, detail: str) -> None:
        point = pending.pop(index)
        if outcome == "done":
            report.skipped += 1
            if index in busy_waits:
                report.waited_on += 1
        elif outcome == "ran":
            report.executed += 1
        elif outcome == "failed":
            report.failed[index] = detail
        if verbose and outcome != "busy":
            print(f"[sweep] point {index} ({point.label()}): {outcome}"
                  f"{' — ' + detail if outcome == 'failed' else ''}")

    def payload_for(point: GridPoint) -> tuple:
        return (point.index, spec_to_dict(point.spec), point.fingerprint,
                artifacts_dir, lease_ttl_s, execute)

    def lease_blocked(point: GridPoint) -> bool:
        path = os.path.join(
            artifacts_dir, "leases",
            f"{point_lease_name(point.fingerprint)}.json")
        return os.path.exists(path) and \
            not lease_is_stale(path, ttl_s=lease_ttl_s)

    while pending:
        # Cheap parent-side pass first: points another run completed
        # while we waited resolve without touching a lease or a pool.
        for index in sorted(pending):
            path, manifest = _manifest_for(
                artifacts_dir, pending[index].fingerprint)
            if isinstance(manifest, dict) and manifest:
                note(index, "done", path)
        if not pending:
            break
        attemptable = [i for i in sorted(pending)
                       if not lease_blocked(pending[i])]
        if not attemptable:
            # Every remaining point is leased by a live contender: poll
            # for their manifests (a holder's death leaves a stale
            # lease the next round steals).
            busy_waits.update(pending)
            if verbose:
                print(f"[sweep] {len(pending)} point(s) leased by "
                      f"another run; waiting")
            time.sleep(poll_s)
            continue
        if workers <= 1 or len(attemptable) == 1:
            for index in attemptable:
                i, outcome, detail = _attempt_point(
                    payload_for(pending[index]))
                if outcome != "busy":  # busy: lost a race, re-polled above
                    note(i, outcome, detail)
        else:
            with ProcessPoolExecutor(max_workers=min(
                    workers, len(attemptable))) as pool:
                futures = {pool.submit(_attempt_point,
                                       payload_for(pending[i]))
                           for i in attemptable}
                while futures:
                    finished, futures = wait(futures,
                                             return_when=FIRST_COMPLETED)
                    for future in finished:
                        i, outcome, detail = future.result()
                        if outcome != "busy":
                            note(i, outcome, detail)

    if report.failed:
        lines = ", ".join(f"point {i}: {err}"
                          for i, err in sorted(report.failed.items()))
        raise SweepError(
            f"{len(report.failed)} of {report.total} grid point(s) "
            f"failed ({lines}); completed points keep their manifests — "
            f"fix the spec and re-run to fill the holes")
    return report
