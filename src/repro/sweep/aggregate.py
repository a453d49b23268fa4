"""Sweep aggregation: join per-point manifests into one leaderboard.

The aggregator is pure *read → join → rank → render*: it never runs
experiments and never takes leases, so it can run while a sweep is in
flight (partial grids rank whatever is done and say what is missing).

Outputs:

* a ``repro-sweep-v1`` **sweep manifest** (:func:`build_sweep_manifest`,
  written to ``<artifacts_dir>/experiments/sweep-<sweep_fp>.json``) —
  the machine-readable record joining every grid point's identity,
  axes, seed, state and metrics with a ranked leaderboard;
* the rendered **leaderboard tables** (:func:`render_leaderboard`,
  through :mod:`repro.eval.tables`) — a ranked overall table plus the
  paper-style family × suite matrix (best F1 per cell), which is how
  ``repro.cli sweep report`` reproduces the paper's comparison matrix
  from one sweep file.
"""

from __future__ import annotations

import os
import time

from ..api.spec import SpecError, spec_to_dict
from ..eval.tables import format_table
from ..store.blobs import atomic_write_bytes
from .grid import GridPoint, SweepSpec, expand_grid, sweep_fingerprint
from .runner import PointStatus, sweep_status

__all__ = ["SWEEP_SCHEMA", "sweep_manifest_path", "build_sweep_manifest",
           "write_sweep_manifest", "validate_sweep_manifest",
           "render_leaderboard"]

#: Schema tag of the sweep-level leaderboard manifest.
SWEEP_SCHEMA = "repro-sweep-v1"


def sweep_manifest_path(sweep: SweepSpec) -> str:
    """Fingerprint-derived sweep-manifest path (same rationale as
    per-experiment manifests: concurrent sweeps never collide)."""
    return os.path.join(sweep.artifacts_dir, "experiments",
                        f"sweep-{sweep_fingerprint(sweep)}.json")


def _point_record(point: GridPoint, status: PointStatus,
                  manifest: dict | None) -> dict:
    record = {
        "index": point.index,
        "fingerprint": point.fingerprint,
        "axes": dict(point.axes),
        "seed": point.seed,
        "seed_derived": point.seed_derived,
        "family": point.spec.model.family,
        "suite": point.spec.workload.suite,
        "state": status.state,
        "metrics": None,
        "checkpoint": None,
        "manifest_path": status.manifest_path,
    }
    if manifest is not None:
        record["metrics"] = dict(manifest["metrics"])
        record["checkpoint"] = manifest.get("checkpoint")
        record["timing"] = dict(manifest.get("timing", {}))
    return record


def build_sweep_manifest(sweep: SweepSpec) -> dict:
    """Join the grid's on-disk state into a ``repro-sweep-v1`` manifest.

    Reads every point's result manifest (at its fingerprint-derived
    path) and lease state; ranks completed points by held-out F1 (ties:
    ACC, then fingerprint for total determinism).  ``complete`` is True
    iff every grid point is done.
    """
    points = expand_grid(sweep)
    statuses = sweep_status(sweep)
    from ..api.experiment import find_result_manifest
    records = []
    for point, status in zip(points, statuses):
        manifest = None
        if status.state == "done":
            found = find_result_manifest(sweep.artifacts_dir,
                                         point.fingerprint)
            manifest = found[1] if found else None
        records.append(_point_record(point, status, manifest))

    ranked = sorted(
        (r for r in records if r["metrics"] is not None),
        key=lambda r: (-r["metrics"]["f1"], -r["metrics"]["acc"],
                       r["fingerprint"]))
    leaderboard = [{
        "rank": rank + 1,
        "fingerprint": r["fingerprint"],
        "family": r["family"],
        "suite": r["suite"],
        "axes": r["axes"],
        "f1": r["metrics"]["f1"],
        "acc": r["metrics"]["acc"],
    } for rank, r in enumerate(ranked)]

    manifest = {
        "schema": SWEEP_SCHEMA,
        "name": sweep.name,
        "sweep_fingerprint": sweep_fingerprint(sweep),
        "base": spec_to_dict(sweep.base),
        "axes": [[path, list(values)] for path, values in sweep.axes],
        "grid_size": len(points),
        "points": records,
        "leaderboard": leaderboard,
        "complete": all(r["state"] == "done" for r in records),
        "created_unix": time.time(),
    }
    return validate_sweep_manifest(manifest)


def write_sweep_manifest(sweep: SweepSpec, manifest: dict) -> str:
    """Atomically persist the sweep manifest; returns its path."""
    import json
    path = sweep_manifest_path(sweep)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write_bytes(
        path, (json.dumps(manifest, indent=2, sort_keys=True)
               + "\n").encode(),
        point="sweep.manifest")
    return path


def validate_sweep_manifest(manifest: dict) -> dict:
    """Check a sweep manifest against :data:`SWEEP_SCHEMA`.

    Returns the manifest; raises :class:`~repro.api.SpecError` on any
    violation.  Used by the CI sweep smoke step and by report tooling.
    """
    if not isinstance(manifest, dict):
        raise SpecError(f"sweep manifest must be an object, "
                        f"got {type(manifest).__name__}")
    if manifest.get("schema") != SWEEP_SCHEMA:
        raise SpecError(f"sweep manifest schema must be "
                        f"{SWEEP_SCHEMA!r}, got "
                        f"{manifest.get('schema')!r}")
    for key, kind in (("name", str), ("sweep_fingerprint", str),
                      ("base", dict), ("axes", list), ("grid_size", int),
                      ("points", list), ("leaderboard", list),
                      ("complete", bool), ("created_unix", (int, float))):
        if not isinstance(manifest.get(key), kind):
            raise SpecError(f"sweep manifest[{key!r}] missing or not "
                            f"{kind if isinstance(kind, type) else 'number'}")
    if len(manifest["points"]) != manifest["grid_size"]:
        raise SpecError(f"sweep manifest lists "
                        f"{len(manifest['points'])} points but "
                        f"grid_size = {manifest['grid_size']}")
    states = {"done", "leased", "pending", "quarantined"}
    for record in manifest["points"]:
        for key in ("index", "fingerprint", "axes", "seed", "state",
                    "family", "suite"):
            if key not in record:
                raise SpecError(f"sweep point record missing {key!r}")
        if record["state"] not in states:
            raise SpecError(f"sweep point {record['index']} has unknown "
                            f"state {record['state']!r}")
        if record["state"] == "done" and not isinstance(
                record.get("metrics"), dict):
            raise SpecError(f"sweep point {record['index']} is done but "
                            f"carries no metrics")
    done = sum(1 for r in manifest["points"] if r["state"] == "done")
    if len(manifest["leaderboard"]) != done:
        raise SpecError(f"leaderboard has {len(manifest['leaderboard'])} "
                        f"entries but {done} point(s) are done")
    for i, entry in enumerate(manifest["leaderboard"]):
        if entry.get("rank") != i + 1:
            raise SpecError(f"leaderboard entry {i} has rank "
                            f"{entry.get('rank')!r}, expected {i + 1}")
        for key in ("fingerprint", "family", "suite", "f1", "acc"):
            if key not in entry:
                raise SpecError(f"leaderboard entry {i} missing {key!r}")
        if i and entry["f1"] > manifest["leaderboard"][i - 1]["f1"]:
            raise SpecError("leaderboard is not sorted by F1 descending")
    if manifest["complete"] != (done == manifest["grid_size"]):
        raise SpecError(f"sweep manifest complete={manifest['complete']} "
                        f"but {done}/{manifest['grid_size']} points done")
    return manifest


def _axes_cell(axes: dict) -> str:
    return " ".join(f"{path.rsplit('.', 1)[-1]}={value}"
                    for path, value in axes.items())


def render_leaderboard(manifest: dict) -> str:
    """Render the ranked leaderboard + family × suite matrix as text."""
    name = manifest["name"]
    done = len(manifest["leaderboard"])
    total = manifest["grid_size"]
    rows = [{
        "#": entry["rank"],
        "family": entry["family"],
        "suite": entry["suite"],
        "axes": _axes_cell(entry["axes"]),
        "F1 %": f"{entry['f1']:.2f}",
        "ACC %": f"{entry['acc']:.2f}",
        "fingerprint": entry["fingerprint"][:12],
    } for entry in manifest["leaderboard"]]
    header = (f"Sweep {name!r}: {done}/{total} grid point(s) done"
              + ("" if manifest["complete"] else " (incomplete)"))
    blocks = [format_table(rows, title=header) if rows else header]

    # Paper-style comparison matrix: best F1 per family × suite cell.
    families = sorted({e["family"] for e in manifest["leaderboard"]})
    suites = sorted({e["suite"] for e in manifest["leaderboard"]})
    if families and suites:
        best: dict[tuple, float] = {}
        for entry in manifest["leaderboard"]:
            key = (entry["family"], entry["suite"])
            if key not in best or entry["f1"] > best[key]:
                best[key] = entry["f1"]
        matrix = [{"family": family,
                   **{suite: (f"{best[(family, suite)]:.2f}"
                              if (family, suite) in best else "-")
                      for suite in suites}}
                  for family in families]
        blocks.append(format_table(
            matrix, title="Best F1 % per family x suite"))

    missing = [r for r in manifest["points"] if r["state"] != "done"]
    if missing:
        blocks.append(format_table(
            [{"point": r["index"], "state": r["state"],
              "axes": _axes_cell(r["axes"]),
              "fingerprint": r["fingerprint"][:12]} for r in missing],
            title="Not yet on the leaderboard"))
    return "\n\n".join(blocks)
