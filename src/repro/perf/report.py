"""Machine-readable benchmark reporting: the ``BENCH_nn.json`` trajectory.

The repo's ROADMAP demands the engine run "as fast as the hardware
allows"; this module is how progress toward that is *recorded*.  Benches
(`benchmarks/test_substrate_performance.py`) measure the numerical
engine's hot paths at float32 and float64 and hand the timings to
:func:`write_bench_report`, which writes a small, schema-versioned JSON
file.  Each entry carries the raw per-dtype seconds and the
``speedup_vs_float64`` ratio, plus (optionally) the op-level timer
snapshot from :func:`repro.perf.perf_report`.

The file is meant to be diffed across commits — CI uploads it as a build
artifact on the nightly bench run — so the schema is strict and
:func:`load_bench_report` validates it.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Mapping

__all__ = ["BENCH_SCHEMA", "SERVE_BENCH_SCHEMA", "STORE_BENCH_SCHEMA",
           "speedup_entry", "write_bench_report", "load_bench_report",
           "write_serve_bench_report", "load_serve_bench_report",
           "write_store_bench_report", "load_store_bench_report",
           "REPORT_ENV", "report_requested"]

#: Schema tag of the report format; bump when the layout changes.
BENCH_SCHEMA = "repro-bench-nn-v1"

#: Schema tag of the serving-load report (``BENCH_serve.json``): entries
#: carry requests/s and p50/p99 latency percentiles per load shape.
SERVE_BENCH_SCHEMA = "repro-bench-serve-v1"

#: Schema tag of the artifact-store report (``BENCH_store.json``):
#: entries carry raw vs checksummed read timings and the overhead ratio.
STORE_BENCH_SCHEMA = "repro-bench-store-v1"

#: Benches write their tracked ``BENCH_*.json`` report only when this
#: environment variable is ``1`` (the nightly CI job sets it), so a plain
#: test run never rewrites a tracked file.
REPORT_ENV = "REPRO_BENCH_REPORT"


def report_requested() -> bool:
    """Whether benches should write their ``BENCH_*.json`` report."""
    return os.environ.get(REPORT_ENV) == "1"


def speedup_entry(float32_s: float, float64_s: float,
                  **extra) -> dict:
    """One benchmark entry: per-dtype seconds plus the speedup ratio.

    Extra keyword values (e.g. an F1-parity delta) are stored verbatim.
    """
    if float32_s <= 0 or float64_s <= 0:
        raise ValueError("timings must be positive")
    entry = {
        "float32_s": float(float32_s),
        "float64_s": float(float64_s),
        "speedup_vs_float64": float(float64_s) / float(float32_s),
    }
    entry.update(extra)
    return entry


def write_bench_report(path: str, entries: Mapping[str, dict],
                       perf_ops: dict | None = None,
                       context: dict | None = None) -> str:
    """Write the benchmark report to ``path`` and return the path.

    Parameters
    ----------
    entries:
        Mapping of benchmark name (``train_epoch``, ``conv2d_forward``,
        ``spmm``, ``serve_flush`` ...) to entry dicts — typically from
        :func:`speedup_entry`.
    perf_ops:
        Optional op-level snapshot (:func:`repro.perf.perf_report`),
        giving the per-op breakdown behind the headline numbers.
    context:
        Optional free-form machine context (suite sizes, rounds ...).
    """
    return _write_report(path, BENCH_SCHEMA, entries, perf_ops, context)


def _write_report(path: str, schema: str, entries: Mapping[str, dict],
                  perf_ops: dict | None = None,
                  context: dict | None = None) -> str:
    if not entries:
        raise ValueError("refusing to write an empty benchmark report")
    report = {
        "schema": schema,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "context": dict(context or {}),
        "entries": {str(k): dict(v) for k, v in entries.items()},
    }
    if perf_ops is not None:
        report["perf_ops"] = perf_ops
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_bench_report(path: str) -> dict:
    """Read and validate a report written by :func:`write_bench_report`.

    Raises ``ValueError`` on schema mismatch or a structurally invalid
    file — the CI smoke test calls this, so a reporter regression fails
    tier-1 instead of silently producing an undiffable artifact.
    """
    return _load_report(path, BENCH_SCHEMA,
                        numeric_suffixes=("_s", "speedup_vs_float64"))


def write_serve_bench_report(path: str, entries: Mapping[str, dict],
                             context: dict | None = None) -> str:
    """Write the sustained-load serving report (``BENCH_serve.json``).

    Entries come from the serving benches: per load shape, the observed
    ``requests_per_s`` and latency percentiles (``p50_ms``/``p99_ms``),
    plus whatever shape parameters (workers, request counts) make the
    number interpretable.  Same envelope and atomic-write discipline as
    the ``BENCH_nn.json`` trajectory, different schema tag.
    """
    return _write_report(path, SERVE_BENCH_SCHEMA, entries, None, context)


def load_serve_bench_report(path: str) -> dict:
    """Read and validate a ``BENCH_serve.json`` report.

    The nightly CI job calls this after the sustained-load bench, so an
    invalid or empty artifact fails the job instead of uploading noise.
    """
    return _load_report(
        path, SERVE_BENCH_SCHEMA,
        numeric_suffixes=("_s", "_ms", "requests_per_s", "speedup"))


def write_store_bench_report(path: str, entries: Mapping[str, dict],
                             context: dict | None = None) -> str:
    """Write the artifact-store overhead report (``BENCH_store.json``).

    Entries come from the store micro-bench: per payload shape, the
    best-of-N wall time of raw (unverified) vs checksummed warm reads
    (``raw_read_s`` / ``verified_read_s``) and their
    ``overhead_ratio`` — the number the ≤1.10× budget in
    ``benchmarks/test_store_overhead.py`` is asserted on.
    """
    return _write_report(path, STORE_BENCH_SCHEMA, entries, None, context)


def load_store_bench_report(path: str) -> dict:
    """Read and validate a ``BENCH_store.json`` report.

    The nightly CI job calls this after the store bench, so an invalid
    or empty artifact fails the job instead of uploading noise.
    """
    return _load_report(path, STORE_BENCH_SCHEMA,
                        numeric_suffixes=("_s", "_ratio", "_bytes"))


def _load_report(path: str, schema: str,
                 numeric_suffixes: tuple[str, ...]) -> dict:
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != schema:
        raise ValueError(f"{path}: unknown bench schema "
                         f"{report.get('schema')!r} (expected {schema!r})")
    entries = report.get("entries")
    if not isinstance(entries, dict) or not entries:
        raise ValueError(f"{path}: report has no entries")
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: entry {name!r} is not an object")
        for key, value in entry.items():
            if key.endswith(numeric_suffixes) \
                    and not isinstance(value, (int, float)):
                raise ValueError(f"{path}: entry {name!r} field {key!r} "
                                 f"is not numeric")
    return report
