"""Machine-readable benchmark reporting: the tracked ``BENCH_*.json`` files.

The micro-benches under ``benchmarks/`` each record their numbers in one
tracked report at the repo root — ``BENCH_nn.json`` (float32 vs float64
engine timings plus an op-level breakdown), ``BENCH_serve.json``
(requests/s and latency percentiles per load shape) and
``BENCH_store.json`` (raw vs checksummed warm read timings).  All three
share one schema-versioned envelope, written by
:func:`write_bench_report` and validated by :func:`load_bench_report`:

* ``schema`` — :data:`BENCH_SCHEMA`;
* ``entries`` — non-empty mapping of bench name to an object whose
  every field is a number (free-form strings belong in ``context``);
* ``context`` — free-form machine and workload context;
* ``platform`` — python version, machine and system;
* ``perf_ops`` — optional op-level snapshot from
  :func:`repro.perf.perf_report`.

The files are meant to be diffed across commits — CI uploads them as
build artifacts on the nightly bench run — so the writer checks the
report it is about to write and replaces the file atomically, and the
loader applies the same check to what it reads back.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Mapping

from ..store import atomic_write_bytes

__all__ = ["speedup_entry", "write_bench_report", "load_bench_report",
           "report_requested"]

#: Schema tag of the report format; bump when the layout changes.
BENCH_SCHEMA = "repro-bench-v1"

#: Benches write their tracked ``BENCH_*.json`` report only when this
#: environment variable is ``1`` (the nightly CI job sets it), so a plain
#: test run never rewrites a tracked file.
REPORT_ENV = "REPRO_BENCH_REPORT"


def report_requested() -> bool:
    """Whether benches should write their ``BENCH_*.json`` report."""
    return os.environ.get(REPORT_ENV) == "1"


def speedup_entry(float32_s: float, float64_s: float,
                  **extra: float) -> dict:
    """One benchmark entry: per-dtype seconds plus the speedup ratio.

    Extra keyword values (e.g. an F1-parity delta) are stored verbatim;
    like every entry field they must be numbers.
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


def write_bench_report(path: str, entries: Mapping[str, dict], *,
                       context: dict | None = None,
                       perf_ops: dict | None = None) -> str:
    """Validate and atomically write a benchmark report; return ``path``.

    Parameters
    ----------
    entries:
        Mapping of benchmark name (``train_epoch``, ``cold_burst_1worker``,
        ``stage_graph_load`` ...) to entry dicts of numbers — e.g. from
        :func:`speedup_entry`.
    context:
        Optional free-form machine and workload context (suite sizes,
        rounds ...).
    perf_ops:
        Optional op-level snapshot (:func:`repro.perf.perf_report`),
        giving the per-op breakdown behind the headline numbers.

    Raises ``ValueError`` — leaving any previous file untouched — if the
    report would not pass :func:`load_bench_report`.
    """
    report = {
        "schema": BENCH_SCHEMA,
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
    _validate(path, report)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, text.encode())
    return path


def load_bench_report(path: str) -> dict:
    """Read and validate a report written by :func:`write_bench_report`.

    Raises ``ValueError`` on schema mismatch or a structurally invalid
    file, so the nightly CI job fails instead of uploading an undiffable
    artifact, and a tier-1 test holds every tracked report to the format.
    """
    with open(path) as handle:
        report = json.load(handle)
    return _validate(path, report)


def _validate(path: str, report: dict) -> dict:
    """Check the report envelope and that every entry field is a number."""
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != BENCH_SCHEMA:
        raise ValueError(f"{path}: unknown bench schema {schema!r} "
                         f"(expected {BENCH_SCHEMA!r})")
    entries = report.get("entries")
    if not isinstance(entries, dict) or not entries:
        raise ValueError(f"{path}: report has no entries")
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: entry {name!r} is not an object")
        for key, value in entry.items():
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                raise ValueError(f"{path}: entry {name!r} field {key!r} "
                                 f"is not a number")
    if "perf_ops" in report and not isinstance(report["perf_ops"], dict):
        raise ValueError(f"{path}: perf_ops is not an object")
    return report
