"""``repro.perf`` — op-level performance instrumentation and reporting.

The numerical engine (:mod:`repro.nn`) guards its hot paths with
lightweight timers that report into a process-global
:class:`PerfRegistry`.  Instrumentation is **off by default** and costs a
single attribute check per op when disabled, so production serving and
training pay nothing; benches and the perf harness flip it on around the
region they measure:

>>> from repro import perf
>>> perf.enable()
>>> run_training_epoch()            # doctest: +SKIP
>>> report = perf.perf_report()     # {"ops": {"spmm.forward": {...}}}
>>> perf.disable()

Recorded per op: call count, total/mean wall seconds, and the bytes of
the arrays the op produced (an allocation counter — the engine's hot
loops are allocation-bound on CPU, so "bytes materialised per step" is
the number the in-place-optimizer and buffer-reuse work drives down).

The tracked ``BENCH_*.json`` bench reports are written and validated
by :mod:`repro.perf.report`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["PerfRegistry", "PERF", "enable", "disable", "reset",
           "perf_report", "op_timer"]


@dataclass
class _OpStat:
    """Accumulated statistics of one instrumented op."""

    calls: int = 0
    total_s: float = 0.0
    bytes_allocated: int = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "mean_s": self.total_s / self.calls if self.calls else 0.0,
            "bytes_allocated": self.bytes_allocated,
        }


class PerfRegistry:
    """Process-global accumulator for op timings and allocation counts.

    Hot paths check :attr:`enabled` (a plain bool — no locks, no
    indirection) and call :meth:`record` only when it is set, so the
    disabled cost is one ``if``.  The registry is not thread-safe;
    perf capture is a single-threaded benching activity.
    """

    __slots__ = ("enabled", "_stats")

    def __init__(self) -> None:
        self.enabled = False
        self._stats: dict[str, _OpStat] = {}

    def record(self, name: str, seconds: float, nbytes: int = 0) -> None:
        """Add one op invocation (``seconds`` wall time, ``nbytes``
        of output arrays materialised)."""
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = _OpStat()
        stat.calls += 1
        stat.total_s += seconds
        stat.bytes_allocated += nbytes

    def reset(self) -> None:
        """Drop all accumulated statistics (keeps the enabled flag)."""
        self._stats.clear()

    def report(self) -> dict:
        """Snapshot as a JSON-serialisable dict, ops sorted by total time."""
        ops = sorted(self._stats.items(),
                     key=lambda kv: kv[1].total_s, reverse=True)
        return {"enabled": self.enabled,
                "ops": {name: stat.as_dict() for name, stat in ops}}


#: The process-global registry the :mod:`repro.nn` hot paths report into.
PERF = PerfRegistry()


def enable(reset: bool = True) -> None:
    """Turn on op-level capture (optionally clearing previous stats)."""
    if reset:
        PERF.reset()
    PERF.enabled = True


def disable() -> None:
    """Turn off op-level capture (accumulated stats are kept)."""
    PERF.enabled = False


def reset() -> None:
    """Clear accumulated statistics."""
    PERF.reset()


def perf_report() -> dict:
    """The current registry snapshot (see :meth:`PerfRegistry.report`)."""
    return PERF.report()


@contextmanager
def op_timer(name: str, nbytes: int = 0):
    """Record the wrapped block as one invocation of op ``name``.

    A no-op (beyond one flag check) when capture is disabled, so it is
    safe to leave in library code outside the hottest loops.
    """
    if not PERF.enabled:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        PERF.record(name, time.perf_counter() - t0, nbytes)
