"""Request routing for the multi-worker serving service.

The service's workers each hold a private model replica *and* a private
warm :class:`~repro.serve.cache.SampleCache`, so where a request runs
decides whether it is cheap.  The router's job is twofold:

* **stickiness** — every design reference canonicalises to a routing
  key (:func:`routing_key`); repeat references to the same key are
  routed to the worker that prepared it first, so they hit that
  worker's warm cache instead of re-running place-and-route elsewhere;
* **lane separation** — first-seen keys are *cold* (they will pay the
  raw-``Design`` pipeline) and are spread round-robin across workers;
  already-seen keys are *warm* (expected cache hits).  The service
  keeps the two lanes in separate per-worker queues and drains the
  warm lane with strict priority, so cheap inference is never queued
  behind someone else's expensive preparation backlog.

The router never resolves designs itself — keys are derived purely from
the protocol payload, so routing costs microseconds and the service
process holds no model or design state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["Router"]


def routing_key(payload: dict) -> str:
    """Canonical identity of the design a predict payload references.

    Two payloads that resolve to the same prepared sample map to the
    same key: suite designs key on ``(suite, design)`` with the suite
    defaulted explicitly, inline generator specs on their canonical
    JSON (key order never matters).  Raises ``ValueError`` for payloads
    that reference nothing — the same contract as
    :meth:`repro.serve.server.DesignResolver.resolve`.
    """
    spec = payload.get("spec")
    if spec is not None:
        if not isinstance(spec, dict):
            raise ValueError(f"'spec' must be an object, got "
                             f"{type(spec).__name__}")
        return "spec:" + json.dumps(spec, sort_keys=True,
                                    separators=(",", ":"), default=str)
    name = payload.get("design")
    if not name:
        raise ValueError("predict needs 'design' (+ optional 'suite') "
                         "or an inline 'spec'")
    suite = payload.get("suite") or payload.get("_default_suite", "")
    return f"design:{suite}/{name}"


@dataclass(frozen=True)
class Route:
    """Where one request goes: worker index, lane, and its content key."""

    worker: int
    lane: str  # "warm" | "cold"
    key: str


class Router:
    """Sticky two-lane router over ``num_workers`` engine workers."""

    def __init__(self, num_workers: int, default_suite: str = "superblue"):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.default_suite = default_suite
        self._home: dict[str, int] = {}
        self._cursor = 0
        self._warm_routed = 0
        self._cold_routed = 0

    def route(self, payload: dict) -> Route:
        """Assign one predict payload to a worker and lane.

        The first request for a key claims the next worker round-robin
        and is cold; every later request for that key is warm and goes
        to the same (home) worker, where the prepared sample lives.
        Raises ``ValueError`` for payloads referencing no design.
        """
        key = routing_key({**payload, "_default_suite": self.default_suite})
        home = self._home.get(key)
        if home is not None:
            self._warm_routed += 1
            return Route(worker=home, lane="warm", key=key)
        worker = self._cursor % self.num_workers
        self._cursor += 1
        self._home[key] = worker
        self._cold_routed += 1
        return Route(worker=worker, lane="cold", key=key)

    def forget(self) -> None:
        """Drop all warm-key homes (e.g. after a checkpoint reload).

        Reloading rebuilds every worker's engine, so the in-memory
        sample caches are gone; keys re-learn their homes as traffic
        returns.  The on-disk stage cache still makes the re-preparation
        cheap.
        """
        self._home.clear()

    def stats(self) -> dict:
        """Routing counters for the service ``stats`` endpoint."""
        return {"workers": self.num_workers,
                "known_keys": len(self._home),
                "warm_routed": self._warm_routed,
                "cold_routed": self._cold_routed}
