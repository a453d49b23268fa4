"""Deterministic fault injection for the durable artifact store.

The store (:mod:`repro.store`) calls three hooks at well-known
*injection points*; with no injector installed every hook is a no-op
(one ``is None`` check).  Tests install a :class:`FaultInjector` — in
process via :func:`install_faults`, or across process boundaries via the
``REPRO_FAULTS`` environment variable (a JSON list of rule dicts), which
is how a SIGKILL lands inside a ``prepare --workers N`` pool worker.

Injection points and their hooks::

    on_write(point, tag, data) -> data   may raise EIO / FaultError,
                                         or truncate the bytes written
    on_read(point, tag, data)  -> data   may raise EIO, or flip a byte
    barrier(point, tag)                  may raise, or SIGKILL the
                                         process on the spot

Points currently compiled in:

=========================  ====================================================
``store.write``            framed blob bytes about to be written (per attempt)
``store.write.tmp``        barrier between tmp-file write and the rename
``store.read``             blob bytes just read, before checksum verification
``checkpoint.write``       checkpoint npz bytes about to be written
``checkpoint.write.tmp``   barrier between checkpoint tmp write and rename
``checkpoint.read``        checkpoint bytes just read, before verification
``stage.start``            barrier before a pipeline stage computes
                           (tag = ``"<stage>:<design>"``)
``stage.stored``           barrier right after a stage product is persisted
``experiment.manifest``    result-manifest bytes about to be written
``sweep.point.start``      barrier after a sweep grid point's lease is won,
                           before it executes (tag = spec fingerprint)
``sweep.manifest.read``    result-manifest bytes read during sweep
                           done-detection, before validation
``sweep.manifest``         sweep leaderboard-manifest bytes about to be written
=========================  ====================================================

Every rule fires deterministically: hits are counted per rule within a
process, and a rule fires on matching hits ``nth .. nth + count - 1``
(``count=-1`` keeps firing forever).  There is no randomness anywhere —
the same program under the same plan fails the same way every time.
"""

from __future__ import annotations

import errno
import json
import os
import signal
from dataclasses import asdict, dataclass, field

__all__ = ["FaultRule", "FaultInjector", "install_faults", "clear_faults",
           "current_injector"]

#: Environment variable carrying a JSON fault plan into child processes.
FAULTS_ENV = "REPRO_FAULTS"


class FaultError(RuntimeError):
    """An injected, non-OSError failure (the ``fail`` action)."""


@dataclass
class FaultRule:
    """One deterministic fault: *where*, *what*, and *when*.

    ``point`` names the injection point; ``match`` (substring) narrows it
    to specific tags — a blob key, a file path, a ``stage:design`` pair.
    The rule fires on its ``nth`` matching hit (1-based) and keeps firing
    for ``count`` consecutive hits (``-1`` = forever).

    Actions:

    * ``"eio"``      — raise ``OSError(EIO)`` (transient-looking I/O)
    * ``"fail"``     — raise :class:`FaultError` (non-retryable)
    * ``"truncate"`` — keep only the first ``arg`` bytes on write
    * ``"flip"``     — XOR the byte at offset ``arg`` on read
    * ``"kill"``     — SIGKILL the current process at a barrier
    """

    point: str
    action: str
    nth: int = 1
    count: int = 1
    match: str = ""
    arg: int = 0

    _ACTIONS = ("eio", "fail", "truncate", "flip", "kill")

    def __post_init__(self):
        if self.action not in self._ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"expected one of {self._ACTIONS}")
        if self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")


@dataclass
class FaultInjector:
    """A deterministic fault plan plus its per-process hit counters."""

    rules: list[FaultRule] = field(default_factory=list)

    def __post_init__(self):
        self._hits = [0] * len(self.rules)

    # -- firing logic --------------------------------------------------
    def _firing(self, point: str, tag: str) -> list[FaultRule]:
        fired = []
        for i, rule in enumerate(self.rules):
            if rule.point != point or rule.match not in tag:
                continue
            self._hits[i] += 1
            n = self._hits[i]
            if n >= rule.nth and (rule.count < 0
                                  or n < rule.nth + rule.count):
                fired.append(rule)
        return fired

    @staticmethod
    def _raise(rule: FaultRule, point: str, tag: str) -> None:
        if rule.action == "eio":
            raise OSError(errno.EIO,
                          f"injected EIO at {point} ({tag})")
        if rule.action == "fail":
            raise FaultError(f"injected failure at {point} ({tag})")
        if rule.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)

    # -- hooks ---------------------------------------------------------
    def barrier(self, point: str, tag: str = "") -> None:
        """A pure control-flow injection point (kill / raise)."""
        for rule in self._firing(point, tag):
            self._raise(rule, point, tag)

    def on_write(self, point: str, tag: str, data: bytes) -> bytes:
        """Filter bytes about to be written; may raise or truncate."""
        for rule in self._firing(point, tag):
            if rule.action == "truncate":
                data = data[:rule.arg]
            else:
                self._raise(rule, point, tag)
        return data

    def on_read(self, point: str, tag: str, data: bytes) -> bytes:
        """Filter bytes just read; may raise or flip a byte."""
        for rule in self._firing(point, tag):
            if rule.action == "flip":
                offset = rule.arg % max(1, len(data))
                mutated = bytearray(data)
                mutated[offset] ^= 0xFF
                data = bytes(mutated)
            else:
                self._raise(rule, point, tag)
        return data

    # -- (de)serialisation for subprocess tests ------------------------
    def to_env(self) -> str:
        """The JSON plan to put in ``os.environ[FAULTS_ENV]``."""
        return json.dumps([asdict(rule) for rule in self.rules])

    @classmethod
    def from_env(cls, payload: str) -> "FaultInjector":
        return cls(rules=[FaultRule(**entry)
                          for entry in json.loads(payload)])


_ACTIVE: FaultInjector | None = None
_ENV_LOADED = False


def install_faults(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` as the process-wide fault plan."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def clear_faults() -> None:
    """Remove any installed injector (env plans reload on next lookup)."""
    global _ACTIVE, _ENV_LOADED
    _ACTIVE = None
    _ENV_LOADED = False


def current_injector() -> FaultInjector | None:
    """The active injector, if any.

    An explicitly installed injector wins; otherwise the ``REPRO_FAULTS``
    environment plan is parsed once per process (so pool workers and
    spawned subprocesses inherit the plan with fresh hit counters).
    ``None`` means every injection point is a no-op.
    """
    global _ACTIVE, _ENV_LOADED
    if _ACTIVE is None and not _ENV_LOADED:
        _ENV_LOADED = True
        payload = os.environ.get(FAULTS_ENV)
        if payload:
            _ACTIVE = FaultInjector.from_env(payload)
    return _ACTIVE
