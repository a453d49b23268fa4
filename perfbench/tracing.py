"""Spans and counters recorded from outside the library.

The benchmark never edits ``src/``: a traced run wraps public functions
and methods of :mod:`repro` in spans for as long as a
:class:`Patches` context is open, and restores the originals on exit.

A span records its wall time; its *self* time is that duration minus
the part covered by spans opened inside it on the same thread, so the
self times of all spans below a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span and counter store (thread-safe accumulation)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        frame = [name, 0.0]  # [name, seconds covered by child spans]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                self.self_s[name] += elapsed - frame[1]
                self.total_s[name] += elapsed
                self.calls[name] += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(result, args)``
        runs after each call (outside the span) to record counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result
        return traced


class Patches:
    """Replace attributes for the lifetime of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._undo: list = []

    def attr(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def on_exit(self, undo) -> None:
        """Run ``undo()`` when the block ends (for non-attribute state)."""
        self._undo.append(undo)

    def function(self, fn, replacement) -> None:
        """Swap ``fn`` in every loaded ``repro`` module that binds it,
        so ``from x import fn`` call sites see the wrapper too."""
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.attr(module, attr, replacement)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
