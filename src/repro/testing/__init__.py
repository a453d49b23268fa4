"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection
harness used by the reliability test suite (and available to anyone who
wants to chaos-test code built on :mod:`repro.store`).  It lives in the
installed package — not under ``tests/`` — because injection points are
compiled into the store's hot paths and because subprocess-based tests
(SIGKILL at a barrier inside ``prepare --workers N``) need the harness
importable from a bare ``PYTHONPATH=src`` child process.
"""

from .faults import (FaultInjector, FaultRule, clear_faults, current_injector,
                     install_faults)

__all__ = ["FaultInjector", "FaultRule", "clear_faults", "current_injector",
           "install_faults"]
