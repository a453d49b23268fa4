"""Tests for the deterministic fault-injection harness itself.

The chaos suite leans entirely on these semantics — nth/count windows,
substring matching, per-process hit counters, env round-trips — so they
get direct coverage before anything is injected into the store.
"""

from __future__ import annotations

import errno

import pytest

from repro.testing import (FaultInjector, FaultRule, clear_faults,
                           current_injector, install_faults)
from repro.testing.faults import FaultError
from repro.testing.faults import FAULTS_ENV


class TestFaultRule:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(point="store.write", action="explode")

    def test_nth_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultRule(point="store.write", action="eio", nth=0)


class TestFiringWindows:
    def test_nth_and_count_window(self):
        inj = FaultInjector([FaultRule(point="p", action="fail",
                                       nth=2, count=2)])
        inj.barrier("p")                       # hit 1: before the window
        with pytest.raises(FaultError):
            inj.barrier("p")                   # hit 2: fires
        with pytest.raises(FaultError):
            inj.barrier("p")                   # hit 3: fires
        inj.barrier("p")                       # hit 4: window exhausted

    def test_count_minus_one_fires_forever(self):
        inj = FaultInjector([FaultRule(point="p", action="fail", count=-1)])
        for _ in range(5):
            with pytest.raises(FaultError):
                inj.barrier("p")

    def test_match_narrows_by_tag_substring(self):
        inj = FaultInjector([FaultRule(point="stage.start", action="fail",
                                       match="route:alpha")])
        inj.barrier("stage.start", "place:alpha")   # different stage
        inj.barrier("stage.start", "route:beta")    # different design
        with pytest.raises(FaultError):
            inj.barrier("stage.start", "route:alpha")

    def test_non_matching_hits_do_not_advance_counter(self):
        inj = FaultInjector([FaultRule(point="p", action="fail",
                                       nth=2, match="x")])
        inj.barrier("p", "other")  # no match: not a hit
        inj.barrier("p", "x-1")    # hit 1
        with pytest.raises(FaultError):
            inj.barrier("p", "x-2")  # hit 2 fires

    def test_determinism_same_plan_same_failures(self):
        def run():
            inj = FaultInjector([FaultRule(point="p", action="eio", nth=3)])
            outcomes = []
            for _ in range(5):
                try:
                    inj.barrier("p")
                    outcomes.append("ok")
                except OSError:
                    outcomes.append("eio")
            return outcomes
        assert run() == run() == ["ok", "ok", "eio", "ok", "ok"]


class TestActions:
    def test_eio_carries_the_errno(self):
        inj = FaultInjector([FaultRule(point="p", action="eio")])
        with pytest.raises(OSError) as info:
            inj.barrier("p")
        assert info.value.errno == errno.EIO

    def test_truncate_on_write(self):
        inj = FaultInjector([FaultRule(point="w", action="truncate", arg=3)])
        assert inj.on_write("w", "t", b"abcdef") == b"abc"
        assert inj.on_write("w", "t", b"abcdef") == b"abcdef"  # count=1

    def test_flip_on_read(self):
        inj = FaultInjector([FaultRule(point="r", action="flip", arg=1)])
        mutated = inj.on_read("r", "t", b"abc")
        assert mutated == bytes([ord("a"), ord("b") ^ 0xFF, ord("c")])


class TestInstallAndEnv:
    def test_install_and_clear(self):
        inj = install_faults(FaultInjector([]))
        assert current_injector() is inj
        clear_faults()
        assert current_injector() is None

    def test_env_round_trip_resets_hit_counters(self):
        inj = FaultInjector([FaultRule(point="p", action="fail",
                                       nth=1, count=1, match="m", arg=7)])
        with pytest.raises(FaultError):
            inj.barrier("p", "m")
        clone = FaultInjector.from_env(inj.to_env())
        assert clone.rules == inj.rules
        with pytest.raises(FaultError):  # fresh counters fire again
            clone.barrier("p", "m")

    def test_env_plan_is_picked_up(self, monkeypatch):
        plan = FaultInjector([FaultRule(point="p", action="fail")]).to_env()
        monkeypatch.setenv(FAULTS_ENV, plan)
        clear_faults()  # force a re-read of the environment
        inj = current_injector()
        assert inj is not None
        with pytest.raises(FaultError):
            inj.barrier("p")
