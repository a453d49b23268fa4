"""Chaos suite for serving: crash loops, breakers, mid-reload kills.

Deterministic faults from :mod:`repro.testing.faults` ride into spawned
worker processes via the ``REPRO_FAULTS`` environment variable (set
before ``Process.start()``, inherited by the child).  Marked ``chaos``
and excluded from tier-1; the nightly CI job runs ``-m chaos``.
"""

import asyncio
import contextlib

import numpy as np
import pytest

from repro.models.mlp_baseline import MLPBaseline
from repro.pipeline import PipelineConfig
from repro.placement import PlacementConfig
from repro.routing import RouterConfig
from repro.serve import (AsyncServeClient, ServeConfig, ServeService,
                         ServiceConfig, Supervisor, WorkerCrashed,
                         WorkerSpec, save_model)
from repro.testing import FaultInjector, FaultRule, clear_faults
from repro.testing.faults import FAULTS_ENV

pytestmark = pytest.mark.chaos


@contextlib.asynccontextmanager
async def running(service):
    """The service bound to an ephemeral port, torn down afterwards."""
    ready = asyncio.get_running_loop().create_future()
    task = asyncio.create_task(
        service.run("127.0.0.1", 0, ready_callback=ready.set_result))
    port = await asyncio.wait_for(asyncio.shield(ready), 120)
    try:
        yield port
    finally:
        service._stopped.set()
        await asyncio.wait_for(task, 120)

SPEC_A = {"name": "chaos-a", "seed": 3, "num_movable": 60, "die_size": 32.0}


@pytest.fixture(autouse=True)
def _isolated_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    clear_faults()
    yield
    clear_faults()


def small_pipeline():
    return PipelineConfig(grid_nx=8, grid_ny=8,
                          placement=PlacementConfig(outer_iterations=2),
                          router=RouterConfig(nx=8, ny=8, capacity_h=10.0,
                                              capacity_v=10.0,
                                              rrr_iterations=2))


def eio_forever_plan() -> str:
    """Every checkpoint read in a (future) worker fails past all retries."""
    return FaultInjector([FaultRule(point="checkpoint.read", action="eio",
                                    count=-1)]).to_env()


def kill_on_reload_plan() -> str:
    """SIGKILL on the 2nd checkpoint read: boot restore survives (hit 1;
    a restore reads the file once), the next in-process reload dies
    mid-restore (hit 2)."""
    return FaultInjector([FaultRule(point="checkpoint.read", action="kill",
                                    nth=2)]).to_env()


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("chaos")
    first = save_model(MLPBaseline(hidden=8, rng=np.random.default_rng(0)),
                       str(tmp / "mlp-a.npz"))
    second = save_model(MLPBaseline(hidden=8, rng=np.random.default_rng(9)),
                        str(tmp / "mlp-b.npz"))
    return first, second


@pytest.fixture()
def spec(checkpoints, tmp_path):
    return WorkerSpec(checkpoint=checkpoints[0],
                      serve=ServeConfig(pipeline=small_pipeline(),
                                        cache_dir=str(tmp_path / "cache")))


class TestCrashLoopBreaker:
    def test_breaker_opens_after_repeated_boot_deaths_and_reload_revives(
            self, spec, checkpoints, monkeypatch):
        with Supervisor(spec, num_workers=1, job_timeout_s=30.0,
                        restart_backoff_s=0.01, max_restarts=2,
                        restart_window_s=60.0) as sup:
            assert sup.dispatch(0, "ping") == "pong"

            # From now on every *fresh* worker dies restoring its model.
            monkeypatch.setenv(FAULTS_ENV, eio_forever_plan())
            sup._workers[0].process.kill()

            # Crash -> restart -> boot-dead -> crash ... deterministically
            # converges to an open breaker instead of a fork bomb.
            reasons = []
            for _ in range(4):
                with pytest.raises(WorkerCrashed) as info:
                    sup.dispatch(0, "ping")
                reasons.append(info.value.reason)
                if "circuit breaker open" in info.value.reason:
                    break
            assert any("circuit breaker open" in r for r in reasons)
            assert sup.degraded
            assert 0 in sup.broken_workers()
            # Jobs fail *immediately* now: no process was respawned.
            with pytest.raises(WorkerCrashed, match="circuit breaker"):
                sup.dispatch(0, "ping")
            stats = sup.stats()
            assert stats[0]["broken"]
            assert "circuit breaker" in stats[0]["error"]

            # Recovery path: reload with a good checkpoint (and a clean
            # environment) revives the broken worker.
            monkeypatch.delenv(FAULTS_ENV)
            acks = sup.reload(checkpoints[1])
            assert acks == [{"status": "revived",
                             "checkpoint": checkpoints[1]}]
            assert not sup.degraded
            assert sup.broken_workers() == {}
            assert sup.dispatch(0, "ping") == "pong"
            assert sup.dispatch(0, "stats")["model_family"] == "mlp"


class TestKillMidReload:
    def test_worker_killed_mid_reload_comes_back_on_new_checkpoint(
            self, spec, checkpoints, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, kill_on_reload_plan())
        with Supervisor(spec, num_workers=1, job_timeout_s=60.0,
                        restart_backoff_s=0.01) as sup:
            before = sup.dispatch(0, "predict_batch",
                                  [{"id": 1, "spec": SPEC_A}])
            assert before[0]["ok"]

            # The reload's restore is the 2nd checkpoint read: SIGKILL
            # lands inside the worker mid-reload.  The supervisor must
            # detect it and bring a fresh worker up on the NEW spec.
            acks = sup.reload(checkpoints[1])
            assert acks == [{"status": "restarted",
                             "checkpoint": checkpoints[1]}]
            assert sup.restarts == 1
            assert sup.spec.checkpoint == checkpoints[1]
            assert sup.alive() == [True]

            after = sup.dispatch(0, "predict_batch",
                                 [{"id": 1, "spec": SPEC_A}])
            assert after[0]["ok"]
            old = np.array(before[0]["result"]["grids"]["h"])
            new = np.array(after[0]["result"]["grids"]["h"])
            assert not np.allclose(old, new)  # really the new weights


class TestServiceNeverDropsRequests:
    def test_requests_fail_explicitly_and_service_recovers(
            self, spec, checkpoints, monkeypatch):
        """Kill + boot-EIO: every request is answered, never dropped,
        the pool converges to circuit-broken, and reload heals it."""
        supervisor = Supervisor(spec, num_workers=1, job_timeout_s=30.0,
                                restart_backoff_s=0.01, max_restarts=2,
                                restart_window_s=60.0)
        service = ServeService(checkpoint=checkpoints[0],
                               config=ServiceConfig(workers=1),
                               supervisor=supervisor)

        async def main():
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    healthy = await asyncio.wait_for(
                        client.predict(spec=SPEC_A), 120)
                    assert healthy["ok"]

                    # Poison future boots, then kill the worker: the
                    # next request finds a dead process, is retried
                    # once on the (dead-on-arrival) replacement, and is
                    # answered as an explicit failure — never dropped.
                    monkeypatch.setenv(FAULTS_ENV, eio_forever_plan())
                    supervisor._workers[0].process.kill()
                    reply = await asyncio.wait_for(
                        client.predict(spec=SPEC_A), 120)
                    assert not reply["ok"]
                    assert reply["status"] == "failed"
                    assert "worker 0" in reply["error"]
                    assert "retr" in reply["error"]

                    # Keep poking until the breaker is open: each reply
                    # still arrives (failed), nothing hangs or drops.
                    for _ in range(3):
                        stats = await client.stats()
                        if stats["service"]["degraded"]:
                            break
                        reply = await asyncio.wait_for(
                            client.predict(spec=SPEC_A), 120)
                        assert not reply["ok"]
                        assert reply["status"] == "failed"
                    stats = await client.stats(workers=True)
                    assert stats["service"]["degraded"]
                    assert stats["service"]["queued"] == 0  # all answered
                    assert stats["workers"][0]["broken"]

                    # Heal: clean environment + reload a good checkpoint.
                    monkeypatch.delenv(FAULTS_ENV)
                    reply = await asyncio.wait_for(
                        client.reload(checkpoints[1]), 120)
                    assert reply["ok"]
                    assert reply["workers"] == [{
                        "status": "revived", "checkpoint": checkpoints[1]}]
                    served = await asyncio.wait_for(
                        client.predict(spec=SPEC_A), 120)
                    assert served["ok"]
                    stats = await client.stats()
                    assert not stats["service"]["degraded"]

        asyncio.run(main())
