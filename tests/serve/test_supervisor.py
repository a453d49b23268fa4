"""Tests for worker-process supervision: dispatch, crash, watchdog, reload.

These spawn real worker processes (``spawn`` start method, same as
production) — kept cheap with a tiny MLP checkpoint, a small pipeline
and a shared per-module supervisor where the test doesn't mutate pool
state.
"""

import numpy as np
import pytest

from repro.models.mlp_baseline import MLPBaseline
from repro.pipeline import PipelineConfig
from repro.placement import PlacementConfig
from repro.routing import RouterConfig
from repro.serve import (DesignResolver, InferenceEngine, ServeConfig,
                         Supervisor, WorkerCrashed, WorkerError, WorkerSpec,
                         save_model)
from repro.serve.supervisor import _predict_batch

SPEC_A = {"name": "sup-a", "seed": 3, "num_movable": 60, "die_size": 32.0}
SPEC_B = {"name": "sup-b", "seed": 4, "num_movable": 60, "die_size": 32.0}
SPEC_C = {"name": "sup-c", "seed": 5, "num_movable": 60, "die_size": 32.0}


def small_pipeline():
    return PipelineConfig(placement=PlacementConfig(outer_iterations=2),
                          router=RouterConfig(nx=8, ny=8, capacity_h=10.0,
                                              capacity_v=10.0,
                                              rrr_iterations=2))


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("supervisor")
    first = save_model(MLPBaseline(hidden=8, rng=np.random.default_rng(0)),
                       str(tmp / "mlp-a.npz"))
    second = save_model(MLPBaseline(hidden=8, rng=np.random.default_rng(9)),
                        str(tmp / "mlp-b.npz"))
    return first, second


@pytest.fixture(scope="module")
def spec(checkpoints, tmp_path_factory):
    cache = tmp_path_factory.mktemp("supervisor-cache")
    return WorkerSpec(checkpoint=checkpoints[0],
                      serve=ServeConfig(pipeline=small_pipeline(),
                                        cache_dir=str(cache)))


@pytest.fixture(scope="module")
def supervisor(spec):
    """One shared single-worker supervisor for non-destructive tests."""
    with Supervisor(spec, num_workers=1) as sup:
        yield sup


class TestDispatch:
    def test_ping(self, supervisor):
        assert supervisor.dispatch(0, "ping") == "pong"

    def test_predict_batch_order_and_per_request_errors(self, supervisor):
        replies = supervisor.dispatch(0, "predict_batch", [
            {"id": 1, "spec": SPEC_A},
            {"id": 2},  # references nothing: per-request failure
            {"id": 3, "spec": SPEC_B},
        ])
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert replies[0]["ok"] and replies[2]["ok"]
        assert replies[0]["result"]["name"] == "sup-a"
        assert not replies[1]["ok"]
        assert replies[1]["status"] == "failed"
        assert "needs 'design'" in replies[1]["error"]
        # The two valid requests shared one micro-batched flush.
        assert replies[0]["result"]["batch_members"] == 2

    def test_stats(self, supervisor):
        stats = supervisor.dispatch(0, "stats")
        assert stats["model_family"] == "mlp"

    def test_unknown_op_is_worker_error_not_crash(self, supervisor):
        with pytest.raises(WorkerError, match="unknown worker op"):
            supervisor.dispatch(0, "dance")
        assert supervisor.dispatch(0, "ping") == "pong"
        assert supervisor.restarts == 0

    def test_dispatch_before_start(self, spec):
        with pytest.raises(RuntimeError, match="before start"):
            Supervisor(spec, num_workers=1).dispatch(0, "ping")


class ExplodingResolver(DesignResolver):
    """Raises a non-ValueError for one request id, like a generator bug."""

    def __init__(self, config, poison_id):
        super().__init__(config)
        self.poison_id = poison_id

    def resolve(self, payload):
        if payload.get("id") == self.poison_id:
            raise RuntimeError("resolver blew up")
        return super().resolve(payload)


class TestPredictBatch:
    """The worker's batch function, in-process (no worker processes)."""

    def test_unexpected_error_stays_with_its_request(self, tmp_path):
        engine = InferenceEngine(
            MLPBaseline(hidden=8, rng=np.random.default_rng(0)),
            ServeConfig(pipeline=small_pipeline(),
                        cache_dir=str(tmp_path / "cache")))
        resolver = ExplodingResolver(small_pipeline(), poison_id=2)
        replies = _predict_batch(engine, resolver, [
            {"id": 1, "spec": SPEC_A}, {"id": 2, "spec": SPEC_B}])
        assert [r["id"] for r in replies] == [1, 2]
        assert replies[0]["ok"]
        assert replies[0]["result"]["name"] == "sup-a"
        assert replies[1]["status"] == "failed"
        assert "RuntimeError: resolver blew up" in replies[1]["error"]
        assert engine.pending == 0
        # The next batch gets its own answer, not a leftover's.
        [reply] = _predict_batch(engine, resolver,
                                 [{"id": 3, "spec": SPEC_C}])
        assert reply["id"] == 3
        assert reply["result"]["name"] == "sup-c"


class TestCrashRecovery:
    def test_killed_worker_is_detected_and_restarted(self, spec):
        with Supervisor(spec, num_workers=1) as sup:
            assert sup.dispatch(0, "ping") == "pong"
            sup._workers[0].process.kill()
            with pytest.raises(WorkerCrashed, match="worker 0"):
                sup.dispatch(0, "ping")
            # By the time WorkerCrashed propagated, the replacement is
            # already up — retrying immediately works.
            assert sup.restarts == 1
            assert sup.alive() == [True]
            assert sup.dispatch(0, "ping") == "pong"

    def test_hung_worker_trips_watchdog(self, spec):
        with Supervisor(spec, num_workers=1) as sup:
            # First ping uses the default watchdog: worker boot time
            # (model restore) legitimately counts against the first job.
            assert sup.dispatch(0, "ping") == "pong"
            with pytest.raises(WorkerCrashed, match="hung past"):
                sup.dispatch(0, "_sleep", 30.0, timeout=0.5)
            assert sup.restarts == 1
            assert sup.dispatch(0, "ping") == "pong"


class TestReload:
    def test_reload_swaps_model_weights(self, checkpoints, spec):
        with Supervisor(spec, num_workers=1) as sup:
            before = sup.dispatch(0, "predict_batch",
                                  [{"id": 1, "spec": SPEC_A}])
            acks = sup.reload(checkpoints[1])
            assert acks == [{"status": "reloaded",
                             "checkpoint": checkpoints[1]}]
            assert sup.spec.checkpoint == checkpoints[1]
            after = sup.dispatch(0, "predict_batch",
                                 [{"id": 1, "spec": SPEC_A}])
            old = np.array(before[0]["result"]["grids"]["h"])
            new = np.array(after[0]["result"]["grids"]["h"])
            # Same design, different weights: the answer must change.
            assert not np.allclose(old, new)
            assert sup.restarts == 0


class TestLifecycle:
    def test_stop_terminates_processes(self, spec):
        sup = Supervisor(spec, num_workers=2)
        sup.start()
        processes = [h.process for h in sup._workers]
        assert sup.alive() == [True, True]
        sup.stop()
        assert all(not p.is_alive() for p in processes)
        assert sup.alive() == [False, False]
