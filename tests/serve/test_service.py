"""Tests for the asyncio multi-worker serving service.

Two layers:

* **Fake-supervisor units** — a scriptable in-process supervisor makes
  queueing semantics deterministic: backpressure replies, warm-lane
  priority, auto-flush deadlines, crash retry accounting, drain and
  reload barriers, admin scoping, protocol fuzz.
* **Real end-to-end** — a real :class:`~repro.serve.Supervisor` with
  worker processes behind the real TCP front end, driven by
  :class:`~repro.serve.AsyncServeClient`: the graceful-reload
  (zero-drop, new-checkpoint) and worker-kill-mid-batch acceptance
  paths.
"""

import asyncio
import contextlib
import json
import threading
import time

import numpy as np
import pytest

from repro.models.mlp_baseline import MLPBaseline
from repro.pipeline import PipelineConfig
from repro.placement import PlacementConfig
from repro.routing import RouterConfig
from repro.serve import (AsyncServeClient, ServeConfig, ServeService,
                         ServiceConfig, WorkerCrashed, save_model)

SPEC_A = {"name": "svc-a", "seed": 3, "num_movable": 60, "die_size": 32.0}
SPEC_B = {"name": "svc-b", "seed": 4, "num_movable": 60, "die_size": 32.0}
SPEC_C = {"name": "svc-c", "seed": 5, "num_movable": 60, "die_size": 32.0}


def small_pipeline():
    return PipelineConfig(grid_nx=8, grid_ny=8,
                          placement=PlacementConfig(outer_iterations=2),
                          router=RouterConfig(nx=8, ny=8, capacity_h=10.0,
                                              capacity_v=10.0,
                                              rrr_iterations=2))


class FakeSupervisor:
    """Scriptable stand-in satisfying the service's supervisor contract."""

    def __init__(self, num_workers=1):
        self.num_workers = num_workers
        self.restarts = 0
        self.checkpoint = "ckpt-0"
        self.batches = []        # payload lists, in dispatch order
        self.calls = []          # (worker_id, op), recorded pre-block
        self.block = None        # threading.Event gating every dispatch
        self.crash_next = 0      # raise WorkerCrashed for the next N batches
        self._lock = threading.Lock()

    def start(self):
        pass

    def stop(self):
        pass

    def dispatch(self, worker_id, op, payload=None):
        with self._lock:
            self.calls.append((worker_id, op))
        if self.block is not None:
            self.block.wait()
        with self._lock:
            if op == "predict_batch":
                self.batches.append(list(payload))
                if self.crash_next > 0:
                    self.crash_next -= 1
                    self.restarts += 1
                    raise WorkerCrashed(worker_id, "died (scripted)")
                return [{"ok": True, "id": p.get("id"),
                         "result": {"name": p.get("spec", {}).get("name"),
                                    "checkpoint": self.checkpoint}}
                        for p in payload]
            if op == "ping":
                return "pong"
            if op == "stats":
                return {"model_family": "fake"}
            raise AssertionError(f"unexpected op {op!r}")

    def reload(self, checkpoint):
        self.checkpoint = checkpoint
        return [{"status": "reloaded", "checkpoint": checkpoint}
                for _ in range(self.num_workers)]

    def stats(self):
        return [{"model_family": "fake"}
                for _ in range(self.num_workers)]


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


def fake_service(config=None, num_workers=1):
    config = config or ServiceConfig(workers=num_workers)
    config.workers = num_workers
    supervisor = FakeSupervisor(num_workers=num_workers)
    service = ServeService(checkpoint="ckpt-0", config=config,
                           supervisor=supervisor)
    return service, supervisor


class TestFakeSupervisorUnits:
    def test_predict_ack_and_pushed_result(self):
        async def main():
            service, supervisor = fake_service()
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    ack, future = await client.predict(spec=SPEC_A,
                                                       wait=False)
                    assert ack["status"] == "queued"
                    assert ack["lane"] == "cold" and ack["worker"] == 0
                    reply = await asyncio.wait_for(future, 30)
                    assert reply["ok"]
                    assert reply["result"]["name"] == "svc-a"
                    stats = (await client.stats())["service"]
                    assert stats["admitted"] == 1
                    assert stats["delivered"] == 1
                    assert stats["queued"] == 0
        asyncio.run(main())

    def test_global_backpressure_rejects_with_overloaded(self):
        async def main():
            service, supervisor = fake_service(
                ServiceConfig(max_queue=2, max_queue_per_conn=64))
            supervisor.block = threading.Event()
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    ack1, f1 = await client.predict(spec=SPEC_A, wait=False)
                    ack2, f2 = await client.predict(spec=SPEC_B, wait=False)
                    assert ack1["ok"] and ack2["ok"]
                    rejected = await client.predict(spec=SPEC_C)
                    assert not rejected["ok"]
                    assert rejected["status"] == "overloaded"
                    assert "backpressure" in rejected["error"]
                    supervisor.block.set()
                    await asyncio.wait_for(asyncio.gather(f1, f2), 30)
                    stats = (await client.stats())["service"]
                    assert stats["rejected"] == 1
                    assert stats["delivered"] == 2
        asyncio.run(main())

    def test_per_connection_backpressure(self):
        async def main():
            service, supervisor = fake_service(
                ServiceConfig(max_queue=256, max_queue_per_conn=1))
            supervisor.block = threading.Event()
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    ack, future = await client.predict(spec=SPEC_A,
                                                       wait=False)
                    assert ack["ok"]
                    rejected = await client.predict(spec=SPEC_B)
                    assert not rejected["ok"]
                    assert rejected["status"] == "overloaded"
                    assert "connection queue" in rejected["error"]
                    # A second connection has its own budget.
                    async with await AsyncServeClient.connect(port) as other:
                        ack2, f2 = await other.predict(spec=SPEC_C,
                                                       wait=False)
                        assert ack2["ok"]
                        supervisor.block.set()
                        await asyncio.wait_for(
                            asyncio.gather(future, f2), 30)
        asyncio.run(main())

    def test_crash_is_retried_once_then_answered(self):
        async def main():
            service, supervisor = fake_service()
            supervisor.crash_next = 1
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    reply = await asyncio.wait_for(
                        client.predict(spec=SPEC_A), 30)
                    assert reply["ok"]
                    stats = (await client.stats())["service"]
                    assert stats["retried"] == 1
                    assert stats["failed"] == 0
                    assert stats["worker_restarts"] == 1
            assert len(supervisor.batches) == 2  # crashed run + retry
        asyncio.run(main())

    def test_crash_past_retry_budget_fails_explicitly(self):
        async def main():
            service, supervisor = fake_service()
            supervisor.crash_next = 10  # outlives max_retries=1
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    reply = await asyncio.wait_for(
                        client.predict(spec=SPEC_A), 30)
                    assert not reply["ok"]
                    assert reply["status"] == "failed"
                    assert "worker 0" in reply["error"]
                    assert "retr" in reply["error"]
                    stats = (await client.stats())["service"]
                    assert stats["failed"] == 1
                    assert stats["queued"] == 0  # answered, not hung
        asyncio.run(main())

    def test_warm_lane_has_priority_over_cold_backlog(self):
        async def main():
            service, supervisor = fake_service(
                ServiceConfig(max_batch=2, flush_deadline_ms=60000.0))
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    # Teach the router that SPEC_A is warm.
                    await asyncio.wait_for(client.predict(spec=SPEC_A), 30)
                    supervisor.block = threading.Event()
                    # A cold request occupies the worker...
                    _, f_b = await client.predict(spec=SPEC_B, wait=False)
                    while len(supervisor.calls) < 2:  # its dispatch began
                        await asyncio.sleep(0.01)
                    # ...a second cold one queues behind it...
                    ack_c, f_c = await client.predict(spec=SPEC_C,
                                                      wait=False)
                    # ...and two warm arrivals make a due warm batch.
                    _, f_a1 = await client.predict(spec=SPEC_A, wait=False)
                    _, f_a2 = await client.predict(spec=SPEC_A, wait=False)
                    assert ack_c["lane"] == "cold"
                    supervisor.block.set()
                    await asyncio.wait_for(
                        asyncio.gather(f_b, f_c, f_a1, f_a2), 30)
            names = [[p.get("spec", {}).get("name") for p in batch]
                     for batch in supervisor.batches]
            # The due warm batch overtook the queued cold request.
            assert names == [["svc-a"], ["svc-b"], ["svc-a", "svc-a"],
                             ["svc-c"]]
        asyncio.run(main())

    def test_deadline_auto_flushes_a_partial_batch(self):
        async def main():
            service, supervisor = fake_service(
                ServiceConfig(max_batch=100, flush_deadline_ms=300.0))
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    await asyncio.wait_for(client.predict(spec=SPEC_A), 30)
                    started = time.monotonic()
                    futures = [
                        (await client.predict(spec=SPEC_A,
                                              wait=False))[1]
                        for _ in range(3)]
                    # No explicit flush: the deadline must fire.
                    await asyncio.wait_for(asyncio.gather(*futures), 30)
                    elapsed = time.monotonic() - started
                    assert elapsed >= 0.15  # waited for the deadline...
            # ...and the three buffered requests shared one dispatch.
            assert [len(b) for b in supervisor.batches] == [1, 3]
        asyncio.run(main())

    def test_flush_forces_buffered_batches_immediately(self):
        async def main():
            service, supervisor = fake_service(
                ServiceConfig(max_batch=100, flush_deadline_ms=60000.0))
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    await asyncio.wait_for(client.predict(spec=SPEC_A), 30)
                    futures = [
                        (await client.predict(spec=SPEC_A,
                                              wait=False))[1]
                        for _ in range(2)]
                    summary = await asyncio.wait_for(client.flush(), 30)
                    assert summary["status"] == "flushed"
                    assert summary["count"] == 2
                    for future in futures:  # resolved by the flush barrier
                        assert future.done() and future.result()["ok"]
        asyncio.run(main())

    def test_reload_swaps_checkpoint_and_forgets_warm_homes(self):
        async def main():
            service, supervisor = fake_service()
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    await asyncio.wait_for(client.predict(spec=SPEC_A), 30)
                    warm_ack, wf = await client.predict(spec=SPEC_A,
                                                        wait=False)
                    assert warm_ack["lane"] == "warm"
                    await asyncio.wait_for(wf, 30)
                    reply = await asyncio.wait_for(
                        client.reload("ckpt-1"), 30)
                    assert reply["ok"] and reply["status"] == "reloaded"
                    assert reply["workers"] == [
                        {"status": "reloaded", "checkpoint": "ckpt-1"}]
                    # The reload dropped the warm homes: same key is cold.
                    ack, future = await client.predict(spec=SPEC_A,
                                                       wait=False)
                    assert ack["lane"] == "cold"
                    result = await asyncio.wait_for(future, 30)
                    assert result["result"]["checkpoint"] == "ckpt-1"
                    stats = (await client.stats())["service"]
                    assert stats["reloads"] == 1
                    assert stats["checkpoint"] == "ckpt-1"
        asyncio.run(main())

    def test_shutdown_drains_queued_requests_and_rejects_new(self):
        async def main():
            service, supervisor = fake_service(
                ServiceConfig(max_batch=100, flush_deadline_ms=60000.0))
            async with running(service) as port:
                client = await AsyncServeClient.connect(port)
                admin = await AsyncServeClient.connect(port)
                await asyncio.wait_for(client.predict(spec=SPEC_A), 30)
                supervisor.block = threading.Event()
                futures = [
                    (await client.predict(spec=SPEC_A, wait=False))[1]
                    for _ in range(2)]
                shutdown_task = asyncio.create_task(admin.shutdown())
                while not service._draining:
                    await asyncio.sleep(0.01)
                rejected = await client.predict(spec=SPEC_B)
                assert not rejected["ok"]
                assert rejected["status"] == "draining"
                supervisor.block.set()
                reply = await asyncio.wait_for(shutdown_task, 30)
                assert reply["ok"] and reply["drained"] == 2
                # Drained means *answered*, not dropped.
                replies = await asyncio.wait_for(
                    asyncio.gather(*futures), 30)
                assert all(r["ok"] for r in replies)
                await client.close()
                await admin.close()
        asyncio.run(main())

    def test_admin_token_gates_reload_and_shutdown(self):
        async def main():
            service, supervisor = fake_service(
                ServiceConfig(admin_token="sekrit"))
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    denied = await client.reload("ckpt-1")
                    assert not denied["ok"] and "token" in denied["error"]
                    denied = await client.shutdown()
                    assert not denied["ok"] and "token" in denied["error"]
                    pong = await client.ping()  # still serving
                    assert pong["status"] == "pong"
                    allowed = await client.reload("ckpt-1", token="sekrit")
                    assert allowed["ok"]
                    reply = await client.shutdown(token="sekrit")
                    assert reply["ok"]
        asyncio.run(main())


class TestServiceProtocol:
    def test_identity_version_and_malformed_lines(self):
        async def main():
            service, supervisor = fake_service(
                ServiceConfig(max_line_bytes=1024))
            async with running(service) as port:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port, limit=1024)

                async def exchange(line: bytes) -> dict:
                    writer.write(line + b"\n")
                    await writer.drain()
                    return json.loads(await asyncio.wait_for(
                        reader.readline(), 30))

                pong = await exchange(b'{"op": "ping"}')
                assert pong["server"]["mode"] == "service"
                assert pong["server"]["protocol_version"] == 2
                reply = await exchange(
                    b'{"op": "ping", "protocol_version": 99}')
                assert not reply["ok"]
                assert "newer than this server's" in reply["error"]
                reply = await exchange(b"not json")
                assert not reply["ok"] and "invalid JSON" in reply["error"]
                reply = await exchange(b"[1, 2]")
                assert not reply["ok"] and "JSON object" in reply["error"]
                reply = await exchange(b'{"op": "dance"}')
                assert not reply["ok"] and "unknown op" in reply["error"]
                reply = await exchange(
                    b'{"op": "predict", "spec": {"name": "x"}, '
                    b'"channel": "zz"}')
                assert not reply["ok"] and "channel" in reply["error"]
                reply = await exchange(b'{"op": "predict"}')
                assert not reply["ok"] and "needs 'design'" in reply["error"]
                # An oversized line gets an error; only that line is
                # dropped, and the session carries on.
                big = b'{"op": "ping", "pad": "' + b"x" * 2048 + b'"}'
                reply = await exchange(big)
                assert not reply["ok"] and "exceeds" in reply["error"]
                assert (await exchange(b'{"op": "ping"}'))["status"] == \
                    "pong"
                writer.close()
                async with await AsyncServeClient.connect(port) as client:
                    assert (await client.ping())["status"] == "pong"
        asyncio.run(main())

    def test_mid_line_disconnect_leaves_service_serving(self):
        async def main():
            service, supervisor = fake_service()
            async with running(service) as port:
                for fragment in (b'{"op": "pred', b'{"op": "ping"}\n{"tr'):
                    _, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    writer.write(fragment)
                    await writer.drain()
                    writer.close()
                async with await AsyncServeClient.connect(port) as client:
                    assert (await client.ping())["status"] == "pong"
                    reply = await asyncio.wait_for(
                        client.predict(spec=SPEC_A), 30)
                    assert reply["ok"]
        asyncio.run(main())

    def test_vanished_client_results_are_discarded_not_leaked(self):
        async def main():
            service, supervisor = fake_service()
            supervisor.block = threading.Event()
            async with running(service) as port:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write((json.dumps(
                    {"op": "predict", "id": 1, "spec": SPEC_A})
                    + "\n").encode())
                await writer.drain()
                await asyncio.wait_for(reader.readline(), 30)  # the ack
                writer.close()  # vanish before the result exists
                await asyncio.sleep(0.05)
                supervisor.block.set()
                async with await AsyncServeClient.connect(port) as client:
                    for _ in range(100):
                        stats = (await client.stats())["service"]
                        if stats["discarded"] or stats["delivered"]:
                            break
                        await asyncio.sleep(0.05)
                    assert stats["discarded"] == 1
                    assert stats["queued"] == 0
        asyncio.run(main())


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("service")
    first = save_model(MLPBaseline(hidden=8, rng=np.random.default_rng(0)),
                       str(tmp / "mlp-a.npz"))
    second = save_model(MLPBaseline(hidden=8, rng=np.random.default_rng(9)),
                        str(tmp / "mlp-b.npz"))
    return first, second


class TestEndToEnd:
    """Real worker processes behind the real TCP front end."""

    def test_reload_with_queued_requests_drops_nothing(self, checkpoints,
                                                       tmp_path):
        async def main():
            service = ServeService(
                checkpoints[0],
                serve=ServeConfig(pipeline=small_pipeline(),
                                  cache_dir=str(tmp_path / "cache")),
                config=ServiceConfig(workers=1, max_batch=100,
                                     flush_deadline_ms=60000.0))
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    before = await asyncio.wait_for(
                        client.predict(spec=SPEC_A), 120)
                    assert before["ok"]
                    # Buffer warm requests the (long) deadline will not
                    # release, then reload underneath them.
                    futures = []
                    for _ in range(3):
                        ack, future = await client.predict(spec=SPEC_A,
                                                           wait=False)
                        assert ack["lane"] == "warm"
                        futures.append(future)
                    reply = await asyncio.wait_for(
                        client.reload(checkpoints[1]), 120)
                    assert reply["ok"]
                    await asyncio.wait_for(client.flush(), 120)
                    replies = [f.result() for f in futures]
                    assert all(r["ok"] for r in replies)
                    old = np.array(before["result"]["grids"]["h"])
                    for r in replies:  # answered by the NEW checkpoint
                        new = np.array(r["result"]["grids"]["h"])
                        assert not np.allclose(old, new)
                    stats = (await client.stats())["service"]
                    assert stats["admitted"] == 4
                    assert stats["delivered"] == 4
                    assert stats["discarded"] == 0
                    assert stats["checkpoint"] == checkpoints[1]
        asyncio.run(main())

    def test_worker_killed_mid_batch_is_restarted_and_retried(
            self, checkpoints, tmp_path):
        async def main():
            service = ServeService(
                checkpoints[0],
                serve=ServeConfig(pipeline=small_pipeline(),
                                  cache_dir=str(tmp_path / "cache")),
                config=ServiceConfig(workers=1))
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    ack, future = await client.predict(spec=SPEC_A,
                                                       wait=False)
                    assert ack["ok"]
                    while service._inflight == 0:  # batch is dispatching
                        await asyncio.sleep(0.01)
                    service.supervisor._workers[0].process.kill()
                    # Never hangs: detected, restarted, retried, answered.
                    reply = await asyncio.wait_for(future, 120)
                    assert reply["ok"]
                    assert reply["result"]["name"] == "svc-a"
                    stats = (await client.stats())["service"]
                    assert stats["retried"] == 1
                    assert stats["worker_restarts"] == 1
                    assert stats["queued"] == 0
        asyncio.run(main())
