"""Sustained-load benches for the multi-worker serving service.

Measures the service the way an EDA integration would feel it:

* **Pipeline-bound scaling** — a burst of unique designs (every request
  pays cold place-and-route) against N=1 vs N=2 worker processes.  The
  workers are separate pythons, so on a multi-core host N=2 must reach
  ≥1.7× the N=1 requests/s; on a single usable core the numbers are
  still recorded but the scaling gate is skipped.
* **Warm-lane latency under a cold backlog** — warm (cached) requests
  racing a queue of cold preparations must stay fast: the router's
  strict warm priority caps their wait at one in-flight job, so warm
  p99 < cold p50 by construction, and the bench asserts it.

Both record into ``BENCH_serve.json`` (the one bench schema of
:mod:`repro.perf.report`) next to ``BENCH_nn.json``; the nightly CI job
validates and uploads it.  Everything here is ``slow``-marked:

```bash
PYTHONPATH=src python -m pytest benchmarks/test_service_load.py -q -m slow
```
"""

import asyncio
import contextlib
import os
import time

import numpy as np
import pytest

from repro.models.mlp_baseline import MLPBaseline
from repro.pipeline import PipelineConfig
from repro.placement import PlacementConfig
from repro.routing import RouterConfig
from repro.serve import (AsyncServeClient, ServeConfig, ServeService,
                         ServiceConfig, save_model)

pytestmark = pytest.mark.slow


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


BENCH_REPORT = ("BENCH_serve.json",
                {"source": "benchmarks/test_service_load.py",
                 "usable_cores": usable_cores(),
                 "pipeline": "8x8 G-cells, 2 placement iters, "
                             "2 RRR iters, 60 movable cells"})


def small_pipeline():
    return PipelineConfig(placement=PlacementConfig(outer_iterations=2),
                          router=RouterConfig(nx=8, ny=8, capacity_h=10.0,
                                              capacity_v=10.0,
                                              rrr_iterations=2))


def cold_specs(count: int, tag: str) -> list[dict]:
    """``count`` distinct design specs — every one a cold preparation."""
    return [{"name": f"load-{tag}-{i}", "seed": 900 + i,
             "num_movable": 60, "die_size": 32.0} for i in range(count)]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("service-load")
    return save_model(MLPBaseline(hidden=8, rng=np.random.default_rng(0)),
                      str(tmp / "mlp.npz"))


@contextlib.asynccontextmanager
async def running(service):
    ready = asyncio.get_running_loop().create_future()
    task = asyncio.create_task(
        service.run("127.0.0.1", 0, ready_callback=ready.set_result))
    port = await asyncio.wait_for(asyncio.shield(ready), 300)
    try:
        yield port
    finally:
        service._stopped.set()
        await asyncio.wait_for(task, 300)


async def fire(client, specs) -> list[asyncio.Task]:
    """Submit one predict per spec; returns per-request timing tasks.

    Each task stamps its latency the moment its own result future
    resolves — settling one group must not inflate another group's
    numbers.
    """

    async def timed(t0: float, future) -> float:
        reply = await asyncio.wait_for(future, 600)
        assert reply["ok"], reply
        return (time.perf_counter() - t0) * 1000.0

    tasks = []
    for spec in specs:
        ack, future = await client.predict(spec=spec, wait=False)
        assert ack["ok"], ack
        tasks.append(asyncio.create_task(
            timed(time.perf_counter(), future)))
    return tasks


async def settle(tasks) -> np.ndarray:
    """Await every in-flight request; per-request latencies in ms."""
    return np.array(await asyncio.gather(*tasks))


def percentiles(latencies_ms: np.ndarray) -> dict:
    # Small request counts: p99 degenerates toward the max, which is
    # exactly the tail a placement loop would feel.
    return {"p50_ms": float(np.percentile(latencies_ms, 50)),
            "p99_ms": float(np.percentile(latencies_ms, 99))}


def run_cold_load(checkpoint, workers: int, specs, cache_dir) -> dict:
    """One sustained cold burst; returns throughput + latency metrics."""

    async def main():
        service = ServeService(
            checkpoint,
            serve=ServeConfig(pipeline=small_pipeline(),
                              cache_dir=str(cache_dir)),
            config=ServiceConfig(workers=workers, max_queue=1024,
                                 max_queue_per_conn=1024))
        async with running(service) as port:
            async with await AsyncServeClient.connect(port) as client:
                started = time.perf_counter()
                sent = await fire(client, specs)
                latencies = await settle(sent)
                wall = time.perf_counter() - started
        return {"workers": workers, "requests": len(specs),
                "requests_per_s": len(specs) / wall,
                "wall_s": wall, **percentiles(latencies)}

    return asyncio.run(main())


class TestColdScaling:
    def test_two_workers_scale_pipeline_bound_load(self, checkpoint,
                                                   tmp_path, bench_report):
        specs = cold_specs(8, "scale")
        # Fresh on-disk stage cache per run: both runs pay full cold
        # place-and-route, so the comparison is pipeline-bound.
        single = run_cold_load(checkpoint, 1, specs, tmp_path / "n1")
        double = run_cold_load(checkpoint, 2, specs, tmp_path / "n2")
        speedup = double["requests_per_s"] / single["requests_per_s"]
        bench_report.entries["cold_burst_1worker"] = single
        bench_report.entries["cold_burst_2workers"] = {**double,
                                                       "speedup": speedup}
        assert single["requests_per_s"] > 0
        if usable_cores() >= 2:
            assert speedup >= 1.7, (
                f"2 workers reached only {speedup:.2f}x the 1-worker "
                f"requests/s on pipeline-bound load")
        else:
            pytest.skip(f"scaling gate needs >= 2 usable cores "
                        f"(have {usable_cores()}); recorded "
                        f"speedup={speedup:.2f} in BENCH_serve.json")


class TestWarmLatencyUnderColdBacklog:
    def test_warm_p99_beats_cold_p50(self, checkpoint, tmp_path,
                                     bench_report):
        warm_spec = {"name": "load-warm", "seed": 899,
                     "num_movable": 60, "die_size": 32.0}

        async def main():
            service = ServeService(
                checkpoint,
                serve=ServeConfig(pipeline=small_pipeline(),
                                  cache_dir=str(tmp_path / "mixed")),
                config=ServiceConfig(workers=1, max_queue=1024,
                                     max_queue_per_conn=1024))
            async with running(service) as port:
                async with await AsyncServeClient.connect(port) as client:
                    # Prime the warm key (and the worker's sample cache).
                    prime = await asyncio.wait_for(
                        client.predict(spec=warm_spec), 600)
                    assert prime["ok"]
                    # A backlog of cold preparations...
                    cold_sent = await fire(client,
                                           cold_specs(6, "backlog"))
                    # ...with warm requests racing it.
                    warm_sent = await fire(client, [warm_spec] * 8)
                    cold_ms = await settle(cold_sent)
                    warm_ms = await settle(warm_sent)
            return cold_ms, warm_ms

        cold_ms, warm_ms = asyncio.run(main())
        warm = percentiles(warm_ms)
        cold = percentiles(cold_ms)
        bench_report.entries["warm_under_cold_backlog"] = {
            "workers": 1, "cold_requests": 6, "warm_requests": 8,
            "warm_p50_ms": float(np.percentile(warm_ms, 50)),
            "warm_p99_ms": warm["p99_ms"],
            "cold_p50_ms": cold["p50_ms"],
            "cold_p99_ms": cold["p99_ms"],
        }
        # Strict warm priority: a warm request waits for at most one
        # in-flight cold preparation, while the median cold request
        # waits for several — cache hits are never queued behind
        # someone else's preparation backlog.
        assert warm["p99_ms"] < cold["p50_ms"], (
            f"warm p99 {warm['p99_ms']:.0f}ms did not beat cold p50 "
            f"{cold['p50_ms']:.0f}ms")
