"""The serve phase: one supervised service, three traffic phases in turn.

The front end and the load generator share this process's event loop;
the service runs one engine worker process, so two processes are busy
on a two-core host.  The phases never overlap:

* prime - the burst designs, inline, one at a time (untimed);
* cold  - every design of the workload's family at the serving scale,
  by name, one request outstanding (each one places and routes);
* warm  - a closed loop of two connections re-requesting those designs
  by name (the deadline trigger flushes their batches);
* burst - one connection sends bursts of inline-``spec`` requests for
  the primed designs and waits for all replies (the size trigger
  flushes their batches).
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import gc
import math
import statistics
import time

import numpy as np

from repro.data.dataset import sample_of
from repro.nn import no_grad
from repro.pipeline import PipelineConfig, StageCache, prepare_design
from repro.serve.client import AsyncServeClient, ServeError
from repro.serve.engine import InferenceEngine, PredictRequest, ServeConfig
from repro.serve.registry import model_dtype, restore_model
from repro.serve.server import DesignResolver
from repro.serve.service import ServeService, ServiceConfig
from repro.serve.supervisor import Supervisor
from repro.train.trainer import predict_probs

from tracing import Tracer

SERVE_SCALE = 0.3
WARM_CLIENTS = 2
#: Warm and burst work is fixed per run, sized from ``--seconds`` at
#: these nominal rates (each phase gets about half the seconds on a
#: 2-core host), so a slow run measures the same work for longer.
WARM_REQUESTS_PER_S = 40
BURST_REQUESTS_PER_S = 80
#: Warm requests at least, so p90 has >= 10 samples beyond it.
MIN_WARM = 120
BURST_SIZE = 16
BURST_SPECS = 4
#: Served grids are rounded to 6 decimals by the protocol.
GRID_TOLERANCE = 1e-6
SHUTDOWN_TIMEOUT_S = 60.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def burst_specs(seed: int) -> list[dict]:
    """Inline generator specs for the burst phase, drawn from ``seed``."""
    rng = np.random.default_rng([seed, 7])
    return [{"name": f"burst{i}", "seed": int(rng.integers(2 ** 31)),
             "num_movable": 150, "num_terminals": 32,
             "die_size": 64.0 * SERVE_SCALE ** 0.5,
             "capacity_factor": float(rng.uniform(0.6, 0.9))}
            for i in range(BURST_SPECS)]


def payload_of(key: tuple, specs: list[dict]) -> dict:
    """The predict payload a reply key ``(kind, name)`` stands for."""
    kind, name = key
    if kind == "spec":
        return {"spec": next(s for s in specs if s["name"] == name)}
    return {"design": name}


def serve_config(cache_dir: str) -> ServeConfig:
    return ServeConfig(pipeline=PipelineConfig(scale=SERVE_SCALE),
                       cache_dir=cache_dir)


@contextlib.asynccontextmanager
async def running_service(checkpoint: str, suite: str, cache_dir: str):
    """A started :class:`ServeService` on an ephemeral port; drained and
    stopped (worker joined) on exit."""
    service = ServeService(checkpoint, serve=serve_config(cache_dir),
                           config=ServiceConfig(workers=1),
                           default_suite=suite)
    ready = asyncio.get_running_loop().create_future()
    task = asyncio.create_task(
        service.run("127.0.0.1", 0, ready_callback=ready.set_result))
    await asyncio.wait({task, ready}, return_when=asyncio.FIRST_COMPLETED)
    if not ready.done():
        ready.cancel()
        await task  # run() ended before binding: raise its error
        raise RuntimeError("service stopped before it was ready")
    try:
        yield ready.result()
    finally:
        try:
            client = await AsyncServeClient.connect(ready.result())
            try:
                await client.shutdown()
            finally:
                await client.close()
            await asyncio.wait_for(asyncio.shield(task), SHUTDOWN_TIMEOUT_S)
        except (OSError, ServeError, TimeoutError):
            task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task


async def start_and_stop(checkpoint: str, suite: str, cache_dir: str) -> None:
    """Start the service, wait until its worker has restored the model
    (a worker ``stats`` round trip), then drain and stop it."""
    async with running_service(checkpoint, suite, cache_dir) as port:
        client = await AsyncServeClient.connect(port)
        try:
            await client.stats(workers=True)
        finally:
            await client.close()


class DispatchProbe:
    """Wraps ``Supervisor.dispatch`` (front-end side) to time dispatches
    and to stamp when each request left the queue."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.started: dict[str, float] = {}
        self.batch_sizes: list[int] = []

    def wrap(self, dispatch):
        def probed(supervisor, worker_id, op, payload=None, timeout=None):
            if op == "predict_batch":
                now = time.perf_counter()
                for item in payload:
                    self.started[item.get("id")] = now
                self.batch_sizes.append(len(payload))
            with self.tracer.span("service.dispatch"):
                return dispatch(supervisor, worker_id, op, payload, timeout)
        return probed


def compact(reply: dict) -> dict:
    """A reply with its grid as an array and its truth maps dropped, so
    the replies kept for checking stay small (and out of the cyclic
    garbage collector's way) while traffic runs."""
    result = reply.get("result")
    if result is None:
        return reply
    return {"ok": reply.get("ok"), "cached": result["cached"],
            "batch_members": result["batch_members"],
            "grid": np.asarray(result["grids"]["h"], dtype=np.float64)}


async def _closed_loop(client, tag: str, names: list[str], rng,
                       requests: int, warm_sent: dict, out: list) -> None:
    for n in range(requests):
        name = names[int(rng.integers(len(names)))]
        request_id = f"{tag}-{n}"
        t0 = warm_sent[request_id] = time.perf_counter()
        reply = await client.predict(design=name, request_id=request_id)
        out.append((time.perf_counter() - t0, ("design", name),
                    compact(reply)))


async def _traffic(port: int, names: list[str], specs: list[dict],
                   seed: int, seconds: float) -> dict:
    rng = np.random.default_rng([seed, 11])
    warm_sent: dict[str, float] = {}
    clients = [await AsyncServeClient.connect(port)
               for _ in range(WARM_CLIENTS)]
    try:
        # The burst designs go first: besides seeding the burst phase,
        # they take the worker's first-request costs, so that every
        # measured cold request pays the same kind of work.
        primed = []
        for i, spec in enumerate(specs):
            reply = await clients[0].predict(spec=spec, request_id=f"p-{i}")
            primed.append((0.0, ("spec", spec["name"]), compact(reply)))

        cold = []
        for i, name in enumerate(rng.permutation(names).tolist()):
            t0 = time.perf_counter()
            reply = await clients[0].predict(design=name,
                                             request_id=f"c-{i}")
            cold.append((time.perf_counter() - t0, ("design", name),
                         compact(reply)))

        warm: list = []
        per_client = max(MIN_WARM, round(WARM_REQUESTS_PER_S * seconds / 2)
                         ) // WARM_CLIENTS
        await asyncio.gather(*[
            _closed_loop(client, f"w{k}", names,
                         np.random.default_rng([seed, 13, k]), per_client,
                         warm_sent, warm)
            for k, client in enumerate(clients)])

        burst: list = []
        bursts = max(1, round(BURST_REQUESTS_PER_S * seconds / 2
                              / BURST_SIZE))
        t0 = time.perf_counter()
        for b in range(bursts):
            picks = [specs[int(j)] for j in
                     rng.integers(len(specs), size=BURST_SIZE)]
            pending = []
            for j, spec in enumerate(picks):
                queued = await clients[0].predict(
                    spec=spec, request_id=f"b{b}-{j}", wait=False)
                pending.append((("spec", spec["name"]), queued))
            for key, queued in pending:
                # A rejected request comes back as its ack, not a future.
                reply = (queued if isinstance(queued, dict)
                         else await queued[1])
                burst.append((0.0, key, compact(reply)))
        burst_s = time.perf_counter() - t0
        stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
    return {"cold": cold, "warm": warm, "primed": primed, "burst": burst,
            "burst_s": burst_s, "warm_sent": warm_sent,
            "service": stats["service"]}


def serve_phase(checkpoint: str, suite: str, names: list[str],
                cache_dir: str, seed: int, seconds: float,
                tracer: Tracer | None = None) -> dict:
    """Run cold, warm and burst traffic; returns replies and timings.

    With a ``tracer``, ``Supervisor.dispatch`` is wrapped for the
    duration, and the result carries the dispatch probe.
    """
    specs = burst_specs(seed)
    probe = DispatchProbe(tracer) if tracer is not None else None
    original = Supervisor.__dict__["dispatch"]

    async def main():
        async with running_service(checkpoint, suite, cache_dir) as port:
            return await _traffic(port, names, specs, seed, seconds)

    # The front end shares this process with everything the earlier
    # phases left alive; keep those objects out of its collections.
    gc.collect()
    gc.freeze()
    if probe is not None:
        Supervisor.dispatch = probe.wrap(original)
    try:
        result = asyncio.run(main())
    finally:
        gc.unfreeze()
        Supervisor.dispatch = original
    result["specs"] = specs
    result["probe"] = probe
    return result


def reference_grids(checkpoint: str, suite: str, cache_dir: str,
                    traffic: dict) -> dict:
    """In-process ``predict_probs`` of the served checkpoint for every
    served design (its graph is a stage-cache hit by now)."""
    model, _ = restore_model(checkpoint)
    model.eval()
    resolver = DesignResolver(PipelineConfig(scale=SERVE_SCALE),
                              default_suite=suite)
    cache = StageCache(cache_dir)
    keys = {key for phase in ("cold", "primed")
            for _, key, _ in traffic[phase]}
    grids = {}
    with no_grad():
        for key in keys:
            design = resolver.resolve(payload_of(key, traffic["specs"]))
            graph = prepare_design(design, resolver.config, cache=cache)
            sample = sample_of(graph, channels=1, dtype=model_dtype(model))
            grids[key] = graph.map_to_grid(
                predict_probs(model, sample)[:, 0])
    return grids


def check_replies(traffic: dict, reference: dict) -> list[str]:
    """Every reply ok; warm replies cached; grids match the reference."""
    errors = []
    phases = (("cold", False), ("primed", None), ("warm", True),
              ("burst", True))
    for phase, want_cached in phases:
        for _, key, reply in traffic[phase]:
            if not reply.get("ok"):
                errors.append(f"{phase} {key}: {reply}")
                continue
            if want_cached is not None and reply["cached"] != want_cached:
                errors.append(f"{phase} {key}: cached={reply['cached']}")
            diff = np.abs(reply["grid"] - reference[key]).max()
            if not diff <= GRID_TOLERANCE:
                errors.append(f"{phase} {key}: grid differs by {diff:.2e}")
    return errors


def serve_metrics(traffic: dict) -> dict:
    cold = [lat for lat, _, _ in traffic["cold"]]
    warm = [lat for lat, _, _ in traffic["warm"]]
    return {
        "serve_cold_p50_ms": 1e3 * statistics.median(cold),
        "serve_warm_p50_ms": 1e3 * statistics.median(warm),
        "serve_warm_p90_ms": 1e3 * percentile(warm, 90),
        "serve_burst_requests_per_s":
            len(traffic["burst"]) / traffic["burst_s"],
    }


def traffic_summary(traffic: dict) -> dict:
    """Sample counts and the latency spread of one run's traffic."""
    warm = [lat for lat, _, _ in traffic["warm"]]
    return {
        "cold_ms": [round(1e3 * lat, 1) for lat, _, _ in traffic["cold"]],
        "warm_requests": len(warm),
        "warm_ms_p10_50_90_99": [round(1e3 * percentile(warm, q), 1)
                                 for q in (10, 50, 90, 99)],
        "warm_batch_members": sorted(collections.Counter(
            r.get("batch_members") for _, _, r in traffic["warm"]).items()),
        "burst_requests": len(traffic["burst"]),
        "burst_s": round(traffic["burst_s"], 3),
    }


def replay_engine(checkpoint: str, suite: str, cache_dir: str,
                  traffic: dict, tracer: Tracer) -> dict:
    """Replay the served request sequence in-process through the public
    engine API, so the engine-side split is visible to the tracer.

    Cold designs go one per flush, warm requests in pairs (what the
    deadline trigger forms for two clients) and burst requests in
    batches of the service's ``max_batch``.
    """
    model, _ = restore_model(checkpoint)
    config = serve_config(cache_dir)
    engine = InferenceEngine(model, config)
    resolver = DesignResolver(config.pipeline, default_suite=suite)

    def run(batch):
        for key in batch:
            with tracer.span("serve.resolve"):
                design = resolver.resolve(payload_of(key, traffic["specs"]))
            with tracer.span("serve.submit"):
                engine.submit(PredictRequest(design=design))
        with tracer.span("serve.flush"):
            results = engine.flush()
        for result in results:
            with tracer.span("serve.to_json"):
                result.to_json()

    keys = [key for _, key, _ in traffic["warm"]]
    bursts = [key for _, key, _ in traffic["burst"]]
    for _, key, _ in traffic["cold"] + traffic["primed"]:
        run([key])
    for i in range(0, len(keys), WARM_CLIENTS):
        run(keys[i:i + WARM_CLIENTS])
    for i in range(0, len(bursts), config.max_batch):
        run(bursts[i:i + config.max_batch])
    stats = engine.stats()

    def ratio(counts):
        total = counts["hits"] + counts["misses"]
        return counts["hits"] / total if total else 0.0

    return {
        "serve.sample_cache_hit_ratio": ratio(stats["sample_cache"]),
        "serve.batch_cache_hit_ratio": ratio(stats["batch_cache"]),
        "serve.forward_passes_per_request":
            stats["forward_passes"] / max(stats["requests"], 1),
    }
