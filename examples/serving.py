#!/usr/bin/env python
"""Serving: batched congestion inference with ``repro.serve``.

Demonstrates the serving subsystem end to end, self-contained and fast
(tiny synthetic designs, a throwaway cache directory):

1. train nothing — build a small LHNN and save it with
   ``repro.serve.registry.save_model`` so the checkpoint carries its
   typed architecture spec,
2. restore it with ``restore_model`` (no channel probing: the registry
   rebuilds exactly the recorded architecture),
3. stand up an :class:`~repro.serve.engine.InferenceEngine`, queue
   several raw designs and answer them with ONE micro-batched forward
   pass over their block-diagonal supergraph,
4. repeat the requests: the content-addressed caches answer them with
   zero placement/routing work,
5. serve the checkpoint over TCP with a one-worker
   :class:`~repro.serve.service.ServeService` (what ``repro.cli serve
   --port`` runs) and round-trip a request with
   :class:`~repro.serve.client.ServeClient`.

Usage::

    python examples/serving.py
"""

import asyncio
import queue
import tempfile
import threading
import time

import numpy as np

from repro.circuit import DesignSpec, generate_design
from repro.models.lhnn import LHNN, LHNNConfig
from repro.pipeline import PipelineConfig
from repro.pipeline.stages import STAGE_CALLS, reset_stage_calls
from repro.placement import PlacementConfig
from repro.routing import RouterConfig
from repro.serve import (InferenceEngine, PredictRequest, ServeClient,
                         ServeConfig, ServeService, ServiceConfig,
                         restore_model, save_model)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-serving-")

    # -- 1. a registry-described checkpoint ---------------------------
    model = LHNN(LHNNConfig(hidden=16, channels=2),
                 np.random.default_rng(0))
    ckpt = save_model(model, f"{workdir}/lhnn-duo.npz",
                      metadata={"note": "untrained demo weights"})
    print(f"saved checkpoint with architecture spec: {ckpt}")

    # -- 2. deterministic restore -------------------------------------
    restored, metadata = restore_model(ckpt)
    spec = metadata["model"]
    print(f"restored a {spec['family']} (hidden="
          f"{spec['config']['hidden']}, channels="
          f"{spec['config']['channels']}) — no probing involved")

    # -- 3. micro-batched serving of raw designs ----------------------
    pipeline = PipelineConfig(
        placement=PlacementConfig(outer_iterations=2),
        router=RouterConfig(nx=8, ny=8, rrr_iterations=2))
    engine = InferenceEngine(restored, ServeConfig(
        pipeline=pipeline, cache_dir=f"{workdir}/cache"))
    designs = [generate_design(DesignSpec(name=f"demo{i}", seed=i,
                                          num_movable=60, die_size=32.0))
               for i in range(4)]

    reset_stage_calls()
    t0 = time.time()
    results = engine.predict_many(
        [PredictRequest(design=d, channel="both") for d in designs])
    cold = time.time() - t0
    print(f"\ncold queue: {len(results)} designs in {cold:.2f} s "
          f"(pipeline ran: {dict(STAGE_CALLS)}), "
          f"{results[0].batch_members} designs per forward pass")
    for r in results:
        print(f"  {r.name}: predicted H-rate "
              f"{100 * r.predicted_rate['h']:.1f} %, "
              f"V-rate {100 * r.predicted_rate['v']:.1f} %")

    # -- 4. warm repeats: zero pipeline work --------------------------
    reset_stage_calls()
    t0 = time.time()
    warm = engine.predict_many(
        [PredictRequest(design=d, channel="both") for d in designs])
    print(f"warm queue: {1000 * (time.time() - t0):.1f} ms, stage calls "
          f"{dict(STAGE_CALLS)}, all cached: "
          f"{all(r.cached for r in warm)}")

    # -- 5. the wire: service + client --------------------------------
    service = ServeService(ckpt, serve=ServeConfig(
        pipeline=pipeline, cache_dir=f"{workdir}/cache"),
        config=ServiceConfig(workers=1))
    ports = queue.Queue()
    server = threading.Thread(target=asyncio.run, args=(
        service.run("127.0.0.1", 0, ready_callback=ports.put),))
    server.start()
    with ServeClient.connect(port=ports.get(timeout=60)) as client:
        client.predict(spec={"name": "adhoc", "seed": 99,
                             "num_movable": 60, "die_size": 32.0},
                       channel="h")
        [reply] = client.flush()
        stats = client.stats(workers=True)["workers"][0]
        client.shutdown()
    server.join()
    grid = np.array(reply["result"]["grids"]["h"])
    print(f"\nclient round trip: design {reply['result']['name']!r}, "
          f"grid {grid.shape}, predicted rate "
          f"{100 * reply['result']['predicted_rate']['h']:.1f} %")
    print(f"worker engine stats: {stats['requests']} requests, "
          f"{stats['forward_passes']} forward passes, sample cache "
          f"{stats['sample_cache']['hits']} hits / "
          f"{stats['sample_cache']['misses']} misses")


if __name__ == "__main__":
    main()
