#!/usr/bin/env python3
"""Repository benchmark: the whole LHNN flow, end to end, on one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hotspot --seed 1 --seconds 10 --trace 0

One run sets up (``SETUP_REPEATS`` times, median reported), then runs
three timed phases one after another, each in its own fresh directories
under ``.perfbench-runs/`` (removed on exit):

1. prepare-cold - place, route and graph the workload's designs into an
   empty stage cache (``workers=1``);
2. train-warm   - ``repro.api.run_experiment`` for LHNN, then U-Net,
   twice over, each loading the dataset from the now-warm cache;
3. serve        - a ``ServeService`` over the trained LHNN checkpoint
   answers cold, then warm, then burst traffic (see ``serve_load``).

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` first
prepares and trains untraced in a child process, then runs the whole
flow traced here, and prints every per-layer metric, the preparation
layer table and the tracing overhead.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  A failed correctness check prints that object
with ``"correct": false`` and exits 1.  See ``README.md`` for the
workloads, the layer map and the steadiness notes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# One busy thread per process: the serve phase already runs two busy
# processes on a two-core host, and BLAS helper threads spinning beside
# them made latency tails swing from run to run.  Set before numpy is
# imported here or in the spawned serving workers, which inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")

#: Workload -> the design family each phase uses.  ``scale``/``count``
#: are the prepared and trained set; serving uses the same family at
#: ``serve_load.SERVE_SCALE``.
WORKLOADS = {
    "hotspot": {"suite": "hotspot", "scale": 0.5, "count": 8},
    "macro-heavy": {"suite": "macro-heavy", "scale": 0.5, "count": 8},
}
FAMILIES = ("lhnn", "unet")
EPOCHS = 20
SETUP_REPEATS = 3
#: Timed ``run_experiment`` calls per family, interleaved (mean reported).
TRAIN_REPEATS = 2
#: Unattributed preparation time allowed in the traced layer table.
LAYER_SUM_TOLERANCE_PCT = 5.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "prepare_s_per_design": "s",
    "hpwl_final": "dbu",
    "route_overflow": "count",
    "lhnn_experiment_s": "s",
    "unet_experiment_s": "s",
    "lhnn_f1_pct": "%",
    "unet_f1_pct": "%",
    "serve_cold_p50_ms": "ms",
    "serve_warm_p50_ms": "ms",
    "serve_burst_requests_per_s": "1/s",
}
#: Printed with every run but kept out of the result object: over ten
#: runs its spread reached 26-38 % of its median, wider than the largest
#: bound in BENCHMARK.json (see README.md).
REPORTED = {"serve_warm_p90_ms": "ms"}


class Checks:
    """Correctness failures and the attempted/failed operation counts."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.phases: dict[str, dict] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def record(self, phase: str, sent: int, failed: int) -> None:
        """Operations one phase attempted, and how many of them failed."""
        self.phases[phase] = {"sent": sent, "succeeded": sent - failed,
                              "failed": failed}

    @property
    def attempted(self) -> int:
        return sum(p["sent"] for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p["failed"] for p in self.phases.values())


def _fresh_dirs(base: str) -> dict:
    root = tempfile.mkdtemp(dir=base)
    dirs = {name: os.path.join(root, name)
            for name in ("cache", "artifacts", "serve-cache")}
    for path in dirs.values():
        os.makedirs(path)
    return dirs


def setup(workload: dict, base: str,
          repeats: int) -> tuple[list[float], dict, list]:
    """Fresh directories, the workload's designs, and a cold start of the
    serving service on a seeded checkpoint, ``repeats`` times; returns
    every setup's time and the last setup's state."""
    import asyncio

    import numpy as np
    from repro.models.lhnn import LHNN, LHNNConfig
    from repro.pipeline import PipelineConfig, load_workload
    from repro.serve.registry import save_model
    from serve_load import start_and_stop

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        dirs = _fresh_dirs(base)
        designs = load_workload(
            workload["suite"], PipelineConfig(scale=workload["scale"]),
            count=workload["count"])
        checkpoint = save_model(
            LHNN(LHNNConfig(channels=1), np.random.default_rng(0)),
            os.path.join(dirs["artifacts"], "seeded-lhnn.npz"))
        asyncio.run(start_and_stop(checkpoint, workload["suite"],
                                   dirs["serve-cache"]))
        times.append(time.perf_counter() - t0)
    return times, dirs, designs


def prepare_phase(workload: dict, designs: list, dirs: dict, seed: int,
                  checks: Checks, tracer=None) -> dict:
    """Cold place -> route -> graph of every design, in a seeded order."""
    import numpy as np
    from repro.pipeline import (STAGE_CALLS, PipelineConfig, StageCache,
                                prepare_workload, reset_stage_calls,
                                stage_keys_for)

    config = PipelineConfig(scale=workload["scale"])
    order = np.random.default_rng([seed, 3]).permutation(len(designs))
    designs = [designs[i] for i in order]
    cache = StageCache(dirs["cache"])
    reset_stage_calls()
    t0 = time.perf_counter()
    if tracer is None:
        graphs = prepare_workload(workload["suite"], config, cache=cache,
                                  designs=designs)
    else:
        with tracer.span("pipeline"):
            graphs = prepare_workload(workload["suite"], config,
                                      cache=cache, designs=designs)
    wall = time.perf_counter() - t0
    n = len(designs)
    calls = dict(STAGE_CALLS)
    expected = {"place": n, "route": n, "graph": n}
    checks.expect(calls == expected,
                  f"prepare-cold stage calls {calls}, expected {expected}")
    checks.expect(cache.hits == 0,
                  f"prepare-cold hit the stage cache {cache.hits} times")
    checks.record("prepare-cold", n, len(designs) - len(graphs))
    # fsum: exact, so the preparation order drawn from the seed cannot
    # move the last digits.
    hpwl = math.fsum(
        cache.load(stage_keys_for(d, config)["place"]).hpwl_final
        for d in designs)
    overflow = math.fsum(g.metadata["total_overflow"] for g in graphs)
    return {"wall_s": wall,
            "metrics": {"prepare_s_per_design": wall / n,
                        "hpwl_final": float(hpwl),
                        "route_overflow": float(overflow)}}


def _experiment_spec(workload: dict, family: str, epochs: int,
                     artifacts: str):
    from repro.api.spec import (ExperimentSpec, ModelSpec, OutputSpec,
                                TrainSpec, WorkloadSpec)
    return ExperimentSpec(
        workload=WorkloadSpec(suite=workload["suite"],
                              scale=workload["scale"],
                              count=workload["count"]),
        model=ModelSpec(family=family),
        train=TrainSpec(epochs=epochs, seed=0),
        output=OutputSpec(name=f"{family}-{workload['suite']}",
                          artifacts_dir=artifacts))


def train_phase(workload: dict, dirs: dict, checks: Checks) -> dict:
    """``run_experiment`` per family on the warm cache of this run,
    ``TRAIN_REPEATS`` times interleaved; the mean time is reported.

    Every call loads its own fresh dataset objects from the cache, so
    each pays the lazy per-object setup a user run pays.
    """
    from repro.api import SpecError, run_experiment, validate_result_manifest
    from repro.pipeline import STAGE_CALLS, reset_stage_calls

    os.environ["REPRO_CACHE_DIR"] = dirs["cache"]
    reset_stage_calls()
    times = {family: [] for family in FAMILIES}
    f1s = {family: set() for family in FAMILIES}
    checkpoints, wall, invalid = {}, 0.0, 0
    for _ in range(TRAIN_REPEATS):
        for family in FAMILIES:
            spec = _experiment_spec(workload, family, EPOCHS,
                                    dirs["artifacts"])
            t0 = time.perf_counter()
            result = run_experiment(spec)
            elapsed = time.perf_counter() - t0
            wall += elapsed
            try:
                with open(result.manifest_path) as handle:
                    validate_result_manifest(json.load(handle))
            except (OSError, ValueError, SpecError) as exc:
                checks.expect(False, f"{family} result manifest: {exc}")
                invalid += 1
            times[family].append(elapsed)
            f1s[family].add(float(result.metrics["f1"]))
            checkpoints[family] = result.checkpoint_path
    checks.record("train-warm", TRAIN_REPEATS * len(FAMILIES), invalid)
    metrics = {}
    for family in FAMILIES:
        checks.expect(len(f1s[family]) == 1,
                      f"{family} F1 differs between identical runs: "
                      f"{sorted(f1s[family])}")
        metrics[f"{family}_experiment_s"] = statistics.fmean(times[family])
        metrics[f"{family}_f1_pct"] = min(f1s[family])
    stage_work = {k: v for k, v in STAGE_CALLS.items()
                  if k in ("place", "route") and v}
    checks.expect(not stage_work,
                  f"train-warm ran pipeline stages: {stage_work}")
    return {"wall_s": wall, "metrics": metrics, "checkpoints": checkpoints,
            "times": times}


def serve_phase(workload: dict, dirs: dict, checkpoint: str, seed: int,
                seconds: float, checks: Checks, tracer=None) -> dict:
    """Cold, warm and burst traffic against the trained LHNN, checked
    against an in-process forward pass of the same checkpoint."""
    from repro.pipeline import PipelineConfig, load_workload
    import serve_load

    names = [d.name for d in load_workload(
        workload["suite"], PipelineConfig(scale=serve_load.SERVE_SCALE))]
    traffic = serve_load.serve_phase(checkpoint, workload["suite"], names,
                                     dirs["serve-cache"], seed, seconds,
                                     tracer)
    reference = serve_load.reference_grids(
        checkpoint, workload["suite"], dirs["serve-cache"], traffic)
    for error in serve_load.check_replies(traffic, reference):
        checks.expect(False, error)
    for phase in ("primed", "cold", "warm", "burst"):
        replies = [reply for _, _, reply in traffic[phase]]
        checks.record(f"serve-{phase}", len(replies),
                      sum(not reply.get("ok") for reply in replies))
    counters = traffic["service"]
    for name in ("rejected", "failed", "retried"):
        checks.expect(counters[name] == 0,
                      f"service {name} {counters[name]} requests")
    return {"traffic": traffic, "metrics": serve_load.serve_metrics(traffic)}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest joined child (the
    serving worker), in MB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def host_context() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_flow(name: str, seed: int, seconds: float, base: str,
             checks: Checks, tracer=None, flow_only: bool = False) -> dict:
    """Set up, then the three phases; returns metrics and phase walls.

    ``flow_s`` is the preparation plus training wall time, the part of
    the flow that tracing instruments densely.  ``flow_only`` sets up
    once and stops after training: the untraced side of
    ``tracing_overhead_pct`` needs nothing more.
    """
    from repro import nn, perf

    import serve_load
    from layers import instrument, nn_metrics
    from tracing import Patches

    workload = WORKLOADS[name]
    nn.set_default_dtype("float32")
    setup_times, dirs, designs = setup(workload, base,
                                       1 if flow_only else SETUP_REPEATS)
    out = {"dirs": dirs, "workload": workload}
    with Patches() as patches:
        if tracer is not None:
            instrument(tracer, patches)
            perf.enable()
        try:
            prepared = prepare_phase(workload, designs, dirs, seed, checks,
                                     tracer)
            if tracer is not None:
                out["prepare_self_s"] = dict(tracer.self_s)
            trained = train_phase(workload, dirs, checks)
        finally:
            if tracer is not None:
                perf.disable()
                out["nn"] = nn_metrics(perf.perf_report())
    out.update(prepared=prepared, trained=trained,
               flow_s=prepared["wall_s"] + trained["wall_s"])
    if flow_only:
        return out
    served = serve_phase(workload, dirs, trained["checkpoints"]["lhnn"],
                         seed, seconds, checks, tracer)
    out["served"] = served
    print("samples " + json.dumps({
        "setup_s": [round(t, 4) for t in setup_times],
        "prepare_wall_s": round(prepared["wall_s"], 4),
        "experiment_s": {family: [round(t, 4) for t in ts]
                         for family, ts in trained["times"].items()},
        **serve_load.traffic_summary(served["traffic"]),
        "rss_self_mb": round(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
    out["metrics"] = {"setup_s": statistics.median(setup_times),
                      "peak_rss_mb": peak_rss_mb(),
                      **prepared["metrics"], **trained["metrics"],
                      **served["metrics"]}
    return out


def layer_table(flow: dict) -> tuple[list[tuple[str, float]], float, float]:
    """Preparation self times per layer row, the unattributed remainder
    (root self time) and the phase wall time."""
    from layers import PREPARE_ROWS
    self_s = flow["prepare_self_s"]
    rows = [(row, self_s.get(row, 0.0)) for row in PREPARE_ROWS]
    return rows, self_s.get("pipeline", 0.0), flow["prepared"]["wall_s"]


def per_layer_metrics(flow: dict, tracer, untraced_flow_s: float) -> dict:
    from layers import PER_LAYER
    import serve_load

    s, total, calls, counters = (tracer.self_s, tracer.total_s, tracer.calls,
                                 tracer.counters)
    rerouted = counters.get("routing.rerouted_segments", 0.0)
    rows, unattributed, wall = layer_table(flow)
    traffic = flow["served"]["traffic"]
    probe = traffic["probe"]
    waits = [probe.started[rid] - sent for rid, sent in
             traffic["warm_sent"].items() if rid in probe.started]
    batched = [size for size in probe.batch_sizes if size > 1] or [1]
    metrics = {
        "placement.quadratic_s": s.get("placement.quadratic", 0.0),
        "placement.spread_s": s.get("placement.spread", 0.0),
        "placement.bin_density_s": s.get("placement.bin_density", 0.0),
        "placement.bin_density_calls": calls.get("placement.bin_density", 0),
        "placement.legalize_s": s.get("placement.legalize", 0.0),
        "routing.pattern_s": s.get("routing.pattern", 0.0),
        "routing.astar_s": s.get("routing.astar", 0.0),
        "routing.astar_calls": calls.get("routing.astar", 0),
        "routing.edge_costs_s": s.get("routing.edge_costs", 0.0),
        "routing.edge_costs_calls": calls.get("routing.edge_costs", 0),
        "routing.rerouted_segments": rerouted,
        "routing.overflow_removed_per_reroute":
            counters.get("routing.overflow_removed", 0.0) / max(rerouted, 1),
        "graph.build_s": s.get("graph.build", 0.0),
        "store.write_s": total.get("store.write", 0.0),
        "store.bytes_written": counters.get("store.bytes_written", 0.0),
        "store.read_s": total.get("store.read", 0.0),
        "store.bytes_read": counters.get("store.bytes_read", 0.0),
        "pipeline.stage_hits": counters.get("pipeline.stage_hits", 0.0),
        "pipeline.stage_misses": counters.get("pipeline.stage_misses", 0.0),
        "pipeline.unattributed_pct": 100.0 * unattributed / wall,
        "data.sample_of_s": total.get("data.sample_of", 0.0),
        "data.collate_s": total.get("data.collate", 0.0),
        **flow["nn"],
        "train.lhnn_epoch_s":
            total.get("train.lhnn", 0.0) / (EPOCHS * TRAIN_REPEATS),
        "train.unet_epoch_s":
            total.get("train.unet", 0.0) / (EPOCHS * TRAIN_REPEATS),
        "train.evaluate_s": total.get("train.evaluate", 0.0),
        "api.load_dataset_s": total.get("api.load_dataset", 0.0),
        "api.save_s": total.get("api.save", 0.0),
        **flow["replay"],
        "service.queue_wait_ms": 1e3 * statistics.fmean(waits or [0.0]),
        "service.dispatch_s": total.get("service.dispatch", 0.0),
        "service.batch_size_mean": statistics.fmean(batched),
        "service.rejected": traffic["service"]["rejected"],
        "service.failed": traffic["service"]["failed"],
        "service.retried": traffic["service"]["retried"],
        "tracing_overhead_pct":
            100.0 * (flow["flow_s"] / untraced_flow_s - 1.0),
    }
    for name in ("serve.resolve", "serve.submit", "serve.flush",
                 "serve.to_json"):
        metrics[f"{name}_s"] = total.get(name, 0.0)
    return {name: (float(metrics[name]), unit)
            for name, unit in PER_LAYER.items()}


def untraced_child(args) -> float:
    """Preparation plus training wall time of the same run, untraced,
    in a fresh process (so both sides pay the same first-call costs).

    The child leads its own process group: if it has to be killed, its
    serving worker and resource tracker go with it."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", "0", "--report-flow"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run exited {proc.returncode}")
    return float(json.loads(stdout.strip().splitlines()[-1])["flow_s"])


def stop_processes() -> None:
    """End every process this one started, and wait for each.

    The serving service joins its workers when it stops; this also
    catches any left by an error.  Spawning them started the
    multiprocessing resource tracker, which otherwise outlives this
    process until it notices its pipe close.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def emit(checks: Checks, metrics: dict, reported: dict | None = None) -> int:
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    for name, (value, unit) in (reported or {}).items():
        print(f"{name:40s} {value:16.6f} {unit} (reported, not gated)")
    print("requests " + json.dumps(checks.phases))
    for error in checks.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not checks.errors, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not checks.errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report-flow", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminating signal unwinds through the clean-up below.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from tracing import Tracer

    print("host " + json.dumps(host_context(), sort_keys=True))
    untraced_flow_s = untraced_child(args) if args.trace else None
    os.makedirs(RUNS_DIR, exist_ok=True)
    base = tempfile.mkdtemp(dir=RUNS_DIR)
    # Whatever falls back to the default stage cache stays in this run.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(base, "default-cache")
    checks = Checks()
    try:
        tracer = Tracer() if args.trace else None
        flow = run_flow(args.workload, args.seed, args.seconds, base,
                        checks, tracer, flow_only=args.report_flow)
        if args.report_flow:
            print(json.dumps({"flow_s": flow["flow_s"]}))
            return 0 if not checks.errors else 1
        if tracer is None:
            def pick(names):
                return {name: (float(flow["metrics"][name]), unit)
                        for name, unit in names.items()}
            return emit(checks, pick(END_TO_END), pick(REPORTED))
        import serve_load
        flow["replay"] = serve_load.replay_engine(
            flow["trained"]["checkpoints"]["lhnn"],
            flow["workload"]["suite"], flow["dirs"]["serve-cache"],
            flow["served"]["traffic"], tracer)
        rows, unattributed, wall = layer_table(flow)
        print(f"prepare-cold layer table (self time, traced wall "
              f"{wall:.3f} s)")
        for row, seconds in rows:
            print(f"  {row:24s} {seconds:9.3f} s {100 * seconds / wall:6.1f} %")
        print(f"  {'unattributed':24s} {unattributed:9.3f} s "
              f"{100 * unattributed / wall:6.1f} %")
        covered = sum(seconds for _, seconds in rows)
        checks.expect(
            abs(wall - covered) <= LAYER_SUM_TOLERANCE_PCT / 100 * wall,
            f"layer rows sum to {covered:.3f} s, wall {wall:.3f} s")
        return emit(checks, per_layer_metrics(flow, tracer, untraced_flow_s))
    finally:
        stop_processes()
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
