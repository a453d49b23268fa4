"""Which public functions of each layer a traced run wraps, and how the
recorded spans and counters become the per-layer metrics.

Span names are ``<layer>.<step>``; a bare layer name (``placement``,
``routing``) is the stage entry point, whose self time is the stage's
work outside the named steps.  ``pipeline`` is the root span around the
whole preparation phase: its self time is what no layer span covers.
"""

from __future__ import annotations

from importlib import import_module

from tracing import Patches, Tracer

#: Span names whose self times form the preparation layer table, in
#: print order.  ``pipeline`` (the root) is the unattributed remainder.
PREPARE_ROWS = ("placement.quadratic", "placement.spread",
                "placement.bin_density", "placement.legalize", "placement",
                "routing.pattern", "routing.astar", "routing.edge_costs",
                "routing", "graph.build", "store.write", "store.read")

#: Per-layer metrics: name -> unit.  The order is the output order.
PER_LAYER = {
    "placement.quadratic_s": "s",
    "placement.spread_s": "s",
    "placement.bin_density_s": "s",
    "placement.bin_density_calls": "count",
    "placement.legalize_s": "s",
    "routing.pattern_s": "s",
    "routing.astar_s": "s",
    "routing.astar_calls": "count",
    "routing.edge_costs_s": "s",
    "routing.edge_costs_calls": "count",
    "routing.rerouted_segments": "count",
    "routing.overflow_removed_per_reroute": "ratio",
    "graph.build_s": "s",
    "store.write_s": "s",
    "store.bytes_written": "B",
    "store.read_s": "s",
    "store.bytes_read": "B",
    "pipeline.stage_hits": "count",
    "pipeline.stage_misses": "count",
    "pipeline.unattributed_pct": "%",
    "data.sample_of_s": "s",
    "data.collate_s": "s",
    "nn.spmm_s": "s",
    "nn.conv2d_s": "s",
    "nn.autograd_backward_s": "s",
    "nn.optimizer_step_s": "s",
    "nn.bytes_allocated": "B",
    "train.lhnn_epoch_s": "s",
    "train.unet_epoch_s": "s",
    "train.evaluate_s": "s",
    "api.load_dataset_s": "s",
    "api.save_s": "s",
    "serve.resolve_s": "s",
    "serve.submit_s": "s",
    "serve.flush_s": "s",
    "serve.to_json_s": "s",
    "serve.sample_cache_hit_ratio": "ratio",
    "serve.batch_cache_hit_ratio": "ratio",
    "serve.forward_passes_per_request": "ratio",
    "service.queue_wait_ms": "ms",
    "service.dispatch_s": "s",
    "service.batch_size_mean": "count",
    "service.rejected": "count",
    "service.failed": "count",
    "service.retried": "count",
    "tracing_overhead_pct": "%",
}


def _counting(fn, on_result):
    """``fn`` with ``on_result(result, args)`` after each call, no span."""
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(result, args)
        return result
    return counted


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    stages = import_module("repro.pipeline.stages")
    quadratic = import_module("repro.placement.quadratic")
    spreading = import_module("repro.placement.spreading")
    legalize = import_module("repro.placement.legalize")
    router = import_module("repro.routing.router")
    maze = import_module("repro.routing.maze")
    grid = import_module("repro.routing.grid")
    cache = import_module("repro.pipeline.cache")
    blobs = import_module("repro.store.blobs")
    dataset = import_module("repro.data.dataset")
    experiment = import_module("repro.api.experiment")
    registry = import_module("repro.serve.registry")

    def fn(func, name, on_result=None):
        patches.function(func, tracer.wrap(func, name, on_result))

    def method(cls, attr, name, on_result=None):
        patches.attr(cls, attr, tracer.wrap(cls.__dict__[attr], name,
                                            on_result))

    # placement
    fn(stages.run_place_stage, "placement")
    method(quadratic.QuadraticPlacer, "__init__", "placement.quadratic")
    method(quadratic.QuadraticPlacer, "solve", "placement.quadratic")
    fn(spreading.spread, "placement.spread")
    fn(spreading.compute_bin_density, "placement.bin_density")
    fn(legalize.legalize, "placement.legalize")

    # routing
    def routed(product, _args):
        history = product.overflow_history
        tracer.count("routing.rerouted_segments", product.rerouted_segments)
        tracer.count("routing.overflow_removed",
                     history[0] - history[-1] if history else 0.0)
    fn(stages.run_route_stage, "routing", routed)
    method(router.GlobalRouter, "initial_route", "routing.pattern")
    fn(maze.astar_route, "routing.astar")
    method(grid.RoutingGrid, "edge_costs", "routing.edge_costs")

    # graph + features
    fn(stages.run_graph_stage, "graph.build")

    # pipeline cache + store
    def loaded(obj, _args):
        tracer.count("pipeline.stage_hits" if obj is not None
                     else "pipeline.stage_misses")
    method(cache.StageCache, "load", "store.read", loaded)
    method(cache.StageCache, "store", "store.write")
    patches.attr(blobs.BlobStore, "put", _counting(
        blobs.BlobStore.put,
        lambda ok, args: tracer.count("store.bytes_written", len(args[2]))))
    patches.attr(blobs.BlobStore, "get", _counting(
        blobs.BlobStore.get,
        lambda data, _args: tracer.count("store.bytes_read",
                                         len(data) if data else 0)))

    # data views
    fn(dataset.sample_of, "data.sample_of")
    fn(dataset.collate_samples, "data.collate")

    # experiment API: dataset load, checkpoint save, family runtimes
    fn(experiment.load_dataset, "api.load_dataset")
    fn(registry.save_model, "api.save")
    for family in ("lhnn", "unet"):
        runtime = registry.get_runtime(family)
        registry.attach_runtime(
            family,
            trainer=tracer.wrap(runtime.trainer, f"train.{family}"),
            evaluator=tracer.wrap(runtime.evaluator, "train.evaluate"),
            default_config=runtime.default_config)
        patches.on_exit(lambda rt=runtime: registry.attach_runtime(
            rt.name, trainer=rt.trainer, evaluator=rt.evaluator,
            default_config=rt.default_config))


def nn_metrics(perf_report: dict) -> dict:
    """The ``repro.perf`` op timers folded into the nn metrics."""
    ops = perf_report.get("ops", {})

    def seconds(*names):
        return sum(ops.get(n, {}).get("total_s", 0.0) for n in names)

    return {
        "nn.spmm_s": seconds("spmm.forward", "spmm.backward"),
        "nn.conv2d_s": seconds("conv2d.forward", "conv2d.backward"),
        "nn.autograd_backward_s": seconds("autograd.backward"),
        "nn.optimizer_step_s": seconds("optimizer.step"),
        "nn.bytes_allocated": float(sum(op.get("bytes_allocated", 0)
                                        for op in ops.values())),
    }
