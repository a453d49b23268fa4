"""Command-line interface for the LHNN reproduction.

A thin shell over :mod:`repro.api`: every data-touching subcommand
resolves a declarative :class:`~repro.api.ExperimentSpec` (defaults ←
``--config spec.toml``/``.json`` ← dedicated flags ← ``--set``
overrides) and hands it to the experiment layer, so any registered model
family × workload combination is reachable from the same flags.

Usage (after ``pip install -e .``)::

    python -m repro.cli prepare    [--scale 1.0] [--suite NAME] [--workers N]
                                   [--bookshelf-dir DIR] [--list-suites]
    python -m repro.cli stats      [--suite NAME] [--scale 1.0]
    python -m repro.cli train      [--model lhnn|mlp|gridsage|unet|pix2pix]
                                   [--suite NAME] [--scale 1.0] [--epochs 20]
                                   [--duo] [--batch-size 4] [--dtype float32]
                                   [--config spec.toml] [--set KEY=VAL ...]
                                   [--out ckpt.npz]
    python -m repro.cli experiment --config spec.toml [--set KEY=VAL ...]
                                   [--dry-run]
    python -m repro.cli sweep      run|status|report --config sweep.toml
                                   [--workers N] [--set KEY=VAL ...]
    python -m repro.cli evaluate   --checkpoint ckpt.npz [--suite NAME]
                                   [--scale 1.0]
    python -m repro.cli predict    --checkpoint ckpt.npz --design superblue5
                                   [--channel h|v|both] [--suite NAME]
                                   [--scale 1.0]
    python -m repro.cli serve      --checkpoint ckpt.npz [--port N]
                                   [--workers 1] [--max-batch 8]
                                   [--dtype float32|float64]
    python -m repro.cli info                              # package versions

Every subcommand works off the cached pipeline products, so the first
invocation of any data-touching command pays the place-and-route cost
once.  ``--set`` uses the dotted-path override grammar documented in
``docs/experiment_api.md`` (e.g. ``--set train.epochs=5 --set
model.params.hidden=16``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

#: The registered model families, spelled out for argparse choices (the
#: registry agrees; see ``repro.serve.registry.list_families``).
MODEL_FAMILIES = ("lhnn", "mlp", "gridsage", "unet", "pix2pix")


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _add_spec_io(parser: argparse.ArgumentParser,
                 config_required: bool = False) -> None:
    parser.add_argument("--config", default=None, required=config_required,
                        help="experiment spec file (.toml or .json); "
                             "flags and --set override it")
    parser.add_argument("--set", action="append", dest="overrides",
                        metavar="SECTION.KEY=VALUE", default=[],
                        help="dotted-path spec override, repeatable "
                             "(e.g. --set train.epochs=5 "
                             "--set model.params.hidden=16)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LHNN (DAC 2022) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="generate, place and route a workload "
                       "through the staged (place/route/graph) pipeline")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--suite", default="superblue",
                   help="registered workload to prepare (see --list-suites); "
                        "e.g. superblue, macro-heavy, hotspot, bookshelf")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel preparation processes; per-design seeds "
                        "are deterministic, so any N is bit-identical to 1")
    p.add_argument("--bookshelf-dir", default=None, dest="bookshelf_dir",
                   help="directory scanned for .aux bundles "
                        "(bookshelf suite only)")
    p.add_argument("--count", type=_positive_int, default=None,
                   help="number of designs for the scenario families")
    p.add_argument("--no-cache", action="store_true", dest="no_cache",
                   help="recompute everything, bypassing the stage cache")
    p.add_argument("--list-suites", action="store_true", dest="list_suites",
                   help="print the registered workloads and exit")

    p = sub.add_parser("stats", help="print dataset statistics and the split")
    p.add_argument("--suite", default="superblue",
                   help="registered workload to summarise")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--count", type=_positive_int, default=None,
                   help="number of designs for the scenario families")

    p = sub.add_parser("train", help="train any registered model family on "
                       "any registered workload and save a checkpoint")
    p.add_argument("--model", choices=MODEL_FAMILIES, default=None,
                   help="model family to train (default: the spec's, "
                        "i.e. lhnn)")
    p.add_argument("--suite", default=None,
                   help="registered workload to train on "
                        "(default: the spec's, i.e. superblue)")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--count", type=_positive_int, default=None,
                   help="number of designs for the scenario families")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duo", action="store_true",
                   help="predict horizontal AND vertical congestion "
                        "(model.channels=2)")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--batch-size", type=_positive_int, default=None,
                   dest="batch_size",
                   help="designs composed into one block-diagonal "
                        "supergraph per optimizer step (1 = per-design)")
    p.add_argument("--dtype", choices=("float32", "float64"), default=None,
                   help="compute dtype of the numerical engine; float32 "
                        "(the spec default) is ~2x faster on CPU with "
                        "held-out metrics within noise (dtype is recorded "
                        "in the checkpoint and honoured at restore)")
    p.add_argument("--out", default=None,
                   help="checkpoint path (default: "
                        "artifacts/<family>-<suite>.npz)")
    _add_spec_io(p)

    p = sub.add_parser("experiment", help="run a declarative experiment "
                       "spec end to end (train -> evaluate -> checkpoint "
                       "-> result manifest)")
    _add_spec_io(p, config_required=True)
    p.add_argument("--dry-run", action="store_true", dest="dry_run",
                   help="print the resolved canonical spec and exit")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the "
                       "held-out designs of a workload")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--suite", default="superblue",
                   help="registered workload to evaluate on")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--count", type=_positive_int, default=None,
                   help="number of designs for the scenario families")

    p = sub.add_parser("predict", help="render prediction vs truth for one "
                       "design (served through the inference engine, or a "
                       "running server via --port)")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint to serve from in-process "
                        "(required unless --port targets a running server)")
    p.add_argument("--design", required=True,
                   help="design name, e.g. superblue5")
    p.add_argument("--suite", default="superblue",
                   help="workload the design belongs to")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--channel", choices=("h", "v", "both"), default="h",
                   help="congestion direction(s): 'v' needs a duo-channel "
                        "checkpoint, 'both' renders every channel the "
                        "checkpoint provides (H only for uni-channel)")
    p.add_argument("--port", type=int, default=None,
                   help="query a running `repro serve` server on this TCP "
                        "port instead of restoring a checkpoint locally")
    p.add_argument("--host", default="127.0.0.1",
                   help="server host for --port mode")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="connect/read timeout in seconds for --port mode "
                        "(bounded retries with exponential backoff; a dead "
                        "server errors out instead of blocking forever)")

    p = sub.add_parser("serve", help="long-lived batched inference service "
                       "(JSON lines on stdin/stdout, or --port for TCP)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--port", type=int, default=None,
                   help="serve the line protocol on this TCP port "
                        "(0 = pick a free one); default: stdin/stdout")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--suite", default="superblue",
                   help="default workload for requests without 'suite'")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--max-batch", type=_positive_int, default=8,
                   dest="max_batch",
                   help="max designs composed into one block-diagonal "
                        "forward pass per flush")
    p.add_argument("--dtype", choices=("float32", "float64"), default=None,
                   help="serve at this compute dtype regardless of how "
                        "the checkpoint was trained (default: the "
                        "checkpoint's recorded dtype)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="engine worker processes behind the asyncio "
                        "front end")
    p.add_argument("--max-queue", type=_positive_int, default=256,
                   dest="max_queue",
                   help="max admitted-but-unanswered requests before "
                        "backpressure replies (global; per-connection cap "
                        "is a quarter of this)")
    p.add_argument("--flush-deadline-ms", type=float, default=25.0,
                   dest="flush_deadline_ms",
                   help="auto-flush latency target — a buffered warm "
                        "batch dispatches after this long even if the size "
                        "trigger hasn't fired")
    p.add_argument("--admin-token", default=None, dest="admin_token",
                   help="require this token on reload/shutdown ops "
                        "(default: admin ops are open)")

    p = sub.add_parser("sweep", help="expand a declarative sweep spec "
                       "into the full experiment grid and drive it to a "
                       "ranked leaderboard (crash-resumable, "
                       "exactly-once across concurrent runs)")
    p.add_argument("action", choices=["run", "status", "report"],
                   help="run: execute every missing grid point and "
                        "write the repro-sweep-v1 leaderboard manifest; "
                        "status: per-point state (done/leased/pending/"
                        "quarantined) without touching any lease; "
                        "report: re-aggregate manifests from disk and "
                        "render the leaderboard")
    p.add_argument("--config", required=True,
                   help="sweep spec file (.toml or .json): a base "
                        "experiment spec plus [axes] of dotted-path "
                        "override lists (see docs/sweeps.md)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="grid points executed concurrently (process "
                        "pool; the stage cache is shared, so points on "
                        "one suite prepare it once)")
    p.add_argument("--set", action="append", dest="overrides",
                   metavar="SECTION.KEY=VALUE", default=[],
                   help="dotted-path override applied to the base spec "
                        "before grid expansion, repeatable")

    p = sub.add_parser("store", help="inspect and maintain the durable "
                       "artifact store (stage cache, quarantine, leases)")
    p.add_argument("action", choices=["gc", "stats", "quarantine"],
                   help="gc: remove orphaned *.tmp files and expired "
                        "leases; stats: blob/lease/quarantine census; "
                        "quarantine: list quarantined artifacts and why")
    p.add_argument("--root", default=None,
                   help="store root (default: the stage-cache directory, "
                        "honouring REPRO_CACHE_DIR)")
    p.add_argument("--max-age", type=float, default=600.0, dest="max_age",
                   help="gc: tmp files older than this many seconds are "
                        "orphans (default 600)")

    sub.add_parser("info", help="print version and dependency info")
    return parser


def _load_dataset(channels: int = 1, scale: float = 1.0,
                  suite: str = "superblue", count: int | None = None):
    """Dataset views of any registered workload (lazy manifest-backed)."""
    from repro.api import load_dataset, spec_from_dict
    spec = spec_from_dict({
        "workload": {"suite": suite, "scale": scale, "count": count},
        "model": {"channels": channels},
    })
    return load_dataset(spec, verbose=True)


def _resolve_spec(args, flag_sets: list[str]):
    """defaults ← --config file ← dedicated flags ← --set overrides."""
    from repro.api import ExperimentSpec, apply_overrides, load_spec
    spec = load_spec(args.config) if args.config else ExperimentSpec()
    return apply_overrides(spec, flag_sets + list(args.overrides or []))


def _train_flag_sets(args) -> list[str]:
    """The dotted-path overrides implied by the dedicated train flags."""
    sets = []
    if args.model is not None:
        sets.append(f"model.family={args.model}")
    if args.duo:
        sets.append("model.channels=2")
    if args.suite is not None:
        sets.append(f"workload.suite={args.suite}")
    if args.scale is not None:
        sets.append(f"workload.scale={args.scale}")
    if args.count is not None:
        sets.append(f"workload.count={args.count}")
    if args.epochs is not None:
        sets.append(f"train.epochs={args.epochs}")
    if args.seed is not None:
        sets.append(f"train.seed={args.seed}")
    if args.gamma is not None:
        sets.append(f"train.gamma={args.gamma}")
    if args.batch_size is not None:
        sets.append(f"train.batch_size={args.batch_size}")
    if args.dtype is not None:
        sets.append(f"compute.dtype={args.dtype}")
    if args.out is not None:
        sets.append(f"output.checkpoint={args.out}")
    return sets


def _print_result(result) -> None:
    print(f"held-out F1 {result.metrics['f1']:.2f} %  "
          f"ACC {result.metrics['acc']:.2f} %")
    print(f"checkpoint written to {result.checkpoint_path}")
    print(f"result manifest written to {result.manifest_path}")


def cmd_prepare(args) -> int:
    from repro.pipeline import (PipelineConfig, list_workloads,
                                load_workload, prepare_workload)
    if args.list_suites:
        for w in list_workloads():
            print(f"{w.name:<12} {w.description}")
        return 0
    config = PipelineConfig(scale=args.scale, use_cache=not args.no_cache)
    params = {}
    if args.bookshelf_dir:
        params["root"] = args.bookshelf_dir
    if args.count is not None:
        params["count"] = args.count
    # Validate suite name and flags first so user errors fail fast with a
    # clean message, while real pipeline bugs during the (long)
    # preparation still traceback.
    import inspect

    from repro.pipeline import get_workload
    try:
        workload = get_workload(args.suite)
    except KeyError as exc:
        print(f"prepare failed: {exc}", file=sys.stderr)
        return 2
    try:
        inspect.signature(workload.factory).bind(config, **params)
    except TypeError:
        print(f"prepare failed: suite {args.suite!r} does not accept "
              f"parameters {sorted(params)}", file=sys.stderr)
        return 2
    try:
        designs = load_workload(args.suite, config, **params)
    except ValueError as exc:
        print(f"prepare failed: {exc}", file=sys.stderr)
        return 2
    from repro.pipeline import StageCache, default_cache_dir
    cache = StageCache(default_cache_dir() if config.use_cache else None)
    graphs = prepare_workload(args.suite, config, workers=args.workers,
                              verbose=True, lazy=True, designs=designs,
                              cache=cache)
    print(f"prepared {len(graphs)} designs of suite {args.suite!r} "
          f"({graphs[0].nx}x{graphs[0].ny} G-cells each) "
          f"with {args.workers} worker(s)")
    state = "degraded (uncached)" if cache.degraded else (
        "disabled" if cache.root is None else "ok")
    print(f"stage cache: {cache.hits} hits, {cache.misses} misses, "
          f"{cache.stores} stores, {cache.corrupt} corrupt "
          f"(quarantined), state {state}")
    return 0


def cmd_stats(args) -> int:
    from repro.api import SpecError
    from repro.eval import format_table
    try:
        dataset = _load_dataset(suite=args.suite, scale=args.scale,
                                count=args.count)
    except SpecError as exc:
        print(f"stats failed: {exc}", file=sys.stderr)
        return 2
    print(format_table(dataset.table1_rows(),
                       title="Dataset information (Table 1 protocol)"))
    split = dataset.split
    print(f"\nbalanced split gap: {100 * split.rate_gap:.3f} pp")
    rows = [{"design": g.name,
             "H-rate_%": round(100 * g.congestion_rate(0), 2),
             "V-rate_%": round(100 * g.congestion_rate(1), 2),
             "role": ("test" if i in split.test_indices else "train")}
            for i, g in enumerate(dataset.graphs)]
    print("\n" + format_table(rows, title="Per-design congestion rates"))
    return 0


def cmd_train(args) -> int:
    from repro.api import SpecError, run_experiment
    try:
        spec = _resolve_spec(args, _train_flag_sets(args))
        result = run_experiment(spec, verbose=True)
    except SpecError as exc:
        print(f"train failed: {exc}", file=sys.stderr)
        return 2
    _print_result(result)
    return 0


def cmd_experiment(args) -> int:
    from repro.api import SpecError, dumps_spec, run_experiment
    try:
        spec = _resolve_spec(args, [])
    except SpecError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(dumps_spec(spec))
        return 0
    try:
        result = run_experiment(spec, verbose=True)
    except SpecError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2
    print(f"experiment {spec.experiment_name()} "
          f"({spec.model.family} x {spec.workload.suite}, "
          f"fingerprint {result.fingerprint})")
    _print_result(result)
    return 0


def cmd_evaluate(args) -> int:
    from repro.api import SpecError
    from repro.eval.reporting import per_design_report, predicted_rate_table
    from repro.nn import set_default_dtype
    from repro.nn.serialize import CheckpointError
    from repro.serve.registry import (model_dtype, output_channels,
                                      restore_model)
    try:
        model, meta = restore_model(args.checkpoint)
    except CheckpointError as exc:
        print(f"evaluate failed: {exc}", file=sys.stderr)
        return 2
    # Evaluate in the checkpoint's compute dtype: dataset samples must
    # match the parameters or numpy silently upcasts every forward pass.
    set_default_dtype(model_dtype(model))
    try:
        dataset = _load_dataset(channels=output_channels(model),
                                suite=args.suite, scale=args.scale,
                                count=args.count)
    except SpecError as exc:
        print(f"evaluate failed: {exc}", file=sys.stderr)
        return 2
    # CNN checkpoints trained with a crop evaluate tile-by-tile, so this
    # report agrees with the train-time held-out metrics.
    crop = (meta.get("experiment") or {}).get("train", {}).get("crop")
    rows = per_design_report(model, dataset.test_samples(), crop=crop)
    print(predicted_rate_table(rows, title="Held-out per-design results"))
    f1s = [r["F1"] for r in rows]
    print(f"\nmean F1 {np.mean(f1s):.2f} %")
    return 0


_CHANNEL_TITLES = {"h": "H congestion", "v": "V congestion"}


def _render_prediction(name: str, family: str, grids: dict,
                       truth: dict | None, rates: dict) -> None:
    """Render per-channel prediction panels; shared by both predict paths."""
    from repro.eval import comparison_panel
    for channel, grid in grids.items():
        grid = np.asarray(grid)
        if truth is None:
            from repro.eval.visualize import ascii_heatmap
            print(f"{name} ({_CHANNEL_TITLES[channel]}, "
                  f"predicted by {family})")
            print(ascii_heatmap(grid))
        else:
            print(comparison_panel(
                np.asarray(truth[channel]), {family: grid},
                title=f"{name} ({_CHANNEL_TITLES[channel]})"))
        print(f"predicted {channel.upper()}-congestion rate: "
              f"{100 * rates[channel]:.2f} %\n")


def _remote_predict(args) -> int:
    """Serve one prediction through a running ``repro serve`` server."""
    from repro.serve import ServeClient, ServeError
    try:
        with ServeClient.connect(args.port, host=args.host,
                                 timeout=args.timeout) as client:
            info = client.server_info()
            client.predict(design=args.design, suite=args.suite,
                           channel=args.channel)
            replies = client.flush()
    except ServeError as exc:
        print(f"predict failed: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in replies if not r.get("ok", False)]
    if failed or not replies:
        error = failed[0].get("error", "no reply") if failed else "no reply"
        print(f"predict failed: {error}", file=sys.stderr)
        return 2
    result = replies[0]["result"]
    label = (info.get("name", "server") + " "
             + info.get("mode", "")).strip().upper()
    _render_prediction(result["name"], label, result["grids"],
                       result.get("truth"), result["predicted_rate"])
    return 0


def cmd_predict(args) -> int:
    from repro.nn.serialize import CheckpointError
    from repro.pipeline import PipelineConfig
    from repro.serve import (DesignResolver, InferenceEngine,
                             PredictRequest, ServeConfig, restore_model)
    if args.port is not None:
        return _remote_predict(args)
    if args.checkpoint is None:
        print("predict failed: --checkpoint is required unless --port "
              "targets a running server", file=sys.stderr)
        return 2
    try:
        model, _ = restore_model(args.checkpoint)
    except CheckpointError as exc:
        print(f"predict failed: {exc}", file=sys.stderr)
        return 2
    config = PipelineConfig(scale=args.scale)
    engine = InferenceEngine(model, ServeConfig(pipeline=config))
    resolver = DesignResolver(config, default_suite=args.suite)
    try:
        design = resolver.resolve({"design": args.design,
                                   "suite": args.suite})
        result = engine.predict(PredictRequest(design=design,
                                               channel=args.channel))
    except ValueError as exc:
        print(f"predict failed: {exc}", file=sys.stderr)
        return 2
    _render_prediction(result.name, engine.family.upper(), result.grids,
                       result.truth, result.predicted_rate)
    return 0


def cmd_serve(args) -> int:
    """Run the supervised asyncio service on TCP (``--port``) or stdio."""
    import asyncio

    from repro.nn.serialize import CheckpointError
    from repro.pipeline import PipelineConfig
    from repro.serve import (ServeConfig, ServeService, ServiceConfig,
                             restore_model)
    # Restore once here, so a checkpoint the workers could not load
    # fails now instead of crash-looping them.
    try:
        _, metadata = restore_model(args.checkpoint, dtype=args.dtype)
    except CheckpointError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 2
    service = ServeService(
        checkpoint=args.checkpoint,
        serve=ServeConfig(pipeline=PipelineConfig(scale=args.scale),
                          max_batch=args.max_batch),
        config=ServiceConfig(workers=args.workers,
                             max_batch=args.max_batch,
                             max_queue=args.max_queue,
                             max_queue_per_conn=max(1, args.max_queue // 4),
                             flush_deadline_ms=args.flush_deadline_ms,
                             admin_token=args.admin_token),
        default_suite=args.suite, dtype=args.dtype)
    banner = (f"[serve] {metadata['model']['family']} checkpoint, "
              f"{args.workers} worker(s)")
    try:
        if args.port is None:
            print(f"{banner}; JSON lines on stdin, one op per line",
                  file=sys.stderr)
            asyncio.run(service.run_stdio())
        else:
            asyncio.run(service.run(
                args.host, args.port,
                ready_callback=lambda p: print(
                    f"{banner} on {args.host}:{p}", file=sys.stderr)))
    except KeyboardInterrupt:
        pass
    except OSError as exc:  # the port is taken, or stdin failed
        print(f"serve failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_info(args) -> int:
    import numpy
    import scipy

    import repro
    print(f"repro {repro.__version__}")
    print(f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    print(f"python {sys.version.split()[0]}")
    return 0


def cmd_sweep(args) -> int:
    from repro.api import SpecError
    from repro.eval import format_table
    from repro.sweep import (SweepError, build_sweep_manifest, load_sweep,
                             render_leaderboard, run_sweep, sweep_status,
                             write_sweep_manifest)
    try:
        sweep = load_sweep(args.config, base_overrides=args.overrides)
    except SpecError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2

    if args.action == "status":
        statuses = sweep_status(sweep)
        rows = [{"point": s.index, "state": s.state,
                 "axes": " ".join(f"{p.rsplit('.', 1)[-1]}={v}"
                                  for p, v in s.axes.items()),
                 "holder": (f"pid {s.holder.get('pid')}@"
                            f"{s.holder.get('host')}" if s.holder else ""),
                 "fingerprint": s.fingerprint[:12]}
                for s in statuses]
        counts = {}
        for s in statuses:
            counts[s.state] = counts.get(s.state, 0) + 1
        print(format_table(rows, title=f"Sweep {sweep.name!r}: "
                           f"{len(statuses)} grid point(s)"))
        print("\n" + ", ".join(f"{counts[k]} {k}" for k in
                               ("done", "leased", "pending", "quarantined")
                               if k in counts))
        return 0

    if args.action == "run":
        try:
            report = run_sweep(sweep, workers=args.workers, verbose=True)
        except (SweepError, SpecError) as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return 2
        print(f"sweep {sweep.name!r}: {report.total} point(s) — "
              f"{report.executed} executed, {report.skipped} already "
              f"done or completed elsewhere")

    try:
        manifest = build_sweep_manifest(sweep)
    except SpecError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    if args.action == "report" and not manifest["leaderboard"]:
        print(f"sweep report failed: no completed grid points under "
              f"{sweep.artifacts_dir!r} yet (run `repro sweep run "
              f"--config {args.config}` first)", file=sys.stderr)
        return 2
    path = write_sweep_manifest(sweep, manifest)
    print(render_leaderboard(manifest))
    print(f"\nsweep manifest written to {path}")
    return 0


def cmd_store(args) -> int:
    from repro.pipeline import default_cache_dir
    from repro.store import BlobStore
    root = args.root or default_cache_dir()
    store = BlobStore(root)
    if args.action == "gc":
        report = store.gc(max_tmp_age_s=args.max_age)
        print(f"store gc under {root}: "
              f"removed {len(report['tmp_removed'])} orphaned tmp "
              f"file(s), {len(report['leases_removed'])} expired "
              f"lease(s)")
        for path in report["tmp_removed"] + report["leases_removed"]:
            print(f"  removed {path}")
        return 0
    if args.action == "stats":
        stats = store.stats()
        print(f"store root      {stats['root']}")
        print(f"objects         {stats['objects']} "
              f"({stats['object_bytes'] / 1e6:.1f} MB)")
        print(f"quarantined     {stats['quarantined']}")
        print(f"active leases   {stats['leases']}")
        return 0
    records = store.quarantine_records()
    if not records:
        print(f"quarantine under {root}: empty")
        return 0
    print(f"quarantine under {root}: {len(records)} artifact(s)")
    for record in records:
        print(f"  {record['file']}: {record.get('reason', '<no reason>')}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handler = {
        "prepare": cmd_prepare,
        "stats": cmd_stats,
        "train": cmd_train,
        "experiment": cmd_experiment,
        "evaluate": cmd_evaluate,
        "predict": cmd_predict,
        "serve": cmd_serve,
        "sweep": cmd_sweep,
        "store": cmd_store,
        "info": cmd_info,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
