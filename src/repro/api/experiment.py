"""`run_experiment`: one call from declarative spec to trained artifact.

The runner is the programmatic surface everything else sits on — the CLI
``train`` / ``experiment`` subcommands, the examples, and future
hyper-parameter sweeps all reduce to::

    from repro.api import load_spec, run_experiment
    result = run_experiment(load_spec("examples/specs/lhnn.toml"))
    print(result.metrics["f1"], result.checkpoint_path)

One run is: prepare the workload (through the staged, cached pipeline) →
build the dataset views → train the family via its registered runtime →
evaluate on the held-out split → save the checkpoint with spec-derived
metadata → write a JSON *result manifest* under
``<artifacts_dir>/experiments/``.

The checkpoint metadata embeds the full canonical spec and its
fingerprint next to the PR 3 architecture spec, so a checkpoint answers
"what exactly produced you?" without a lab notebook; the manifest is the
machine-readable record of the run (schema
:data:`RESULT_SCHEMA`, validated by :func:`validate_result_manifest`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace

from ..data.dataset import CongestionDataset
from ..nn.layers import Module
from .spec import ExperimentSpec, SpecError, spec_fingerprint, spec_to_dict

__all__ = ["ExperimentResult", "run_experiment", "load_dataset",
           "validate_result_manifest", "find_result_manifest"]

#: Schema tag of the result-manifest JSON written per experiment.
RESULT_SCHEMA = "repro-experiment-v1"


@dataclass
class ExperimentResult:
    """Everything one experiment produced.

    ``metrics`` are the held-out per-circuit averages (percent);
    ``manifest`` is the exact dict written to ``manifest_path``.
    """

    spec: ExperimentSpec
    fingerprint: str
    model: Module
    metrics: dict
    checkpoint_path: str
    manifest_path: str
    manifest: dict


def load_dataset(spec: ExperimentSpec, verbose: bool = False
                 ) -> CongestionDataset:
    """Prepare the spec's workload and wrap it in the dataset views.

    Runs the staged pipeline (place / route / graph, per-stage cached)
    for ``spec.workload`` and returns the dataset over its graphs at
    ``spec.model.channels`` channels.  Exposed separately so callers that
    drive several experiments over one workload (e.g. the model zoo)
    prepare it once and pass ``dataset=`` into :func:`run_experiment`.
    """
    from ..pipeline import PipelineConfig, load_workload, prepare_workload
    w = spec.workload
    params = {}
    if w.count is not None:
        params["count"] = w.count
    if w.bookshelf_dir:
        params["root"] = w.bookshelf_dir
    config = PipelineConfig(scale=w.scale, use_cache=w.use_cache)
    # Only workload *instantiation* (unknown suite, rejected suite
    # parameters) is a spec problem; bugs inside a factory or the
    # place-and-route preparation must traceback, not masquerade as
    # user errors.
    try:
        designs = load_workload(w.suite, config, **params)
    except (KeyError, ValueError) as exc:
        raise SpecError(f"workload {w.suite!r} rejected the spec: "
                        f"{exc}") from exc
    graphs = prepare_workload(w.suite, config, workers=w.workers,
                              verbose=verbose, designs=designs,
                              **params)
    return CongestionDataset(graphs, channels=spec.model.channels)


def _checkpoint_metadata(spec: ExperimentSpec, fingerprint: str,
                         metrics: dict) -> dict:
    """Spec-derived checkpoint metadata.

    The full canonical spec rides along (sections under ``experiment``),
    so new spec fields are recorded automatically instead of rotting in a
    hand-maintained dict of CLI args; ``dtype`` stays a flat key because
    restore reads it.
    """
    return {
        "experiment": spec_to_dict(spec),
        "spec_fingerprint": fingerprint,
        "dtype": spec.compute.dtype,
        "suite": spec.workload.suite,
        "f1": metrics["f1"], "acc": metrics["acc"],
    }


def validate_result_manifest(manifest: dict) -> dict:
    """Check a result-manifest dict against :data:`RESULT_SCHEMA`.

    Returns the manifest; raises :class:`SpecError` on any violation.
    Used by the CI smoke step and by tooling that consumes manifests.
    """
    if not isinstance(manifest, dict):
        raise SpecError(f"manifest must be an object, "
                        f"got {type(manifest).__name__}")
    if manifest.get("schema") != RESULT_SCHEMA:
        raise SpecError(f"manifest schema must be {RESULT_SCHEMA!r}, "
                        f"got {manifest.get('schema')!r}")
    for key, kind in (("experiment", dict), ("fingerprint", str),
                      ("metrics", dict), ("checkpoint", str),
                      ("workload", dict), ("timing", dict),
                      ("created_unix", (int, float))):
        if not isinstance(manifest.get(key), kind):
            raise SpecError(f"manifest[{key!r}] missing or not "
                            f"{kind if isinstance(kind, type) else 'number'}")
    metrics = manifest["metrics"]
    for key in ("f1", "acc"):
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or not 0 <= value <= 100:
            raise SpecError(f"manifest metrics[{key!r}] must be a "
                            f"percentage in [0, 100], got {value!r}")
    workload = manifest["workload"]
    for key in ("suite", "train_designs", "test_designs"):
        if key not in workload:
            raise SpecError(f"manifest workload[{key!r}] missing")
    # Round-trip the embedded spec: a manifest must be replayable.
    from .spec import spec_from_dict
    spec_from_dict(manifest["experiment"])
    return manifest


def find_result_manifest(artifacts_dir: str, fingerprint: str
                         ) -> tuple[str, dict] | None:
    """Read the result manifest for ``fingerprint``; ``None`` if absent.

    Manifests live only at ``experiments/<fingerprint>.json``.  A file
    there that does not parse comes back as ``(path, {})`` so the caller
    can quarantine it.  Returns ``(path, manifest)`` unvalidated; run
    :func:`validate_result_manifest` on the result before trusting it.
    """
    canonical = os.path.join(artifacts_dir, "experiments",
                             f"{fingerprint}.json")
    try:
        with open(canonical, "r", encoding="utf-8") as fh:
            return canonical, json.load(fh)
    except OSError:
        return None
    except ValueError:
        return canonical, {}


def run_experiment(spec: ExperimentSpec, *,
                   dataset: CongestionDataset | None = None,
                   verbose: bool | None = None,
                   save: bool = True) -> ExperimentResult:
    """Run one declarative experiment end to end.

    Train → evaluate → checkpoint (:func:`repro.serve.registry.save_model`
    with spec-derived metadata) → JSON result manifest.  ``dataset``
    injects a pre-built dataset (skipping workload preparation — the
    model-zoo and test path); ``save=False`` skips the artifact writes
    and returns paths as empty strings.  The compute dtype is set
    process-wide before any parameter or sample is materialised, exactly
    like the historical CLI path.
    """
    from ..nn import set_default_dtype
    from ..serve.registry import get_runtime, save_model

    fingerprint = spec_fingerprint(spec)
    runtime = get_runtime(spec.model.family)
    # Reject unknown construction knobs *before* the (potentially long)
    # preparation and training, so a typo in model.params fails in
    # milliseconds with a SpecError instead of deep inside a run.
    if "channels" in spec.model.params:
        # Mirrors spec validation for programmatically-built specs that
        # never went through spec_from_dict.
        raise SpecError("model.params.channels is not allowed; set "
                        "model.channels instead")
    unknown = sorted(set(spec.model.params) - set(runtime.default_config))
    if unknown:
        raise SpecError(
            f"model.params {unknown} unknown for family "
            f"{spec.model.family!r}; known: "
            f"{sorted(runtime.default_config)}")
    for key, value in spec.model.params.items():
        # The registered default defines each knob's type (bool is not
        # an int here, ints pass where floats are declared).
        default = runtime.default_config[key]
        if isinstance(default, bool):
            ok = isinstance(value, bool)
        elif isinstance(default, (int, float)):
            ok = (isinstance(value, (int, float))
                  and not isinstance(value, bool))
        else:
            ok = isinstance(value, type(default))
        if not ok:
            raise SpecError(
                f"model.params.{key} must be "
                f"{type(default).__name__} (like its default "
                f"{default!r}), got {type(value).__name__} {value!r}")
    set_default_dtype(spec.compute.dtype)

    verbose = spec.train.verbose if verbose is None else verbose
    injected = dataset is not None
    t0 = time.perf_counter()
    if dataset is None:
        dataset = load_dataset(spec, verbose=verbose)
    elif dataset.channels != spec.model.channels:
        # numpy would happily broadcast a (N, 2) prediction against a
        # (N, 1) target, silently training both channels on H labels.
        raise SpecError(
            f"injected dataset has {dataset.channels} channel(s) but "
            f"model.channels = {spec.model.channels}; rebuild it with "
            f"load_dataset(spec)")
    prepare_seconds = time.perf_counter() - t0

    train_config = replace(spec.train, verbose=verbose)
    model_config = {**runtime.default_config,
                    "channels": spec.model.channels,
                    **spec.model.params}
    train_samples = dataset.train_samples()
    test_samples = dataset.test_samples()

    t0 = time.perf_counter()
    model = runtime.trainer(train_samples, train_config, model_config)
    train_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    metrics = runtime.evaluator(model, test_samples, train_config)
    evaluate_seconds = time.perf_counter() - t0

    checkpoint_path = manifest_path = ""
    if save:
        checkpoint_path = save_model(
            model, spec.checkpoint_path(),
            metadata=_checkpoint_metadata(spec, fingerprint, metrics))

    split = dataset.split
    names = [g.name for g in dataset.graphs]
    manifest = {
        "schema": RESULT_SCHEMA,
        "experiment": spec_to_dict(spec),
        "fingerprint": fingerprint,
        "family": spec.model.family,
        "metrics": {"f1": float(metrics["f1"]), "acc": float(metrics["acc"])},
        "checkpoint": checkpoint_path,
        "workload": {
            "suite": spec.workload.suite,
            "num_designs": len(dataset),
            # True when the caller handed in a pre-built dataset: the
            # metrics then come from that data, not from a fresh
            # preparation of spec.workload, so replaying the embedded
            # spec may not reproduce them.
            "dataset_injected": injected,
            "train_designs": [names[i] for i in split.train_indices],
            "test_designs": [names[i] for i in split.test_indices],
        },
        "timing": {"prepare_seconds": round(prepare_seconds, 3),
                   "train_seconds": round(train_seconds, 3),
                   "evaluate_seconds": round(evaluate_seconds, 3)},
        "created_unix": time.time(),
    }
    validate_result_manifest(manifest)
    if save:
        from ..store import atomic_write_bytes
        manifest_path = spec.manifest_path()
        os.makedirs(os.path.dirname(manifest_path) or ".", exist_ok=True)
        atomic_write_bytes(
            manifest_path,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
            point="experiment.manifest")

    return ExperimentResult(spec=spec, fingerprint=fingerprint, model=model,
                            metrics=metrics, checkpoint_path=checkpoint_path,
                            manifest_path=manifest_path, manifest=manifest)
