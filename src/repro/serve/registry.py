"""Model registry: typed architecture metadata ↔ deterministic restore.

Historically the CLI restored checkpoints by *probing*: build an LHNN
with 1 channel, try to load, catch ``Exception``, retry with 2 channels.
That silently misreads any non-LHNN checkpoint and swallows real errors.

This registry makes restore a pure function of the file.  Every model
family registers

* a ``config_of(model)`` extractor — the constructor hyper-parameters as
  a JSON-serialisable dict,
* a ``build(config, rng)`` factory — rebuild an identically-shaped model
  from that dict.

:func:`save_model` writes the family name and config dict into the
checkpoint metadata (under ``metadata["model"]``), and
:func:`restore_model` rebuilds exactly that architecture before loading
the state dict — no probing, and a clear
:class:`~repro.nn.serialize.CheckpointError` when the file names an
unknown family or a config the factory rejects.

A checkpoint without a ``model`` key (plain
:func:`~repro.nn.serialize.save_checkpoint` output) is refused with a
``CheckpointError`` rather than guessed at.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from ..models.lhnn import LHNN, LHNNConfig
from ..models.mlp_baseline import MLPBaseline
from ..models.pix2pix import Pix2Pix
from ..models.related import GridSAGE
from ..models.unet import UNet
from ..nn.layers import Module
from ..nn.serialize import CheckpointError, read_checkpoint, save_checkpoint
from ..store import quarantine_file

__all__ = ["attach_runtime", "get_family", "get_runtime", "family_of",
           "list_families", "output_channels", "model_dtype", "save_model",
           "restore_model"]


@dataclass(frozen=True)
class ModelFamily:
    """One registered architecture family.

    ``config_of`` must return plain JSON-serialisable values (the dict is
    stored inside the checkpoint header); ``build(config, rng)`` must
    accept exactly what ``config_of`` produced.

    A family optionally carries its *experiment runtime* — the pieces
    :func:`repro.api.run_experiment` needs to drive it without a
    per-family call-path:

    * ``trainer(samples, train_config, model_config) -> Module`` — the
      training loop; ``model_config`` is a plain dict of family-specific
      construction knobs (``channels`` plus e.g. ``hidden`` /
      ``base_width`` / any :class:`~repro.models.lhnn.LHNNConfig` field),
    * ``evaluator(model, samples, train_config) -> {"f1", "acc"}`` — the
      held-out metric loop (reads ``threshold`` / ``batch_size`` /
      ``crop`` off the train config),
    * ``default_config`` — the family's knob defaults, merged under the
      caller's overrides; the only place those defaults are declared.

    For the built-in families :mod:`repro.train.trainer` attaches
    ``trainer = partial(fit, name)`` and ``evaluator = evaluate`` (one
    loop and one evaluator for all of them) via :func:`attach_runtime`
    when it is imported; :func:`get_runtime` triggers the import lazily,
    so this module keeps its light import footprint for restore-only
    callers.
    """

    name: str
    model_type: type
    config_of: Callable[[Module], dict]
    build: Callable[[dict, np.random.Generator], Module]
    trainer: Callable | None = None
    evaluator: Callable | None = None
    default_config: dict = field(default_factory=dict)


_REGISTRY: dict[str, ModelFamily] = {}
_BY_TYPE: dict[type, ModelFamily] = {}


def register_family(name: str, model_type: type,
                    config_of: Callable[[Module], dict],
                    build: Callable[[dict, np.random.Generator], Module],
                    trainer: Callable | None = None,
                    evaluator: Callable | None = None,
                    default_config: dict | None = None) -> ModelFamily:
    """Register an architecture family (last registration wins)."""
    family = ModelFamily(name=name, model_type=model_type,
                         config_of=config_of, build=build,
                         trainer=trainer, evaluator=evaluator,
                         default_config=dict(default_config or {}))
    _REGISTRY[name] = family
    _BY_TYPE[model_type] = family
    return family


def attach_runtime(name: str, *, trainer: Callable, evaluator: Callable,
                   default_config: dict | None = None) -> ModelFamily:
    """Attach the experiment runtime to an already-registered family.

    Keeps registration in two layers on purpose: the architecture spec
    (constructor ↔ config) lives here, the training loop lives in
    :mod:`repro.train.trainer` and attaches itself on import, so
    neither module needs the other at import time.
    """
    family = dataclasses.replace(
        get_family(name), trainer=trainer, evaluator=evaluator,
        default_config=dict(default_config or {}))
    _REGISTRY[name] = family
    _BY_TYPE[family.model_type] = family
    return family


def get_runtime(name: str) -> ModelFamily:
    """Family by name with its trainer/evaluator runtime attached.

    Imports :mod:`repro.train.trainer` on first use (that module calls
    :func:`attach_runtime` for every built-in family at import time).
    """
    family = get_family(name)
    if family.trainer is None:
        import repro.train.trainer  # noqa: F401  (attaches runtimes)
        family = get_family(name)
    if family.trainer is None or family.evaluator is None:
        raise CheckpointError(
            f"model family {name!r} has no training runtime attached; "
            f"call repro.serve.registry.attach_runtime for it")
    return family


def get_family(name: str) -> ModelFamily:
    """Family by name; raises :class:`CheckpointError` with suggestions."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise CheckpointError(f"unknown model family {name!r}; "
                              f"registered: {known}") from None


def family_of(model: Module) -> ModelFamily:
    """The family a live model instance belongs to (exact type match)."""
    try:
        return _BY_TYPE[type(model)]
    except KeyError:
        raise CheckpointError(
            f"{type(model).__name__} is not a registered model family; "
            f"call repro.serve.registry.register_family first") from None


def list_families() -> list[str]:
    """Registered family names, sorted."""
    return sorted(_REGISTRY)


def output_channels(model: Module) -> int:
    """Congestion channels a model predicts (1 = H only, 2 = H and V).

    Read from the registry config rather than probed from a forward
    pass; the CNN families call the knob ``out_channels``.
    """
    config = family_of(model).config_of(model)
    return int(config.get("channels") or config.get("out_channels") or 1)


def model_dtype(model: Module) -> np.dtype:
    """The compute dtype of a model's parameters (see ``Module.dtype``)."""
    return model.dtype()


def model_spec(model: Module) -> dict:
    """The typed architecture description stored in checkpoints."""
    family = family_of(model)
    return {"family": family.name, "config": family.config_of(model)}


def build_model(spec: dict, seed: int = 0) -> Module:
    """Instantiate a model from a ``{"family", "config"}`` spec dict."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise CheckpointError(f"malformed model spec: {spec!r}")
    family = get_family(spec["family"])
    config = spec.get("config") or {}
    try:
        return family.build(dict(config), np.random.default_rng(seed))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"cannot build {spec['family']!r} from config {config!r}: "
            f"{exc}") from exc


# ----------------------------------------------------------------------
# Checkpoint I/O with embedded architecture metadata
# ----------------------------------------------------------------------

def save_model(model: Module, path: str,
               metadata: dict | None = None) -> str:
    """Save ``model`` with its architecture spec embedded in the metadata.

    A drop-in upgrade of :func:`repro.nn.serialize.save_checkpoint`:
    the resulting file restores deterministically via
    :func:`restore_model` with no model object in hand.  The parameter
    compute dtype is recorded alongside the architecture spec, so a
    float32-trained checkpoint restores as a float32 model.
    """
    merged = dict(metadata or {})
    merged["model"] = model_spec(model)
    merged.setdefault("dtype", str(model_dtype(model)))
    return save_checkpoint(model, path, metadata=merged)


def restore_model(path: str, seed: int = 0,
                  dtype=None) -> tuple[Module, dict]:
    """Rebuild the checkpointed model from its embedded spec and load it.

    This is the one checkpoint-restore entry point; the historical
    ``repro.cli._restore_model`` shim (which probed architectures by
    try/except) was superseded by this function and has been removed.

    Returns ``(model, metadata)``.  The model is built from the
    ``metadata["model"]`` spec (family + config) written by
    :func:`save_model`; a parameter-shape mismatch between spec and
    arrays therefore indicates file corruption and raises
    :class:`CheckpointError` rather than being silently retried.

    The file is read once, so the architecture, dtype and weights all
    come from the same bytes.  The model is cast to the checkpoint's
    recorded compute dtype (a checkpoint without one is a
    :class:`CheckpointError`); pass ``dtype`` to override — e.g. serving
    a float64 checkpoint at float32 for speed.

    A checkpoint whose *bytes* are damaged (missing or mismatched
    checksum footer, torn archive — ``CheckpointError.corrupt``) is
    moved to a ``quarantine/`` directory next to it before the error is
    re-raised, so retries and other workers stop tripping over the same
    poisoned file and any older checkpoint of the same name can be
    restored in its place.
    """
    try:
        header, state = read_checkpoint(path)
        metadata = header.get("metadata", {})
        spec = metadata.get("model")
        if not spec:
            raise CheckpointError(
                f"{path}: checkpoint has no architecture metadata; "
                f"re-save it with repro.serve.registry.save_model")
        model = build_model(spec, seed=seed)
        target = dtype if dtype is not None else metadata.get("dtype")
        if target is None:
            raise CheckpointError(
                f"{path}: checkpoint records no compute dtype; "
                f"re-save it with repro.serve.registry.save_model")
        model.to_dtype(np.dtype(target))
        try:
            model.load_state_dict(state)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
    except CheckpointError as exc:
        if not getattr(exc, "corrupt", False):
            raise
        dest = _quarantine_checkpoint(path, str(exc))
        if dest is None:
            raise
        raise CheckpointError(
            f"{path}: corrupt checkpoint quarantined to {dest} ({exc})",
            corrupt=True) from exc
    return model, metadata


def _quarantine_checkpoint(path: str, reason: str) -> str | None:
    """Move a corrupt checkpoint into ``quarantine/`` next to it."""
    resolved = path if os.path.exists(path) else path + ".npz"
    if not os.path.exists(resolved):
        return None
    qdir = os.path.join(os.path.dirname(os.path.abspath(resolved)),
                        "quarantine")
    return quarantine_file(resolved, qdir, reason,
                           extra={"kind": "checkpoint"})


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------

register_family(
    "lhnn", LHNN,
    config_of=lambda m: asdict(m.config),
    build=lambda cfg, rng: LHNN(LHNNConfig(**cfg), rng))

register_family(
    "mlp", MLPBaseline,
    config_of=lambda m: {"in_features": m.in_features, "hidden": m.hidden,
                         "channels": m.channels},
    build=lambda cfg, rng: MLPBaseline(rng=rng, **cfg))

register_family(
    "gridsage", GridSAGE,
    config_of=lambda m: {"in_features": m.in_features, "hidden": m.hidden,
                         "channels": m.channels, "num_layers": m.num_layers},
    build=lambda cfg, rng: GridSAGE(rng=rng, **cfg))

register_family(
    "unet", UNet,
    config_of=lambda m: {"in_channels": m.in_channels,
                         "out_channels": m.out_channels,
                         "base_width": m.base_width,
                         "final_sigmoid": m.final_sigmoid},
    build=lambda cfg, rng: UNet(rng=rng, **cfg))

register_family(
    "pix2pix", Pix2Pix,
    config_of=lambda m: {"in_channels": m.in_channels,
                         "out_channels": m.out_channels,
                         "base_width": m.base_width},
    build=lambda cfg, rng: Pix2Pix(rng=rng, **cfg))
