"""`ExperimentSpec`: one declarative description of a full experiment.

An experiment is *family × workload × training schedule × compute policy
× output layout*.  Historically each of those axes was a separate
hand-written call-path (five ``train_*`` functions, argparse flags
re-declared per subcommand, a hardcoded superblue dataset loader); the
spec collapses them into one nested, typed, serialisable value:

.. code-block:: toml

    [workload]
    suite = "hotspot"        # any registered workload
    scale = 0.5
    count = 4

    [model]
    family = "gridsage"      # any registered model family
    channels = 1
    [model.params]           # family-specific construction knobs
    hidden = 16

    [train]
    epochs = 5
    batch_size = 2

    [compute]
    dtype = "float32"

    [output]
    name = "gridsage-hotspot"

Specs load from TOML or JSON files (:func:`load_spec`), accept
dotted-path overrides in the CLI's ``--set section.key=value`` grammar
(:func:`apply_overrides`), serialise canonically (:func:`spec_to_dict`)
and fingerprint through the same canonical-JSON SHA-256 scheme as the
pipeline cache keys (:func:`spec_fingerprint`), so a spec hash can join
cache keys and checkpoint metadata next to the architecture spec.

Validation is eager and typed: unknown sections or keys, wrong value
types, unknown model families and unknown workload suites all raise
:class:`SpecError` at load time with the offending dotted path in the
message — not deep inside a training run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import types
import typing
from dataclasses import dataclass, field, fields

from ..pipeline.config import fingerprint_of

__all__ = ["SpecError", "WorkloadSpec", "ModelSpec", "TrainSpec",
           "ComputeSpec", "OutputSpec", "ExperimentSpec",
           "spec_to_dict", "spec_from_dict", "load_spec", "dumps_spec",
           "apply_overrides", "spec_fingerprint"]


class SpecError(ValueError):
    """A spec failed to load, parse or validate."""


@dataclass
class WorkloadSpec:
    """What data to prepare (mirrors ``repro.cli prepare``).

    ``suite`` is any registered workload; ``count`` / ``bookshelf_dir``
    are forwarded to suite factories that accept them and rejected (by
    the factory signature check) otherwise.
    """

    suite: str = "superblue"
    scale: float = 1.0
    count: int | None = None
    bookshelf_dir: str | None = None
    workers: int = 1
    use_cache: bool = True


@dataclass
class ModelSpec:
    """Which architecture to train.

    ``family`` is any registered model family; ``channels`` selects the
    uni (1, horizontal) or duo (2, horizontal + vertical) task;
    ``params`` holds family-specific construction knobs (``hidden``,
    ``base_width``, any :class:`~repro.models.lhnn.LHNNConfig` field…)
    merged over the family's registered defaults.
    """

    family: str = "lhnn"
    channels: int = 1
    params: dict = field(default_factory=dict)


@dataclass
class TrainSpec:
    """Optimisation schedule (maps 1:1 onto :class:`repro.train.TrainConfig`)."""

    epochs: int = 20
    batch_size: int = 1
    scale_lr_with_batch: bool = True
    lr: float = 2e-3
    lr_final: float = 5e-4
    gamma: float = 0.7
    threshold: float = 0.5
    grad_clip: float = 5.0
    seed: int = 0
    use_sampling: bool = False
    crop: int | None = None
    verbose: bool = False


@dataclass
class ComputeSpec:
    """Numerical-engine policy (see the ROADMAP dtype invariants)."""

    dtype: str = "float32"


@dataclass
class OutputSpec:
    """Where artifacts land.

    ``name`` defaults to ``<family>-<suite>``; ``checkpoint`` defaults
    to ``<artifacts_dir>/<name>.npz``; ``manifest`` defaults to
    ``<artifacts_dir>/experiments/<spec_fingerprint>.json`` — derived
    from *what the spec computes*, so concurrent grid points sharing one
    ``artifacts_dir`` can never clobber each other's result manifests
    (two specs with the same fingerprint produce byte-identical results
    by construction, so overwriting is the correct behaviour there).
    """

    name: str | None = None
    artifacts_dir: str = "artifacts"
    checkpoint: str | None = None
    manifest: str | None = None


@dataclass
class ExperimentSpec:
    """The full declarative experiment: one value drives everything."""

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    compute: ComputeSpec = field(default_factory=ComputeSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    # -- derived output paths -----------------------------------------
    def experiment_name(self) -> str:
        return self.output.name or f"{self.model.family}-{self.workload.suite}"

    def checkpoint_path(self) -> str:
        return self.output.checkpoint or os.path.join(
            self.output.artifacts_dir, f"{self.experiment_name()}.npz")

    def manifest_path(self) -> str:
        if self.output.manifest:
            return self.output.manifest
        return os.path.join(self.output.artifacts_dir, "experiments",
                            f"{spec_fingerprint(self)}.json")


_SECTIONS = {f.name: f.type for f in fields(ExperimentSpec)}


def _allowed_types(cls, name: str):
    """The concrete runtime types a section field accepts."""
    hint = typing.get_type_hints(cls)[name]
    if isinstance(hint, types.UnionType):
        args = typing.get_args(hint)
        return tuple(a for a in args if a is not type(None)), \
            type(None) in args
    return (hint,), False


def _check_field(section: str, cls, name: str, value):
    """Validate (and gently coerce) one scalar field; returns the value."""
    allowed, optional = _allowed_types(cls, name)
    if value is None:
        if optional:
            return None
        raise SpecError(f"{section}.{name} must be "
                        f"{'/'.join(t.__name__ for t in allowed)}, got null")
    # bool is an int subclass in python; keep the two apart so
    # `train.epochs = true` fails instead of training for 1 epoch.
    if bool in allowed:
        if isinstance(value, bool):
            return value
    elif isinstance(value, bool):
        raise SpecError(f"{section}.{name} must be "
                        f"{'/'.join(t.__name__ for t in allowed)}, "
                        f"got bool {value!r}")
    if isinstance(value, allowed):
        return value
    # TOML/JSON have no int/float distinction the reader controls;
    # accept an int where a float is declared (but never the reverse).
    if float in allowed and isinstance(value, int):
        return float(value)
    raise SpecError(f"{section}.{name} must be "
                    f"{'/'.join(t.__name__ for t in allowed)}, "
                    f"got {type(value).__name__} {value!r}")


def _section_from_dict(section: str, cls, payload) -> object:
    if not isinstance(payload, dict):
        raise SpecError(f"section [{section}] must be a table/object, "
                        f"got {type(payload).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SpecError(f"unknown key {section}.{unknown[0]!r}; "
                        f"known keys: {', '.join(sorted(known))}")
    kwargs = {}
    for name, value in payload.items():
        if cls is ModelSpec and name == "params":
            if not isinstance(value, dict):
                raise SpecError(f"model.params must be a table/object, "
                                f"got {type(value).__name__}")
            kwargs[name] = dict(value)
        else:
            kwargs[name] = _check_field(section, cls, name, value)
    return cls(**kwargs)


def _validate(spec: ExperimentSpec) -> ExperimentSpec:
    """Cross-field semantic checks (registries, ranges)."""
    from ..pipeline.workloads import list_workloads
    from ..serve.registry import list_families

    families = list_families()
    if spec.model.family not in families:
        raise SpecError(f"model.family: unknown model family "
                        f"{spec.model.family!r}; registered: "
                        f"{', '.join(families)}")
    suites = [w.name for w in list_workloads()]
    if spec.workload.suite not in suites:
        raise SpecError(f"workload.suite: unknown workload "
                        f"{spec.workload.suite!r}; registered: "
                        f"{', '.join(suites)}")
    if spec.model.channels not in (1, 2):
        raise SpecError(f"model.channels must be 1 (uni) or 2 (duo), "
                        f"got {spec.model.channels}")
    if "channels" in spec.model.params:
        # The dataset is built from model.channels; a params override
        # would silently desync model outputs from the targets.
        raise SpecError("model.params.channels is not allowed; set "
                        "model.channels instead")
    if spec.compute.dtype not in ("float32", "float64"):
        raise SpecError(f"compute.dtype must be 'float32' or 'float64', "
                        f"got {spec.compute.dtype!r}")
    for name, value in (("train.epochs", spec.train.epochs),
                        ("train.batch_size", spec.train.batch_size),
                        ("workload.workers", spec.workload.workers)):
        if value < 1:
            raise SpecError(f"{name} must be >= 1, got {value}")
    if spec.train.crop is not None and spec.train.crop < 1:
        raise SpecError(f"train.crop must be >= 1 or null, "
                        f"got {spec.train.crop}")
    if spec.workload.count is not None and spec.workload.count < 1:
        raise SpecError(f"workload.count must be >= 1, "
                        f"got {spec.workload.count}")
    if spec.workload.scale <= 0:
        raise SpecError(f"workload.scale must be > 0, "
                        f"got {spec.workload.scale}")
    return spec


def spec_from_dict(payload: dict) -> ExperimentSpec:
    """Build and validate a spec from a nested plain dict.

    Missing sections and keys take their defaults; unknown sections,
    unknown keys and wrong value types raise :class:`SpecError` naming
    the offending dotted path.
    """
    if not isinstance(payload, dict):
        raise SpecError(f"spec root must be a table/object, "
                        f"got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(_SECTIONS))
    if unknown:
        raise SpecError(f"unknown section [{unknown[0]}]; known sections: "
                        f"{', '.join(sorted(_SECTIONS))}")
    sections = {}
    for name, f in ((f.name, f) for f in fields(ExperimentSpec)):
        cls = f.default_factory
        if name in payload:
            sections[name] = _section_from_dict(name, cls, payload[name])
    return _validate(ExperimentSpec(**sections))


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Canonical nested plain-dict form (JSON/TOML-ready, stable layout)."""
    return {section.name: dataclasses.asdict(getattr(spec, section.name))
            for section in fields(ExperimentSpec)}


def dumps_spec(spec: ExperimentSpec) -> str:
    """Canonical JSON serialisation (sorted keys, compact separators)."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, indent=2)


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """Stable hash of what the spec *computes*.

    Built on the pipeline's canonical-JSON SHA-256 scheme
    (:func:`repro.pipeline.config.fingerprint_of`), so it mixes in the
    cache :data:`~repro.pipeline.config.SCHEMA_VERSION` and can join
    cache keys and checkpoint metadata.  Execution-only knobs are
    excluded — where a result lands (``output``), whether progress is
    printed (``train.verbose``) and how preparation is executed
    (``workload.workers`` / ``workload.use_cache``, bit-identical by the
    PR 2 parallel-equivalence guarantee) do not change the result, so
    byte-identical experiments fingerprint identically.
    """
    payload = spec_to_dict(spec)
    payload.pop("output")
    payload["train"].pop("verbose")
    payload["workload"].pop("workers")
    payload["workload"].pop("use_cache")
    return fingerprint_of({"experiment": payload})


def load_spec(path: str) -> ExperimentSpec:
    """Load a spec from a ``.toml`` or ``.json`` file."""
    ext = os.path.splitext(path)[1].lower()
    try:
        if ext == ".toml":
            import tomllib
            with open(path, "rb") as fh:
                payload = tomllib.load(fh)
        elif ext == ".json":
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            raise SpecError(f"unsupported spec format {ext!r} "
                            f"(expected .toml or .json): {path}")
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"cannot parse spec {path}: {exc}") from exc
    try:
        return spec_from_dict(payload)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None


def _parse_override_value(raw: str):
    """Parse the value side of ``--set path=value``.

    JSON syntax wins (numbers, ``true``/``false``, ``null``, quoted
    strings, even lists for family params); anything that does not parse
    as JSON is taken as a bare string, so ``--set model.family=unet``
    needs no quoting.
    """
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(spec: ExperimentSpec,
                    overrides: list[str]) -> ExperimentSpec:
    """Apply ``section.key=value`` dotted-path overrides to a spec.

    Returns a new, re-validated spec; the input is untouched.  Paths
    address spec fields (``train.epochs=5``, ``model.family=unet``) or
    arbitrary depths under ``model.params``
    (``model.params.hidden=16``).  Malformed assignments, unknown paths
    and type errors raise :class:`SpecError` naming the override.
    """
    payload = spec_to_dict(spec)
    for override in overrides:
        path, eq, raw = override.partition("=")
        path = path.strip()
        if not eq or not path:
            raise SpecError(f"override {override!r} must look like "
                            f"section.key=value")
        parts = path.split(".")
        if len(parts) < 2:
            raise SpecError(f"override path {path!r} must be dotted "
                            f"(e.g. train.epochs)")
        # New keys may only be introduced beneath model.params (the open
        # family-specific namespace); everywhere else the path must name
        # an existing spec field.
        in_params = parts[:2] == ["model", "params"] and len(parts) >= 3
        node = payload
        for depth, part in enumerate(parts[:-1]):
            if part not in node:
                if in_params and depth >= 2:
                    node[part] = {}
                else:
                    raise SpecError(f"override {path!r}: unknown path "
                                    f"component {part!r}")
            elif not isinstance(node[part], dict):
                # Never silently turn an existing scalar into a table —
                # a typo like model.params.hidden.units=8 must fail
                # here, not deep inside model construction.
                raise SpecError(f"override {path!r}: {part!r} is not "
                                f"a table")
            node = node[part]
        leaf = parts[-1]
        if not in_params and leaf not in node:
            raise SpecError(f"override {path!r}: unknown key {leaf!r}")
        node[leaf] = _parse_override_value(raw)
    try:
        return spec_from_dict(payload)
    except SpecError as exc:
        raise SpecError(f"after overrides {overrides!r}: {exc}") from None
