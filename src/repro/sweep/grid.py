"""Sweep specs: one declarative file → the full cartesian grid of specs.

A *sweep spec* is a base :class:`~repro.api.ExperimentSpec` plus named
*axes* — dotted-path overrides, each with a list of values — expanded
into the cartesian product of validated experiment specs:

.. code-block:: toml

    name = "paper-matrix"

    [base.workload]              # inline base spec (same grammar as
    suite = "hotspot"            # examples/specs/*.toml), or
    count = 2                    # `base = "path/to/spec.toml"`

    [base.train]
    epochs = 2

    [axes]
    "model.family" = ["lhnn", "mlp", "gridsage", "unet", "pix2pix"]
    "workload.suite" = ["hotspot", "macro-heavy"]

Axis paths use the exact dotted-override grammar of
:func:`repro.api.apply_overrides` (``model.params.hidden`` reaches the
open family namespace), so every validation error carries the offending
path.  Axes over fingerprint-excluded execution knobs (``output.*``,
``train.verbose``, ``workload.workers``, ``workload.use_cache``) are
rejected up front: two grid points differing only there would
fingerprint identically and collapse into one unit of work.

Each expanded :class:`GridPoint` carries its spec, its canonical
``spec_fingerprint`` (the point's identity everywhere: manifest
filename, lease name, checkpoint name) and its RNG seed.  Unless the
sweep pins ``train.seed`` (in the base file or as an axis), each point's
seed is **derived deterministically from the point's own content** (see
:func:`derive_point_seed`), so a crashed-and-resumed sweep is
bit-identical to an uninterrupted one and two points never share a seed
by accident.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

from ..api.spec import (ExperimentSpec, SpecError, apply_overrides, load_spec,
                        spec_fingerprint, spec_from_dict, spec_to_dict)
from ..pipeline.config import fingerprint_of

__all__ = ["SweepSpec", "GridPoint", "load_sweep", "expand_grid",
           "sweep_fingerprint"]

#: Dotted paths that do not change what a spec computes (they are
#: excluded from ``spec_fingerprint``); sweeping over them is an error.
_EXECUTION_ONLY = ("output.", "train.verbose", "workload.workers",
                   "workload.use_cache")

_KNOWN_KEYS = ("name", "base", "axes")


@dataclass
class SweepSpec:
    """One declarative sweep: a base spec and the axes to vary."""

    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    axes: list[tuple[str, list]] = field(default_factory=list)
    name: str = "sweep"
    #: True when train.seed is pinned by the sweep author (base file or
    #: axis) — derived per-point seeds are then disabled.
    seed_pinned: bool = False

    def grid_size(self) -> int:
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    @property
    def artifacts_dir(self) -> str:
        return self.base.output.artifacts_dir


@dataclass
class GridPoint:
    """One fully-resolved cell of the sweep grid."""

    index: int
    axes: dict
    spec: ExperimentSpec
    fingerprint: str
    seed: int
    seed_derived: bool

    def label(self) -> str:
        """Compact human label: the axis values, in axis order."""
        return " ".join(str(v) for v in self.axes.values()) or "base"


def derive_point_seed(basis_fingerprint: str) -> int:
    """Map a hex fingerprint to a 31-bit RNG seed, deterministically.

    The first 8 hex digits as an integer, folded into ``[0, 2**31)`` —
    stable across processes and platforms, trivially re-derivable by
    hand.  Must only be fed :func:`seed_basis_fingerprint` output:
    deriving from the *final* fingerprint would be circular (the final
    fingerprint includes the seed).
    """
    return int(basis_fingerprint[:8], 16) % (2 ** 31)


def seed_basis_fingerprint(spec: ExperimentSpec) -> str:
    """Fingerprint of everything the spec computes *except* the seed.

    The same exclusions as :func:`~repro.api.spec.spec_fingerprint`
    (``output``, ``train.verbose``, ``workload.workers``,
    ``workload.use_cache``) plus ``train.seed`` itself, under a distinct
    domain tag so a seed basis can never collide with a cache key.
    """
    payload = spec_to_dict(spec)
    payload.pop("output")
    payload["train"].pop("verbose")
    payload["train"].pop("seed")
    payload["workload"].pop("workers")
    payload["workload"].pop("use_cache")
    return fingerprint_of({"sweep-point-seed": payload})


def sweep_fingerprint(sweep: SweepSpec) -> str:
    """Identity of the whole sweep: base (result-affecting part) + axes."""
    payload = spec_to_dict(sweep.base)
    payload.pop("output")
    payload["train"].pop("verbose")
    payload["workload"].pop("workers")
    payload["workload"].pop("use_cache")
    return fingerprint_of({"sweep": {
        "base": payload,
        "axes": [[path, list(values)] for path, values in sweep.axes],
    }})


def _check_axes(axes_payload) -> list[tuple[str, list]]:
    if not isinstance(axes_payload, dict) or not axes_payload:
        raise SpecError("[axes] must be a non-empty table of "
                        "dotted-path = [value, ...] entries")
    axes: list[tuple[str, list]] = []
    for path, values in axes_payload.items():
        if "." not in path:
            raise SpecError(f"axis path {path!r} must be dotted "
                            f"(e.g. model.family)")
        for prefix in _EXECUTION_ONLY:
            if path == prefix or path.startswith(prefix):
                raise SpecError(
                    f"axis {path!r} does not affect results (it is "
                    f"excluded from the spec fingerprint); sweeping it "
                    f"would collapse grid points")
        if not isinstance(values, list) or not values:
            raise SpecError(f"axis {path!r} must map to a non-empty "
                            f"list of values, got "
                            f"{type(values).__name__}")
        deduped = []
        for value in values:
            if value in deduped:
                raise SpecError(f"axis {path!r} lists value {value!r} "
                                f"twice")
            deduped.append(value)
        axes.append((path, list(values)))
    return axes


def sweep_from_dict(payload: dict, *, base_dir: str = ".",
                    base_overrides: list[str] | None = None) -> SweepSpec:
    """Build and validate a :class:`SweepSpec` from a plain dict.

    ``base`` is either an inline spec table (validated through
    :func:`~repro.api.spec.spec_from_dict`) or a string path to a spec
    file, resolved relative to ``base_dir`` (the sweep file's
    directory).  ``base_overrides`` are dotted-path overrides applied to
    the base before expansion (the CLI's ``--set``).
    """
    if not isinstance(payload, dict):
        raise SpecError(f"sweep root must be a table/object, "
                        f"got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(_KNOWN_KEYS))
    if unknown:
        raise SpecError(f"unknown sweep key {unknown[0]!r}; known keys: "
                        f"{', '.join(_KNOWN_KEYS)}")
    base_payload = payload.get("base", {})
    if isinstance(base_payload, str):
        base_path = base_payload if os.path.isabs(base_payload) \
            else os.path.join(base_dir, base_payload)
        base = load_spec(base_path)
        base_dict = spec_to_dict(base)
    elif isinstance(base_payload, dict):
        base = spec_from_dict(base_payload)
        base_dict = base_payload
    else:
        raise SpecError(f"base must be a spec table or a path string, "
                        f"got {type(base_payload).__name__}")
    if base_overrides:
        base = apply_overrides(base, list(base_overrides))
    if base.output.checkpoint or base.output.manifest:
        raise SpecError("base must not pin output.checkpoint or "
                        "output.manifest: every grid point would write "
                        "to the same path (set output.artifacts_dir "
                        "instead; per-point paths are fingerprint-"
                        "derived)")
    axes = _check_axes(payload.get("axes"))

    seed_pinned = "seed" in (base_dict.get("train") or {}) or \
        any(path == "train.seed" for path, _ in axes) or \
        any(o.partition("=")[0].strip() == "train.seed"
            for o in (base_overrides or []))

    name = payload.get("name", "sweep")
    if not isinstance(name, str) or not name:
        raise SpecError(f"name must be a non-empty string, got {name!r}")
    return SweepSpec(base=base, axes=axes, name=name,
                     seed_pinned=seed_pinned)


def load_sweep(path: str, *,
               base_overrides: list[str] | None = None) -> SweepSpec:
    """Load a sweep spec from a ``.toml`` or ``.json`` file."""
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
            raise SpecError(f"unsupported sweep format {ext!r} "
                            f"(expected .toml or .json): {path}")
    except OSError as exc:
        raise SpecError(f"cannot read sweep {path}: {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"cannot parse sweep {path}: {exc}") from exc
    try:
        return sweep_from_dict(payload,
                               base_dir=os.path.dirname(path) or ".",
                               base_overrides=base_overrides)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None


def expand_grid(sweep: SweepSpec) -> list[GridPoint]:
    """Expand the sweep into its full, validated cartesian grid.

    Points come out in file order (last axis fastest).  Every point is
    a fully-validated spec; its seed is derived from its own content
    unless the sweep pins ``train.seed``; its checkpoint is routed to
    ``<artifacts_dir>/checkpoints/<fingerprint>.npz`` and its manifest
    to the fingerprint-derived default, so any number of concurrent
    points share one ``artifacts_dir`` without collisions.
    """
    points: list[GridPoint] = []
    seen: dict[str, int] = {}
    paths = [path for path, _ in sweep.axes]
    for index, combo in enumerate(
            itertools.product(*(values for _, values in sweep.axes))):
        overrides = [f"{path}={json.dumps(value)}"
                     for path, value in zip(paths, combo)]
        try:
            spec = apply_overrides(sweep.base, overrides)
        except SpecError as exc:
            raise SpecError(f"grid point {index} "
                            f"({', '.join(overrides)}): {exc}") from None
        seed_derived = not sweep.seed_pinned
        if seed_derived:
            payload = spec_to_dict(spec)
            payload["train"]["seed"] = derive_point_seed(
                seed_basis_fingerprint(spec))
            spec = spec_from_dict(payload)
        fingerprint = spec_fingerprint(spec)
        if fingerprint in seen:
            raise SpecError(
                f"grid points {seen[fingerprint]} and {index} resolve "
                f"to the same spec (fingerprint {fingerprint}); axes "
                f"must produce distinct experiments")
        seen[fingerprint] = index
        spec.output.checkpoint = os.path.join(
            spec.output.artifacts_dir, "checkpoints",
            f"{fingerprint}.npz")
        points.append(GridPoint(
            index=index, axes=dict(zip(paths, combo)), spec=spec,
            fingerprint=fingerprint, seed=spec.train.seed,
            seed_derived=seed_derived))
    return points
