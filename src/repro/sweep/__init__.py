"""``repro.sweep`` — declarative experiment sweeps over the spec grid.

One sweep file (a base :class:`~repro.api.ExperimentSpec` plus axes of
dotted-path overrides) expands into the full cartesian grid of
validated experiment specs, executes each grid point **exactly once**
across any number of processes and crashes (per-point store leases +
fingerprint-derived result manifests), and joins the results into a
ranked ``repro-sweep-v1`` leaderboard — the paper's comparison matrix
(Tables 2/3) as one command:

.. code-block:: console

    $ python -m repro.cli sweep run    --config sweep.toml --workers 4
    $ python -m repro.cli sweep status --config sweep.toml
    $ python -m repro.cli sweep report --config sweep.toml

See ``docs/sweeps.md`` for the sweep-spec grammar, the resume
guarantees and the leaderboard schema.
"""

from .aggregate import (build_sweep_manifest, render_leaderboard,
                        sweep_manifest_path, validate_sweep_manifest,
                        write_sweep_manifest)
from .grid import (GridPoint, SweepSpec, expand_grid, load_sweep,
                   sweep_fingerprint)
from .runner import PointStatus, SweepError, run_sweep, sweep_status

__all__ = [
    "SweepSpec", "GridPoint", "load_sweep", "expand_grid",
    "sweep_fingerprint",
    "SweepError", "PointStatus", "run_sweep", "sweep_status",
    "build_sweep_manifest", "render_leaderboard",
    "sweep_manifest_path", "validate_sweep_manifest",
    "write_sweep_manifest",
]
