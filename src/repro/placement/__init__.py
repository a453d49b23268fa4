"""``repro.placement`` — analytical placement substrate (DREAMPlace stand-in).

Quadratic wirelength minimisation, density-driven spreading, Tetris-style
row legalisation and the :func:`~repro.placement.placer.place` driver that
chains them.
"""

from .hpwl import hpwl, per_net_hpwl, density_map, density_overflow
from .quadratic import QuadraticPlacer, solve_quadratic
from .spreading import SpreadingConfig, compute_bin_density, spread, spread_step
from .legalize import legalize, overlap_count, row_segments
from .placer import PlacementConfig, PlacementResult, place

__all__ = [
    "hpwl", "per_net_hpwl", "density_map", "density_overflow",
    "QuadraticPlacer", "solve_quadratic",
    "SpreadingConfig", "compute_bin_density", "spread", "spread_step",
    "legalize", "overlap_count", "row_segments",
    "PlacementConfig", "PlacementResult", "place",
]
