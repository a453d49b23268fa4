"""``repro.placement`` — analytical placement substrate (DREAMPlace stand-in).

Quadratic wirelength minimisation, density-driven spreading, Tetris-style
row legalisation and the :func:`~repro.placement.placer.place` driver that
chains them.
"""

from .hpwl import hpwl, density_map
from .quadratic import QuadraticPlacer
from .spreading import compute_bin_density, spread
from .legalize import legalize, overlap_count
from .placer import PlacementConfig, PlacementResult, place

__all__ = [
    "hpwl", "density_map", "QuadraticPlacer", "compute_bin_density",
    "spread", "legalize", "overlap_count",
    "PlacementConfig", "PlacementResult", "place",
]
