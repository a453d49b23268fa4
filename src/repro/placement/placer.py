"""End-to-end placement driver (the DREAMPlace stand-in).

``place(design)`` runs the classical analytical-placement recipe:

1. quadratic wirelength minimisation (:mod:`repro.placement.quadratic`),
2. alternating density spreading and anchored quadratic re-solves
   (:mod:`repro.placement.spreading`) — the SimPL-style loop,
3. greedy row legalisation (:mod:`repro.placement.legalize`).

The output placement feeds the global router that generates the paper's
demand/congestion labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.design import Design
from .hpwl import hpwl
from .legalize import legalize
from .quadratic import QuadraticPlacer
from .spreading import spread

__all__ = ["PlacementConfig", "PlacementResult", "place"]


#: Factor the anchor weight grows by after each spread/re-solve round.
_ANCHOR_GROWTH = 2.0


@dataclass
class PlacementConfig:
    """Parameters of the global-placement loop.

    ``outer_iterations`` spread/re-solve rounds run with the default
    :class:`~repro.placement.spreading.SpreadingConfig`; the anchor weight
    starts at ``anchor_weight`` and doubles each round.  ``seed`` drives
    the spreading jitter and is the placement seed of every design.
    Placement always ends with row legalisation.
    """

    outer_iterations: int = 3
    anchor_weight: float = 0.15
    seed: int = 0


@dataclass
class PlacementResult:
    """Diagnostics returned by :func:`place`."""

    hpwl_initial: float
    hpwl_global: float
    hpwl_final: float
    iterations: int


def place(design: Design, config: PlacementConfig | None = None) -> PlacementResult:
    """Place ``design`` in place; returns HPWL diagnostics.

    The design's ``cell_x``/``cell_y`` arrays are overwritten for movable
    cells; fixed cells never move.
    """
    config = config or PlacementConfig()
    rng = np.random.default_rng(config.seed)

    hpwl_initial = hpwl(design)
    solver = QuadraticPlacer(design)
    movable = ~design.cell_fixed

    # Pure quadratic solve first.
    x, y = solver.solve()
    design.cell_x[movable] = x
    design.cell_y[movable] = y
    hpwl_global = hpwl(design)

    anchor_w = config.anchor_weight
    for _ in range(config.outer_iterations):
        spread(design, seed=int(rng.integers(0, 2 ** 31)))
        # Anchor the quadratic system at the spread cell centres.
        anchors_x = design.cell_x[movable] + design.cell_w[movable] / 2.0
        anchors_y = design.cell_y[movable] + design.cell_h[movable] / 2.0
        x, y = solver.solve(anchors_x=anchors_x, anchors_y=anchors_y,
                            anchor_weight=anchor_w)
        design.cell_x[movable] = x
        design.cell_y[movable] = y
        anchor_w *= _ANCHOR_GROWTH

    # Final spread before snapping to rows.
    spread(design, seed=int(rng.integers(0, 2 ** 31)))
    legalize(design)
    return PlacementResult(
        hpwl_initial=hpwl_initial,
        hpwl_global=hpwl_global,
        hpwl_final=hpwl(design),
        iterations=config.outer_iterations,
    )
