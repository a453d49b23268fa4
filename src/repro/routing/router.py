"""Global router: pattern routing + negotiated-congestion rip-up-and-reroute.

This is the NCTU-GR 2.0 stand-in that generates the paper's training
labels.  The flow is the standard academic recipe:

1. decompose every net into two-pin segments along a Prim/Steiner topology
   (:mod:`repro.routing.steiner`),
2. route every segment with the cheapest L/Z pattern
   (:mod:`repro.routing.pattern`),
3. while overflow remains: raise history cost on overflowed edges, rip up
   the segments crossing them and reroute with congestion-aware A*
   (:mod:`repro.routing.maze`) — PathFinder-style negotiation.

The result is per-edge usage on the routing grid, from which
:mod:`repro.routing.congestion` extracts demand and congestion maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuit.design import Design
from .grid import RoutingGrid
from .maze import astar_route
from .pattern import best_pattern_path
from .steiner import decompose_net, net_terminals

__all__ = ["RouterConfig", "RoutingResult", "GlobalRouter"]


@dataclass
class RouterConfig:
    """Router tuning parameters.

    ``capacity_h/v`` set the per-edge track budget; the per-design
    ``capacity_factor`` from the synthetic generator multiplies them, which
    is how the benchmark suite spans congestion rates from ~1 % to ~50 %.
    """

    nx: int = 32
    ny: int = 32
    capacity_h: float = 12.5
    capacity_v: float = 12.5
    use_z_patterns: bool = True
    rrr_iterations: int = 4
    overflow_penalty: float = 4.0
    history_increment: float = 0.5
    maze_bbox_margin: int = 6
    apply_capacity_factor: bool = True


@dataclass
class RoutingResult:
    """Outcome of :meth:`GlobalRouter.run`."""

    grid: RoutingGrid
    total_overflow: float
    overflow_history: list[float] = field(default_factory=list)
    num_segments: int = 0
    rerouted_segments: int = 0


class GlobalRouter:
    """Routes one placed design on a :class:`RoutingGrid`."""

    def __init__(self, design: Design, config: RouterConfig | None = None):
        self.design = design
        self.config = config or RouterConfig()
        factor = 1.0
        if self.config.apply_capacity_factor:
            factor = float(design.metadata.get("capacity_factor", 1.0))
        self.grid = RoutingGrid(
            design, nx=self.config.nx, ny=self.config.ny,
            capacity_h=self.config.capacity_h * factor,
            capacity_v=self.config.capacity_v * factor,
        )
        # segment id → (endpoints, current path)
        self._segments: list[tuple[tuple[int, int], tuple[int, int]]] = []
        self._paths: list[list[tuple[int, int]]] = []

    # ------------------------------------------------------------------
    def decompose(self) -> None:
        """Build the two-pin segment list for every net."""
        self._segments.clear()
        for net in range(self.design.num_nets):
            terminals = net_terminals(self.grid, self.design, net)
            self._segments.extend(decompose_net(terminals))

    def initial_route(self) -> None:
        """Pattern-route every segment with congestion-aware choice."""
        self._paths = []
        for a, b in self._segments:
            h_cost, v_cost = self.grid.edge_costs(self.config.overflow_penalty)
            path = best_pattern_path(a, b, h_cost, v_cost,
                                     use_z=self.config.use_z_patterns)
            self.grid.add_path(path)
            self._paths.append(path)

    # ------------------------------------------------------------------
    def _overflowed_segment_ids(self) -> list[int]:
        """Segments whose current path crosses an overflowed edge."""
        oh, ov = self.grid.edge_overflow()
        bad: list[int] = []
        for sid, path in enumerate(self._paths):
            for (ax, ay), (bx, by) in zip(path, path[1:]):
                if ay == by:
                    if oh[min(ax, bx), ay] > 0:
                        bad.append(sid)
                        break
                else:
                    if ov[ax, min(ay, by)] > 0:
                        bad.append(sid)
                        break
        return bad

    def rip_up_and_reroute(self) -> int:
        """One negotiation round; returns number of rerouted segments."""
        bad = self._overflowed_segment_ids()
        if not bad:
            return 0
        self.grid.bump_history(self.config.history_increment)
        # Reroute longest segments first: they have the most freedom.
        bad.sort(key=lambda sid: -len(self._paths[sid]))
        for sid in bad:
            self.grid.add_path(self._paths[sid], sign=-1.0)
            a, b = self._segments[sid]
            h_cost, v_cost = self.grid.edge_costs(self.config.overflow_penalty)
            path = astar_route(a, b, h_cost, v_cost,
                               bbox_margin=self.config.maze_bbox_margin)
            if path is None:  # pragma: no cover - connected grid
                path = self._paths[sid]
            self.grid.add_path(path)
            self._paths[sid] = path
        return len(bad)

    # ------------------------------------------------------------------
    def run(self) -> RoutingResult:
        """Full flow: decompose → pattern route → RRR iterations."""
        self.decompose()
        self.initial_route()
        history = [self.grid.total_overflow()]
        rerouted = 0
        for _ in range(self.config.rrr_iterations):
            if history[-1] <= 0:
                break
            rerouted += self.rip_up_and_reroute()
            history.append(self.grid.total_overflow())
        return RoutingResult(
            grid=self.grid,
            total_overflow=history[-1],
            overflow_history=history,
            num_segments=len(self._segments),
            rerouted_segments=rerouted,
        )

