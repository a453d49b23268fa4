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

All bookkeeping runs on flat edge ids (:mod:`repro.routing.grid`): paths
are edge-id lists, and :attr:`GlobalRouter.cost` is one list of per-edge
costs that pattern routing and A* read directly.  :meth:`~GlobalRouter.add_path`
updates the usage of the edges a path touches and recomputes only their
costs, with the scalar form of :meth:`RoutingGrid.edge_costs`,
``(1.0 + hist) + pen * max(use + 1.0 - cap, 0.0)``.  Python float ops give
numpy's elementwise bits, so the list always equals ``edge_costs()``
(``tests/routing/test_flat_costs.py``).  Once per negotiation round the
overflow scan, the history bump and the full cost refresh go through
the grid's numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuit.design import Design
from .grid import RoutingGrid, flatten
from .maze import astar_route
from .pattern import best_pattern_path
from .steiner import decompose_net

__all__ = ["RouterConfig", "RoutingResult", "GlobalRouter"]


@dataclass
class RouterConfig:
    """Router tuning parameters.

    ``nx`` × ``ny`` is the pipeline's one G-cell grid: the routing grid
    and the LH-graph lattice built from it.  ``capacity_h/v`` set the
    per-edge track budget; the per-design ``capacity_factor`` from the
    synthetic generator (``design.metadata``, 1.0 when absent) multiplies
    them, which is how the benchmark suite spans congestion rates from
    ~1 % to ~50 %.  Segments are pattern-routed with L and Z shapes;
    rip-up-and-reroute A* searches :func:`~repro.routing.maze.astar_route`'s
    default box of 6 G-cells around a segment's endpoints.
    """

    nx: int = 32
    ny: int = 32
    capacity_h: float = 12.5
    capacity_v: float = 12.5
    rrr_iterations: int = 4
    overflow_penalty: float = 4.0
    history_increment: float = 0.5


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
        factor = float(design.metadata.get("capacity_factor", 1.0))
        self.grid = RoutingGrid(
            design, nx=self.config.nx, ny=self.config.ny,
            capacity_h=self.config.capacity_h * factor,
            capacity_v=self.config.capacity_v * factor,
        )
        # segment id → (endpoints, current path as edge ids)
        self._segments: list[tuple[tuple[int, int], tuple[int, int]]] = []
        self._paths: list[list[int]] = []
        self.cost = self._edge_costs()

    def _edge_costs(self) -> list[float]:
        """Every edge's cost, from :meth:`RoutingGrid.edge_costs`."""
        return flatten(*self.grid.edge_costs(self.config.overflow_penalty))

    def add_path(self, path: list[int], sign: float = 1.0) -> None:
        """Add a path's usage (``sign=-1``: rip it up) and re-cost its edges."""
        use, cap, hist, cost = (self.grid.usage, self.grid.capacity,
                                self.grid.history, self.cost)
        pen = self.config.overflow_penalty
        for e in path:
            u = use[e] + sign
            use[e] = u
            over = u + 1.0 - cap[e]
            # ``0.0 if over < 0.0 else over`` is np.maximum(over, 0.0),
            # -0.0 and NaN included.
            cost[e] = (1.0 + hist[e]) + pen * (0.0 if over < 0.0 else over)

    def bump_history(self) -> None:
        """Raise history on overflowed edges and refresh every cost."""
        self.grid.bump_history(self.config.history_increment)
        self.cost = self._edge_costs()

    # ------------------------------------------------------------------
    def decompose(self) -> None:
        """Build the two-pin segment list for every net.

        Every pin is mapped to its G-cell in one vectorised pass; each
        net's terminals are its pins' G-cells, deduplicated in first-seen
        order.
        """
        design = self.design
        gx, gy = self.grid.gcells_of(*design.pin_positions())
        cells = list(zip(gx.tolist(), gy.tolist()))
        ptr = design.net_ptr.tolist()
        self._segments.clear()
        for start, stop in zip(ptr, ptr[1:]):
            terminals = list(dict.fromkeys(cells[start:stop]))
            self._segments.extend(decompose_net(terminals))

    def initial_route(self) -> None:
        """Pattern-route every segment with congestion-aware choice."""
        nx, ny = self.grid.nx, self.grid.ny
        self._paths = []
        for a, b in self._segments:
            path = best_pattern_path(a, b, self.cost, nx, ny)
            self.add_path(path)
            self._paths.append(path)

    # ------------------------------------------------------------------
    def _overflowed_segment_ids(self) -> list[int]:
        """Segments whose current path crosses an overflowed edge."""
        over = flatten(*(o > 0 for o in self.grid.edge_overflow()))
        return [sid for sid, path in enumerate(self._paths)
                if any(map(over.__getitem__, path))]

    def rip_up_and_reroute(self) -> int:
        """One negotiation round; returns number of rerouted segments."""
        bad = self._overflowed_segment_ids()
        if not bad:
            return 0
        self.bump_history()
        nx, ny = self.grid.nx, self.grid.ny
        # Reroute longest segments first: they have the most freedom.
        bad.sort(key=lambda sid: -len(self._paths[sid]))
        for sid in bad:
            self.add_path(self._paths[sid], sign=-1.0)
            a, b = self._segments[sid]
            path = astar_route(a, b, self.cost, nx, ny)
            if path is None:  # pragma: no cover - connected grid
                path = self._paths[sid]
            self.add_path(path)
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

