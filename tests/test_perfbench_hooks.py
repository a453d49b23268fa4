"""perfbench's traced run still finds the library functions it wraps.

``perfbench/layers.py`` wraps ``repro`` functions and methods by name
(``run_place_stage``, ``GlobalRouter.initial_route``, ``astar_route``,
…).  A rename or a moved call site in ``src/`` does not fail any
library test; it shows only when the nightly traced run reports an
empty or missing layer row.  This test instruments one tiny preparation
the way a traced run does and checks that the preparation spans were
recorded and that every wrapped function is restored on exit.  It makes
no timing assertion.
"""

import importlib
import sys
from pathlib import Path

import pytest

import repro.routing.maze as maze
import repro.routing.router as router
from repro.circuit import DesignSpec, generate_design
from repro.pipeline import PipelineConfig, StageCache, prepare_design
from repro.placement import PlacementConfig
from repro.routing import RouterConfig

PERFBENCH = Path(__file__).parents[1] / "perfbench"


@pytest.fixture
def perfbench():
    """perfbench's ``tracing`` and ``layers`` modules, loaded from the
    checkout; ``sys.path`` and ``sys.modules`` are restored afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (importlib.import_module("tracing"),
               importlib.import_module("layers"))
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracing", "layers"):
            module = sys.modules.get(name)
            if module is not None and \
                    Path(module.__file__).parent == PERFBENCH:
                del sys.modules[name]


def test_layer_hooks_record_the_preparation_spans(perfbench):
    tracing, layers = perfbench
    design = generate_design(DesignSpec(name="hooks", seed=5,
                                        num_movable=80, die_size=24.0))
    # Tight capacities leave overflow after pattern routing, so the
    # rip-up-and-reroute rounds call A*.
    config = PipelineConfig(
        use_cache=False, placement=PlacementConfig(outer_iterations=1),
        router=RouterConfig(nx=8, ny=8, capacity_h=2.0, capacity_v=2.0,
                            rrr_iterations=1))
    original = maze.astar_route
    tracer = tracing.Tracer()
    with tracing.Patches() as patches:
        layers.instrument(tracer, patches)
        assert router.astar_route is not original  # call site wrapped
        prepare_design(design, config, cache=StageCache(None))

    for span in ("placement", "routing", "routing.astar", "graph.build"):
        assert tracer.calls[span] > 0, span
    assert maze.astar_route is original
    assert router.astar_route is original
