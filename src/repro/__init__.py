"""LHNN reproduction: Lattice Hypergraph Neural Network for VLSI
congestion prediction (Wang et al., DAC 2022).

A from-scratch Python implementation of the paper's system and its entire
experimental stack:

* :mod:`repro.nn` — numpy autograd engine (PyTorch/DGL stand-in),
* :mod:`repro.circuit` — netlists, Bookshelf I/O, synthetic benchmarks,
* :mod:`repro.placement` — analytical placer (DREAMPlace stand-in),
* :mod:`repro.routing` — global router (NCTU-GR stand-in) and label maps,
* :mod:`repro.features` — crafted feature generators,
* :mod:`repro.graph` — the LH-graph formulation,
* :mod:`repro.models` — LHNN, MLP, U-Net and Pix2Pix,
* :mod:`repro.data` / :mod:`repro.train` — dataset, splits, training,
* :mod:`repro.pipeline` — netlist → placement → routing → LH-graph,
* :mod:`repro.eval` — paper tables and Figure-4 visualisation,
* :mod:`repro.perf` — op-level perf instrumentation and the one
  writer and validator of the tracked ``BENCH_*.json`` bench reports,
* :mod:`repro.api` — the declarative experiment layer: one
  :class:`~repro.api.ExperimentSpec` drives every model family,
  workload and entry point.

Quickstart::

    from repro.api import ExperimentSpec, apply_overrides, run_experiment

    spec = apply_overrides(ExperimentSpec(), ["train.epochs=40"])
    result = run_experiment(spec)      # prepare -> train -> evaluate -> save
    print(result.metrics)
"""

__version__ = "1.0.0"

from . import api, circuit, data, eval, features, graph, models, nn, perf
from . import placement, routing, train
from .pipeline import PipelineConfig, prepare_design

__all__ = [
    "api", "circuit", "data", "eval", "features", "graph", "models", "nn",
    "perf", "placement", "routing", "train",
    "PipelineConfig", "prepare_design",
    "__version__",
]
