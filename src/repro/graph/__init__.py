"""``repro.graph`` — LH-graph formulation (the paper's §3).

Lattice + hypergraph construction with the paper's normalised operators
and large-G-net filtering, DGL-style neighbour sampling and block-diagonal
batching.
"""

from .lhgraph import (LHGraph, build_lattice_adjacency,
                      build_hypergraph_incidence, build_lhgraph)
from .sampling import sampled_operators
from .batch import batch_graphs, unbatch_values, plan_batches

__all__ = [
    "LHGraph", "build_lattice_adjacency", "build_hypergraph_incidence",
    "build_lhgraph",
    "sampled_operators",
    "batch_graphs", "unbatch_values", "plan_batches",
]
