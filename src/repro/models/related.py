"""Related-work GNN baseline from the paper's §2.2.

:class:`GridSAGE` (Chen et al. [11]) is GraphSAGE over the G-cell
*lattice* graph: purely geometric, no netlist topology beyond the
crafted input features.  It does not appear in the paper's Table 2, but
it is named as prior art whose limitation motivates the LH-graph.

The extension bench ``benchmarks/test_related_models.py`` scores it
against LHNN, supporting the paper's argument that the lattice space
alone is insufficient.
"""

from __future__ import annotations

import numpy as np

from ..graph.lhgraph import LHGraph
from ..nn import functional as F
from ..nn.layers import Linear, Module
from ..nn.sparse import SparseMatrix, spmm
from ..nn.tensor import Tensor

__all__ = ["GridSAGE"]


class SAGELayer(Module):
    """GraphSAGE layer with mean aggregation.

    ``h' = relu( W_self h + W_neigh (Ā h) )`` where ``Ā`` is the
    row-normalised adjacency.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.w_self = Linear(in_dim, out_dim, rng)
        self.w_neigh = Linear(in_dim, out_dim, rng, bias=False)

    def forward(self, x: Tensor, adjacency: SparseMatrix) -> Tensor:
        return F.relu(self.w_self(x) + self.w_neigh(spmm(adjacency, x)))


class GridSAGE(Module):
    """GraphSAGE over the G-cell lattice (grid-graph congestion model).

    Consumes the same 4-channel crafted G-cell features as LHNN but can
    only propagate geometrically — the comparison point for the paper's
    claim that lattice-only receptive fields miss netlist-induced
    interactions.
    """

    def __init__(self, in_features: int = 4, hidden: int = 32,
                 channels: int = 1, num_layers: int = 3,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.hidden = hidden
        self.channels = channels
        self.num_layers = num_layers
        dims = [in_features] + [hidden] * num_layers
        self.layers = [SAGELayer(dims[i], dims[i + 1], rng)
                       for i in range(num_layers)]
        self.head = Linear(hidden, channels, rng)

    def forward(self, graph: LHGraph, vc: Tensor | None = None) -> Tensor:
        x = vc if vc is not None else Tensor(graph.vc)
        for layer in self.layers:
            x = layer(x, graph.op_cc_mean)
        return F.sigmoid(self.head(x))
