"""LH-graph construction (paper §3.1).

The **lattice hypergraph** combines

* a *lattice graph* over G-cells — adjacency matrix ``A`` linking
  4-neighbours, carrying geometric message passing, and
* a *hypergraph* — incidence matrix ``H`` (G-cell × G-net) linking every
  G-cell to the G-nets covering it, carrying topological message passing,

into one heterogeneous graph with node types {G-cell, G-net} and relation
types {G-cell→G-net, G-net→G-cell, G-cell→G-cell}.

Degree matrices follow the paper's notation: ``D`` (G-cell hyper-degrees),
``B`` (G-net sizes), ``P`` (lattice degrees).  The normalised operators are

* ``G_nc = H``           — sum aggregation, G-net → G-cell (Eq. 1),
* ``G_cn = B⁻¹ Hᵀ``      — mean aggregation, G-cell → G-net (§4.2),
* ``G_nc_mean = D⁻¹ H``  — mean aggregation, G-net → G-cell (HyperMP's
  symmetric half; kept separate from the sum form used by FeatureGen),
* ``Ā = P⁻¹ A``          — mean aggregation over lattice neighbours (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..circuit.design import Design
from ..features.gcell import gcell_feature_stack
from ..features.gnet import GNetData, compute_gnets
from ..nn.sparse import SparseMatrix, row_normalize
from ..routing.congestion import CongestionMaps
from ..routing.grid import RoutingGrid

__all__ = ["LHGraph", "build_lattice_adjacency", "build_hypergraph_incidence",
           "build_lhgraph"]


def build_lattice_adjacency(nx: int, ny: int) -> SparseMatrix:
    """4-neighbour lattice adjacency ``A`` over an ``nx × ny`` grid.

    G-cell (gx, gy) maps to flat index ``gx * ny + gy``.
    """
    idx = np.arange(nx * ny).reshape(nx, ny)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    # East neighbours
    rows.append(idx[:-1, :].reshape(-1))
    cols.append(idx[1:, :].reshape(-1))
    # North neighbours
    rows.append(idx[:, :-1].reshape(-1))
    cols.append(idx[:, 1:].reshape(-1))
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    # Symmetrise.
    all_r = np.concatenate([r, c])
    all_c = np.concatenate([c, r])
    vals = np.ones(len(all_r))
    return SparseMatrix(sp.coo_matrix((vals, (all_r, all_c)),
                                      shape=(nx * ny, nx * ny)).tocsr())


def build_hypergraph_incidence(gnets: GNetData, nx: int, ny: int) -> SparseMatrix:
    """Incidence ``H`` (num_gcells × num_gnets): H[i, j] = 1 iff G-cell i
    lies in G-net j's bounding box."""
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for j in range(gnets.num_gnets):
        cells = gnets.covered_cells(j, ny)
        rows.append(cells)
        cols.append(np.full(len(cells), j, dtype=np.int64))
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
    else:
        r = np.zeros(0, dtype=np.int64)
        c = np.zeros(0, dtype=np.int64)
    vals = np.ones(len(r))
    return SparseMatrix(sp.coo_matrix((vals, (r, c)),
                                      shape=(nx * ny, gnets.num_gnets)).tocsr())


@dataclass
class LHGraph:
    """The LH-graph of one placed design, plus labels when routed.

    Node features follow the paper: ``vc`` has 4 channels
    (net-density H/V, pin density, terminal mask) and ``vn`` has 4
    channels (span_v, span_h, npin, area).  Labels are flat per-G-cell
    vectors in the same ``gx * ny + gy`` order as ``vc`` rows.
    """

    name: str
    nx: int
    ny: int
    adjacency: SparseMatrix            # A  (Nc × Nc)
    incidence: SparseMatrix            # H  (Nc × Nn)
    op_nc_sum: SparseMatrix            # G_nc = H
    op_cn_mean: SparseMatrix           # G_cn = B⁻¹ Hᵀ
    op_nc_mean: SparseMatrix           # D⁻¹ H
    op_cc_mean: SparseMatrix           # Ā = P⁻¹ A
    vc: np.ndarray                     # (Nc, 4)
    vn: np.ndarray                     # (Nn, 4)
    gnets: GNetData
    demand: np.ndarray | None = None       # (Nc, 2) normalised H/V demand
    congestion: np.ndarray | None = None   # (Nc, 2) binary H/V congestion
    op_nc_scaled_sum: SparseMatrix | None = None  # H / mean(D); the
    # magnitude-stable sum used inside FeatureGen (sum over hundreds of
    # incident G-nets would otherwise saturate activations at full-graph
    # training; scaling by the constant mean hyper-degree preserves the
    # sum-aggregation structure up to a global constant)
    metadata: dict = field(default_factory=dict)

    @property
    def num_gcells(self) -> int:
        """Number of G-cell nodes."""
        return self.nx * self.ny

    @property
    def num_gnets(self) -> int:
        """Number of G-net nodes (after large-net filtering)."""
        return self.incidence.shape[1]

    def congestion_rate(self, channel: int = 0) -> float:
        """Fraction of congested G-cells in label channel (0=H, 1=V)."""
        if self.congestion is None:
            raise ValueError("graph has no labels")
        return float(self.congestion[:, channel].mean())

    def map_to_grid(self, values: np.ndarray) -> np.ndarray:
        """Reshape a flat per-G-cell vector back to the ``(nx, ny)`` grid."""
        return np.asarray(values).reshape(self.nx, self.ny)


def build_lhgraph(design: Design, grid: RoutingGrid,
                  maps: CongestionMaps | None = None,
                  max_gnet_fraction: float | None = 0.05) -> LHGraph:
    """Build the LH-graph for a placed design.

    Parameters
    ----------
    design, grid:
        Placed design and its routing grid (defines the G-cell tessellation).
    maps:
        Optional routed label maps; when given, normalised demand and
        binary congestion labels are attached.
    max_gnet_fraction:
        Large-G-net filter threshold as a fraction of the G-cell count.
        The paper uses 0.25 % at ~350 K G-cells; the default 5 % plays the
        same role at CPU-scale grids (drop the extreme-coverage tail that
        would dominate neighbour aggregation).
    """
    gnets = compute_gnets(design, grid, max_fraction=max_gnet_fraction)
    nx, ny = grid.nx, grid.ny

    adjacency = build_lattice_adjacency(nx, ny)
    incidence = build_hypergraph_incidence(gnets, nx, ny)

    op_nc_sum = incidence
    op_cn_mean = row_normalize(incidence.T)  # .T is a SparseMatrix, cached
    op_nc_mean = row_normalize(incidence)
    op_cc_mean = row_normalize(adjacency)
    degrees = incidence.row_sums()
    mean_degree = float(degrees[degrees > 0].mean()) if (degrees > 0).any() else 1.0
    op_nc_scaled_sum = SparseMatrix(incidence.mat * (1.0 / max(mean_degree, 1.0)))

    vc = gcell_feature_stack(design, grid, gnets).reshape(nx * ny, -1)
    vn = gnets.features

    demand = congestion = None
    if maps is not None:
        dh, dv = maps.normalized_demand()
        demand = np.stack([dh.reshape(-1), dv.reshape(-1)], axis=-1)
        congestion = np.stack([
            maps.congestion_h.reshape(-1).astype(np.float64),
            maps.congestion_v.reshape(-1).astype(np.float64),
        ], axis=-1)

    return LHGraph(
        name=design.name, nx=nx, ny=ny,
        adjacency=adjacency, incidence=incidence,
        op_nc_sum=op_nc_sum, op_cn_mean=op_cn_mean,
        op_nc_mean=op_nc_mean, op_cc_mean=op_cc_mean,
        op_nc_scaled_sum=op_nc_scaled_sum,
        vc=vc, vn=vn, gnets=gnets,
        demand=demand, congestion=congestion,
        metadata={"design_metadata": dict(design.metadata)},
    )
