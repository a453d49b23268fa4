"""Batched LH-graphs: block-diagonal composition of several designs.

DGL trains graph models on batches by composing graphs into one
block-diagonal supergraph; the paper's mini-batch training relies on this.
:func:`batch_graphs` reproduces the mechanism for LH-graphs: node features
are concatenated, every relation operator becomes a block-diagonal sparse
matrix, and labels are stacked, so one LHNN forward pass covers several
designs (fewer, larger sparse matmuls — faster on CPU too).

:func:`unbatch_values` splits per-node results back out per design, for
both per-G-cell and per-G-net arrays.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..nn.sparse import block_diag
from .lhgraph import LHGraph

__all__ = ["batch_graphs", "unbatch_values", "plan_batches"]


def batch_graphs(graphs: list[LHGraph]) -> LHGraph:
    """Compose several labelled LH-graphs into one block-diagonal graph.

    All structural operators, features and (when present on every input)
    labels are combined.  Designs are stacked along the x axis (all inputs
    must share ``ny``), so ``map_to_grid`` renders side-by-side dies; use
    :func:`unbatch_values` to split per-node results per design.  Graph
    metadata records the per-design G-cell/G-net counts plus each design's
    own :class:`~repro.features.gnet.GNetData` under ``"gnets"``; the
    batched graph's ``gnets`` attribute is ``None`` because a single
    GNetData cannot describe several dies (reading the first design's
    topology for the whole batch would be silently wrong).
    """
    if not graphs:
        raise ValueError("cannot batch zero graphs")
    if len(graphs) == 1:
        return graphs[0]
    if len({g.ny for g in graphs}) != 1:
        raise ValueError("batched graphs must share ny (grid row count)")

    cell_counts = [g.num_gcells for g in graphs]
    net_counts = [g.num_gnets for g in graphs]

    demand = congestion = None
    if all(g.demand is not None for g in graphs):
        demand = np.concatenate([g.demand for g in graphs], axis=0)
    if all(g.congestion is not None for g in graphs):
        congestion = np.concatenate([g.congestion for g in graphs], axis=0)

    # Stack designs along the x axis: num_gcells = (Σ nx_i) · ny holds and
    # map_to_grid renders the batch as side-by-side dies.
    batched = LHGraph(
        name="+".join(g.name for g in graphs),
        nx=sum(g.nx for g in graphs), ny=graphs[0].ny,
        adjacency=block_diag([g.adjacency for g in graphs]),
        incidence=block_diag([g.incidence for g in graphs]),
        op_nc_sum=block_diag([g.op_nc_sum for g in graphs]),
        op_cn_mean=block_diag([g.op_cn_mean for g in graphs]),
        op_nc_mean=block_diag([g.op_nc_mean for g in graphs]),
        op_cc_mean=block_diag([g.op_cc_mean for g in graphs]),
        op_nc_scaled_sum=block_diag([
            g.op_nc_scaled_sum if g.op_nc_scaled_sum is not None
            else g.op_nc_sum for g in graphs]),
        vc=np.concatenate([g.vc for g in graphs], axis=0),
        vn=np.concatenate([g.vn for g in graphs], axis=0),
        gnets=None,  # per-design GNetData lives in metadata["gnets"]
        demand=demand,
        congestion=congestion,
        metadata={
            "batched": True,
            "names": [g.name for g in graphs],
            "cell_counts": cell_counts,
            "net_counts": net_counts,
            "gnets": [g.gnets for g in graphs],
        },
    )
    return batched


def unbatch_values(batched: LHGraph, values: np.ndarray) -> list[np.ndarray]:
    """Split a per-node array of the batched graph back per design.

    ``values`` may be per-G-cell (first dimension = total G-cell count,
    split by ``cell_counts``) or per-G-net (first dimension = total G-net
    count, split by ``net_counts``).  If the two totals coincide, the
    per-G-cell interpretation wins.  Any other length is an error — before
    this check, a G-net-sized array was silently mis-split with
    ``cell_counts``.
    """
    values = np.asarray(values)
    if not batched.metadata.get("batched"):
        return [values]
    cell_counts = batched.metadata["cell_counts"]
    net_counts = batched.metadata["net_counts"]
    if len(values) == sum(cell_counts):
        counts = cell_counts
    elif len(values) == sum(net_counts):
        counts = net_counts
    else:
        raise ValueError(
            f"cannot unbatch array of length {len(values)}: expected "
            f"{sum(cell_counts)} (per-G-cell) or {sum(net_counts)} "
            f"(per-G-net) for batch {batched.name!r}")
    splits = np.cumsum(counts)[:-1]
    return [np.asarray(part) for part in np.split(values, splits)]


def plan_batches(graphs: list[LHGraph],
                 max_batch: int = 8) -> list[list[int]]:
    """Partition graph indices into block-diagonal-batchable groups.

    :func:`batch_graphs` composes designs side by side along x, so every
    member of a group must share ``ny``; groups also respect
    ``max_batch`` (one forward pass per group).  Grouping is greedy in
    submission order within each ``ny`` class, so results can be mapped
    back to the original order via the returned indices.  This is the
    micro-batching planner of :class:`repro.serve.engine.InferenceEngine`.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    by_ny: OrderedDict[int, list[int]] = OrderedDict()
    for i, g in enumerate(graphs):
        by_ny.setdefault(g.ny, []).append(i)
    groups: list[list[int]] = []
    for members in by_ny.values():
        for start in range(0, len(members), max_batch):
            groups.append(members[start:start + max_batch])
    return groups
