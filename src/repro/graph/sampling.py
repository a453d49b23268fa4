"""Per-relation neighbour sampling.

The paper trains with DGL mini-batch neighbour sampling, fan-outs
{6, 3, 2} for the FeatureGen / HyperMP / LatticeMP blocks, after removing
huge G-nets so sampling isn't dominated by them.  This module reproduces
the mechanism: given a relation operator, draw at most ``fanout``
neighbours per destination node and return a mean-normalised sampled
operator.  Full-graph training simply skips sampling (our default at CPU
scale); benches compare both.

The draw is CSR-native and fully vectorised: one uniform key per stored
edge, an argsort-of-random-keys within each row, and a rank cut at
``fanout``.  Each row's kept set is a uniform ``min(degree, fanout)``-subset
without replacement — the same marginal distribution as a per-row
``rng.choice`` loop, without the Python-level loop that used to dominate
sampled-training time.  Operators of batched (block-diagonal) graphs are
sampled exactly like single-design ones; rows are independent either way.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..nn.sparse import SparseMatrix

__all__ = ["sampled_operators"]


def sample_neighbors(operator: SparseMatrix, fanout: int,
                     rng: np.random.Generator,
                     normalize: str = "mean") -> SparseMatrix:
    """Sample ≤ ``fanout`` incoming neighbours per destination row.

    Parameters
    ----------
    operator:
        Relation operator of shape (num_dst, num_src); non-zero columns of
        row *i* are the neighbours of destination node *i*.
    fanout:
        Max neighbours kept per destination (without replacement).
    normalize:
        ``"mean"`` weights kept edges by 1/kept_count (matching DGL's mean
        aggregation over the sampled neighbourhood); ``"sum"`` keeps the
        original values; ``"unbiased"`` scales kept values by
        degree/kept_count, making the sampled row sum a Horvitz–Thompson
        estimator of the full row sum (required when the operator's values
        are sized for a sum over *all* neighbours, like the
        magnitude-stable scaled-sum operator — summing a fanout-subset of
        them unscaled would shrink activations by ~degree/fanout).
    """
    if fanout <= 0:
        raise ValueError("fanout must be positive")
    if normalize not in ("mean", "sum", "unbiased"):
        raise ValueError("normalize must be 'mean', 'sum' or 'unbiased'")
    mat = operator.mat
    nnz = mat.nnz
    if nnz == 0:
        return SparseMatrix(sp.csr_matrix(mat.shape))
    indptr = mat.indptr
    degrees = np.diff(indptr)
    row_ids = np.repeat(np.arange(mat.shape[0], dtype=np.int64), degrees)

    # One uniform key per edge; lexsort groups edges by row (stable, so row
    # blocks stay contiguous) and orders each row's edges by key.  The
    # first ``fanout`` ranks of a row are then a uniform subset without
    # replacement of its neighbours.
    keys = rng.random(nnz)
    perm = np.lexsort((keys, row_ids))
    rank_in_row = np.arange(nnz) - np.repeat(indptr[:-1], degrees)
    keep = rank_in_row < fanout

    kept_edges = perm[keep]          # positions into the original CSR arrays
    kept_rows = row_ids[keep]        # sorted layout shares the row blocks
    kept_cols = mat.indices[kept_edges]
    if normalize == "mean":
        kept_counts = np.minimum(degrees, fanout)
        vals = 1.0 / kept_counts[kept_rows]
    elif normalize == "unbiased":
        kept_counts = np.minimum(degrees, fanout)
        vals = mat.data[kept_edges] * (degrees[kept_rows] / kept_counts[kept_rows])
    else:
        vals = mat.data[kept_edges]
    return SparseMatrix(sp.coo_matrix((vals, (kept_rows, kept_cols)),
                                      shape=mat.shape).tocsr())


def sampled_operators(graph, fanouts: dict[str, int],
                      rng: np.random.Generator) -> dict[str, SparseMatrix]:
    """Draw one sampled operator set from an :class:`~repro.graph.lhgraph.LHGraph`.

    ``fanouts`` keys: ``"featuregen"``, ``"hypermp"``, ``"latticemp"`` —
    the paper's {6, 3, 2}.  Returns operators keyed like the LHGraph
    attributes (``op_nc_sum`` etc.), freshly sampled.  FeatureGen's sum
    operator is sampled from the magnitude-stable scaled-sum form when the
    graph provides one, with unbiased reweighting (degree/kept per edge)
    so the sampled aggregation estimates the full-graph scaled sum the
    forward pass uses at evaluation time.  Works on batched block-diagonal
    graphs unchanged.
    """
    fg = fanouts.get("featuregen", 6)
    hy = fanouts.get("hypermp", 3)
    lt = fanouts.get("latticemp", 2)
    fg_operator = (graph.op_nc_scaled_sum
                   if graph.op_nc_scaled_sum is not None else graph.op_nc_sum)
    return {
        "op_nc_sum": sample_neighbors(fg_operator, fg, rng,
                                      normalize="unbiased"),
        "op_cn_mean": sample_neighbors(graph.op_cn_mean, hy, rng, normalize="mean"),
        "op_nc_mean": sample_neighbors(graph.op_nc_mean, hy, rng, normalize="mean"),
        "op_cc_mean": sample_neighbors(graph.op_cc_mean, lt, rng, normalize="mean"),
    }
