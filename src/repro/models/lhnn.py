"""The LHNN architecture (paper §4, Figure 3).

Encoding phase: FeatureGen → 2 × HyperMP → 1 × LatticeMP produce G-cell
embeddings that mix topological and geometric context.  Joint learning
phase: two branches, each one more LatticeMP block and a linear head —

* **classification branch**: per-G-cell congestion probability (sigmoid),
* **regression branch**: per-G-cell routing demand.

Configuration mirrors §5.1: hidden width 32, 2 HyperMP layers, 1 encoder
LatticeMP plus 2 joint-phase LatticeMP blocks, uni- (H only) or duo-
channel (H and V) output.

Ablation switches (Table 3) are first-class constructor arguments:

* ``use_featuregen_edges`` / ``use_hypermp_edges`` / ``use_latticemp_edges``
  keep every layer but zero the corresponding relation messages,
* ``use_jointing=False`` removes the regression branch entirely.

(The "no G-cell feature" ablation row zeroes input channels and lives in
the dataset, not the model.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.lhgraph import LHGraph
from ..nn import functional as F
from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor
from .blocks import FeatureGenBlock, HyperMPBlock, LatticeMPBlock

__all__ = ["LHNNConfig", "LHNN"]


@dataclass
class LHNNConfig:
    """Hyper-parameters of LHNN (defaults = paper §5.1)."""

    cell_in: int = 4
    net_in: int = 4
    hidden: int = 32
    num_hypermp: int = 2
    num_latticemp_encoder: int = 1
    num_latticemp_joint: int = 1     # per branch; 2 branches = paper's "2 blocks"
    channels: int = 1                # 1 = uni-channel (H), 2 = duo-channel
    use_featuregen_edges: bool = True
    use_hypermp_edges: bool = True
    use_latticemp_edges: bool = True
    use_jointing: bool = True


@dataclass
class LHNNOutput:
    """Model outputs: probabilities and (optionally) demand predictions."""

    cls_prob: Tensor                 # (Nc, channels) congestion probability
    reg_pred: Tensor | None          # (Nc, channels) demand, None w/o jointing


class LHNN(Module):
    """Lattice Hypergraph Neural Network."""

    def __init__(self, config: LHNNConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        h = config.hidden
        self.featuregen = FeatureGenBlock(
            config.cell_in, config.net_in, h, rng,
            edges_enabled=config.use_featuregen_edges)
        self.hypermp = [HyperMPBlock(h, rng,
                                     edges_enabled=config.use_hypermp_edges)
                        for _ in range(config.num_hypermp)]
        self.latticemp_enc = [LatticeMPBlock(h, rng,
                                             edges_enabled=config.use_latticemp_edges)
                              for _ in range(config.num_latticemp_encoder)]
        # Joint learning phase: one LatticeMP stack per branch.
        self.latticemp_cls = [LatticeMPBlock(h, rng,
                                             edges_enabled=config.use_latticemp_edges)
                              for _ in range(config.num_latticemp_joint)]
        self.head_cls = Linear(h, config.channels, rng)
        if config.use_jointing:
            self.latticemp_reg = [LatticeMPBlock(h, rng,
                                                 edges_enabled=config.use_latticemp_edges)
                                  for _ in range(config.num_latticemp_joint)]
            self.head_reg = Linear(h, config.channels, rng)
        else:
            self.latticemp_reg = []
            self.head_reg = None

    # ------------------------------------------------------------------
    def forward(self, graph: LHGraph, operators: dict | None = None,
                vc: Tensor | None = None,
                vn: Tensor | None = None) -> LHNNOutput:
        """Run LHNN on an :class:`LHGraph`.

        Parameters
        ----------
        graph:
            The LH-graph (structure; features default to its raw arrays).
        operators:
            Optional override dict with keys ``op_nc_sum``, ``op_cn_mean``,
            ``op_nc_mean``, ``op_cc_mean`` — used for neighbour-sampled
            mini-batch training; defaults to the graph's full operators.
            FeatureGen uses the magnitude-stable scaled-sum operator when
            the graph provides one.
        vc, vn:
            Optional input-feature overrides (standardised features from
            the dataset, or ablated features).
        """
        ops = operators or {}
        default_sum = graph.op_nc_scaled_sum or graph.op_nc_sum
        op_nc_sum = ops.get("op_nc_sum", default_sum)
        op_cn_mean = ops.get("op_cn_mean", graph.op_cn_mean)
        op_nc_mean = ops.get("op_nc_mean", graph.op_nc_mean)
        op_cc_mean = ops.get("op_cc_mean", graph.op_cc_mean)

        vc0 = vc if vc is not None else Tensor(graph.vc)
        vn0 = vn if vn is not None else Tensor(graph.vn)

        # --- encoding phase ------------------------------------------
        vc1, vn1 = self.featuregen(vc0, vn0, op_nc_sum)
        vc, vn = vc1, vn1
        for block in self.hypermp:
            vc, vn = block(vc, vn, vc1, vn1, op_cn_mean, op_nc_mean)
        for block in self.latticemp_enc:
            vc = block(vc, op_cc_mean)

        # --- joint learning phase -------------------------------------
        vc_cls = vc
        for block in self.latticemp_cls:
            vc_cls = block(vc_cls, op_cc_mean)
        cls_prob = F.sigmoid(self.head_cls(vc_cls))

        reg_pred = None
        if self.config.use_jointing:
            vc_reg = vc
            for block in self.latticemp_reg:
                vc_reg = block(vc_reg, op_cc_mean)
            reg_pred = self.head_reg(vc_reg)
        return LHNNOutput(cls_prob=cls_prob, reg_pred=reg_pred)
