"""``repro.models`` — LHNN, the paper's three comparison baselines and
one related-work GNN.

:class:`~repro.models.lhnn.LHNN` (the contribution),
:class:`~repro.models.mlp_baseline.MLPBaseline` (local features only),
:class:`~repro.models.unet.UNet` and :class:`~repro.models.pix2pix.Pix2Pix`
(geometric-receptive-field CNNs), and
:class:`~repro.models.related.GridSAGE` (GraphSAGE on the G-cell lattice,
paper §2.2).
"""

from .blocks import FeatureGenBlock, HyperMPBlock, LatticeMPBlock
from .lhnn import LHNN, LHNNConfig, LHNNOutput
from .mlp_baseline import MLPBaseline
from .unet import UNet, DoubleConv
from .pix2pix import Pix2Pix, PatchDiscriminator
from .related import GridSAGE, SAGELayer

__all__ = [
    "FeatureGenBlock", "HyperMPBlock", "LatticeMPBlock",
    "LHNN", "LHNNConfig", "LHNNOutput",
    "MLPBaseline",
    "UNet", "DoubleConv",
    "Pix2Pix", "PatchDiscriminator",
    "GridSAGE", "SAGELayer",
]
