"""``repro.nn`` — a compact reverse-mode autodiff library on numpy.

This subpackage replaces PyTorch/DGL in the reproduction: it provides the
:class:`~repro.nn.tensor.Tensor` autograd type, dense and convolutional
layers, sparse message-passing primitives, the Adam optimiser with the
paper's two-phase schedule, and the paper's loss functions.  Every model
in :mod:`repro.models` (LHNN, MLP, GridSAGE, U-Net, Pix2Pix) is built
exclusively from these pieces.
"""

from .tensor import (Tensor, as_tensor, no_grad, is_grad_enabled,
                     set_default_dtype, get_default_dtype, DtypeConfig)
from . import functional
from .layers import (Parameter, Module, Linear, Identity, Activation,
                     MLP, ResidualMLP)
from .conv import Conv2d, ConvTranspose2d, MaxPool2d, BatchNorm2d
from .sparse import SparseMatrix, spmm, row_normalize, block_diag
from .optim import Adam, clip_grad_norm, StepLR, two_phase_lr
from .losses import MSELoss, GammaWeightedBCE, JointLoss, GANLoss
from .serialize import save_checkpoint, read_checkpoint, CheckpointError

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled", "functional",
    "set_default_dtype", "get_default_dtype", "DtypeConfig",
    "Parameter", "Module", "Linear", "Identity", "Activation",
    "MLP", "ResidualMLP",
    "Conv2d", "ConvTranspose2d", "MaxPool2d", "BatchNorm2d",
    "SparseMatrix", "spmm", "row_normalize", "block_diag",
    "Adam", "clip_grad_norm", "StepLR", "two_phase_lr",
    "MSELoss", "GammaWeightedBCE", "JointLoss", "GANLoss",
    "save_checkpoint", "read_checkpoint",
    "CheckpointError",
]
