"""Training configuration shared by all model families."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrainConfig"]


@dataclass
class TrainConfig:
    """Optimisation settings (defaults track paper §5.1).

    The paper trains with Adam at learning rates 2e-3 and 5e-4; we realise
    that as a start lr of ``lr`` decayed to ``lr_final`` halfway through
    training.  ``gamma`` is the label-balance factor of Eq. 5, applied to
    every model.  ``fanouts`` are the paper's {6, 3, 2} neighbour-sampling
    fan-outs, active when ``use_sampling`` is on.

    ``batch_size`` designs are composed into one block-diagonal supergraph
    per optimizer step (DGL-style mini-batching via
    :func:`repro.graph.batch.batch_graphs`); 1 reproduces the per-design
    loop.  Batch membership is drawn once per run and kept fixed across
    epochs (only the visit order is reshuffled), so every composition is
    built once per run.  Because a batch of B designs collapses B optimizer
    steps into one averaged step, ``scale_lr_with_batch`` applies the
    linear scaling rule — each step runs at the scheduled lr times the
    number of designs actually in that batch (a ragged last batch scales
    by its own size, not the configured one) — so batched runs match the
    per-design trajectory within noise at the same epoch budget.
    """

    epochs: int = 20
    batch_size: int = 1
    scale_lr_with_batch: bool = True
    lr: float = 2e-3
    lr_final: float = 5e-4
    gamma: float = 0.7
    threshold: float = 0.5
    grad_clip: float = 5.0
    seed: int = 0
    use_sampling: bool = False
    fanouts: dict = field(default_factory=lambda: {
        "featuregen": 6, "hypermp": 3, "latticemp": 2})
    gan_weight: float = 0.15       # Pix2Pix adversarial-term weight
    crop: int | None = None        # CNN crop size (paper: 256×256 crops of
    #                                ~550×600 grids ≈ half the die side; use
    #                                grid/2 to mirror that protocol; None =
    #                                whole image)
    verbose: bool = False
