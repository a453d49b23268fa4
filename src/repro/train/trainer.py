"""Training and evaluation loops for every model family.

Reproduces the paper's protocol (§5.1–5.2): fixed epoch budget, Adam with
the 2e-3 → 5e-4 learning-rate pair (routed through the
:func:`repro.nn.optim.two_phase_lr` schedule), γ-weighted BCE on the
congestion map (all models) plus MSE on the demand map (LHNN's joint
supervision), evaluation = per-circuit F1/ACC on held-out designs averaged
per seed, with mean ± std over seeds.

Every family exposes one *uniform* runtime interface, registered with the
model registry (:func:`repro.serve.registry.attach_runtime`) so
:func:`repro.api.run_experiment` drives any family from one declarative
spec:

* ``trainer(samples, train_config, model_config) -> model`` where
  ``model_config`` is a plain dict of family-specific construction knobs
  (``channels`` plus e.g. ``hidden`` / ``base_width`` / any
  :class:`~repro.models.lhnn.LHNNConfig` field),
* ``evaluator(model, samples, train_config) -> {"f1", "acc"}`` reading
  ``threshold`` / ``batch_size`` / ``crop`` off the train config.

The historical per-family entry points (``train_lhnn`` /
``evaluate_lhnn`` …) are kept as thin deprecation shims over the same
implementations, so existing imports keep working and produce identical
numerics.

Graph-based models (LHNN, GridSAGE) and the MLP baseline train in
DGL-style mini-batches: ``TrainConfig.batch_size`` designs are composed
into one block-diagonal supergraph per optimizer step
(:func:`repro.data.dataset.collate_samples`), so each step runs fewer,
larger sparse matmuls.  Batch membership is fixed per run — the epoch loop
reshuffles only the visit order — so a per-run
:class:`repro.graph.batch.BatchCache` reuses every composition after the
first epoch instead of rebuilding CSR matrices each step.  Predictions are
split back per design with :func:`repro.graph.batch.unbatch_values` for
the per-circuit metrics.

Dtype policy: the loops train in whatever dtype the samples and model
were materialised in (``repro.nn.set_default_dtype``; the CLI defaults
to float32) — per-step losses and gradients stay in the compute dtype,
while cross-step *accumulators* (epoch loss totals, gradient norms,
metric averages) are python floats / float64, so a float32 run loses no
reporting precision.  Every ``evaluate_*`` loop runs under
:func:`repro.nn.no_grad`; a regression suite
(``tests/train/test_eval_no_grad.py``) asserts no backward closures are
recorded during evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict

import numpy as np

from ..data.dataset import GraphSample, collate_samples
from ..graph.batch import BatchCache, unbatch_values
from ..graph.sampling import sampled_operators
from ..models.lhnn import LHNN, LHNNConfig
from ..models.mlp_baseline import MLPBaseline
from ..models.pix2pix import Pix2Pix
from ..models.related import GridSAGE
from ..models.unet import UNet
from ..nn import no_grad
from ..nn.losses import GammaWeightedBCE, GANLoss, JointLoss
from ..nn.optim import Adam, clip_grad_norm, two_phase_lr
from ..nn.tensor import Tensor
from .config import TrainConfig
from .metrics import MetricSummary, evaluate_binary, summarize_runs

__all__ = [
    "train_lhnn", "evaluate_lhnn",
    "train_mlp", "evaluate_mlp",
    "train_unet", "evaluate_unet",
    "train_pix2pix", "evaluate_pix2pix",
    "predict_probs", "seeded_runs",
]


def predict_probs(model, sample: GraphSample) -> np.ndarray:
    """Congestion-probability forward pass for any model family.

    Accepts a single or collated (block-diagonal batched)
    :class:`GraphSample` and returns the flat per-G-cell probability
    array ``(num_gcells, channels)`` in ``gx * ny + gy`` order — the
    common currency of the evaluation loops and the
    :mod:`repro.serve` engine.  Callers manage ``model.eval()`` and
    ``no_grad`` themselves (the training loop reuses this under grad for
    nothing — it is inference-only glue, not a loss path).
    """
    if isinstance(model, LHNN):
        out = model(sample.graph, vc=Tensor(sample.features),
                    vn=Tensor(sample.net_features))
        return out.cls_prob.data
    if isinstance(model, GridSAGE):
        return model(sample.graph, vc=Tensor(sample.features)).data
    if isinstance(model, MLPBaseline):
        return model(Tensor(sample.features)).data
    if isinstance(model, (UNet, Pix2Pix)):
        forward = model.generator if isinstance(model, Pix2Pix) else model
        prob = forward(Tensor(sample.image)).data
        # NCHW (1, C, nx, ny) → flat per-G-cell rows (nx * ny, C).
        return prob[0].transpose(1, 2, 0).reshape(-1, prob.shape[1])
    raise TypeError(f"no probability forward known for "
                    f"{type(model).__name__}")


def _scaled_step(opt, config: TrainConfig, num_members: int) -> None:
    """One optimizer step at the linear batch-scaled learning rate.

    A step over a B-design batch replaces B per-design steps, so (when
    ``scale_lr_with_batch``) the scheduled lr is multiplied by the
    *actual* member count of this batch — a ragged last batch or an
    oversized ``batch_size`` scales by what the step averages over, not
    by the configured value.  The scheduled lr is restored afterwards so
    the epoch-level schedule stays the single source of truth.
    """
    if config.scale_lr_with_batch and num_members > 1:
        scheduled = opt.lr
        opt.lr = scheduled * num_members
        try:
            opt.step()
        finally:
            opt.lr = scheduled
    else:
        opt.step()


def _fixed_batches(num_samples: int, batch_size: int,
                   rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Partition sample indices into fixed-membership mini-batches.

    Membership is one random (or, without ``rng``, sequential) partition
    drawn once per run; epochs reshuffle only the batch visit order so the
    block-diagonal compositions stay cacheable.  ``batch_size <= 1``
    reduces to the per-design loop.
    """
    if batch_size <= 1:
        return [np.array([i]) for i in range(num_samples)]
    perm = (rng.permutation(num_samples) if rng is not None
            else np.arange(num_samples))
    return [perm[i:i + batch_size]
            for i in range(0, num_samples, batch_size)]


def _tiles(height: int, width: int, crop: int | None):
    """Non-overlapping (y0, x0) tile origins covering a H×W image."""
    if crop is None:
        return [(0, 0, height, width)]
    origins = []
    for y0 in range(0, height, crop):
        for x0 in range(0, width, crop):
            origins.append((y0, x0, min(crop, height - y0), min(crop, width - x0)))
    return origins


def _crop_pairs(image: np.ndarray, label: np.ndarray, crop: int | None):
    """Split an NCHW image/label pair into aligned non-overlapping crops.

    Mirrors the paper's 256×256 crop protocol for U-Net / Pix2Pix: models
    never see the whole die at once.
    """
    _, _, h, w = image.shape
    pairs = []
    for y0, x0, ch, cw in _tiles(h, w, crop):
        pairs.append((image[:, :, y0:y0 + ch, x0:x0 + cw],
                      label[:, :, y0:y0 + ch, x0:x0 + cw]))
    return pairs


def _predict_tiled(forward, image: np.ndarray, out_channels: int,
                   crop: int | None) -> np.ndarray:
    """Run ``forward`` per tile and stitch an NCHW probability map.

    The map is allocated in the forward output's dtype, so float32
    models stay float32 end to end.
    """
    n, _, h, w = image.shape
    out = None
    for y0, x0, ch, cw in _tiles(h, w, crop):
        prob = forward(Tensor(image[:, :, y0:y0 + ch, x0:x0 + cw])).data
        if out is None:
            out = np.zeros((n, out_channels, h, w), dtype=prob.dtype)
        out[:, :, y0:y0 + ch, x0:x0 + cw] = prob
    return out


def _deprecated(old: str, new: str) -> None:
    warnings.warn(f"{old} is deprecated; use {new} (the family runtimes "
                  f"behind repro.api.run_experiment)", DeprecationWarning,
                  stacklevel=3)


def _model_knobs(model_config: dict | None, **defaults) -> dict:
    """Merge a family's construction knobs over their defaults.

    Rejects unknown keys with ``TypeError`` (mirroring a constructor
    signature) so a typo in ``model.params`` fails loudly instead of
    silently training the default architecture.
    """
    knobs = dict(defaults)
    unknown = sorted(set(model_config or {}) - set(knobs))
    if unknown:
        raise TypeError(f"unknown model config knob(s) {unknown}; "
                        f"known: {sorted(knobs)}")
    knobs.update(model_config or {})
    return knobs


# ---------------------------------------------------------------------------
# LHNN
# ---------------------------------------------------------------------------
def _train_lhnn(train_samples: list[GraphSample], config: TrainConfig,
                model_config: dict | None = None) -> LHNN:
    """Train LHNN on the training designs (full-graph or sampled).

    ``model_config`` holds :class:`LHNNConfig` fields (``channels``,
    ``hidden``, …).  With ``config.batch_size > 1``, each optimizer step
    runs one forward / backward pass over the block-diagonal composition
    of a whole mini-batch; neighbour sampling (when enabled) draws on the
    batched operators directly.
    """
    rng = np.random.default_rng(config.seed)
    lhnn_config = LHNNConfig(**(model_config or {}))
    model = LHNN(lhnn_config, rng)
    opt = Adam(model.parameters(), lr=config.lr)
    schedule = two_phase_lr(opt, config.epochs, config.lr_final)
    loss_fn = JointLoss(gamma=config.gamma,
                        use_regression=lhnn_config.use_jointing)
    groups = _fixed_batches(len(train_samples), config.batch_size, rng)
    cache = BatchCache(max_entries=max(len(groups), 1))
    order = np.arange(len(groups))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        for b in order:
            members = [train_samples[i] for i in groups[b]]
            batch = collate_samples(members, cache)
            operators = None
            if config.use_sampling:
                operators = sampled_operators(batch.graph, config.fanouts, rng)
            opt.zero_grad()
            out = model(batch.graph, operators=operators,
                        vc=Tensor(batch.features),
                        vn=Tensor(batch.net_features))
            loss = loss_fn(out.cls_prob, out.reg_pred,
                           batch.cls_target, batch.reg_target)
            loss.backward()
            clip_grad_norm(model.parameters(), config.grad_clip)
            _scaled_step(opt, config, len(members))
            total += loss.item()
        schedule.step()
        if config.verbose:
            print(f"[lhnn] epoch {epoch + 1}/{config.epochs} "
                  f"loss {total / len(order):.4f}")
    return model


def _evaluate_lhnn(model: LHNN, samples: list[GraphSample],
                   threshold: float = 0.5,
                   batch_size: int = 1,
                   cache: BatchCache | None = None) -> dict[str, float]:
    """Per-circuit F1/ACC averaged over ``samples`` (values in %).

    ``batch_size`` designs share one batched forward pass; predictions are
    split back per design, so the metrics are identical to the per-design
    loop (block-diagonal operators keep designs independent).
    """
    model.eval()
    f1s, accs = [], []
    with no_grad():
        for group in _fixed_batches(len(samples), batch_size):
            members = [samples[i] for i in group]
            batch = collate_samples(members, cache)
            parts = unbatch_values(batch.graph, predict_probs(model, batch))
            for sample, prob in zip(members, parts):
                m = evaluate_binary(prob, sample.cls_target, threshold)
                f1s.append(m["f1"])
                accs.append(m["acc"])
    model.train()
    return {"f1": float(np.mean(f1s)), "acc": float(np.mean(accs))}


# ---------------------------------------------------------------------------
# MLP baseline
# ---------------------------------------------------------------------------
def _train_mlp(train_samples: list[GraphSample], config: TrainConfig,
               model_config: dict | None = None) -> MLPBaseline:
    """Train the 4-layer residual MLP on per-G-cell features.

    ``model_config`` knobs: ``channels``, ``hidden``.  Mini-batches stack
    the feature rows of ``config.batch_size`` designs into one matrix per
    optimizer step (the MLP needs no graph, so the collate is a plain
    concatenation, pre-computed once per run).
    """
    mc = _model_knobs(model_config, channels=1, hidden=32)
    rng = np.random.default_rng(config.seed)
    model = MLPBaseline(in_features=train_samples[0].features.shape[1],
                        hidden=mc["hidden"],
                        channels=mc["channels"], rng=rng)
    opt = Adam(model.parameters(), lr=config.lr)
    schedule = two_phase_lr(opt, config.epochs, config.lr_final)
    loss_fn = GammaWeightedBCE(gamma=config.gamma)
    groups = _fixed_batches(len(train_samples), config.batch_size, rng)
    stacks = [
        (train_samples[g[0]].features, train_samples[g[0]].cls_target)
        if len(g) == 1 else
        (np.concatenate([train_samples[i].features for i in g], axis=0),
         np.concatenate([train_samples[i].cls_target for i in g], axis=0))
        for g in groups]
    order = np.arange(len(groups))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for b in order:
            features, cls_target = stacks[b]
            opt.zero_grad()
            prob = model(Tensor(features))
            loss = loss_fn(prob, cls_target)
            loss.backward()
            clip_grad_norm(model.parameters(), config.grad_clip)
            _scaled_step(opt, config, len(groups[b]))
        schedule.step()
    return model


def _evaluate_mlp(model: MLPBaseline, samples: list[GraphSample],
                  threshold: float = 0.5,
                  batch_size: int = 1) -> dict[str, float]:
    """Per-circuit F1/ACC averaged over ``samples`` (values in %)."""
    model.eval()
    f1s, accs = [], []
    with no_grad():
        for group in _fixed_batches(len(samples), batch_size):
            members = [samples[i] for i in group]
            features = np.concatenate([s.features for s in members], axis=0)
            prob = model(Tensor(features)).data
            counts = np.cumsum([len(s.features) for s in members])[:-1]
            for sample, part in zip(members, np.split(prob, counts)):
                m = evaluate_binary(part, sample.cls_target, threshold)
                f1s.append(m["f1"])
                accs.append(m["acc"])
    model.train()
    return {"f1": float(np.mean(f1s)), "acc": float(np.mean(accs))}


# ---------------------------------------------------------------------------
# U-Net baseline
# ---------------------------------------------------------------------------
def _train_unet(train_samples: list[GraphSample], config: TrainConfig,
                model_config: dict | None = None) -> UNet:
    """Train U-Net on crafted-feature images.

    ``model_config`` knobs: ``channels``, ``base_width``.
    """
    mc = _model_knobs(model_config, channels=1, base_width=12)
    rng = np.random.default_rng(config.seed)
    model = UNet(in_channels=train_samples[0].image.shape[1],
                 out_channels=mc["channels"],
                 base_width=mc["base_width"], rng=rng)
    opt = Adam(model.parameters(), lr=config.lr)
    schedule = two_phase_lr(opt, config.epochs, config.lr_final)
    loss_fn = GammaWeightedBCE(gamma=config.gamma)
    crops = []
    for sample in train_samples:
        crops.extend(_crop_pairs(sample.image, sample.cls_image, config.crop))
    order = np.arange(len(crops))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            image, label = crops[idx]
            opt.zero_grad()
            prob = model(Tensor(image))
            loss = loss_fn(prob, label)
            loss.backward()
            clip_grad_norm(model.parameters(), config.grad_clip)
            opt.step()
        schedule.step()
    return model


def _evaluate_unet(model: UNet, samples: list[GraphSample],
                   threshold: float = 0.5,
                   crop: int | None = None) -> dict[str, float]:
    """Per-circuit F1/ACC averaged over ``samples`` (values in %).

    When ``crop`` is given, prediction is tiled exactly as in training and
    stitched back (the paper crops at test time too).
    """
    model.eval()
    f1s, accs = [], []
    channels = samples[0].cls_image.shape[1]
    with no_grad():
        for sample in samples:
            prob = _predict_tiled(model, sample.image, channels, crop)
            m = evaluate_binary(prob, sample.cls_image, threshold)
            f1s.append(m["f1"])
            accs.append(m["acc"])
    model.train()
    return {"f1": float(np.mean(f1s)), "acc": float(np.mean(accs))}


# ---------------------------------------------------------------------------
# Pix2Pix baseline
# ---------------------------------------------------------------------------
def _train_pix2pix(train_samples: list[GraphSample], config: TrainConfig,
                   model_config: dict | None = None) -> Pix2Pix:
    """Adversarial training: PatchGAN D vs U-Net G + γ-BCE reconstruction.

    ``model_config`` knobs: ``channels``, ``base_width``.
    """
    mc = _model_knobs(model_config, channels=1, base_width=12)
    rng = np.random.default_rng(config.seed)
    model = Pix2Pix(in_channels=train_samples[0].image.shape[1],
                    out_channels=mc["channels"],
                    base_width=mc["base_width"], rng=rng)
    opt_g = Adam(model.generator.parameters(), lr=config.lr,
                 betas=(0.5, 0.999))
    opt_d = Adam(model.discriminator.parameters(), lr=config.lr,
                 betas=(0.5, 0.999))
    schedule_g = two_phase_lr(opt_g, config.epochs, config.lr_final)
    schedule_d = two_phase_lr(opt_d, config.epochs, config.lr_final)
    gan_loss = GANLoss()
    rec_loss = GammaWeightedBCE(gamma=config.gamma)
    crops = []
    for sample in train_samples:
        crops.extend(_crop_pairs(sample.image, sample.cls_image, config.crop))
    order = np.arange(len(crops))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            image, label = crops[idx]
            x = Tensor(image)
            y_real = Tensor(label)

            # --- discriminator step -----------------------------------
            fake = model.generator(x)
            opt_d.zero_grad()
            d_real = model.discriminate(x, y_real)
            d_fake = model.discriminate(x, fake.detach())
            loss_d = (gan_loss(d_real, True) + gan_loss(d_fake, False)) * 0.5
            loss_d.backward()
            clip_grad_norm(model.discriminator.parameters(), config.grad_clip)
            opt_d.step()

            # --- generator step ---------------------------------------
            opt_g.zero_grad()
            fake = model.generator(x)
            d_fake = model.discriminate(x, fake)
            loss_g = (config.gan_weight * gan_loss(d_fake, True)
                      + rec_loss(fake, label))
            loss_g.backward()
            clip_grad_norm(model.generator.parameters(), config.grad_clip)
            opt_g.step()
        schedule_g.step()
        schedule_d.step()
    return model


def _evaluate_pix2pix(model: Pix2Pix, samples: list[GraphSample],
                      threshold: float = 0.5,
                      crop: int | None = None) -> dict[str, float]:
    """Per-circuit F1/ACC of the generator output (values in %)."""
    model.eval()
    f1s, accs = [], []
    channels = samples[0].cls_image.shape[1]
    with no_grad():
        for sample in samples:
            prob = _predict_tiled(model.generator, sample.image, channels, crop)
            m = evaluate_binary(prob, sample.cls_image, threshold)
            f1s.append(m["f1"])
            accs.append(m["acc"])
    model.train()
    return {"f1": float(np.mean(f1s)), "acc": float(np.mean(accs))}


# ---------------------------------------------------------------------------
# Related-work GNN baselines (extension beyond the paper's Table 2)
# ---------------------------------------------------------------------------
def _train_gridsage(train_samples: list[GraphSample], config: TrainConfig,
                    model_config: dict | None = None):
    """Train GraphSAGE over the G-cell lattice (geometric-only GNN).

    ``model_config`` knobs: ``channels``, ``hidden``.  Shares the
    block-diagonal mini-batch substrate with LHNN: the lattice adjacency
    of a batch is the block-diagonal of the per-design lattices.
    """
    mc = _model_knobs(model_config, channels=1, hidden=32)
    rng = np.random.default_rng(config.seed)
    model = GridSAGE(in_features=train_samples[0].features.shape[1],
                     hidden=mc["hidden"],
                     channels=mc["channels"], rng=rng)
    opt = Adam(model.parameters(), lr=config.lr)
    schedule = two_phase_lr(opt, config.epochs, config.lr_final)
    loss_fn = GammaWeightedBCE(gamma=config.gamma)
    groups = _fixed_batches(len(train_samples), config.batch_size, rng)
    cache = BatchCache(max_entries=max(len(groups), 1))
    order = np.arange(len(groups))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for b in order:
            members = [train_samples[i] for i in groups[b]]
            batch = collate_samples(members, cache)
            opt.zero_grad()
            prob = model(batch.graph, vc=Tensor(batch.features))
            loss = loss_fn(prob, batch.cls_target)
            loss.backward()
            clip_grad_norm(model.parameters(), config.grad_clip)
            _scaled_step(opt, config, len(members))
        schedule.step()
    return model


def _evaluate_gridsage(model, samples: list[GraphSample],
                       threshold: float = 0.5,
                       batch_size: int = 1) -> dict[str, float]:
    """Per-circuit F1/ACC of the GridSAGE baseline (values in %)."""
    model.eval()
    f1s, accs = [], []
    with no_grad():
        for group in _fixed_batches(len(samples), batch_size):
            members = [samples[i] for i in group]
            batch = collate_samples(members)
            parts = unbatch_values(batch.graph, predict_probs(model, batch))
            for sample, part in zip(members, parts):
                m = evaluate_binary(part, sample.cls_target, threshold)
                f1s.append(m["f1"])
                accs.append(m["acc"])
    model.train()
    return {"f1": float(np.mean(f1s)), "acc": float(np.mean(accs))}


# ---------------------------------------------------------------------------
# Legacy per-family entry points (thin deprecation shims)
# ---------------------------------------------------------------------------
def train_lhnn(train_samples: list[GraphSample], config: TrainConfig,
               model_config: LHNNConfig | None = None) -> LHNN:
    """Deprecated shim; see :func:`repro.api.run_experiment`."""
    _deprecated("train_lhnn", "run_experiment with model.family='lhnn'")
    mc = asdict(model_config) if model_config is not None else None
    return _train_lhnn(train_samples, config, mc)


def evaluate_lhnn(model: LHNN, samples: list[GraphSample],
                  threshold: float = 0.5, batch_size: int = 1,
                  cache: BatchCache | None = None) -> dict[str, float]:
    """Deprecated shim; see :func:`_evaluate_lhnn` / the family runtime."""
    _deprecated("evaluate_lhnn", "the 'lhnn' family evaluator runtime")
    return _evaluate_lhnn(model, samples, threshold=threshold,
                          batch_size=batch_size, cache=cache)


def train_mlp(train_samples: list[GraphSample], config: TrainConfig,
              channels: int = 1, hidden: int = 32) -> MLPBaseline:
    """Deprecated shim; see :func:`repro.api.run_experiment`."""
    _deprecated("train_mlp", "run_experiment with model.family='mlp'")
    return _train_mlp(train_samples, config,
                      {"channels": channels, "hidden": hidden})


def evaluate_mlp(model: MLPBaseline, samples: list[GraphSample],
                 threshold: float = 0.5,
                 batch_size: int = 1) -> dict[str, float]:
    """Deprecated shim; see :func:`_evaluate_mlp` / the family runtime."""
    _deprecated("evaluate_mlp", "the 'mlp' family evaluator runtime")
    return _evaluate_mlp(model, samples, threshold=threshold,
                         batch_size=batch_size)


def train_unet(train_samples: list[GraphSample], config: TrainConfig,
               channels: int = 1, base_width: int = 12) -> UNet:
    """Deprecated shim; see :func:`repro.api.run_experiment`."""
    _deprecated("train_unet", "run_experiment with model.family='unet'")
    return _train_unet(train_samples, config,
                       {"channels": channels, "base_width": base_width})


def evaluate_unet(model: UNet, samples: list[GraphSample],
                  threshold: float = 0.5,
                  crop: int | None = None) -> dict[str, float]:
    """Deprecated shim; see :func:`_evaluate_unet` / the family runtime."""
    _deprecated("evaluate_unet", "the 'unet' family evaluator runtime")
    return _evaluate_unet(model, samples, threshold=threshold, crop=crop)


def train_pix2pix(train_samples: list[GraphSample], config: TrainConfig,
                  channels: int = 1, base_width: int = 12) -> Pix2Pix:
    """Deprecated shim; see :func:`repro.api.run_experiment`."""
    _deprecated("train_pix2pix", "run_experiment with model.family='pix2pix'")
    return _train_pix2pix(train_samples, config,
                          {"channels": channels, "base_width": base_width})


def evaluate_pix2pix(model: Pix2Pix, samples: list[GraphSample],
                     threshold: float = 0.5,
                     crop: int | None = None) -> dict[str, float]:
    """Deprecated shim; see :func:`_evaluate_pix2pix` / the family runtime."""
    _deprecated("evaluate_pix2pix", "the 'pix2pix' family evaluator runtime")
    return _evaluate_pix2pix(model, samples, threshold=threshold, crop=crop)


def train_gridsage(train_samples: list[GraphSample], config: TrainConfig,
                   channels: int = 1, hidden: int = 32):
    """Deprecated shim; see :func:`repro.api.run_experiment`."""
    _deprecated("train_gridsage",
                "run_experiment with model.family='gridsage'")
    return _train_gridsage(train_samples, config,
                           {"channels": channels, "hidden": hidden})


def evaluate_gridsage(model, samples: list[GraphSample],
                      threshold: float = 0.5,
                      batch_size: int = 1) -> dict[str, float]:
    """Deprecated shim; see :func:`_evaluate_gridsage` / the runtime."""
    _deprecated("evaluate_gridsage", "the 'gridsage' family evaluator runtime")
    return _evaluate_gridsage(model, samples, threshold=threshold,
                              batch_size=batch_size)


# ---------------------------------------------------------------------------
# Seeded repetition
# ---------------------------------------------------------------------------
def seeded_runs(run_fn, seeds: list[int]) -> MetricSummary:
    """Repeat ``run_fn(seed) -> {'f1', 'acc'}`` and summarise mean ± std."""
    return summarize_runs([run_fn(seed) for seed in seeds])


# ---------------------------------------------------------------------------
# Experiment runtimes: register trainer/evaluator/default-config per family
# ---------------------------------------------------------------------------
def _graph_evaluator(evaluate):
    """Adapter: graph/tabular families evaluate at config batch size."""
    def run(model, samples, config: TrainConfig):
        return evaluate(model, samples, threshold=config.threshold,
                        batch_size=config.batch_size)
    return run


def _image_evaluator(evaluate):
    """Adapter: CNN families tile evaluation exactly as trained."""
    def run(model, samples, config: TrainConfig):
        return evaluate(model, samples, threshold=config.threshold,
                        crop=config.crop)
    return run


def _attach_runtimes() -> None:
    # The registry module imports only models + nn, so this import is
    # cycle-free; it runs at the bottom of this module so the serving
    # engine (imported via repro.serve) can already see predict_probs.
    from ..serve import registry

    # LHNN's knob namespace is the LHNNConfig fields themselves (minus
    # ``channels``, which every family takes from model.channels), so
    # the registry default_config doubles as the known-knob listing the
    # experiment runner validates model.params against.
    from dataclasses import asdict as _asdict
    lhnn_defaults = {k: v for k, v in _asdict(LHNNConfig()).items()
                     if k != "channels"}
    registry.attach_runtime("lhnn", trainer=_train_lhnn,
                            evaluator=_graph_evaluator(_evaluate_lhnn),
                            default_config=lhnn_defaults)
    registry.attach_runtime("mlp", trainer=_train_mlp,
                            evaluator=_graph_evaluator(_evaluate_mlp),
                            default_config={"hidden": 32})
    registry.attach_runtime("gridsage", trainer=_train_gridsage,
                            evaluator=_graph_evaluator(_evaluate_gridsage),
                            default_config={"hidden": 32})
    registry.attach_runtime("unet", trainer=_train_unet,
                            evaluator=_image_evaluator(_evaluate_unet),
                            default_config={"base_width": 12})
    registry.attach_runtime("pix2pix", trainer=_train_pix2pix,
                            evaluator=_image_evaluator(_evaluate_pix2pix),
                            default_config={"base_width": 12})


_attach_runtimes()
