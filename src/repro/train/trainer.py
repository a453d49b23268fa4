"""One training loop and one evaluator for every model family.

Reproduces the paper's protocol (§5.1–5.2): fixed epoch budget, Adam with
the 2e-3 → 5e-4 learning-rate pair (routed through the
:func:`repro.nn.optim.two_phase_lr` schedule), γ-weighted BCE on the
congestion map (all models) plus MSE on the demand map (LHNN's joint
supervision), evaluation = per-circuit F1/ACC on held-out designs averaged
per seed, with mean ± std over seeds.

* ``fit(family, samples, config, model_config=None) -> model`` builds the
  model through the registry (``get_family(family).build``) from the
  family's registered ``default_config`` overlaid with ``model_config``
  (``channels`` plus e.g. ``hidden`` / ``base_width`` / any
  :class:`~repro.models.lhnn.LHNNConfig` field; an unknown knob raises
  ``TypeError``), then runs the one optimisation loop.
* ``evaluate(model, samples, config) -> {"f1", "acc"}`` scores any family
  through :func:`predict_probs`, reading ``threshold`` / ``batch_size`` /
  ``crop`` off the train config.

Each family is a small :class:`_Adapter`: the architecture inputs it reads
off the samples, its fixed batches and its loss.  Pix2Pix's
two-optimizer discriminator/generator step is the one override of the
shared zero_grad / backward / clip / step.  The registry runtime of family
``name`` is ``partial(fit, name)`` plus :func:`evaluate`
(:func:`repro.serve.registry.attach_runtime`), which is how
:func:`repro.api.run_experiment` drives any family from one spec.

Graph-based models (LHNN, GridSAGE) and the MLP baseline train in
DGL-style mini-batches: ``TrainConfig.batch_size`` designs are composed
into one block-diagonal supergraph per optimizer step
(:func:`repro.data.dataset.collate_samples`), so each step runs fewer,
larger sparse matmuls.  Batch membership is drawn once per run and every
batch is collated once before the first epoch; epochs reshuffle only the
visit order.  The CNN families (U-Net, Pix2Pix) train one non-overlapping
``crop`` tile per step and predict tile-by-tile the same way.  One
generator seeded with ``config.seed`` draws, in order: the model init,
the batch membership, one visit-order shuffle per epoch and (LHNN with
``use_sampling``) the neighbour samples of each step.

Dtype policy: the loop trains in whatever dtype the samples and model
were materialised in (``repro.nn.set_default_dtype``; the CLI defaults
to float32) — per-step losses and gradients stay in the compute dtype,
while cross-step *accumulators* (epoch loss totals, gradient norms,
metric averages) are python floats / float64, so a float32 run loses no
reporting precision.  :func:`evaluate` runs under
:func:`repro.nn.no_grad`; a regression suite
(``tests/train/test_eval_no_grad.py``) asserts no backward closures are
recorded during evaluation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..data.dataset import GraphSample, collate_samples
from ..graph.batch import unbatch_values
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
from .metrics import evaluate_binary

__all__ = ["fit", "evaluate", "predict_probs"]

#: The paper's neighbour-sampling fan-outs, used when ``use_sampling`` is on.
_FANOUTS = {"featuregen": 6, "hypermp": 3, "latticemp": 2}
#: Weight of Pix2Pix's adversarial term in the generator loss.
_GAN_WEIGHT = 0.15


def predict_probs(model, sample: GraphSample,
                  crop: int | None = None) -> np.ndarray:
    """Congestion-probability forward pass for any model family.

    Accepts a single or collated (block-diagonal batched)
    :class:`GraphSample` and returns the flat per-G-cell probability
    array ``(num_gcells, channels)`` in ``gx * ny + gy`` order — the
    common currency of :func:`evaluate`, the per-design reports and the
    :mod:`repro.serve` engine.  ``crop`` makes the CNN families predict
    tile-by-tile exactly as they trained (the graph families ignore it).
    Callers manage ``model.eval()`` and ``no_grad`` themselves.
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
        prob = _predict_tiled(forward, sample.image, crop)
        # NCHW (1, C, nx, ny) → flat per-G-cell rows (nx * ny, C).
        return prob[0].transpose(1, 2, 0).reshape(-1, prob.shape[1])
    raise TypeError(f"no probability forward known for "
                    f"{type(model).__name__}")


def _tiles(height: int, width: int, crop: int | None):
    """Non-overlapping (y0, x0) tile origins covering a H×W image."""
    if crop is None:
        return [(0, 0, height, width)]
    origins = []
    for y0 in range(0, height, crop):
        for x0 in range(0, width, crop):
            origins.append((y0, x0, min(crop, height - y0), min(crop, width - x0)))
    return origins


def _predict_tiled(forward, image: np.ndarray,
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
            out = np.zeros((n, prob.shape[1], h, w), dtype=prob.dtype)
        out[:, :, y0:y0 + ch, x0:x0 + cw] = prob
    return out


def _fixed_batches(num_samples: int, batch_size: int,
                   rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Partition sample indices into fixed-membership mini-batches.

    Membership is one random (or, without ``rng``, sequential) partition
    drawn once per run; epochs reshuffle only the batch visit order.
    ``batch_size <= 1`` reduces to the per-design loop.
    """
    if batch_size <= 1:
        return [np.array([i]) for i in range(num_samples)]
    perm = (rng.permutation(num_samples) if rng is not None
            else np.arange(num_samples))
    return [perm[i:i + batch_size]
            for i in range(0, num_samples, batch_size)]


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


# ---------------------------------------------------------------------------
# Family adapters
# ---------------------------------------------------------------------------
def _graph_batches(samples, config: TrainConfig, rng) -> list:
    """``(collated batch, member count)`` per fixed mini-batch."""
    return [(collate_samples([samples[i] for i in group]), len(group))
            for group in _fixed_batches(len(samples), config.batch_size, rng)]


def _crop_batches(samples, config: TrainConfig, rng) -> list:
    """``((image, label) tile, 1)`` per aligned crop of every design.

    Mirrors the paper's 256×256 crop protocol for U-Net / Pix2Pix: models
    never see the whole die at once.  Draws nothing from ``rng``.
    """
    batches = []
    for sample in samples:
        _, _, h, w = sample.image.shape
        for y0, x0, ch, cw in _tiles(h, w, config.crop):
            batches.append(((sample.image[:, :, y0:y0 + ch, x0:x0 + cw],
                             sample.cls_image[:, :, y0:y0 + ch, x0:x0 + cw]),
                            1))
    return batches


def _lhnn_loss(model, batch, config: TrainConfig, rng):
    operators = None
    if config.use_sampling:
        operators = sampled_operators(batch.graph, _FANOUTS, rng)
    out = model(batch.graph, operators=operators,
                vc=Tensor(batch.features), vn=Tensor(batch.net_features))
    loss_fn = JointLoss(gamma=config.gamma,
                        use_regression=model.config.use_jointing)
    return loss_fn(out.cls_prob, out.reg_pred,
                   batch.cls_target, batch.reg_target)


def _gridsage_loss(model, batch, config: TrainConfig, rng):
    prob = model(batch.graph, vc=Tensor(batch.features))
    return GammaWeightedBCE(gamma=config.gamma)(prob, batch.cls_target)


def _mlp_loss(model, batch, config: TrainConfig, rng):
    prob = model(Tensor(batch.features))
    return GammaWeightedBCE(gamma=config.gamma)(prob, batch.cls_target)


def _unet_loss(model, batch, config: TrainConfig, rng):
    image, label = batch
    return GammaWeightedBCE(gamma=config.gamma)(model(Tensor(image)), label)


def _adam(model, config: TrainConfig) -> list:
    return [Adam(model.parameters(), lr=config.lr)]


def _step(loss_fn, model, opts, batch, members: int,
          config: TrainConfig, rng) -> float:
    """zero_grad → loss → backward → clip → batch-scaled step."""
    (opt,) = opts
    opt.zero_grad()
    loss = loss_fn(model, batch, config, rng)
    loss.backward()
    clip_grad_norm(model.parameters(), config.grad_clip)
    _scaled_step(opt, config, members)
    return loss.item()


def _gan_adams(model, config: TrainConfig) -> list:
    return [Adam(part.parameters(), lr=config.lr, betas=(0.5, 0.999))
            for part in (model.generator, model.discriminator)]


def _gan_step(model, opts, batch, members: int,
              config: TrainConfig, rng) -> float:
    """Adversarial step: PatchGAN D, then U-Net G + γ-BCE reconstruction."""
    opt_g, opt_d = opts
    image, label = batch
    x = Tensor(image)
    gan_loss = GANLoss()

    fake = model.generator(x)
    opt_d.zero_grad()
    d_real = model.discriminate(x, Tensor(label))
    d_fake = model.discriminate(x, fake.detach())
    loss_d = (gan_loss(d_real, True) + gan_loss(d_fake, False)) * 0.5
    loss_d.backward()
    clip_grad_norm(model.discriminator.parameters(), config.grad_clip)
    opt_d.step()

    opt_g.zero_grad()
    fake = model.generator(x)
    d_fake = model.discriminate(x, fake)
    loss_g = (_GAN_WEIGHT * gan_loss(d_fake, True)
              + GammaWeightedBCE(gamma=config.gamma)(fake, label))
    loss_g.backward()
    clip_grad_norm(model.generator.parameters(), config.grad_clip)
    opt_g.step()
    return loss_g.item()


def _tabular_arch(samples, channels: int) -> dict:
    return {"in_features": samples[0].features.shape[1],
            "channels": channels}


def _image_arch(samples, channels: int) -> dict:
    return {"in_channels": samples[0].image.shape[1],
            "out_channels": channels}


@dataclass(frozen=True)
class _Adapter:
    """What :func:`fit` needs to know about one family.

    ``arch(samples, channels)`` gives the constructor inputs read off the
    data, ``batches(samples, config, rng)`` the fixed
    ``(batch, member count)`` list, and ``loss(model, batch, config,
    rng)`` the scalar training loss.  ``optimizers`` / ``step`` default
    to one Adam and the shared step; Pix2Pix overrides both.
    ``default_config`` is registered with the family and is the only
    source of its knob defaults.
    """

    arch: Callable
    default_config: dict
    loss: Callable | None = None
    batches: Callable = _graph_batches
    optimizers: Callable = _adam
    step: Callable | None = None


_ADAPTERS = {
    "lhnn": _Adapter(
        arch=lambda samples, channels: {"channels": channels},
        default_config={k: v for k, v in asdict(LHNNConfig()).items()
                        if k != "channels"},
        loss=_lhnn_loss),
    "mlp": _Adapter(arch=_tabular_arch, default_config={"hidden": 32},
                    loss=_mlp_loss),
    "gridsage": _Adapter(arch=_tabular_arch, default_config={"hidden": 32},
                         loss=_gridsage_loss),
    "unet": _Adapter(arch=_image_arch, default_config={"base_width": 12},
                     loss=_unet_loss, batches=_crop_batches),
    "pix2pix": _Adapter(arch=_image_arch, default_config={"base_width": 12},
                        batches=_crop_batches, optimizers=_gan_adams,
                        step=_gan_step),
}


# ---------------------------------------------------------------------------
# The one loop and the one evaluator
# ---------------------------------------------------------------------------
def fit(family: str, samples: list[GraphSample], config: TrainConfig,
        model_config: dict | None = None):
    """Train a ``family`` model on ``samples`` under the paper's protocol.

    ``model_config`` overlays the family's registered ``default_config``
    (plus ``channels``, default 1); any other key raises ``TypeError``,
    mirroring a constructor signature, so a typo in ``model.params``
    fails loudly instead of training the default architecture.  With
    ``config.verbose`` each epoch prints its mean step loss.
    """
    registered = registry.get_family(family)
    adapter = _ADAPTERS[family]
    knobs = {**registered.default_config, **(model_config or {})}
    unknown = sorted(set(knobs) - set(registered.default_config)
                     - {"channels"})
    if unknown:
        raise TypeError(f"unknown model config knob(s) {unknown}; known: "
                        f"{sorted({'channels', *registered.default_config})}")
    channels = knobs.pop("channels", 1)
    rng = np.random.default_rng(config.seed)
    model = registered.build({**adapter.arch(samples, channels), **knobs},
                             rng)
    batches = adapter.batches(samples, config, rng)
    opts = adapter.optimizers(model, config)
    schedules = [two_phase_lr(opt, config.epochs, config.lr_final)
                 for opt in opts]
    step = adapter.step or partial(_step, adapter.loss)
    order = np.arange(len(batches))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        for b in order:
            batch, members = batches[b]
            total += step(model, opts, batch, members, config, rng)
        for schedule in schedules:
            schedule.step()
        if config.verbose:
            print(f"[{family}] epoch {epoch + 1}/{config.epochs} "
                  f"loss {total / len(order):.4f}")
    return model


def evaluate(model, samples: list[GraphSample],
             config: TrainConfig) -> dict[str, float]:
    """Per-circuit F1/ACC averaged over ``samples`` (values in %).

    Graph and MLP families predict ``config.batch_size`` designs per
    block-diagonal forward pass and split the rows back per design, so
    the metrics equal the per-design loop's.  The CNN families predict
    one design at a time (a batched image would let convolutions read
    across the die seam), tiled at ``config.crop`` as they trained.
    """
    batch_size = (1 if isinstance(model, (UNet, Pix2Pix))
                  else config.batch_size)
    model.eval()
    f1s, accs = [], []
    with no_grad():
        for group in _fixed_batches(len(samples), batch_size):
            members = [samples[i] for i in group]
            batch = collate_samples(members)
            probs = predict_probs(model, batch, config.crop)
            for sample, prob in zip(members,
                                    unbatch_values(batch.graph, probs)):
                m = evaluate_binary(prob, sample.cls_target, config.threshold)
                f1s.append(m["f1"])
                accs.append(m["acc"])
    model.train()
    return {"f1": float(np.mean(f1s)), "acc": float(np.mean(accs))}


# Imported last: repro.serve's engine imports predict_probs from this
# module, and the registry module itself imports only models + nn.
from ..serve import registry  # noqa: E402

for _name, _adapter in _ADAPTERS.items():
    registry.attach_runtime(_name, trainer=partial(fit, _name),
                            evaluator=evaluate,
                            default_config=_adapter.default_config)
