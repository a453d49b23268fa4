"""Per-design evaluation reports.

The paper's tables report suite-level averages; for debugging and for the
EXPERIMENTS.md record we also want the per-circuit breakdown the paper's
Figure 4 discussion implies (LHNN tracks each circuit's congestion level,
baselines average across circuits).  This module computes those reports
from trained models (render them with
:func:`~repro.eval.tables.format_table`), and
:func:`rate_tracking_error` condenses the Figure 4 claim into one
number.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import GraphSample
from ..nn import no_grad
from ..train.metrics import confusion, f1_score, precision, recall

__all__ = ["per_design_report", "rate_tracking_error"]


def per_design_report(model, samples: list[GraphSample],
                      threshold: float = 0.5,
                      predict=None, crop: int | None = None) -> list[dict]:
    """Per-design precision/recall/F1/rates for a trained model.

    ``predict(sample) -> prob array`` customises inference; the default
    routes any registered model family through
    :func:`repro.train.trainer.predict_probs`.  ``crop`` makes the CNN
    families (U-Net, Pix2Pix) predict tile-by-tile exactly as they
    trained — pass the checkpoint's ``train.crop`` so this report agrees
    with :func:`repro.train.evaluate`.
    """
    if predict is None:
        from ..train.trainer import predict_probs
        predict = lambda s: predict_probs(model, s, crop)  # noqa: E731
    rows = []
    if hasattr(model, "eval"):
        model.eval()
    with no_grad():
        for sample in samples:
            prob = np.asarray(predict(sample))
            pred = prob >= threshold
            target = sample.cls_target
            c = confusion(pred, target)
            rows.append({
                "design": sample.name,
                "true_rate_%": round(100 * float(np.mean(target)), 2),
                "pred_rate_%": round(100 * float(np.mean(pred)), 2),
                "precision": round(100 * precision(c), 2),
                "recall": round(100 * recall(c), 2),
                "F1": round(100 * f1_score(pred, target), 2),
            })
    if hasattr(model, "train"):
        model.train()
    return rows


def rate_tracking_error(per_design_prob: list[np.ndarray],
                        per_design_target: list[np.ndarray],
                        threshold: float = 0.5) -> float:
    """Mean |predicted positive rate − true positive rate| across designs.

    The Figure-4 statistic: a model that predicts an "averaged" congestion
    level for every circuit has a high tracking error on a suite whose
    congestion rates vary widely.
    """
    if len(per_design_prob) != len(per_design_target):
        raise ValueError("need one probability array per target array")
    errors = []
    for prob, target in zip(per_design_prob, per_design_target):
        pred_rate = float((np.asarray(prob) >= threshold).mean())
        true_rate = float(np.asarray(target).mean())
        errors.append(abs(pred_rate - true_rate))
    return float(np.mean(errors)) if errors else 0.0
