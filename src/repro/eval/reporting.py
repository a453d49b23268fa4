"""Per-design evaluation reports.

The paper's tables report suite-level averages; for debugging and for the
EXPERIMENTS.md record we also want the per-circuit breakdown the paper's
Figure 4 discussion implies (LHNN tracks each circuit's congestion level,
baselines average across circuits).  This module renders those reports
from trained models.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import GraphSample
from ..nn import no_grad
from ..train.metrics import confusion, f1_score, precision, recall
from .tables import format_table

__all__ = ["per_design_report", "predicted_rate_table", "markdown_table"]


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


def predicted_rate_table(rows: list[dict], title: str = "") -> str:
    """Render :func:`per_design_report` rows as an aligned text table."""
    return format_table(rows, title=title)


def markdown_table(rows: list[dict], title: str = "") -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    if not rows:
        return title
    columns = list(rows[0])
    lines = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| " + " | ".join(str(c) for c in columns) + " |")
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(row.get(c, "")) for c in columns)
                     + " |")
    return "\n".join(lines)
