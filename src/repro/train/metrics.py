"""Evaluation metrics (paper §5.1): F1 score and accuracy.

The paper reports the mean and standard deviation over 5 random seeds of
the F1 score and accuracy on the test set, computed per circuit and
averaged — it explicitly notes that zero-congestion circuits force a zero
F1 and drag the average down, which only makes sense under per-circuit
averaging, so that is what we do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["confusion", "precision", "recall", "f1_score", "evaluate_binary",
           "MetricSummary", "summarize_runs"]


@dataclass
class ConfusionCounts:
    """Binary confusion-matrix counts."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        """All samples."""
        return self.tp + self.fp + self.tn + self.fn


def confusion(pred: np.ndarray, target: np.ndarray) -> ConfusionCounts:
    """Confusion counts of binary arrays (any shape, same shape)."""
    pred = np.asarray(pred).astype(bool).reshape(-1)
    target = np.asarray(target).astype(bool).reshape(-1)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    tp = int(np.sum(pred & target))
    fp = int(np.sum(pred & ~target))
    tn = int(np.sum(~pred & ~target))
    fn = int(np.sum(~pred & target))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def precision(c: ConfusionCounts) -> float:
    """TP / (TP + FP); 0 when no positive predictions."""
    denom = c.tp + c.fp
    return c.tp / denom if denom else 0.0


def recall(c: ConfusionCounts) -> float:
    """TP / (TP + FN); 0 when no positive labels."""
    denom = c.tp + c.fn
    return c.tp / denom if denom else 0.0


def f1_score(pred: np.ndarray, target: np.ndarray) -> float:
    """Harmonic mean of precision and recall (0 when degenerate)."""
    c = confusion(pred, target)
    p = precision(c)
    r = recall(c)
    return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0


def accuracy(pred: np.ndarray, target: np.ndarray) -> float:
    """Fraction of matching entries."""
    c = confusion(pred, target)
    return (c.tp + c.tn) / c.total if c.total else 0.0


def evaluate_binary(prob: np.ndarray, target: np.ndarray,
                    threshold: float = 0.5) -> dict[str, float]:
    """Threshold probabilities and compute F1 / ACC (values in %)."""
    pred = np.asarray(prob) >= threshold
    return {
        "f1": 100.0 * f1_score(pred, target),
        "acc": 100.0 * accuracy(pred, target),
    }


@dataclass
class MetricSummary:
    """Mean ± std over seeds, as the paper's tables report."""

    f1_mean: float
    f1_std: float
    acc_mean: float
    acc_std: float

    def format(self) -> str:
        """"F1 ± std / ACC ± std" cell text."""
        return (f"{self.f1_mean:.2f}±{self.f1_std:.2f} "
                f"{self.acc_mean:.2f}±{self.acc_std:.2f}")


def summarize_runs(per_seed: list[dict[str, float]]) -> MetricSummary:
    """Aggregate per-seed {'f1', 'acc'} dicts into a :class:`MetricSummary`.

    The std is the sample std (``ddof=1``) of the seeds, 0.0 for one run.
    """
    f1 = np.array([r["f1"] for r in per_seed])
    acc = np.array([r["acc"] for r in per_seed])

    def std(values: np.ndarray) -> float:
        return float(values.std(ddof=1)) if len(values) > 1 else 0.0

    return MetricSummary(
        f1_mean=float(f1.mean()), f1_std=std(f1),
        acc_mean=float(acc.mean()), acc_std=std(acc),
    )
