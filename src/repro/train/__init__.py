"""``repro.train`` — training loops, metrics and configuration."""

from .config import TrainConfig
from .metrics import (confusion, precision, recall, f1_score, evaluate_binary,
                      MetricSummary, summarize_runs)
from .trainer import fit, evaluate, predict_probs

__all__ = [
    "TrainConfig",
    "confusion", "precision", "recall", "f1_score",
    "evaluate_binary", "MetricSummary", "summarize_runs",
    "fit", "evaluate", "predict_probs",
]
