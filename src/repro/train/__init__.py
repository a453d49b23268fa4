"""``repro.train`` — training loops, metrics and configuration."""

from .config import TrainConfig
from .history import TrainingHistory
from .metrics import (ConfusionCounts, confusion, precision, recall,
                      f1_score, accuracy, evaluate_binary, MetricSummary,
                      summarize_runs)
from .trainer import fit, evaluate, predict_probs

__all__ = [
    "TrainConfig", "TrainingHistory",
    "ConfusionCounts", "confusion", "precision", "recall", "f1_score",
    "accuracy", "evaluate_binary", "MetricSummary", "summarize_runs",
    "fit", "evaluate", "predict_probs",
]
