"""Tests for F1/ACC metrics and seed aggregation."""

import numpy as np
import pytest

from repro.train import (MetricSummary, confusion, evaluate_binary, f1_score,
                         precision, recall, summarize_runs)
from repro.train.metrics import accuracy


class TestConfusion:
    def test_counts(self):
        pred = np.array([1, 1, 0, 0])
        target = np.array([1, 0, 1, 0])
        c = confusion(pred, target)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.ones(3), np.ones(4))

    def test_multidim_flattened(self):
        pred = np.ones((2, 2))
        target = np.ones((2, 2))
        assert confusion(pred, target).tp == 4


class TestMetrics:
    def test_perfect_prediction(self):
        y = np.array([1, 0, 1, 0])
        assert f1_score(y, y) == 1.0
        assert accuracy(y, y) == 1.0

    def test_all_wrong(self):
        pred = np.array([1, 0])
        target = np.array([0, 1])
        assert f1_score(pred, target) == 0.0
        assert accuracy(pred, target) == 0.0

    def test_zero_positive_labels_gives_zero_f1(self):
        """The paper notes zero-congestion circuits force F1 = 0."""
        pred = np.array([1, 1, 0])
        target = np.zeros(3)
        assert f1_score(pred, target) == 0.0

    def test_no_positive_predictions(self):
        pred = np.zeros(4)
        target = np.array([1, 1, 0, 0])
        assert f1_score(pred, target) == 0.0
        assert accuracy(pred, target) == 0.5

    def test_f1_known_value(self):
        pred = np.array([1, 1, 1, 0, 0])
        target = np.array([1, 1, 0, 1, 0])
        c = confusion(pred, target)
        p, r = precision(c), recall(c)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1_score(pred, target) == pytest.approx(2 / 3)

    def test_evaluate_binary_threshold(self):
        prob = np.array([0.4, 0.6])
        target = np.array([0.0, 1.0])
        out = evaluate_binary(prob, target, threshold=0.5)
        assert out["f1"] == 100.0
        assert out["acc"] == 100.0

    def test_evaluate_binary_percent_scale(self):
        prob = np.array([0.9, 0.9, 0.1, 0.1])
        target = np.array([1.0, 0.0, 1.0, 0.0])
        out = evaluate_binary(prob, target)
        assert out["acc"] == 50.0


class TestSummaries:
    def test_summarize_runs(self):
        runs = [{"f1": 40.0, "acc": 90.0}, {"f1": 42.0, "acc": 92.0}]
        s = summarize_runs(runs)
        assert s.f1_mean == pytest.approx(41.0)
        assert s.f1_std == pytest.approx(np.sqrt(2.0))  # sample std
        assert s.acc_mean == pytest.approx(91.0)
        assert s.acc_std == pytest.approx(np.sqrt(2.0))
        one = summarize_runs(runs[:1])
        assert (one.f1_mean, one.f1_std, one.acc_std) == (40.0, 0.0, 0.0)

    def test_format(self):
        s = MetricSummary(40.894, 1.821, 95.46, 0.11)
        text = s.format()
        assert "40.89" in text and "95.46" in text
