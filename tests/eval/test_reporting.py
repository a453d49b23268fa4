"""Tests for per-design reporting and the rate-tracking error."""

import numpy as np
import pytest

from repro.data import CongestionDataset
from repro.eval import format_table, per_design_report, rate_tracking_error
from repro.train import TrainConfig, fit


@pytest.fixture(scope="module")
def dataset(tiny_graph_suite):
    return CongestionDataset(tiny_graph_suite, channels=1)


@pytest.fixture(scope="module")
def model(dataset):
    return fit("lhnn", dataset.train_samples(), TrainConfig(epochs=2, seed=0),
               {"hidden": 8})


class TestPerDesignReport:
    def test_one_row_per_design(self, model, dataset):
        samples = dataset.test_samples()
        rows = per_design_report(model, samples)
        assert len(rows) == len(samples)
        assert [r["design"] for r in rows] == [s.name for s in samples]

    def test_columns_and_ranges(self, model, dataset):
        rows = per_design_report(model, dataset.test_samples())
        for row in rows:
            assert 0 <= row["F1"] <= 100
            assert 0 <= row["precision"] <= 100
            assert 0 <= row["recall"] <= 100
            assert 0 <= row["true_rate_%"] <= 100

    def test_custom_predictor(self, dataset):
        samples = dataset.test_samples()
        rows = per_design_report(
            object(), samples,
            predict=lambda s: np.zeros_like(s.cls_target))
        # all-negative predictor → F1 = 0 everywhere
        assert all(r["F1"] == 0.0 for r in rows)
        assert all(r["pred_rate_%"] == 0.0 for r in rows)

    def test_table_render(self, model, dataset):
        rows = per_design_report(model, dataset.test_samples())
        text = format_table(rows, title="X")
        assert text.startswith("X")
        assert "design" in text


class TestRateTracking:
    def test_perfect_tracking(self):
        probs = [np.array([0.9, 0.1]), np.array([0.9, 0.9])]
        targets = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        assert rate_tracking_error(probs, targets) == pytest.approx(0.0)

    def test_averaged_predictor_penalised(self):
        """A model predicting ~20 % positives everywhere has high tracking
        error on designs with 0 % and 50 % true rates."""
        flat = [np.full(100, 0.6) * (np.arange(100) < 20)  # 20% above 0.5
                for _ in range(2)]
        targets = [np.zeros(100), np.concatenate([np.ones(50), np.zeros(50)])]
        err = rate_tracking_error(flat, targets)
        assert err == pytest.approx((0.2 + 0.3) / 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rate_tracking_error([np.zeros(2)], [])

    def test_empty(self):
        assert rate_tracking_error([], []) == 0.0
