"""Tests for per-design reporting."""

import numpy as np
import pytest

from repro.data import CongestionDataset
from repro.eval import markdown_table, per_design_report, predicted_rate_table
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
        text = predicted_rate_table(rows, title="X")
        assert text.startswith("X")
        assert "design" in text


class TestMarkdownTable:
    def test_structure(self):
        rows = [{"a": 1, "b": 2}]
        md = markdown_table(rows, title="T")
        lines = md.split("\n")
        assert lines[0] == "**T**"
        assert lines[2].startswith("| a | b |")
        assert lines[3] == "|---|---|"
        assert lines[4] == "| 1 | 2 |"

    def test_empty(self):
        assert markdown_table([], title="T") == "T"
