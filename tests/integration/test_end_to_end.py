"""End-to-end learning test: the full experiment at miniature scale.

These are the repository's "does the science run" tests: prepare a small
suite, build the dataset with the balanced split, train each model family
briefly, and check the outputs are sane and the whole path from netlist to
metric is connected.
"""

import numpy as np
import pytest

from repro.data import CongestionDataset
from repro.train import TrainConfig, evaluate, fit

#: Evaluation one design per forward pass.
PER_DESIGN = TrainConfig(batch_size=1)


@pytest.fixture(scope="module")
def dataset(tiny_graph_suite):
    return CongestionDataset(tiny_graph_suite, channels=1)


class TestEndToEnd:
    def test_balanced_split_has_small_gap(self, dataset):
        # With 6 designs the best 4:2 split should be much better than the
        # worst one.
        rates = dataset.congestion_rates(0)
        worst_gap = abs(rates.max() - rates.min())
        assert dataset.split.rate_gap <= worst_gap

    def test_lhnn_beats_constant_predictor_on_train(self, dataset):
        tr = dataset.train_samples()
        model = fit("lhnn", tr, TrainConfig(epochs=8, seed=0),
                    {"hidden": 16})
        metrics = evaluate(model, tr, PER_DESIGN)
        # constant all-negative prediction gives F1 = 0
        assert metrics["f1"] > 0.0

    def test_duo_channel_end_to_end(self, tiny_graph_suite):
        ds = CongestionDataset(tiny_graph_suite, channels=2)
        tr = ds.train_samples()
        model = fit("lhnn", tr, TrainConfig(epochs=3, seed=0),
                    {"hidden": 8, "channels": 2})
        metrics = evaluate(model, ds.test_samples(), PER_DESIGN)
        assert np.isfinite(metrics["f1"])

    def test_zero_feature_ablation_end_to_end(self, tiny_graph_suite):
        """LHNN must still run (and produce finite metrics) with G-cell
        features zeroed — the paper's last ablation row."""
        ds = CongestionDataset(tiny_graph_suite, channels=1,
                               zero_gcell_features=True)
        tr = ds.train_samples()
        model = fit("lhnn", tr, TrainConfig(epochs=3, seed=0),
                    {"hidden": 8})
        metrics = evaluate(model, ds.test_samples(), PER_DESIGN)
        assert np.isfinite(metrics["f1"])

    def test_mlp_end_to_end(self, dataset):
        model = fit("mlp", dataset.train_samples(),
                    TrainConfig(epochs=8, seed=0))
        metrics = evaluate(model, dataset.test_samples(), PER_DESIGN)
        assert metrics["acc"] > 40.0

    def test_visualization_from_model(self, dataset, tmp_path):
        from repro.eval import comparison_panel, write_pgm
        from repro.nn import Tensor
        tr = dataset.train_samples()
        te = dataset.test_samples()
        model = fit("lhnn", tr, TrainConfig(epochs=2, seed=0),
                    {"hidden": 8})
        sample = te[0]
        out = model(sample.graph, vc=Tensor(sample.features),
                    vn=Tensor(sample.net_features))
        g = sample.graph
        pred_map = g.map_to_grid(out.cls_prob.data[:, 0])
        truth_map = g.map_to_grid(sample.cls_target[:, 0])
        panel = comparison_panel(truth_map, {"LHNN": pred_map},
                                 title=sample.name)
        assert sample.name in panel
        path = write_pgm(pred_map, str(tmp_path / "pred.pgm"))
        assert path.endswith(".pgm")
