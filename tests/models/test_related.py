"""Tests for the related-work GNN baseline (GridSAGE)."""

import numpy as np
import pytest

from repro.models import GridSAGE
from repro.models.related import SAGELayer
from repro.nn import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestGridSAGE:
    def test_forward_on_lhgraph(self, small_graph, rng):
        model = GridSAGE(hidden=8, rng=rng)
        out = model(small_graph)
        assert out.shape == (small_graph.num_gcells, 1)

    def test_feature_override(self, small_graph, rng):
        model = GridSAGE(hidden=8, rng=rng)
        a = model(small_graph).data
        b = model(small_graph,
                  vc=Tensor(np.zeros_like(small_graph.vc))).data
        assert not np.allclose(a, b)

    def test_sage_layer_aggregates_neighbours(self, small_graph, rng):
        layer = SAGELayer(4, 4, rng)
        x = Tensor(np.random.default_rng(1).normal(
            size=(small_graph.num_gcells, 4)), requires_grad=True)
        out = layer(x, small_graph.op_cc_mean)
        ny = small_graph.ny
        centre = (small_graph.nx // 2) * ny + ny // 2
        out[centre].sum().backward()
        touched = set(np.flatnonzero(np.abs(x.grad).sum(axis=1)).tolist())
        assert centre in touched
        assert len(touched) > 1  # at least one neighbour contributes

    def test_trains_with_trainer(self, tiny_graph_suite):
        from repro.data import CongestionDataset
        from repro.train import TrainConfig, evaluate, fit
        ds = CongestionDataset(tiny_graph_suite, channels=1)
        cfg = TrainConfig(epochs=2, seed=0)
        model = fit("gridsage", ds.train_samples(), cfg, {"hidden": 8})
        metrics = evaluate(model, ds.test_samples(), cfg)
        assert np.isfinite(metrics["f1"])
