"""Tests for attention machinery and the related-work GNN baselines."""

import numpy as np
import pytest

from repro.circuit import (DesignSpec, build_cell_graph, cell_features,
                           cells_to_gcells, generate_design)
from repro.models import (CongestionNet, EdgeList, GATLayer, GridSAGE,
                          SAGELayer, segment_softmax)
from repro.nn import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="module")
def design():
    return generate_design(DesignSpec(name="rel", seed=61, num_movable=100,
                                      die_size=32.0))


class TestEdgeList:
    def test_scatter_sums_onto_destinations(self):
        edges = EdgeList(np.array([0, 1, 2]), np.array([1, 1, 0]), 3)
        from repro.nn import spmm
        vals = Tensor(np.array([[1.0], [2.0], [4.0]]))
        out = spmm(edges.scatter, vals).data
        assert np.allclose(out.reshape(-1), [4.0, 3.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            EdgeList(np.array([0]), np.array([0, 1]), 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            EdgeList(np.array([0]), np.array([5]), 2)

    def test_self_loops_added(self):
        edges = EdgeList.with_self_loops(np.array([0]), np.array([1]), 3)
        assert edges.num_edges == 4


class TestSegmentSoftmax:
    def test_normalised_per_destination(self, rng):
        edges = EdgeList(np.array([0, 1, 2, 0]), np.array([0, 0, 1, 1]), 3)
        scores = Tensor(rng.normal(size=4))
        alpha = segment_softmax(scores, edges).data
        assert alpha[0] + alpha[1] == pytest.approx(1.0)
        assert alpha[2] + alpha[3] == pytest.approx(1.0)

    def test_stable_with_large_scores(self):
        edges = EdgeList(np.array([0, 1]), np.array([0, 0]), 2)
        alpha = segment_softmax(Tensor(np.array([1000.0, 999.0])), edges).data
        assert np.isfinite(alpha).all()
        assert alpha.sum() == pytest.approx(1.0)

    def test_gradient_flows(self):
        edges = EdgeList(np.array([0, 1]), np.array([0, 0]), 2)
        scores = Tensor(np.array([0.5, -0.5]), requires_grad=True)
        segment_softmax(scores, edges)[0].backward(np.array(1.0))
        assert scores.grad is not None
        assert abs(scores.grad).sum() > 0


class TestGATLayer:
    def test_output_shape(self, rng):
        edges = EdgeList.with_self_loops(np.array([0, 1]), np.array([1, 2]), 4)
        layer = GATLayer(3, 5, rng)
        out = layer(Tensor(rng.normal(size=(4, 3))), edges)
        assert out.shape == (4, 5)

    def test_gradients_reach_parameters(self, rng):
        edges = EdgeList.with_self_loops(np.array([0]), np.array([1]), 3)
        layer = GATLayer(2, 4, rng)
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        layer(x, edges).sum().backward()
        assert layer.w.weight.grad is not None
        assert layer.attn_src.grad is not None
        assert x.grad is not None


class TestCellGraph:
    def test_symmetric(self, design):
        cg = build_cell_graph(design)
        pairs = set(zip(cg.src.tolist(), cg.dst.tolist()))
        assert all((b, a) in pairs for a, b in pairs)

    def test_no_self_edges(self, design):
        cg = build_cell_graph(design)
        assert not np.any(cg.src == cg.dst)

    def test_features_shape(self, design):
        feats = cell_features(design)
        assert feats.shape == (design.num_cells, 7)
        assert np.allclose(feats[:, 2].sum(), design.num_pins)

    def test_cells_to_gcells_max(self, design):
        from repro.routing import RoutingGrid
        grid = RoutingGrid(design, nx=8, ny=8)
        values = np.arange(design.num_cells, dtype=float)
        out = cells_to_gcells(design, grid, values, reduce="max")
        assert out.shape == (8, 8)
        assert out.max() <= values.max()

    def test_cells_to_gcells_mean(self, design):
        from repro.routing import RoutingGrid
        grid = RoutingGrid(design, nx=8, ny=8)
        out = cells_to_gcells(design, grid,
                              np.ones(design.num_cells), reduce="mean")
        assert set(np.unique(out)).issubset({0.0, 1.0})

    def test_bad_reduce(self, design):
        from repro.routing import RoutingGrid
        grid = RoutingGrid(design, nx=8, ny=8)
        with pytest.raises(ValueError):
            cells_to_gcells(design, grid, np.ones(design.num_cells),
                            reduce="median")


class TestCongestionNet:
    def test_end_to_end_shapes(self, design, rng):
        cg = build_cell_graph(design)
        edges = EdgeList.with_self_loops(cg.src, cg.dst, design.num_cells)
        feats = cell_features(design)
        model = CongestionNet(in_features=feats.shape[1], hidden=8, rng=rng,
                              num_layers=2)
        out = model(Tensor(feats), edges)
        assert out.shape == (design.num_cells, 1)
        assert (out.data >= 0).all() and (out.data <= 1).all()

    def test_rejects_zero_layers(self, rng):
        with pytest.raises(ValueError):
            CongestionNet(4, 8, rng, num_layers=0)


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
