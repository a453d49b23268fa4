"""Tests for block-diagonal graph batching."""

import numpy as np
import pytest

from repro.graph import batch_graphs, plan_batches, unbatch_values
from repro.models.lhnn import LHNN, LHNNConfig
from repro.nn import Tensor


@pytest.fixture(scope="module")
def pair(tiny_graph_suite):
    return tiny_graph_suite[0], tiny_graph_suite[1]


@pytest.fixture(scope="module")
def batched(pair):
    return batch_graphs(list(pair))


class TestBatchGraphs:
    def test_counts_add_up(self, pair, batched):
        a, b = pair
        assert batched.num_gcells == a.num_gcells + b.num_gcells
        assert batched.num_gnets == a.num_gnets + b.num_gnets
        assert batched.vc.shape[0] == batched.num_gcells

    def test_block_diagonal_structure(self, pair, batched):
        a, b = pair
        dense = batched.incidence.toarray()
        # off-diagonal blocks must be zero
        assert np.allclose(dense[:a.num_gcells, a.num_gnets:], 0.0)
        assert np.allclose(dense[a.num_gcells:, :a.num_gnets], 0.0)
        assert np.allclose(dense[:a.num_gcells, :a.num_gnets],
                           a.incidence.toarray())

    def test_labels_stacked(self, pair, batched):
        a, b = pair
        assert batched.congestion.shape[0] == a.num_gcells + b.num_gcells
        assert np.allclose(batched.congestion[:a.num_gcells], a.congestion)

    def test_single_graph_passthrough(self, pair):
        assert batch_graphs([pair[0]]) is pair[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            batch_graphs([])

    def test_metadata_offsets(self, pair, batched):
        a, b = pair
        assert batched.metadata["cell_counts"] == [a.num_gcells, b.num_gcells]
        assert batched.metadata["names"] == [a.name, b.name]

    def test_per_design_gnets_in_metadata(self, pair, batched):
        """No design's G-net data may be silently dropped or misattributed."""
        a, b = pair
        assert batched.gnets is None
        assert batched.metadata["gnets"] == [a.gnets, b.gnets]
        assert batched.metadata["net_counts"] == [a.num_gnets, b.num_gnets]


class TestBatchedForward:
    def test_lhnn_forward_matches_per_design(self, pair, batched):
        """Block-diagonal batching must give exactly the per-design outputs."""
        model = LHNN(LHNNConfig(hidden=8), np.random.default_rng(0))
        model.eval()
        out_batched = model(batched).cls_prob.data
        parts = unbatch_values(batched, out_batched)
        for graph, part in zip(pair, parts):
            single = model(graph).cls_prob.data
            assert np.allclose(part, single, atol=1e-10)

    def test_collated_forward_matches_concat(self, tiny_graph_suite):
        """Batched training view == per-design forward passes, concatenated."""
        from repro.data import CongestionDataset, collate_samples
        ds = CongestionDataset(tiny_graph_suite, channels=1)
        samples = [ds.sample(i) for i in range(3)]
        model = LHNN(LHNNConfig(hidden=8), np.random.default_rng(1))
        model.eval()
        batch = collate_samples(samples)
        out = model(batch.graph, vc=Tensor(batch.features),
                    vn=Tensor(batch.net_features)).cls_prob.data
        singles = [model(s.graph, vc=Tensor(s.features),
                         vn=Tensor(s.net_features)).cls_prob.data
                   for s in samples]
        assert np.allclose(out, np.concatenate(singles), atol=1e-9)
        assert np.allclose(batch.cls_target,
                           np.concatenate([s.cls_target for s in samples]))

    def test_unbatch_roundtrip(self, pair, batched):
        values = np.arange(batched.num_gcells, dtype=float)
        parts = unbatch_values(batched, values)
        assert len(parts) == 2
        assert np.allclose(np.concatenate(parts), values)

    def test_unbatch_on_plain_graph(self, pair):
        out = unbatch_values(pair[0], np.zeros(pair[0].num_gcells))
        assert len(out) == 1

    def test_unbatch_per_gnet_array(self, pair, batched):
        """G-net-sized arrays split by net_counts, not cell_counts."""
        a, b = pair
        values = np.arange(batched.num_gnets, dtype=float)
        parts = unbatch_values(batched, values)
        assert [len(p) for p in parts] == [a.num_gnets, b.num_gnets]
        assert np.allclose(np.concatenate(parts), values)

    def test_unbatch_rejects_wrong_length(self, batched):
        with pytest.raises(ValueError):
            unbatch_values(batched, np.zeros(batched.num_gcells + 1))

    def test_unbatch_2d_values(self, pair, batched):
        values = np.zeros((batched.num_gcells, 2))
        parts = unbatch_values(batched, values)
        assert [p.shape for p in parts] == [(g.num_gcells, 2) for g in pair]


class _Stub:
    """Graph stand-in: plan_batches only reads ``ny``."""

    def __init__(self, ny):
        self.ny = ny


class TestPlanBatches:
    def test_uniform_ny_single_group(self):
        assert plan_batches([_Stub(16)] * 3) == [[0, 1, 2]]

    def test_groups_respect_max_batch(self):
        groups = plan_batches([_Stub(16)] * 5, max_batch=2)
        assert groups == [[0, 1], [2, 3], [4]]

    def test_mixed_ny_split_into_compatible_groups(self):
        graphs = [_Stub(16), _Stub(8), _Stub(16), _Stub(8), _Stub(32)]
        groups = plan_batches(graphs)
        assert groups == [[0, 2], [1, 3], [4]]
        # Every index appears exactly once.
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(5))

    def test_groups_are_batchable(self, tiny_graph_suite):
        groups = plan_batches(tiny_graph_suite, max_batch=4)
        for group in groups:
            members = [tiny_graph_suite[i] for i in group]
            batched = batch_graphs(members)
            assert batched.num_gcells == sum(m.num_gcells for m in members)

    def test_empty_and_validation(self):
        assert plan_batches([]) == []
        with pytest.raises(ValueError):
            plan_batches([_Stub(16)], max_batch=0)
