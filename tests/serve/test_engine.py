"""Tests for the micro-batching inference engine and its caches."""

import numpy as np
import pytest

from repro.circuit import DesignSpec, generate_design
from repro.models.lhnn import LHNN, LHNNConfig
from repro.models.mlp_baseline import MLPBaseline
from repro.pipeline import PipelineConfig
from repro.pipeline.stages import STAGE_CALLS, reset_stage_calls
from repro.placement import PlacementConfig
from repro.routing import RouterConfig
from repro.serve import (InferenceEngine, PredictRequest, SampleCache,
                         ServeConfig)


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture(scope="module")
def serve_designs():
    return [generate_design(DesignSpec(name=f"serve{i}", seed=40 + i,
                                       num_movable=120, die_size=32.0))
            for i in range(3)]


def _fast_pipeline() -> PipelineConfig:
    return PipelineConfig(placement=PlacementConfig(outer_iterations=2),
                          router=RouterConfig(nx=16, ny=16,
                                              rrr_iterations=2))


def _engine(channels: int = 2, **kwargs) -> InferenceEngine:
    model = LHNN(LHNNConfig(hidden=8, channels=channels),
                 np.random.default_rng(0))
    return InferenceEngine(model, ServeConfig(pipeline=_fast_pipeline(),
                                              **kwargs))


class TestMicroBatching:
    def test_batched_matches_per_design(self, serve_designs):
        engine = _engine()
        batched = engine.predict_many(
            [PredictRequest(design=d, channel="both")
             for d in serve_designs])
        assert [r.batch_members for r in batched] == [3, 3, 3]
        for design, result in zip(serve_designs, batched):
            single = _engine().predict(
                PredictRequest(design=design, channel="both"))
            assert single.batch_members == 1
            for channel in ("h", "v"):
                assert np.allclose(result.grids[channel],
                                   single.grids[channel])

    def test_results_in_submission_order(self, serve_designs):
        engine = _engine()
        for i, design in enumerate(serve_designs):
            engine.submit(PredictRequest(design=design, request_id=i))
        results = engine.flush()
        assert [r.request_id for r in results] == [0, 1, 2]
        assert [r.name for r in results] == [d.name for d in serve_designs]

    def test_max_batch_bounds_forward_passes(self, serve_designs):
        engine = _engine(max_batch=2)
        results = engine.predict_many(list(serve_designs))
        assert sorted(r.batch_members for r in results) == [1, 2, 2]
        assert engine.stats()["forward_passes"] == 2

    def test_flush_empty_queue(self):
        assert _engine().flush() == []

    def test_truth_maps_present_for_pipeline_designs(self, serve_designs):
        result = _engine().predict(serve_designs[0])
        assert result.truth is not None
        assert result.truth["h"].shape == result.grids["h"].shape
        assert set(np.unique(result.truth["h"])) <= {0.0, 1.0}


class TestWarmCache:
    def test_warm_request_does_zero_stage_work(self, serve_designs):
        engine = _engine()
        reset_stage_calls()
        cold = engine.predict(serve_designs[0])
        assert not cold.cached
        assert STAGE_CALLS["place"] == 1 and STAGE_CALLS["route"] == 1
        reset_stage_calls()
        warm = engine.predict(serve_designs[0])
        assert warm.cached
        assert sum(STAGE_CALLS.values()) == 0
        assert np.allclose(cold.grids["h"], warm.grids["h"])

    def test_collation_memo_survives_sample_eviction(self, serve_designs):
        # The composition memo is keyed by content-addressed graph keys,
        # so it stays correct even when the SampleCache thrashes and the
        # original sample objects are gone (id()s may be recycled).
        engine = _engine(sample_cache=1)
        expected = {d.name: _engine().predict(
            PredictRequest(design=d, channel="both")).grids
            for d in serve_designs}
        for _ in range(3):
            results = engine.predict_many(
                [PredictRequest(design=d, channel="both")
                 for d in serve_designs])
            for result in results:
                assert np.allclose(result.grids["h"],
                                   expected[result.name]["h"])
                assert np.allclose(result.grids["v"],
                                   expected[result.name]["v"])
        assert engine.stats()["batch_cache"]["hits"] >= 1

    def test_discard_pending(self, serve_designs):
        engine = _engine()
        engine.submit(PredictRequest(design=serve_designs[0]))
        engine.submit(PredictRequest(design=serve_designs[1]))
        assert engine.discard_pending() == 2
        assert engine.pending == 0
        assert engine.flush() == []

    def test_disk_cache_spans_engines(self, serve_designs):
        # A second engine has a cold SampleCache but hits the staged
        # on-disk pipeline cache: no placement/routing re-runs.
        _engine().predict(serve_designs[1])
        reset_stage_calls()
        result = _engine().predict(serve_designs[1])
        assert not result.cached  # in-memory tier was cold...
        assert sum(STAGE_CALLS.values()) == 0  # ...but no stage re-ran

    def test_lru_eviction(self):
        cache = SampleCache(capacity=2)
        cache.put("a", "sa")
        cache.put("b", "sb")
        assert cache.get("a") == "sa"  # refreshes a
        cache.put("c", "sc")  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == "sa" and cache.get("c") == "sc"
        assert cache.stats()["entries"] == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SampleCache(capacity=0)


class TestRequestValidation:
    def test_needs_exactly_one_payload(self, serve_designs, small_graph):
        engine = _engine()
        with pytest.raises(ValueError, match="exactly one"):
            engine.submit(PredictRequest())
        with pytest.raises(ValueError, match="exactly one"):
            engine.submit(PredictRequest(design=serve_designs[0],
                                         graph=small_graph))
        assert engine.pending == 0

    def test_uni_channel_rejects_v(self, serve_designs):
        engine = _engine(channels=1)
        with pytest.raises(ValueError, match="duo-channel"):
            engine.submit(PredictRequest(design=serve_designs[0],
                                         channel="v"))

    def test_uni_channel_both_degrades_to_h(self, serve_designs):
        result = _engine(channels=1).predict(
            PredictRequest(design=serve_designs[0], channel="both"))
        assert sorted(result.grids) == ["h"]

    def test_unknown_channel(self, serve_designs):
        with pytest.raises(ValueError, match="unknown channel"):
            _engine().submit(PredictRequest(design=serve_designs[0],
                                            channel="x"))

    def test_predict_refuses_shared_queue(self, serve_designs):
        engine = _engine()
        engine.submit(PredictRequest(design=serve_designs[0]))
        with pytest.raises(RuntimeError, match="non-empty queue"):
            engine.predict(serve_designs[1])


class TestPreparedGraphRequests:
    def test_prepared_graph_bypasses_pipeline(self, small_graph):
        engine = _engine(channels=1)
        reset_stage_calls()
        result = engine.predict(PredictRequest(graph=small_graph))
        assert sum(STAGE_CALLS.values()) == 0
        assert not result.cached
        assert result.grids["h"].shape == (small_graph.nx, small_graph.ny)

    def test_mlp_family_serves_too(self, small_graph):
        model = MLPBaseline(hidden=8, rng=np.random.default_rng(1))
        engine = InferenceEngine(model,
                                 ServeConfig(pipeline=_fast_pipeline()))
        result = engine.predict(PredictRequest(graph=small_graph))
        assert engine.family == "mlp"
        assert np.all((result.grids["h"] >= 0) & (result.grids["h"] <= 1))


class TestConvFamiliesServePerDesign:
    def test_unet_never_image_batched(self, serve_designs):
        # A conv forward over the collated side-by-side image would read
        # across the die seam; the engine must therefore answer CNN
        # requests one forward pass each, and batched submission must
        # exactly match per-request prediction.
        from repro.models.unet import UNet
        model = UNet(base_width=4, rng=np.random.default_rng(2))
        engine = InferenceEngine(model,
                                 ServeConfig(pipeline=_fast_pipeline()))
        batched = engine.predict_many(list(serve_designs))
        assert all(r.batch_members == 1 for r in batched)
        for design, result in zip(serve_designs, batched):
            single = engine.predict(PredictRequest(design=design))
            assert np.allclose(result.grids["h"], single.grids["h"])


class TestPredictManyAtomicity:
    def test_invalid_request_rolls_back_the_batch(self, serve_designs):
        engine = _engine(channels=1)
        good = [PredictRequest(design=d) for d in serve_designs[:2]]
        bad = PredictRequest(design=serve_designs[2], channel="v")
        with pytest.raises(ValueError, match="duo-channel"):
            engine.predict_many([*good, bad])
        assert engine.pending == 0
        # A clean retry answers exactly the retried requests.
        results = engine.predict_many(good)
        assert [r.name for r in results] == [d.name for d in serve_designs[:2]]


class TestStats:
    def test_counters(self, serve_designs):
        engine = _engine()
        engine.predict_many(list(serve_designs))
        engine.predict_many(list(serve_designs))
        stats = engine.stats()
        assert stats["requests"] == 6
        assert stats["designs_prepared"] == 3
        assert stats["sample_cache"]["hits"] == 3
        assert stats["model_family"] == "lhnn"
        assert stats["pending"] == 0
