"""Integration tests: the full netlist → LH-graph pipeline and caching."""

import numpy as np
import pytest

from repro.circuit import DesignSpec, generate_design
from repro.pipeline import PipelineConfig, default_cache_dir, prepare_design
from repro.placement import PlacementConfig
from repro.routing import RouterConfig


class TestPrepareDesign:
    def test_labelled_graph_produced(self, tiny_graph_suite):
        g = tiny_graph_suite[0]
        assert g.demand is not None
        assert g.congestion is not None
        assert g.metadata["num_segments"] > 0

    def test_grid_dimensions_respected(self, tiny_pipeline_config,
                                       tiny_graph_suite):
        g = tiny_graph_suite[0]
        assert g.nx == tiny_pipeline_config.router.nx
        assert g.ny == tiny_pipeline_config.router.ny

    def test_deterministic(self, tiny_pipeline_config):
        spec = DesignSpec(name="det", seed=71, num_movable=120, die_size=32.0)
        g1 = prepare_design(generate_design(spec), tiny_pipeline_config)
        g2 = prepare_design(generate_design(spec), tiny_pipeline_config)
        assert np.allclose(g1.vc, g2.vc)
        assert np.allclose(g1.demand, g2.demand)
        assert np.array_equal(g1.congestion, g2.congestion)

    def test_congestion_varies_with_capacity(self):
        spec = DesignSpec(name="capvar", seed=72, num_movable=150,
                          die_size=32.0, utilization=0.5)
        base = PlacementConfig(outer_iterations=2)
        lo = PipelineConfig(use_cache=False,
                            placement=base,
                            router=RouterConfig(nx=16, ny=16,
                                                capacity_h=5.0,
                                                capacity_v=5.0,
                                                rrr_iterations=1))
        hi = PipelineConfig(use_cache=False,
                            placement=base,
                            router=RouterConfig(nx=16, ny=16,
                                                capacity_h=20.0,
                                                capacity_v=20.0,
                                                rrr_iterations=1))
        g_lo = prepare_design(generate_design(spec), lo)
        g_hi = prepare_design(generate_design(spec), hi)
        assert g_lo.congestion_rate(0) >= g_hi.congestion_rate(0)

    def test_demand_nonnegative_and_finite(self, tiny_graph_suite):
        for g in tiny_graph_suite:
            assert np.isfinite(g.demand).all()
            assert (g.demand >= 0).all()


class TestPipelineConfig:
    def test_fingerprint_stable(self):
        assert (PipelineConfig().fingerprint()
                == PipelineConfig().fingerprint())

    def test_fingerprint_sensitive_to_params(self):
        a = PipelineConfig(router=RouterConfig(nx=32))
        b = PipelineConfig(router=RouterConfig(nx=16))
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_recurses_into_nested_dataclasses(self):
        a = PipelineConfig(router=RouterConfig(rrr_iterations=4))
        b = PipelineConfig(router=RouterConfig(rrr_iterations=5))
        c = PipelineConfig(placement=PlacementConfig(anchor_weight=0.2))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_fingerprint_is_hex_digest(self):
        fp = PipelineConfig().fingerprint()
        assert len(fp) == 32
        int(fp, 16)  # raises if not hex

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)


class TestSuiteCaching:
    def test_cache_roundtrip(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cfg = PipelineConfig(scale=0.15, use_cache=True,
                             placement=PlacementConfig(outer_iterations=1),
                             router=RouterConfig(nx=8, ny=8,
                                                 rrr_iterations=1))
        # Patch the suite to only 2 designs for speed.
        import repro.pipeline as pl
        orig = pl.superblue_suite
        monkeypatch.setattr(pl, "superblue_suite",
                            lambda scale, base_seed: orig(scale, base_seed)[:2])
        first = pl.prepare_workload("superblue", cfg)
        second = pl.prepare_workload("superblue", cfg)  # from cache
        assert len(first) == len(second) == 2
        assert np.allclose(first[0].vc, second[0].vc)
