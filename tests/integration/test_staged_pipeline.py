"""Staged-pipeline tests: per-stage cache, manifests, workloads, parallelism.

Covers the cache layer of :mod:`repro.pipeline`: per-stage hit/miss
accounting, resume after a simulated mid-suite crash, fingerprint
stability across process restarts, parallel == sequential output
equivalence, the workload registry, and lazy manifest consumption by the
dataset.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.pipeline as pl
import repro.pipeline.runner as runner_mod
from repro.circuit import DesignSpec, generate_design, superblue_suite
from repro.pipeline import (ManifestGraphs, PipelineConfig, StageCache,
                            STAGE_CALLS, design_fingerprint, get_workload,
                            list_workloads, load_workload, prepare_design,
                            prepare_designs, prepare_workload,
                            register_workload, reset_stage_calls,
                            stage_keys_for)
from repro.placement import PlacementConfig
from repro.routing import RouterConfig


def tiny_config(**overrides) -> PipelineConfig:
    base = dict(scale=0.15, use_cache=True,
                placement=PlacementConfig(outer_iterations=1),
                router=RouterConfig(nx=8, ny=8, rrr_iterations=1))
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture()
def cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return str(tmp_path)


@pytest.fixture()
def tiny_designs():
    return superblue_suite(scale=0.15)[:3]


class TestStageCache:
    def test_cold_run_executes_all_stages(self, cache_dir, tiny_designs):
        reset_stage_calls()
        cache = StageCache(cache_dir)
        prepare_designs(tiny_designs, tiny_config(), cache=cache)
        n = len(tiny_designs)
        assert STAGE_CALLS["place"] == n
        assert STAGE_CALLS["route"] == n
        assert STAGE_CALLS["graph"] == n
        assert cache.stores == 3 * n

    def test_warm_run_does_zero_stage_work(self, cache_dir, tiny_designs):
        cfg = tiny_config()
        first, _ = prepare_designs(tiny_designs, cfg)
        reset_stage_calls()
        cache = StageCache(cache_dir)
        second, _ = prepare_designs(tiny_designs, cfg, cache=cache)
        assert STAGE_CALLS["place"] == 0
        assert STAGE_CALLS["route"] == 0
        assert STAGE_CALLS["graph"] == 0
        assert cache.hits == len(tiny_designs)  # one graph blob each
        for a, b in zip(first, second):
            assert np.array_equal(a.vc, b.vc)
            assert np.array_equal(a.congestion, b.congestion)

    def test_router_change_keeps_placement_cached(self, cache_dir,
                                                  tiny_designs):
        design = tiny_designs[0]
        prepare_design(design, tiny_config())
        reset_stage_calls()
        changed = tiny_config(router=RouterConfig(nx=8, ny=8,
                                                  rrr_iterations=2))
        prepare_design(design, changed)
        assert STAGE_CALLS["place"] == 0
        assert STAGE_CALLS["route"] == 1
        assert STAGE_CALLS["graph"] == 1

    def test_graph_param_change_reuses_routing(self, cache_dir, tiny_designs):
        design = tiny_designs[0]
        prepare_design(design, tiny_config())
        reset_stage_calls()
        prepare_design(design, tiny_config(max_gnet_fraction=0.5))
        assert STAGE_CALLS["place"] == 0
        assert STAGE_CALLS["route"] == 0
        assert STAGE_CALLS["graph"] == 1

    def test_resume_after_mid_suite_crash(self, cache_dir, tiny_designs):
        cfg = tiny_config()
        crash_name = tiny_designs[-1].name
        real_graph_stage = runner_mod.run_graph_stage

        def faulting(design, routing, config):
            if design.name == crash_name:
                raise RuntimeError("simulated crash")
            return real_graph_stage(design, routing, config)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner_mod, "run_graph_stage", faulting)
            with pytest.raises(RuntimeError, match="simulated crash"):
                prepare_designs(tiny_designs, cfg)

        # Resume: earlier designs hit the cache entirely; the crashed one
        # re-uses its already-persisted place/route products.
        reset_stage_calls()
        graphs, _ = prepare_designs(tiny_designs, cfg)
        assert len(graphs) == len(tiny_designs)
        assert STAGE_CALLS["place"] == 0
        assert STAGE_CALLS["route"] == 0
        assert STAGE_CALLS["graph"] == 1

    def test_corrupt_entry_is_a_miss(self, cache_dir, tiny_designs):
        cfg = tiny_config()
        design = tiny_designs[0]
        prepare_design(design, cfg)
        cache = StageCache(cache_dir)
        keys = stage_keys_for(design, cfg)
        with open(cache._path(keys["graph"]), "wb") as handle:
            handle.write(b"not a pickle")
        reset_stage_calls()
        graph = prepare_design(design, cfg)
        assert STAGE_CALLS["graph"] == 1  # recomputed
        assert graph.congestion is not None

    def test_disabled_cache_stores_nothing(self, cache_dir, tiny_designs):
        cfg = tiny_config(use_cache=False)
        prepare_design(tiny_designs[0], cfg)
        assert not os.path.exists(os.path.join(cache_dir, "objects"))


class TestFingerprints:
    def test_design_fingerprint_content_addressed(self, tiny_designs):
        a = design_fingerprint(tiny_designs[0])
        b = design_fingerprint(tiny_designs[0].copy())
        assert a == b
        moved = tiny_designs[0].copy()
        moved.cell_x = moved.cell_x + 1.0
        assert design_fingerprint(moved) != a

    def test_stage_keys_chain(self, tiny_designs):
        cfg = tiny_config()
        keys = stage_keys_for(tiny_designs[0], cfg)
        changed = stage_keys_for(tiny_designs[0],
                                 tiny_config(router=RouterConfig(
                                     nx=8, ny=8, rrr_iterations=3)))
        assert keys["place"] == changed["place"]
        assert keys["route"] != changed["route"]
        assert keys["graph"] != changed["graph"]

    def test_schema_version_invalidates(self, monkeypatch):
        import repro.pipeline.config as config_mod
        before = PipelineConfig().fingerprint()
        monkeypatch.setattr(config_mod, "SCHEMA_VERSION", 9999)
        assert PipelineConfig().fingerprint() != before

    def test_fingerprint_stable_across_process_restarts(self):
        cfg_fp = PipelineConfig().fingerprint()
        script = ("from repro.pipeline import PipelineConfig;"
                  "print(PipelineConfig().fingerprint())")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == cfg_fp


class TestParallelPreparation:
    @pytest.mark.slow
    def test_parallel_matches_sequential_bitwise(self, tiny_designs):
        cfg = tiny_config(use_cache=False)
        seq, seq_entries = prepare_designs(tiny_designs, cfg, workers=1,
                                           cache=StageCache(None))
        par, par_entries = prepare_designs(tiny_designs, cfg, workers=4,
                                           cache=StageCache(None))
        for a, b in zip(seq, par):
            assert a.name == b.name
            assert np.array_equal(a.vc, b.vc)
            assert np.array_equal(a.vn, b.vn)
            assert np.array_equal(a.demand, b.demand)
            assert np.array_equal(a.congestion, b.congestion)
        assert seq_entries == par_entries

    @pytest.mark.slow
    def test_parallel_workers_share_cache(self, cache_dir, tiny_designs):
        cfg = tiny_config()
        prepare_designs(tiny_designs, cfg, workers=2)
        reset_stage_calls()
        graphs, _ = prepare_designs(tiny_designs, cfg, workers=1)
        assert STAGE_CALLS["place"] == 0  # parent reads workers' blobs
        assert len(graphs) == len(tiny_designs)


class TestPrepareDesignMutation:
    def test_input_design_not_mutated(self, cache_dir):
        design = generate_design(DesignSpec(name="mut", seed=11,
                                            num_movable=100, die_size=32.0))
        x0, y0 = design.cell_x.copy(), design.cell_y.copy()
        prepare_design(design, tiny_config())
        assert np.array_equal(design.cell_x, x0)
        assert np.array_equal(design.cell_y, y0)


class TestWorkloads:
    def test_builtin_registry(self):
        names = [w.name for w in list_workloads()]
        for expected in ("superblue", "macro-heavy", "hotspot", "bookshelf"):
            assert expected in names

    def test_unknown_workload_lists_known(self):
        with pytest.raises(KeyError, match="superblue"):
            get_workload("nope")

    def test_scenario_families_distinct(self):
        cfg = tiny_config()
        macro = load_workload("macro-heavy", cfg, count=2)
        hot = load_workload("hotspot", cfg, count=2)
        assert macro[0].name.startswith("macroheavy")
        assert hot[0].name.startswith("hotspot")
        # Macro-heavy designs carry far more fixed macro area.
        def macro_area(d):
            big = d.cell_fixed & (d.cell_w > 2.0)
            return float((d.cell_w[big] * d.cell_h[big]).sum())
        assert macro_area(macro[0]) > macro_area(hot[0])

    def test_register_and_prepare_custom_workload(self, cache_dir):
        @register_workload("tiny-custom", "test-only workload")
        def _tiny(config, count=1):
            return [generate_design(DesignSpec(name=f"custom{i}",
                                               seed=40 + i, num_movable=80,
                                               die_size=32.0))
                    for i in range(count)]
        try:
            graphs = prepare_workload("tiny-custom", tiny_config(), count=2)
            assert [g.name for g in graphs] == ["custom0", "custom1"]
        finally:
            pl.workloads._REGISTRY.pop("tiny-custom", None)

    def test_bookshelf_workload_roundtrip(self, cache_dir, tmp_path):
        from repro.circuit import write_design
        bs_dir = tmp_path / "bs"
        for i in range(2):
            d = generate_design(DesignSpec(name=f"bs{i}", seed=50 + i,
                                           num_movable=80, die_size=32.0))
            write_design(d, str(bs_dir))
        graphs = prepare_workload("bookshelf", tiny_config(),
                                  root=str(bs_dir))
        assert len(graphs) == 2
        assert all(g.congestion is not None for g in graphs)

    def test_bookshelf_requires_root(self):
        with pytest.raises(ValueError, match="root"):
            load_workload("bookshelf", tiny_config())


class TestManifestsAndLazyDataset:
    def test_manifest_written_and_reused(self, cache_dir):
        cfg = tiny_config()
        prepare_workload("hotspot", cfg, count=2)
        reset_stage_calls()
        lazy = prepare_workload("hotspot", cfg, count=2, lazy=True)
        assert isinstance(lazy, ManifestGraphs)
        assert STAGE_CALLS["place"] == 0 and STAGE_CALLS["route"] == 0
        assert lazy.names == ["hotspot0", "hotspot1"]

    def test_lazy_graphs_load_on_access_only(self, cache_dir):
        cfg = tiny_config()
        prepare_workload("hotspot", cfg, count=2)
        lazy = prepare_workload("hotspot", cfg, count=2, lazy=True)
        rates = lazy.congestion_rates(0)
        assert len(rates) == 2
        assert lazy._graphs == [None, None]  # metadata answered without I/O
        g = lazy[1]
        assert g.name == "hotspot1"
        assert lazy._graphs[0] is None  # sibling untouched
        assert lazy[1] is g  # memoised

    def test_cold_lazy_view_is_preseeded(self, cache_dir):
        lazy = prepare_workload("hotspot", tiny_config(), count=2, lazy=True)
        assert isinstance(lazy, ManifestGraphs)
        # The graphs just computed seed the memo: no re-deserialisation.
        assert all(g is not None for g in lazy._graphs)

    def test_corrupt_manifest_is_a_miss(self, cache_dir):
        import glob as globmod
        import json
        cfg = tiny_config()
        prepare_workload("hotspot", cfg, count=2)
        (manifest_path,) = globmod.glob(os.path.join(cache_dir, "manifests",
                                                     "*.json"))
        with open(manifest_path) as handle:
            payload = json.load(handle)
        payload["entries"][0]["renamed_field"] = payload["entries"][0].pop(
            "graph_key")  # schema drift → ManifestEntry(**e) TypeError
        with open(manifest_path, "w") as handle:
            json.dump(payload, handle)
        graphs = prepare_workload("hotspot", cfg, count=2)  # must not crash
        assert len(graphs) == 2

    def test_dataset_consumes_manifest_lazily(self, cache_dir):
        from repro.data import CongestionDataset
        cfg = tiny_config()
        prepare_workload("hotspot", cfg, count=4)
        lazy = prepare_workload("hotspot", cfg, count=4, lazy=True)
        ds = CongestionDataset(lazy, channels=1)
        assert lazy._graphs == [None] * 4  # construction loads nothing
        split = ds.split  # rates come from the manifest
        assert lazy._graphs == [None] * 4
        sample = ds.sample(0)
        assert sample.cls_target.shape[1] == 1
        assert sum(g is not None for g in lazy._graphs) == 1

    def test_dataset_still_validates_eager_lists(self, small_graph):
        from repro.data import CongestionDataset
        import dataclasses
        unlabelled = dataclasses.replace(small_graph, congestion=None,
                                         demand=None)
        with pytest.raises(ValueError, match="unlabelled"):
            CongestionDataset([unlabelled])
