"""Tests for the perf harness: op timings, allocation counters, reporter.

The reporter tests are the tier-1 guard the CI nightly bench job relies
on: if ``write_bench_report`` ever emits JSON that ``load_bench_report``
rejects, or a tracked ``BENCH_*.json`` drifts from the loader, it fails
here on every push instead of in the nightly bench job.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import perf
from repro.nn import (Adam, ConvTranspose2d, Parameter, SparseMatrix, Tensor,
                      spmm)
from repro.perf.report import (BENCH_SCHEMA, REPORT_ENV, load_bench_report,
                               report_requested, speedup_entry,
                               write_bench_report)


@pytest.fixture(autouse=True)
def _clean_registry():
    perf.disable()
    perf.PERF.reset()
    yield
    perf.disable()
    perf.PERF.reset()


class TestRegistry:
    def test_disabled_records_nothing(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        spmm(SparseMatrix(np.eye(4)), x).sum().backward()
        assert perf.perf_report()["ops"] == {}

    def test_enable_capture_and_report(self):
        perf.enable()
        perf.PERF.record("stage", 0.25, nbytes=128)
        perf.PERF.record("stage", 0.5, nbytes=128)
        report = perf.perf_report()
        stat = report["ops"]["stage"]
        assert stat["calls"] == 2
        assert stat["total_s"] == pytest.approx(0.75)
        assert stat["mean_s"] == pytest.approx(0.375)
        assert stat["bytes_allocated"] == 256

    def test_enable_resets_by_default(self):
        perf.enable()
        perf.PERF.record("old", 1.0)
        perf.enable()
        assert "old" not in perf.perf_report()["ops"]
        perf.PERF.record("kept", 1.0)
        perf.enable(reset=False)
        assert "kept" in perf.perf_report()["ops"]

    def test_hot_ops_report_when_enabled(self):
        perf.enable()
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        op = SparseMatrix(np.eye(4))
        out = spmm(op, x).sum()
        out.backward()
        p = Parameter(np.ones(3))
        p.grad = np.ones(3)
        Adam([p], lr=0.1).step()
        ops = perf.perf_report()["ops"]
        assert "spmm.forward" in ops
        assert "spmm.backward" in ops
        assert "autograd.backward" in ops
        assert "optimizer.step" in ops

    def test_conv_transpose_reports_when_enabled(self):
        up = ConvTranspose2d(2, 1, 2, np.random.default_rng(0), stride=2)
        x = Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
        up(x).sum().backward()
        assert perf.perf_report()["ops"] == {}
        perf.enable()
        up(x).sum().backward()
        ops = perf.perf_report()["ops"]
        assert ops["conv_transpose2d.forward"]["calls"] == 1
        assert ops["conv_transpose2d.backward"]["calls"] == 1
        assert ops["conv_transpose2d.forward"]["bytes_allocated"] > 0
        # The decoder keeps its own names: nn.conv2d_s counts Conv2d only.
        assert not any(name.startswith("conv2d.") for name in ops)


class TestBenchReporter:
    def test_speedup_entry_math(self):
        entry = speedup_entry(float32_s=1.0, float64_s=2.0, note="x")
        assert entry["speedup_vs_float64"] == pytest.approx(2.0)
        assert entry["note"] == "x"

    def test_speedup_entry_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup_entry(0.0, 1.0)

    def test_write_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_nn.json")
        serve_entry = {"workers": 2, "requests": 8, "requests_per_s": 3.0,
                       "wall_s": 2.6, "p50_ms": 2142.7, "p99_ms": 2637.9,
                       "speedup": 0.76}
        store_entry = {"raw_read_s": 8.0e-5, "verified_read_s": 8.3e-5,
                       "overhead_ratio": 1.03, "payload_bytes": 24744}
        entries = {
            "train_epoch": speedup_entry(0.5, 1.0, f1_float32=40.0,
                                         f1_float64=40.2),
            "spmm": speedup_entry(0.001, 0.002),
            "cold_burst_2workers": serve_entry,
            "stage_graph_load": store_entry,
        }
        perf.enable()
        perf.PERF.record("spmm.forward", 0.001, 64)
        written = write_bench_report(path, entries,
                                     perf_ops=perf.perf_report(),
                                     context={"rounds": 3})
        assert written == path
        report = load_bench_report(path)
        assert report["schema"] == BENCH_SCHEMA
        assert report["entries"]["train_epoch"]["speedup_vs_float64"] \
            == pytest.approx(2.0)
        assert report["perf_ops"]["ops"]["spmm.forward"]["calls"] == 1
        assert report["context"]["rounds"] == 3
        assert report["entries"]["cold_burst_2workers"] == serve_entry
        assert report["entries"]["stage_graph_load"] == store_entry
        # The artifact must be plain parseable JSON for CI tooling.
        with open(path) as handle:
            assert json.load(handle)["entries"]

    def test_reports_written_only_on_request(self, monkeypatch):
        # Tracked BENCH_*.json files must not change under a plain run.
        monkeypatch.delenv(REPORT_ENV, raising=False)
        assert not report_requested()
        monkeypatch.setenv(REPORT_ENV, "0")
        assert not report_requested()
        monkeypatch.setenv(REPORT_ENV, "1")
        assert report_requested()

    def test_empty_entries_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_bench_report(str(tmp_path / "b.json"), {})

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other", "entries": {"a": {}}}))
        with pytest.raises(ValueError):
            load_bench_report(str(path))

    def test_load_rejects_non_numeric_timing(self, tmp_path):
        path = tmp_path / "bad2.json"
        # Every entry field must be a number, whatever its name.
        for entry in ({"float32_s": "fast"}, {"note": "fast"},
                      {"overhead_ratio": True}):
            path.write_text(json.dumps({"schema": BENCH_SCHEMA,
                                        "entries": {"a": entry}}))
            with pytest.raises(ValueError, match="is not a number"):
                load_bench_report(str(path))

    def test_load_rejects_non_dict_perf_ops(self, tmp_path):
        path = tmp_path / "bad3.json"
        path.write_text(json.dumps({"schema": BENCH_SCHEMA,
                                    "entries": {"a": {"wall_s": 1.0}},
                                    "perf_ops": ["spmm.forward"]}))
        with pytest.raises(ValueError, match="perf_ops"):
            load_bench_report(str(path))

    def test_invalid_report_is_not_written(self, tmp_path):
        path = str(tmp_path / "BENCH_serve.json")
        write_bench_report(path, {"a": {"p50_ms": 1.0}})
        with pytest.raises(ValueError, match="is not a number"):
            write_bench_report(path, {"a": {"p50_ms": "slow"}})
        # The previous report is left in place, still valid.
        assert load_bench_report(path)["entries"] == {"a": {"p50_ms": 1.0}}

    def test_tracked_reports_pass_the_loader(self):
        root = Path(__file__).resolve().parents[2]
        paths = sorted(root.glob("BENCH_*.json"))
        assert {p.name for p in paths} >= {
            "BENCH_nn.json", "BENCH_serve.json", "BENCH_store.json"}
        for path in paths:
            assert load_bench_report(str(path))["entries"]
