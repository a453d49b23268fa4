"""Aggregation layer: sweep manifest build/validate/write + rendering."""

import json
import os

import pytest
from sweep_utils import tiny_sweep_payload, write_stub_manifest

from repro.api import SpecError
from repro.sweep import (build_sweep_manifest, expand_grid, render_leaderboard,
                         run_sweep, sweep_manifest_path,
                         validate_sweep_manifest, write_sweep_manifest)
from repro.sweep.aggregate import SWEEP_SCHEMA
from repro.sweep.grid import sweep_from_dict


def make_sweep(tmp_path, **kwargs):
    return sweep_from_dict(tiny_sweep_payload(str(tmp_path), **kwargs))


def completed_sweep(tmp_path):
    sweep = make_sweep(tmp_path)
    for point in expand_grid(sweep):
        write_stub_manifest(point.spec)
    return sweep


class TestBuild:
    def test_complete_grid(self, tmp_path):
        sweep = completed_sweep(tmp_path)
        manifest = build_sweep_manifest(sweep)
        assert manifest["schema"] == SWEEP_SCHEMA
        assert manifest["complete"] is True
        assert manifest["grid_size"] == 4
        assert len(manifest["points"]) == 4
        assert len(manifest["leaderboard"]) == 4
        assert [e["rank"] for e in manifest["leaderboard"]] == [1, 2, 3, 4]
        f1s = [e["f1"] for e in manifest["leaderboard"]]
        assert f1s == sorted(f1s, reverse=True)
        for record in manifest["points"]:
            assert record["state"] == "done"
            assert record["seed_derived"] is True
            assert isinstance(record["metrics"]["f1"], float)

    def test_partial_grid(self, tmp_path):
        sweep = completed_sweep(tmp_path)
        victim = expand_grid(sweep)[2]
        os.remove(victim.spec.manifest_path())
        manifest = build_sweep_manifest(sweep)
        assert manifest["complete"] is False
        assert len(manifest["leaderboard"]) == 3
        states = {r["index"]: r["state"] for r in manifest["points"]}
        assert states[victim.index] == "pending"
        assert manifest["points"][victim.index]["metrics"] is None

    def test_legacy_named_manifest_is_pending(self, tmp_path):
        """A manifest is found only at experiments/<fingerprint>.json; a
        file under any other name never completes a point, even when it
        embeds the right fingerprint."""
        sweep = make_sweep(tmp_path)
        points = expand_grid(sweep)
        for point in points[:3]:
            write_stub_manifest(point.spec)
        legacy = os.path.join(str(tmp_path), "experiments",
                              "mlp-hotspot.json")
        write_stub_manifest(points[3].spec, path=legacy)
        manifest = build_sweep_manifest(sweep)
        assert manifest["complete"] is False
        record = manifest["points"][points[3].index]
        assert record["state"] == "pending"
        assert record["manifest_path"] is None

    def test_empty_grid_state(self, tmp_path):
        manifest = build_sweep_manifest(make_sweep(tmp_path))
        assert manifest["complete"] is False
        assert manifest["leaderboard"] == []
        assert all(r["state"] == "pending" for r in manifest["points"])

    def test_real_run_produces_valid_manifest(self, tmp_path,
                                              stub_executor):
        sweep = make_sweep(tmp_path)
        run_sweep(sweep, execute=stub_executor)
        manifest = build_sweep_manifest(sweep)
        assert manifest["complete"] is True
        assert validate_sweep_manifest(manifest) is manifest


class TestWrite:
    def test_write_and_read_back(self, tmp_path):
        sweep = completed_sweep(tmp_path)
        manifest = build_sweep_manifest(sweep)
        path = write_sweep_manifest(sweep, manifest)
        assert path == sweep_manifest_path(sweep)
        assert path.startswith(os.path.join(str(tmp_path), "experiments"))
        loaded = json.load(open(path))
        assert validate_sweep_manifest(loaded)["name"] == "unit"


class TestValidate:
    def valid(self, tmp_path):
        return build_sweep_manifest(completed_sweep(tmp_path))

    def test_wrong_schema(self, tmp_path):
        manifest = {**self.valid(tmp_path), "schema": "nope"}
        with pytest.raises(SpecError, match="schema"):
            validate_sweep_manifest(manifest)

    def test_missing_key(self, tmp_path):
        manifest = self.valid(tmp_path)
        del manifest["leaderboard"]
        with pytest.raises(SpecError, match="leaderboard"):
            validate_sweep_manifest(manifest)

    def test_points_grid_size_mismatch(self, tmp_path):
        manifest = self.valid(tmp_path)
        manifest["points"] = manifest["points"][:-1]
        with pytest.raises(SpecError, match="grid_size"):
            validate_sweep_manifest(manifest)

    def test_unknown_state(self, tmp_path):
        manifest = self.valid(tmp_path)
        manifest["points"][0]["state"] = "limbo"
        with pytest.raises(SpecError, match="unknown.*state|state"):
            validate_sweep_manifest(manifest)

    def test_done_without_metrics(self, tmp_path):
        manifest = self.valid(tmp_path)
        manifest["points"][0]["metrics"] = None
        with pytest.raises(SpecError, match="no metrics"):
            validate_sweep_manifest(manifest)

    def test_leaderboard_length_mismatch(self, tmp_path):
        manifest = self.valid(tmp_path)
        manifest["leaderboard"] = manifest["leaderboard"][:-1]
        with pytest.raises(SpecError, match="leaderboard has"):
            validate_sweep_manifest(manifest)

    def test_bad_rank_sequence(self, tmp_path):
        manifest = self.valid(tmp_path)
        manifest["leaderboard"][1]["rank"] = 9
        with pytest.raises(SpecError, match="rank"):
            validate_sweep_manifest(manifest)

    def test_unsorted_f1(self, tmp_path):
        manifest = self.valid(tmp_path)
        manifest["leaderboard"][-1]["f1"] = 101.0
        with pytest.raises(SpecError, match="sorted by F1"):
            validate_sweep_manifest(manifest)

    def test_complete_mismatch(self, tmp_path):
        manifest = self.valid(tmp_path)
        manifest["complete"] = False
        with pytest.raises(SpecError, match="complete"):
            validate_sweep_manifest(manifest)


class TestRender:
    def test_complete_leaderboard(self, tmp_path):
        manifest = build_sweep_manifest(completed_sweep(tmp_path))
        text = render_leaderboard(manifest)
        assert "Sweep 'unit': 4/4 grid point(s) done" in text
        assert "Best F1 % per family x suite" in text
        assert "mlp" in text and "gridsage" in text
        assert "Not yet on the leaderboard" not in text

    def test_partial_shows_missing_points(self, tmp_path):
        sweep = completed_sweep(tmp_path)
        os.remove(expand_grid(sweep)[0].spec.manifest_path())
        text = render_leaderboard(build_sweep_manifest(sweep))
        assert "3/4 grid point(s) done (incomplete)" in text
        assert "Not yet on the leaderboard" in text
        assert "pending" in text

    def test_empty_grid_renders_header_only(self, tmp_path):
        text = render_leaderboard(build_sweep_manifest(make_sweep(tmp_path)))
        assert "0/4 grid point(s) done (incomplete)" in text
