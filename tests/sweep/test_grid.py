"""Grid layer: sweep parsing, cartesian expansion, seed derivation."""

import pytest

from repro.api import SpecError, spec_fingerprint
from repro.sweep import expand_grid, load_sweep, sweep_fingerprint
from repro.sweep.grid import (derive_point_seed, seed_basis_fingerprint,
                              sweep_from_dict)

from sweep_utils import tiny_sweep_payload


class TestParsing:
    def test_inline_base_and_axes(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        assert sweep.name == "unit"
        assert sweep.base.workload.suite == "hotspot"
        assert sweep.grid_size() == 4
        assert sweep.artifacts_dir == str(tmp_path)
        assert not sweep.seed_pinned

    def test_base_as_relative_path(self, tmp_path):
        (tmp_path / "base.toml").write_text(
            "[workload]\nsuite = 'hotspot'\ncount = 2\nscale = 0.2\n"
            "[model]\nfamily = 'mlp'\n")
        sweep_file = tmp_path / "sweep.toml"
        sweep_file.write_text(
            "name = 'from-path'\n"
            "base = 'base.toml'\n"
            "[axes]\n\"train.epochs\" = [1, 2]\n")
        sweep = load_sweep(str(sweep_file))
        assert sweep.base.workload.suite == "hotspot"
        assert sweep.grid_size() == 2

    def test_base_overrides_apply_before_expansion(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)),
                                base_overrides=["workload.count=3"])
        assert sweep.base.workload.count == 3

    def test_unknown_top_level_key(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path))
        payload["grid"] = {}
        with pytest.raises(SpecError, match="unknown sweep key 'grid'"):
            sweep_from_dict(payload)

    def test_base_must_not_pin_checkpoint(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path))
        payload["base"]["output"]["checkpoint"] = "x.npz"
        with pytest.raises(SpecError, match="must not pin"):
            sweep_from_dict(payload)

    def test_base_must_not_pin_manifest(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path))
        payload["base"]["output"]["manifest"] = "x.json"
        with pytest.raises(SpecError, match="must not pin"):
            sweep_from_dict(payload)

    def test_base_wrong_type(self):
        with pytest.raises(SpecError, match="spec table or a path"):
            sweep_from_dict({"base": 5, "axes": {"train.epochs": [1]}})

    def test_empty_axes_rejected(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path), axes={})
        with pytest.raises(SpecError, match=r"\[axes\] must be"):
            sweep_from_dict(payload)

    def test_missing_axes_rejected(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path))
        del payload["axes"]
        with pytest.raises(SpecError, match=r"\[axes\] must be"):
            sweep_from_dict(payload)

    def test_undotted_axis_path(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path), axes={"epochs": [1]})
        with pytest.raises(SpecError, match="must be dotted"):
            sweep_from_dict(payload)

    @pytest.mark.parametrize("path", ["output.name", "train.verbose",
                                      "workload.workers",
                                      "workload.use_cache"])
    def test_execution_only_axes_rejected(self, tmp_path, path):
        payload = tiny_sweep_payload(str(tmp_path),
                                     axes={path: [1, 2]})
        with pytest.raises(SpecError, match="does not affect results"):
            sweep_from_dict(payload)

    def test_empty_axis_values(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path),
                                     axes={"train.epochs": []})
        with pytest.raises(SpecError, match="non-empty list"):
            sweep_from_dict(payload)

    def test_duplicate_axis_values(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path),
                                     axes={"train.epochs": [1, 1]})
        with pytest.raises(SpecError, match="twice"):
            sweep_from_dict(payload)

    def test_load_sweep_names_the_file_on_error(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("name = 'x'\n[axes]\n\"epochs\" = [1]\n")
        with pytest.raises(SpecError, match="bad.toml"):
            load_sweep(str(bad))

    def test_load_sweep_unsupported_extension(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text("a: 1\n")
        with pytest.raises(SpecError, match="unsupported sweep format"):
            load_sweep(str(path))


class TestExpansion:
    def test_file_order_last_axis_fastest(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        points = expand_grid(sweep)
        combos = [(p.axes["model.family"], p.axes["train.epochs"])
                  for p in points]
        assert combos == [("mlp", 1), ("mlp", 2),
                          ("gridsage", 1), ("gridsage", 2)]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_axes_applied_to_specs(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        points = expand_grid(sweep)
        assert points[3].spec.model.family == "gridsage"
        assert points[3].spec.train.epochs == 2
        # Base knobs survive expansion untouched.
        assert all(p.spec.workload.count == 2 for p in points)

    def test_fingerprints_unique_and_stable(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        a = expand_grid(sweep)
        b = expand_grid(sweep)
        assert len({p.fingerprint for p in a}) == 4
        assert [p.fingerprint for p in a] == [p.fingerprint for p in b]
        for point in a:
            assert point.fingerprint == spec_fingerprint(point.spec)

    def test_checkpoints_routed_by_fingerprint(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        for point in expand_grid(sweep):
            assert point.spec.output.checkpoint.endswith(
                f"checkpoints/{point.fingerprint}.npz")
            assert point.spec.manifest_path().endswith(
                f"experiments/{point.fingerprint}.json")

    def test_invalid_axis_value_names_the_point(self, tmp_path):
        payload = tiny_sweep_payload(
            str(tmp_path), axes={"model.family": ["mlp", "resnet"]})
        sweep = sweep_from_dict(payload)
        with pytest.raises(SpecError, match="grid point 1"):
            expand_grid(sweep)

    def test_unknown_axis_path_fails_at_expansion(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path),
                                     axes={"train.nope": [1, 2]})
        sweep = sweep_from_dict(payload)
        with pytest.raises(SpecError, match="unknown key"):
            expand_grid(sweep)

    def test_label(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        assert expand_grid(sweep)[0].label() == "mlp 1"


class TestSeedDerivation:
    def test_derive_point_seed_is_pure_arithmetic(self):
        assert derive_point_seed("deadbeef" + "0" * 56) == \
            0xDEADBEEF % (2 ** 31)
        assert derive_point_seed("0" * 64) == 0

    def test_derived_seeds_in_31_bit_range(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        for point in expand_grid(sweep):
            assert 0 <= point.seed < 2 ** 31

    def test_seeds_deterministic_and_embedded(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        a = expand_grid(sweep)
        b = expand_grid(sweep)
        assert [p.seed for p in a] == [p.seed for p in b]
        for point in a:
            assert point.seed_derived
            assert point.spec.train.seed == point.seed

    def test_distinct_points_get_distinct_seeds(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        seeds = [p.seed for p in expand_grid(sweep)]
        assert len(set(seeds)) == len(seeds)

    def test_seed_basis_excludes_the_seed_itself(self, tmp_path):
        from repro.api import apply_overrides
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        spec = expand_grid(sweep)[0].spec
        reseeded = apply_overrides(spec, ["train.seed=99"])
        assert seed_basis_fingerprint(spec) == \
            seed_basis_fingerprint(reseeded)
        changed = apply_overrides(spec, ["train.lr=0.9"])
        assert seed_basis_fingerprint(spec) != \
            seed_basis_fingerprint(changed)

    def test_pinned_seed_in_base_disables_derivation(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path))
        payload["base"]["train"]["seed"] = 7
        sweep = sweep_from_dict(payload)
        assert sweep.seed_pinned
        for point in expand_grid(sweep):
            assert point.seed == 7
            assert not point.seed_derived

    def test_seed_axis_counts_as_pinned(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path),
                                     axes={"train.seed": [1, 2]})
        sweep = sweep_from_dict(payload)
        assert sweep.seed_pinned
        assert [p.seed for p in expand_grid(sweep)] == [1, 2]

    def test_seed_override_counts_as_pinned(self, tmp_path):
        sweep = sweep_from_dict(tiny_sweep_payload(str(tmp_path)),
                                base_overrides=["train.seed=11"])
        assert sweep.seed_pinned
        assert all(p.seed == 11 for p in expand_grid(sweep))


class TestSweepFingerprint:
    def test_independent_of_output_paths(self, tmp_path):
        a = sweep_from_dict(tiny_sweep_payload(str(tmp_path / "a")))
        b = sweep_from_dict(tiny_sweep_payload(str(tmp_path / "b")))
        assert sweep_fingerprint(a) == sweep_fingerprint(b)

    def test_sensitive_to_axes(self, tmp_path):
        a = sweep_from_dict(tiny_sweep_payload(str(tmp_path)))
        b = sweep_from_dict(tiny_sweep_payload(
            str(tmp_path), axes={"model.family": ["mlp", "gridsage"]}))
        assert sweep_fingerprint(a) != sweep_fingerprint(b)

    def test_sensitive_to_base(self, tmp_path):
        payload = tiny_sweep_payload(str(tmp_path))
        a = sweep_from_dict(payload)
        payload["base"]["train"]["epochs"] = 9
        b = sweep_from_dict(payload)
        assert sweep_fingerprint(a) != sweep_fingerprint(b)
