"""Spec layer: load, override, validate, fingerprint."""

import json
from pathlib import Path

import pytest

from repro.api import (ExperimentSpec, SpecError, apply_overrides,
                       dumps_spec, load_spec, spec_fingerprint,
                       spec_from_dict, spec_to_dict)

SMOKE_SPEC = Path(__file__).parents[2] / "examples" / "specs" / "smoke.toml"


class TestDefaultsAndRoundTrip:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.model.family == "lhnn"
        assert spec.workload.suite == "superblue"
        assert spec.train.epochs == 20
        assert spec.compute.dtype == "float32"

    def test_dict_round_trip(self):
        spec = ExperimentSpec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_partial_dict_takes_defaults(self):
        spec = spec_from_dict({"train": {"epochs": 3}})
        assert spec.train.epochs == 3
        assert spec.train.batch_size == 1
        assert spec.model.family == "lhnn"

    def test_derived_output_paths(self):
        spec = spec_from_dict({"model": {"family": "unet"},
                               "workload": {"suite": "hotspot"}})
        assert spec.experiment_name() == "unet-hotspot"
        assert spec.checkpoint_path().endswith("unet-hotspot.npz")
        # Manifests are fingerprint-named (never name-collidable), so
        # concurrent grid points can share one artifacts_dir.
        assert spec.manifest_path().endswith(
            f"experiments/{spec_fingerprint(spec)}.json")

    def test_manifest_path_honours_explicit_override(self):
        spec = spec_from_dict({"output": {"manifest": "out/custom.json"}})
        assert spec.manifest_path() == "out/custom.json"

    def test_dumps_is_canonical_json(self):
        payload = json.loads(dumps_spec(ExperimentSpec()))
        assert set(payload) == {"workload", "model", "train", "compute",
                                "output"}


class TestFileLoading:
    def test_load_toml(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text("[model]\nfamily = 'gridsage'\n"
                        "[model.params]\nhidden = 16\n"
                        "[train]\nepochs = 2\n")
        spec = load_spec(str(path))
        assert spec.model.family == "gridsage"
        assert spec.model.params == {"hidden": 16}
        assert spec.train.epochs == 2

    def test_load_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"workload": {"suite": "hotspot",
                                                 "count": 2}}))
        spec = load_spec(str(path))
        assert spec.workload.suite == "hotspot"
        assert spec.workload.count == 2

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("a: 1\n")
        with pytest.raises(SpecError, match="unsupported spec format"):
            load_spec(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec"):
            load_spec(str(tmp_path / "absent.toml"))

    def test_malformed_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[model\nfamily=")
        with pytest.raises(SpecError, match="cannot parse spec"):
            load_spec(str(path))

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[model]\nfamily = 'nope'\n")
        with pytest.raises(SpecError, match="bad.toml"):
            load_spec(str(path))


class TestValidation:
    def test_unknown_section(self):
        with pytest.raises(SpecError, match=r"unknown section \[models\]"):
            spec_from_dict({"models": {}})

    def test_unknown_key(self):
        with pytest.raises(SpecError, match="train.'epoch'|epoch"):
            spec_from_dict({"train": {"epoch": 5}})

    def test_wrong_type(self):
        with pytest.raises(SpecError, match="train.epochs must be int"):
            spec_from_dict({"train": {"epochs": "ten"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(SpecError, match="got bool"):
            spec_from_dict({"train": {"epochs": True}})

    def test_int_accepted_where_float_declared(self):
        spec = spec_from_dict({"workload": {"scale": 1}})
        assert spec.workload.scale == 1.0

    def test_unknown_family_lists_registered(self):
        with pytest.raises(SpecError, match="unknown model family 'resnet'"):
            spec_from_dict({"model": {"family": "resnet"}})

    def test_unknown_suite_lists_registered(self):
        with pytest.raises(SpecError, match="unknown workload 'ispd'"):
            spec_from_dict({"workload": {"suite": "ispd"}})

    def test_bad_channels(self):
        with pytest.raises(SpecError, match="channels must be 1"):
            spec_from_dict({"model": {"channels": 3}})

    def test_bad_dtype(self):
        with pytest.raises(SpecError, match="compute.dtype"):
            spec_from_dict({"compute": {"dtype": "float16"}})

    def test_bad_ranges(self):
        with pytest.raises(SpecError, match="train.epochs must be >= 1"):
            spec_from_dict({"train": {"epochs": 0}})
        with pytest.raises(SpecError, match="workload.scale must be > 0"):
            spec_from_dict({"workload": {"scale": 0.0}})
        for crop in (0, -4):
            with pytest.raises(SpecError,
                               match="train.crop must be >= 1 or null"):
                spec_from_dict({"train": {"crop": crop}})

    def test_params_must_be_table(self):
        with pytest.raises(SpecError, match="model.params must be a table"):
            spec_from_dict({"model": {"params": 5}})

    def test_params_cannot_smuggle_channels(self):
        """channels lives in model.channels (the dataset is built from
        it); a params override would desync model from targets."""
        with pytest.raises(SpecError, match="model.params.channels"):
            spec_from_dict({"model": {"params": {"channels": 2}}})
        with pytest.raises(SpecError, match="model.params.channels"):
            apply_overrides(ExperimentSpec(), ["model.params.channels=2"])


class TestOverrides:
    def test_scalar_overrides(self):
        spec = apply_overrides(ExperimentSpec(), [
            "train.epochs=5", "workload.scale=0.5", "model.family=unet",
            "train.verbose=true", "train.crop=null"])
        assert spec.train.epochs == 5
        assert spec.workload.scale == 0.5
        assert spec.model.family == "unet"
        assert spec.train.verbose is True
        assert spec.train.crop is None

    def test_params_namespace_is_open(self):
        spec = apply_overrides(ExperimentSpec(),
                               ["model.params.hidden=16",
                                "model.params.use_jointing=false"])
        assert spec.model.params == {"hidden": 16, "use_jointing": False}

    def test_deep_path_through_scalar_param_rejected(self):
        """model.params.hidden.units=8 must not silently turn the scalar
        'hidden' into a table — it must fail at spec time."""
        spec = apply_overrides(ExperimentSpec(), ["model.params.hidden=16"])
        with pytest.raises(SpecError, match="'hidden' is not a table"):
            apply_overrides(spec, ["model.params.hidden.units=8"])

    def test_string_values_need_no_quoting(self):
        spec = apply_overrides(ExperimentSpec(),
                               ["output.checkpoint=artifacts/x.npz"])
        assert spec.output.checkpoint == "artifacts/x.npz"

    def test_input_spec_is_untouched(self):
        spec = ExperimentSpec()
        apply_overrides(spec, ["train.epochs=7"])
        assert spec.train.epochs == 20

    def test_malformed_assignment(self):
        with pytest.raises(SpecError, match="must look like"):
            apply_overrides(ExperimentSpec(), ["train.epochs"])

    def test_undotted_path(self):
        with pytest.raises(SpecError, match="must be dotted"):
            apply_overrides(ExperimentSpec(), ["epochs=5"])

    def test_unknown_path(self):
        with pytest.raises(SpecError, match="unknown path component"):
            apply_overrides(ExperimentSpec(), ["nope.epochs=5"])

    def test_unknown_key(self):
        with pytest.raises(SpecError, match="unknown key"):
            apply_overrides(ExperimentSpec(), ["train.nope=5"])

    def test_override_type_error_is_validated(self):
        with pytest.raises(SpecError, match="must be int"):
            apply_overrides(ExperimentSpec(), ["train.epochs=many"])


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = ExperimentSpec()
        b = ExperimentSpec()
        assert spec_fingerprint(a) == spec_fingerprint(b)
        c = apply_overrides(a, ["train.epochs=21"])
        assert spec_fingerprint(c) != spec_fingerprint(a)

    def test_output_paths_do_not_change_fingerprint(self):
        a = ExperimentSpec()
        b = apply_overrides(a, ["output.name=elsewhere",
                                "output.checkpoint=/tmp/x.npz"])
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_execution_only_knobs_do_not_change_fingerprint(self):
        """verbose / workers / use_cache change how a run executes, not
        what it computes (workers is bit-identical by the PR 2
        parallel-equivalence guarantee)."""
        a = ExperimentSpec()
        b = apply_overrides(a, ["train.verbose=true",
                                "workload.workers=4",
                                "workload.use_cache=false"])
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_pinned_values(self):
        """Fingerprints name result manifests and seed unpinned sweep
        points, so reshaping the spec's types must not move them."""
        assert spec_fingerprint(ExperimentSpec()) == \
            "7e679d8ea8d88cd5d52acb48ea8f0bf7"
        assert spec_fingerprint(load_spec(str(SMOKE_SPEC))) == \
            "6d86e1d8c8aac71d1a493a33f23c5e7b"

    def test_key_order_independent(self):
        a = spec_from_dict({"train": {"epochs": 3, "seed": 1}})
        b = spec_from_dict({"train": {"seed": 1, "epochs": 3}})
        assert spec_fingerprint(a) == spec_fingerprint(b)
