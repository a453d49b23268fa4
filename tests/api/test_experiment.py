"""`run_experiment`: the five-family smoke matrix and its artifacts."""

import json

import numpy as np
import pytest

from repro.api import (ExperimentSpec, SpecError, apply_overrides,
                       load_dataset, run_experiment, spec_fingerprint,
                       validate_result_manifest)
from repro.data import CongestionDataset

#: Per-family tiny construction knobs so the smoke matrix stays fast.
FAMILY_PARAMS = {
    "lhnn": ["model.params.hidden=8"],
    "mlp": ["model.params.hidden=8"],
    "gridsage": ["model.params.hidden=8"],
    "unet": ["model.params.base_width=4"],
    "pix2pix": ["model.params.base_width=4"],
}


@pytest.fixture(scope="module")
def dataset(tiny_graph_suite):
    """A 2-design workload (1 train / 1 test after the balanced split)."""
    return CongestionDataset(tiny_graph_suite[:2], channels=1)


def tiny_spec(family: str, tmp_path, extra: list[str] = ()) -> ExperimentSpec:
    return apply_overrides(ExperimentSpec(), [
        f"model.family={family}", "train.epochs=2",
        f"output.artifacts_dir={tmp_path}",
        *FAMILY_PARAMS[family], *extra])


class TestFiveFamilyMatrix:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_train_evaluate_checkpoint_restore(self, family, dataset,
                                               tmp_path):
        from repro.serve.registry import get_family, restore_model
        result = run_experiment(tiny_spec(family, tmp_path), dataset=dataset)

        assert set(result.metrics) == {"f1", "acc"}
        assert np.isfinite(result.metrics["f1"])
        assert 0 <= result.metrics["acc"] <= 100

        # The checkpoint restores to the same family via the registry.
        model, meta = restore_model(result.checkpoint_path)
        assert isinstance(model, get_family(family).model_type)
        assert meta["model"]["family"] == family

        # Spec-derived metadata: full spec + fingerprint ride along.
        assert meta["spec_fingerprint"] == result.fingerprint
        assert meta["experiment"]["model"]["family"] == family
        assert meta["experiment"]["train"]["epochs"] == 2
        assert meta["dtype"] == "float32"

        # The result manifest on disk validates against its schema.
        manifest = json.load(open(result.manifest_path))
        validate_result_manifest(manifest)
        assert manifest["fingerprint"] == result.fingerprint
        assert manifest["metrics"]["f1"] == pytest.approx(
            result.metrics["f1"])
        assert len(manifest["workload"]["test_designs"]) == 1
        # Provenance: these metrics came from the injected fixture
        # dataset, not from preparing spec.workload.
        assert manifest["workload"]["dataset_injected"] is True


class TestDirectParity:
    """run_experiment must equal a direct fit + evaluate call exactly."""

    @pytest.mark.parametrize("family", ["lhnn", "mlp"])
    def test_matches_fit(self, family, dataset, tmp_path):
        from repro.train import TrainConfig, evaluate, fit
        result = run_experiment(tiny_spec(family, tmp_path),
                                dataset=dataset, save=False)
        model = fit(family, dataset.train_samples(), TrainConfig(epochs=2),
                    {"hidden": 8})
        direct = evaluate(model, dataset.test_samples(), TrainConfig())
        assert result.metrics == direct


class TestRunnerBehaviour:
    def test_save_false_writes_nothing(self, dataset, tmp_path):
        result = run_experiment(tiny_spec("mlp", tmp_path), dataset=dataset,
                                save=False)
        assert result.checkpoint_path == ""
        assert result.manifest_path == ""
        assert not list(tmp_path.iterdir())

    def test_bad_params_fail_before_training(self, dataset, tmp_path):
        spec = apply_overrides(
            ExperimentSpec(),
            ["model.family=mlp", "train.epochs=1",
             f"output.artifacts_dir={tmp_path}", "model.params.nope=1"])
        with pytest.raises(SpecError,
                           match=r"\['nope'\] unknown for family 'mlp'"):
            run_experiment(spec, dataset=dataset, save=False)

    def test_mistyped_param_value_fails_before_training(self, dataset,
                                                        tmp_path):
        """--set model.params.hidden.units=8 from an empty params table
        creates hidden={'units': 8}; the type check against the knob's
        registered default must reject it before any training."""
        spec = apply_overrides(
            ExperimentSpec(),
            ["train.epochs=1", f"output.artifacts_dir={tmp_path}",
             "model.params.hidden.units=8"])
        with pytest.raises(SpecError,
                           match="model.params.hidden must be int"):
            run_experiment(spec, dataset=dataset, save=False)

    def test_lhnn_params_cover_config_fields(self, dataset, tmp_path):
        spec = tiny_spec("lhnn", tmp_path, ["model.params.use_jointing=false"])
        result = run_experiment(spec, dataset=dataset, save=False)
        assert result.model.head_reg is None

    def test_channel_mismatch_with_injected_dataset(self, dataset, tmp_path):
        spec = tiny_spec("mlp", tmp_path, ["model.channels=2"])
        with pytest.raises(SpecError, match="1 channel"):
            run_experiment(spec, dataset=dataset, save=False)

    def test_programmatic_params_channels_rejected(self, dataset, tmp_path):
        """Dataclass-built specs never pass through spec_from_dict; the
        runner must still reject the channels smuggle with a SpecError."""
        spec = tiny_spec("mlp", tmp_path)
        spec.model.params["channels"] = 2
        with pytest.raises(SpecError, match="model.params.channels"):
            run_experiment(spec, dataset=dataset, save=False)

    def test_report_crop_matches_runtime_evaluator(self, dataset, tmp_path):
        """cli evaluate's per-design report (crop from the checkpoint's
        spec metadata) must agree with the runtime evaluator's F1."""
        import numpy as np
        from repro.eval.reporting import per_design_report
        spec = tiny_spec("unet", tmp_path, ["train.crop=8"])
        result = run_experiment(spec, dataset=dataset, save=False)
        rows = per_design_report(result.model, dataset.test_samples(),
                                 crop=8)
        # report rows round to 2 decimals; the values must agree there
        assert np.mean([r["F1"] for r in rows]) == pytest.approx(
            result.metrics["f1"], abs=0.005)

    def test_fingerprint_in_manifest_matches_spec(self, dataset, tmp_path):
        spec = tiny_spec("mlp", tmp_path)
        result = run_experiment(spec, dataset=dataset, save=False)
        assert result.fingerprint == spec_fingerprint(spec)

    def test_duo_channel_experiment(self, tiny_graph_suite, tmp_path):
        duo = CongestionDataset(tiny_graph_suite[:2], channels=2)
        result = run_experiment(
            tiny_spec("mlp", tmp_path, ["model.channels=2"]), dataset=duo)
        from repro.serve.registry import output_channels, restore_model
        model, _ = restore_model(result.checkpoint_path)
        assert output_channels(model) == 2


class TestManifestValidation:
    def make_valid(self, dataset, tmp_path):
        return run_experiment(tiny_spec("mlp", tmp_path),
                              dataset=dataset, save=False).manifest

    def test_valid_manifest_passes(self, dataset, tmp_path):
        validate_result_manifest(self.make_valid(dataset, tmp_path))

    def test_wrong_schema_rejected(self, dataset, tmp_path):
        manifest = dict(self.make_valid(dataset, tmp_path), schema="v0")
        with pytest.raises(SpecError, match="schema"):
            validate_result_manifest(manifest)

    def test_missing_metrics_rejected(self, dataset, tmp_path):
        manifest = dict(self.make_valid(dataset, tmp_path))
        manifest["metrics"] = {"f1": 12.0}
        with pytest.raises(SpecError, match="acc"):
            validate_result_manifest(manifest)

    def test_out_of_range_metric_rejected(self, dataset, tmp_path):
        manifest = dict(self.make_valid(dataset, tmp_path))
        manifest["metrics"] = {"f1": 123.0, "acc": 50.0}
        with pytest.raises(SpecError, match="f1"):
            validate_result_manifest(manifest)

    def test_embedded_spec_must_replay(self, dataset, tmp_path):
        manifest = dict(self.make_valid(dataset, tmp_path))
        manifest["experiment"] = {"model": {"family": "nope"}}
        with pytest.raises(SpecError, match="unknown model family"):
            validate_result_manifest(manifest)


class TestLoadDatasetErrors:
    @pytest.fixture()
    def broken_suite(self):
        from repro.pipeline.workloads import _REGISTRY, register_workload

        @register_workload("broken-factory", "test-only workload")
        def _broken(config, count=1):
            raise TypeError("bug inside the factory")

        yield "broken-factory"
        _REGISTRY.pop("broken-factory", None)

    def test_rejected_params_are_a_spec_error(self, broken_suite):
        spec = apply_overrides(ExperimentSpec(), [
            f"workload.suite={broken_suite}", "workload.bookshelf_dir=d"])
        with pytest.raises(SpecError, match="does not accept parameters"):
            load_dataset(spec)

    def test_type_error_inside_factory_tracebacks(self, broken_suite):
        spec = apply_overrides(ExperimentSpec(),
                               [f"workload.suite={broken_suite}"])
        with pytest.raises(TypeError, match="bug inside the factory"):
            load_dataset(spec)
