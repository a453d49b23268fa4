"""Training-loop tests: each model family trains and improves over chance."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import CongestionDataset
from repro.models.unet import UNet
from repro.nn import DtypeConfig, Tensor, no_grad
from repro.serve.registry import family_of, get_family, output_channels
from repro.train import TrainConfig, evaluate, fit, predict_probs


@pytest.fixture(scope="module")
def dataset(tiny_graph_suite):
    return CongestionDataset(tiny_graph_suite, channels=1)


@pytest.fixture(scope="module")
def train_samples(dataset):
    return dataset.train_samples()


@pytest.fixture(scope="module")
def test_samples(dataset):
    return dataset.test_samples()


FAST = TrainConfig(epochs=4, seed=0)
#: Evaluation one design per forward pass.
PER_DESIGN = TrainConfig(batch_size=1)


class TestLHNNTraining:
    def test_loss_learns_on_train_set(self, train_samples):
        model = fit("lhnn", train_samples, TrainConfig(epochs=8, seed=0),
                    {"hidden": 16})
        metrics = evaluate(model, train_samples, PER_DESIGN)
        assert metrics["acc"] > 50.0
        assert metrics["f1"] > 0.0

    def test_evaluation_keys(self, train_samples, test_samples):
        model = fit("lhnn", train_samples, FAST, {"hidden": 16})
        metrics = evaluate(model, test_samples, PER_DESIGN)
        assert set(metrics) == {"f1", "acc"}
        assert 0 <= metrics["f1"] <= 100
        assert 0 <= metrics["acc"] <= 100

    def test_deterministic_given_seed(self, train_samples, test_samples):
        m1 = fit("lhnn", train_samples, TrainConfig(epochs=2, seed=7),
                 {"hidden": 8})
        m2 = fit("lhnn", train_samples, TrainConfig(epochs=2, seed=7),
                 {"hidden": 8})
        r1 = evaluate(m1, test_samples, PER_DESIGN)
        r2 = evaluate(m2, test_samples, PER_DESIGN)
        assert r1 == r2

    def test_sampling_mode_runs(self, train_samples, test_samples):
        cfg = TrainConfig(epochs=2, seed=0, use_sampling=True)
        model = fit("lhnn", train_samples, cfg, {"hidden": 8})
        metrics = evaluate(model, test_samples, PER_DESIGN)
        assert np.isfinite(metrics["f1"])

    def test_no_jointing_config(self, train_samples):
        model = fit("lhnn", train_samples, FAST,
                    {"hidden": 8, "use_jointing": False})
        assert model.head_reg is None


class TestBatchedTraining:
    """The block-diagonal mini-batch path (TrainConfig.batch_size > 1)."""

    def test_batched_lhnn_learns(self, train_samples):
        cfg = TrainConfig(epochs=8, seed=0, batch_size=2)
        model = fit("lhnn", train_samples, cfg, {"hidden": 16})
        metrics = evaluate(model, train_samples, TrainConfig(batch_size=2))
        assert metrics["acc"] > 50.0
        assert metrics["f1"] > 0.0

    def test_batched_eval_equals_per_design_eval(self, train_samples,
                                                 test_samples):
        """Block-diagonal operators keep designs independent, so batching
        the evaluation loop must not change per-circuit metrics at all."""
        model = fit("lhnn", train_samples, FAST, {"hidden": 8})
        per_design = evaluate(model, test_samples, TrainConfig(batch_size=1))
        batched = evaluate(model, test_samples,
                           TrainConfig(batch_size=len(test_samples)))
        assert per_design["f1"] == pytest.approx(batched["f1"], abs=1e-9)
        assert per_design["acc"] == pytest.approx(batched["acc"], abs=1e-9)

    def test_batched_sampling_mode_runs(self, train_samples, test_samples):
        cfg = TrainConfig(epochs=2, seed=0, batch_size=2, use_sampling=True)
        model = fit("lhnn", train_samples, cfg, {"hidden": 8})
        metrics = evaluate(model, test_samples, TrainConfig(batch_size=2))
        assert np.isfinite(metrics["f1"])

    def test_batched_deterministic_given_seed(self, train_samples,
                                              test_samples):
        cfg = TrainConfig(epochs=2, seed=7, batch_size=3)
        runs = [fit("lhnn", train_samples, cfg, {"hidden": 8})
                for _ in range(2)]
        r1, r2 = (evaluate(m, test_samples, cfg) for m in runs)
        assert r1 == r2

    def test_batched_mlp_trains(self, train_samples, test_samples):
        cfg = TrainConfig(epochs=4, seed=0, batch_size=2)
        model = fit("mlp", train_samples, cfg)
        metrics = evaluate(model, test_samples, TrainConfig(batch_size=2))
        assert metrics["acc"] > 50.0

    def test_oversized_batch_is_one_step(self, train_samples, test_samples):
        cfg = TrainConfig(epochs=2, seed=0,
                          batch_size=len(train_samples) + 3)
        model = fit("lhnn", train_samples, cfg, {"hidden": 8})
        metrics = evaluate(model, test_samples, PER_DESIGN)
        assert np.isfinite(metrics["f1"])

    def test_lr_scales_by_actual_batch_members(self):
        """A ragged/oversized batch steps at lr × its member count, not
        lr × the configured batch_size, and the scheduled lr is restored."""
        from repro.nn.layers import Parameter
        from repro.nn.optim import Adam
        from repro.train.trainer import _scaled_step

        def first_step_delta(num_members, **cfg_kwargs):
            p = Parameter(np.array([0.0]))
            p.grad = np.array([1.0])
            opt = Adam([p], lr=1e-3)
            _scaled_step(opt, TrainConfig(**cfg_kwargs), num_members)
            assert opt.lr == 1e-3  # scheduled lr untouched after the step
            return abs(p.data[0])

        base = first_step_delta(1, batch_size=1)
        ragged = first_step_delta(2, batch_size=64)
        unscaled = first_step_delta(2, batch_size=64,
                                    scale_lr_with_batch=False)
        assert ragged == pytest.approx(2 * base)
        assert unscaled == pytest.approx(base)


class TestBaselineTraining:
    def test_mlp_trains(self, train_samples, test_samples):
        model = fit("mlp", train_samples, FAST)
        metrics = evaluate(model, test_samples, PER_DESIGN)
        assert metrics["acc"] > 50.0

    def test_unet_trains(self, train_samples, test_samples):
        model = fit("unet", train_samples, TrainConfig(epochs=2, seed=0),
                    {"base_width": 4})
        metrics = evaluate(model, test_samples, PER_DESIGN)
        assert np.isfinite(metrics["f1"])

    def test_unet_crop_mode(self, train_samples, test_samples):
        cfg = TrainConfig(epochs=2, seed=0, crop=8)
        model = fit("unet", train_samples, cfg, {"base_width": 4})
        metrics = evaluate(model, test_samples, cfg)
        assert np.isfinite(metrics["f1"])

    def test_pix2pix_trains(self, train_samples, test_samples):
        model = fit("pix2pix", train_samples, TrainConfig(epochs=2, seed=0),
                    {"base_width": 4})
        metrics = evaluate(model, test_samples, PER_DESIGN)
        assert np.isfinite(metrics["f1"])


class TestPredictTiled:
    """Tile stitching keeps the forward pass's dtype and values."""

    @pytest.mark.parametrize("crop", [None, 8])
    def test_float32_unet_probabilities_stay_float32(self, crop):
        with DtypeConfig(np.float32):
            model = UNet(in_channels=3, out_channels=2, base_width=4,
                         rng=np.random.default_rng(0))
            image = np.random.default_rng(1).random(
                (1, 3, 16, 12)).astype(np.float32)
            with no_grad():
                prob = predict_probs(model, SimpleNamespace(image=image),
                                     crop)
                whole = model(Tensor(image)).data
        assert prob.dtype == np.float32
        # flat per-G-cell rows in gx * ny + gy order
        assert prob.shape == (16 * 12, 2)
        if crop is None:
            assert np.array_equal(prob,
                                  whole[0].transpose(1, 2, 0).reshape(-1, 2))
        assert np.all((prob >= 0) & (prob <= 1))


class TestFitKnobs:
    """``fit`` takes every knob default from the registered family."""

    @pytest.mark.parametrize("family",
                             ["gridsage", "lhnn", "mlp", "pix2pix", "unet"])
    def test_defaults_and_unknown_knob(self, family, train_samples):
        defaults = get_family(family).default_config
        assert defaults
        model = fit(family, train_samples, TrainConfig(epochs=1, seed=0))
        config = family_of(model).config_of(model)
        assert {k: config[k] for k in defaults} == defaults
        assert output_channels(model) == 1
        with pytest.raises(TypeError, match="nope"):
            fit(family, train_samples, TrainConfig(epochs=1, seed=0),
                {"nope": 1})
