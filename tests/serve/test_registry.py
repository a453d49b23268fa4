"""Tests for the model registry: typed metadata, deterministic restore."""

import os

import numpy as np
import pytest

from repro.models.lhnn import LHNN, LHNNConfig
from repro.models.mlp_baseline import MLPBaseline
from repro.models.pix2pix import Pix2Pix
from repro.models.related import GridSAGE
from repro.models.unet import UNet
from repro.nn import CheckpointError, Tensor, no_grad, save_checkpoint
from repro.serve.registry import (build_model, family_of, get_family,
                                  list_families, model_spec,
                                  output_channels, restore_model,
                                  save_model)
from repro.store import FOOTER_BYTES


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _forward(model, graph, rng):
    """A deterministic output fingerprint for any family."""
    with no_grad():
        if isinstance(model, LHNN):
            return model(graph).cls_prob.data
        if isinstance(model, GridSAGE):
            return model(graph).data
        if isinstance(model, MLPBaseline):
            return model(Tensor(graph.vc)).data
        image = Tensor(rng.normal(size=(1, 4, 16, 16)))
        if isinstance(model, Pix2Pix):
            return model.generator(image).data
        return model(image).data


def _factories(rng):
    return {
        "lhnn": lambda: LHNN(LHNNConfig(hidden=8, channels=2), rng),
        "mlp": lambda: MLPBaseline(hidden=8, channels=2, rng=rng),
        "gridsage": lambda: GridSAGE(hidden=8, channels=2, num_layers=2,
                                     rng=rng),
        "unet": lambda: UNet(base_width=4, out_channels=2, rng=rng),
        "pix2pix": lambda: Pix2Pix(base_width=4, out_channels=2, rng=rng),
    }


class TestRegistry:
    def test_all_five_families_registered(self):
        assert list_families() == ["gridsage", "lhnn", "mlp", "pix2pix",
                                   "unet"]

    @pytest.mark.parametrize("family", ["lhnn", "mlp", "gridsage", "unet",
                                        "pix2pix"])
    def test_spec_round_trip(self, family, rng):
        model = _factories(rng)[family]()
        spec = model_spec(model)
        assert spec["family"] == family
        rebuilt = build_model(spec)
        # Same architecture: identical parameter names and shapes.
        assert {k: v.shape for k, v in model.state_dict().items()} \
            == {k: v.shape for k, v in rebuilt.state_dict().items()}

    def test_family_of_unregistered_type(self, rng):
        from repro.nn import MLP
        with pytest.raises(CheckpointError, match="not a registered"):
            family_of(MLP([2, 2], rng))

    def test_get_family_unknown_name(self):
        with pytest.raises(CheckpointError, match="unknown model family"):
            get_family("transformer")

    def test_build_model_malformed_spec(self):
        with pytest.raises(CheckpointError, match="malformed"):
            build_model({"config": {}})

    def test_build_model_bad_config(self):
        with pytest.raises(CheckpointError, match="cannot build"):
            build_model({"family": "mlp", "config": {"bogus_knob": 3}})

    def test_output_channels(self, rng):
        assert output_channels(LHNN(LHNNConfig(hidden=8, channels=2),
                                    rng)) == 2
        assert output_channels(MLPBaseline(rng=rng)) == 1
        assert output_channels(UNet(out_channels=2, base_width=4,
                                    rng=rng)) == 2


class TestSaveRestore:
    @pytest.mark.parametrize("family", ["lhnn", "mlp", "gridsage", "unet",
                                        "pix2pix"])
    def test_restore_reproduces_forward(self, family, rng, small_graph,
                                        tmp_path):
        model = _factories(rng)[family]()
        model.eval()
        path = save_model(model, str(tmp_path / f"{family}.npz"),
                          metadata={"note": "t"})
        restored, metadata = restore_model(path)
        restored.eval()
        assert metadata["note"] == "t"
        assert metadata["model"]["family"] == family
        probe_rng = np.random.default_rng(0)
        expected = _forward(model, small_graph, np.random.default_rng(0))
        actual = _forward(restored, small_graph, probe_rng)
        assert np.allclose(expected, actual)

    def test_restore_without_probing(self, rng, tmp_path):
        # A duo-channel LHNN restores from the spec alone — the old
        # try/except channel probing is gone.
        model = LHNN(LHNNConfig(hidden=8, channels=2), rng)
        path = save_model(model, str(tmp_path / "duo.npz"))
        restored, _ = restore_model(path)
        assert restored.config.channels == 2
        assert restored.config.hidden == 8

    def test_legacy_checkpoint_with_channels(self, rng, tmp_path):
        # Pre-registry layout (plain save_checkpoint + a flat 'channels'
        # key): refused, not restored by guessing the architecture.
        model = LHNN(LHNNConfig(channels=2), rng)
        path = save_checkpoint(model, str(tmp_path / "legacy.npz"),
                               metadata={"channels": 2})
        with pytest.raises(CheckpointError, match="no architecture"):
            restore_model(path)

    def test_legacy_checkpoint_without_metadata(self, rng, tmp_path):
        model = MLPBaseline(rng=rng)
        path = save_checkpoint(model, str(tmp_path / "bare.npz"))
        with pytest.raises(CheckpointError, match="no architecture"):
            restore_model(path)

    def test_spec_mismatching_arrays_is_corruption(self, rng, tmp_path):
        # Metadata promises hidden=16 but the arrays are hidden=8: a
        # clear CheckpointError, not a silent retry.
        model = LHNN(LHNNConfig(hidden=8), rng)
        spec = {"family": "lhnn", "config": {"hidden": 16}}
        path = save_checkpoint(model, str(tmp_path / "bad.npz"),
                               metadata={"model": spec, "dtype": "float64"})
        with pytest.raises(CheckpointError):
            restore_model(path)

    def test_checkpoint_without_dtype_is_refused(self, rng, tmp_path):
        # No float64 guess: save_model always records the dtype.
        model = MLPBaseline(hidden=8, rng=rng)
        path = save_checkpoint(model, str(tmp_path / "nodtype.npz"),
                               metadata={"model": model_spec(model)})
        with pytest.raises(CheckpointError, match="no compute dtype"):
            restore_model(path)
        restored, _ = restore_model(path, dtype="float32")
        assert restored.dtype() == np.float32

    def test_footerless_checkpoint_is_corrupt_and_quarantined(self, rng,
                                                             tmp_path):
        # A healthy .npz without the checksum footer is never read
        # unverified.
        path = save_model(MLPBaseline(hidden=8, rng=rng),
                          str(tmp_path / "bare.npz"))
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-FOOTER_BYTES])
        with pytest.raises(CheckpointError,
                           match="missing checksum footer") as info:
            restore_model(path)
        assert info.value.corrupt
        assert "unreadable checkpoint" in str(info.value)
        assert not os.path.exists(path)
        reasons = [n for n in os.listdir(tmp_path / "quarantine")
                   if n.endswith(".reason.json")]
        assert len(reasons) == 1

    def test_checkpoint_is_read_once(self, rng, tmp_path, monkeypatch):
        # Architecture, dtype and weights come from one read: a save that
        # replaces the file mid-restore cannot pair one file's spec with
        # the other file's weights.
        import repro.nn.serialize as serialize
        first = MLPBaseline(hidden=8, rng=rng)
        path = save_model(first, str(tmp_path / "a.npz"))
        other = save_model(MLPBaseline(hidden=16, rng=rng),
                           str(tmp_path / "b.npz"))
        real_read = serialize.read_bytes
        calls = []

        def read_bytes(target, **kwargs):
            calls.append(target)
            return real_read(other if len(calls) > 1 else target, **kwargs)

        monkeypatch.setattr(serialize, "read_bytes", read_bytes)
        restored, _ = restore_model(path)
        assert len(calls) == 1
        assert restored.hidden == 8
        for name, value in first.state_dict().items():
            assert np.array_equal(restored.state_dict()[name], value)
