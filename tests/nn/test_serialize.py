"""Tests for model checkpointing."""

import numpy as np
import pytest

from repro.nn import (CheckpointError, ResidualMLP, Tensor, read_checkpoint,
                      save_checkpoint)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _load_into(model, path):
    """Read ``path`` into ``model``; returns the checkpoint metadata."""
    header, state = read_checkpoint(path)
    model.load_state_dict(state)
    return header["metadata"]


class TestCheckpointRoundTrip:
    def test_parameters_restored(self, rng, tmp_path):
        m1 = ResidualMLP(4, 8, 2, rng)
        path = save_checkpoint(m1, str(tmp_path / "m.npz"))
        m2 = ResidualMLP(4, 8, 2, np.random.default_rng(99))
        _load_into(m2, path)
        x = rng.normal(size=(5, 4))
        assert np.allclose(m1(Tensor(x)).data, m2(Tensor(x)).data)

    def test_metadata_roundtrip(self, rng, tmp_path):
        m = ResidualMLP(2, 4, 1, rng)
        path = save_checkpoint(m, str(tmp_path / "m.npz"),
                               metadata={"epochs": 20, "f1": 41.5})
        meta = _load_into(m, path)
        assert meta == {"epochs": 20, "f1": 41.5}

    def test_extension_appended(self, rng, tmp_path):
        m = ResidualMLP(2, 4, 1, rng)
        path = save_checkpoint(m, str(tmp_path / "noext"))
        assert path.endswith(".npz")
        _load_into(m, str(tmp_path / "noext"))  # finds .npz

    def test_lhnn_checkpoint(self, rng, tmp_path, small_graph):
        from repro.models.lhnn import LHNN, LHNNConfig
        m1 = LHNN(LHNNConfig(hidden=8), rng)
        path = save_checkpoint(m1, str(tmp_path / "lhnn.npz"))
        m2 = LHNN(LHNNConfig(hidden=8), np.random.default_rng(5))
        _load_into(m2, path)
        out1 = m1(small_graph).cls_prob.data
        out2 = m2(small_graph).cls_prob.data
        assert np.allclose(out1, out2)


class TestCheckpointErrors:
    def test_architecture_mismatch(self, rng, tmp_path):
        m1 = ResidualMLP(4, 8, 2, rng)
        path = save_checkpoint(m1, str(tmp_path / "m.npz"))
        wrong = ResidualMLP(4, 16, 2, rng)
        with pytest.raises(ValueError, match="shape mismatch"):
            _load_into(wrong, path)

    def test_non_checkpoint_file(self, rng, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, a=np.zeros(3))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_missing_file(self, rng, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            read_checkpoint(str(tmp_path / "absent.npz"))

    def test_corrupted_bytes(self, rng, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00definitely not a zip archive\xff" * 20)
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(str(path))

    def test_truncated_npz(self, rng, tmp_path):
        m = ResidualMLP(4, 8, 2, rng)
        path = tmp_path / "trunc.npz"
        save_checkpoint(m, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="unreadable") as exc:
            read_checkpoint(str(path))
        assert exc.value.corrupt


def _family_instances(rng):
    """Small twin-constructible instances of all five model families."""
    from repro.models.lhnn import LHNN, LHNNConfig
    from repro.models.mlp_baseline import MLPBaseline
    from repro.models.pix2pix import Pix2Pix
    from repro.models.related import GridSAGE
    from repro.models.unet import UNet
    return {
        "lhnn": lambda: LHNN(LHNNConfig(hidden=8, channels=2), rng),
        "mlp": lambda: MLPBaseline(hidden=8, rng=rng),
        "gridsage": lambda: GridSAGE(hidden=8, num_layers=2, rng=rng),
        "unet": lambda: UNet(base_width=4, rng=rng),
        "pix2pix": lambda: Pix2Pix(base_width=4, rng=rng),
    }


class TestAllFamiliesRoundTrip:
    @pytest.mark.parametrize("family", ["lhnn", "mlp", "gridsage", "unet",
                                        "pix2pix"])
    def test_state_dict_round_trip(self, family, rng, tmp_path):
        make = _family_instances(rng)[family]
        m1 = make()
        path = save_checkpoint(m1, str(tmp_path / f"{family}.npz"))
        m2 = make()  # same shapes, fresh (different) weights
        _load_into(m2, path)
        for name, value in m1.state_dict().items():
            assert np.array_equal(value, m2.state_dict()[name]), name

    @pytest.mark.parametrize("family", ["lhnn", "unet"])
    def test_wrong_architecture_rejected(self, family, rng, tmp_path):
        from repro.models.lhnn import LHNN, LHNNConfig
        from repro.models.unet import UNet
        m1 = _family_instances(rng)[family]()
        path = save_checkpoint(m1, str(tmp_path / "a.npz"))
        wrong = (LHNN(LHNNConfig(hidden=16, channels=2), rng)
                 if family == "lhnn" else UNet(base_width=8, rng=rng))
        with pytest.raises((KeyError, ValueError)):
            _load_into(wrong, path)


class TestHeaderReader:
    def test_header_fields(self, rng, tmp_path):
        m = ResidualMLP(4, 8, 2, rng)
        path = save_checkpoint(m, str(tmp_path / "m.npz"),
                               metadata={"f1": 41.5})
        header, _ = read_checkpoint(path)
        assert header["format"] == "repro-checkpoint-v1"
        assert header["num_parameters"] == m.num_parameters()
        assert header["metadata"] == {"f1": 41.5}
        assert sorted(header["parameter_names"]) == sorted(m.state_dict())

    def test_header_appends_extension(self, rng, tmp_path):
        m = ResidualMLP(2, 4, 1, rng)
        save_checkpoint(m, str(tmp_path / "noext"))
        header, _ = read_checkpoint(str(tmp_path / "noext"))
        assert header["format"] == "repro-checkpoint-v1"
