"""Tests for the command-line interface (fast paths only)."""

import numpy as np
import pytest

from repro import cli


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args([])

    def test_train_flags_default_to_unset(self):
        """Dedicated flags default to None so a --config file wins unless
        the user explicitly passes the flag (the spec holds defaults)."""
        args = cli._build_parser().parse_args(["train"])
        assert args.epochs is None
        assert args.model is None
        assert args.suite is None
        assert not args.duo

    def test_train_resolved_spec_defaults(self):
        args = cli._build_parser().parse_args(["train"])
        spec = cli._resolve_spec(args, cli._train_flag_sets(args))
        assert spec.model.family == "lhnn"
        assert spec.workload.suite == "superblue"
        assert spec.train.epochs == 20
        assert spec.compute.dtype == "float32"

    def test_train_flags_map_to_spec(self):
        args = cli._build_parser().parse_args(
            ["train", "--model", "unet", "--suite", "hotspot",
             "--epochs", "3", "--duo", "--dtype", "float64",
             "--batch-size", "2", "--out", "x.npz",
             "--set", "model.params.base_width=4"])
        spec = cli._resolve_spec(args, cli._train_flag_sets(args))
        assert spec.model.family == "unet"
        assert spec.model.channels == 2
        assert spec.model.params == {"base_width": 4}
        assert spec.workload.suite == "hotspot"
        assert spec.train.epochs == 3
        assert spec.train.batch_size == 2
        assert spec.compute.dtype == "float64"
        assert spec.output.checkpoint == "x.npz"

    def test_train_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["train", "--model", "resnet"])

    def test_model_choices_match_registry(self):
        from repro.serve.registry import list_families
        assert sorted(cli.MODEL_FAMILIES) == list_families()

    def test_experiment_requires_config(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["experiment"])

    def test_predict_requires_args(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["predict"])


class TestPrepareParser:
    def test_prepare_defaults(self):
        args = cli._build_parser().parse_args(["prepare"])
        assert args.suite == "superblue"
        assert args.workers == 1
        assert args.bookshelf_dir is None
        assert not args.list_suites

    def test_prepare_flags(self):
        args = cli._build_parser().parse_args(
            ["prepare", "--suite", "hotspot", "--workers", "4",
             "--count", "2", "--no-cache"])
        assert args.suite == "hotspot"
        assert args.workers == 4
        assert args.count == 2
        assert args.no_cache

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["prepare", "--workers", "0"])


class TestPrepareCommand:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return tmp_path

    def test_list_suites(self, capsys):
        assert cli.main(["prepare", "--list-suites"]) == 0
        out = capsys.readouterr().out
        for name in ("superblue", "macro-heavy", "hotspot", "bookshelf"):
            assert name in out

    def test_unknown_suite_fails_cleanly(self, capsys):
        assert cli.main(["prepare", "--suite", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bookshelf_without_dir_fails_cleanly(self, capsys):
        assert cli.main(["prepare", "--suite", "bookshelf"]) == 2
        assert "--bookshelf-dir" in capsys.readouterr().err

    def test_unsupported_params_fail_cleanly(self, capsys):
        assert cli.main(["prepare", "--suite", "superblue",
                         "--count", "4"]) == 2
        err = capsys.readouterr().err
        assert "does not accept parameters" in err
        assert "count" in err

    def test_prepare_superblue_end_to_end(self, capsys, monkeypatch):
        import repro.pipeline as pl
        orig = pl.superblue_suite
        monkeypatch.setattr(
            pl, "superblue_suite",
            lambda scale, base_seed: orig(scale=scale,
                                          base_seed=base_seed)[:2])
        assert cli.main(["prepare", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "prepared 2 designs of suite 'superblue'" in out

    @pytest.mark.slow
    def test_prepare_scenario_suite_end_to_end(self, capsys):
        assert cli.main(["prepare", "--suite", "hotspot", "--count", "2",
                         "--scale", "0.15", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "prepared 2 designs of suite 'hotspot'" in out

    @pytest.mark.slow
    def test_prepare_bookshelf_end_to_end(self, capsys, tmp_path):
        from repro.circuit import DesignSpec, generate_design, write_design
        d = generate_design(DesignSpec(name="clibs", seed=61,
                                       num_movable=80, die_size=32.0))
        write_design(d, str(tmp_path / "bs"))
        assert cli.main(["prepare", "--suite", "bookshelf",
                         "--bookshelf-dir", str(tmp_path / "bs")]) == 0
        out = capsys.readouterr().out
        assert "prepared 1 designs of suite 'bookshelf'" in out


class TestInfo:
    def test_info_runs(self, capsys):
        assert cli.main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "numpy" in out


class TestModelRestore:
    """The old cli._restore_model shim is gone; the registry is the one
    restore entry point every subcommand goes through."""

    def test_legacy_shim_removed(self):
        assert not hasattr(cli, "_restore_model")

    def test_restore_uni_and_duo(self, tmp_path):
        from repro.models.lhnn import LHNN, LHNNConfig
        from repro.serve.registry import restore_model, save_model
        for channels in (1, 2):
            model = LHNN(LHNNConfig(channels=channels),
                         np.random.default_rng(0))
            path = save_model(model, str(tmp_path / f"c{channels}.npz"))
            restored, meta = restore_model(path)
            assert restored.config.channels == channels
            assert meta["model"]["config"]["channels"] == channels

    def test_restore_registry_checkpoint(self, tmp_path):
        from repro.models.related import GridSAGE
        from repro.serve.registry import restore_model, save_model
        model = GridSAGE(hidden=8, channels=2, rng=np.random.default_rng(1))
        path = save_model(model, str(tmp_path / "gs.npz"))
        restored, meta = restore_model(path)
        assert isinstance(restored, GridSAGE)
        assert restored.channels == 2
        assert meta["model"]["family"] == "gridsage"


class TestPredictParser:
    def test_channel_default_and_choices(self):
        args = cli._build_parser().parse_args(
            ["predict", "--checkpoint", "c", "--design", "d"])
        assert args.channel == "h"
        assert args.suite == "superblue"
        args = cli._build_parser().parse_args(
            ["predict", "--checkpoint", "c", "--design", "d",
             "--channel", "both"])
        assert args.channel == "both"

    def test_rejects_unknown_channel(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(
                ["predict", "--checkpoint", "c", "--design", "d",
                 "--channel", "x"])

    def test_predict_missing_checkpoint_fails_cleanly(self, capsys):
        assert cli.main(["predict", "--checkpoint", "/nope/absent.npz",
                         "--design", "superblue5"]) == 2
        assert "predict failed" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_defaults(self):
        args = cli._build_parser().parse_args(
            ["serve", "--checkpoint", "c"])
        assert args.port is None
        assert args.workers == 1
        assert args.max_batch == 8
        assert args.suite == "superblue"

    def test_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["serve"])

    def test_missing_checkpoint_fails_cleanly(self, capsys):
        assert cli.main(["serve", "--checkpoint", "/nope/absent.npz"]) == 2
        assert "serve failed" in capsys.readouterr().err

    def test_checkpoint_without_architecture_fails_cleanly(self, capsys,
                                                           tmp_path):
        # Refused before any worker is spawned to crash-loop on it.
        from repro.models.mlp_baseline import MLPBaseline
        from repro.nn.serialize import save_checkpoint
        path = save_checkpoint(MLPBaseline(hidden=8,
                                           rng=np.random.default_rng(0)),
                               str(tmp_path / "bare.npz"))
        assert cli.main(["serve", "--checkpoint", path]) == 2
        assert "no architecture metadata" in capsys.readouterr().err

    def test_unknown_family_checkpoint_fails_cleanly(self, capsys,
                                                     tmp_path):
        from repro.models.mlp_baseline import MLPBaseline
        from repro.nn.serialize import save_checkpoint
        path = save_checkpoint(
            MLPBaseline(hidden=8, rng=np.random.default_rng(0)),
            str(tmp_path / "alien.npz"),
            metadata={"model": {"family": "alien", "config": {}}})
        assert cli.main(["serve", "--checkpoint", path]) == 2
        assert "unknown model family 'alien'" in capsys.readouterr().err

    def test_stdin_session_end_to_end(self, capsys, monkeypatch, tmp_path):
        import io
        import json
        from repro.models.mlp_baseline import MLPBaseline
        from repro.serve.registry import save_model
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = save_model(MLPBaseline(hidden=8,
                                      rng=np.random.default_rng(0)),
                          str(tmp_path / "mlp.npz"))
        requests = [
            {"op": "predict", "id": 1,
             "spec": {"name": "cli-serve", "seed": 8, "num_movable": 90,
                      "die_size": 32.0}},
            {"op": "flush"},
            {"op": "shutdown"},
        ]
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("".join(json.dumps(r) + "\n" for r in requests)))
        assert cli.main(["serve", "--checkpoint", path]) == 0
        replies = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert [r.get("status") for r in replies] == \
            ["queued", None, "flushed", "shutting down"]
        assert replies[1]["result"]["name"] == "cli-serve"
