"""Chaos suite: SIGKILL / corruption / degraded-root end-to-end recovery.

Everything here is deterministic — faults come from the
:mod:`repro.testing.faults` plans (carried into subprocesses via the
``REPRO_FAULTS`` environment variable), not from timing or randomness.
Marked ``chaos`` (and therefore skipped by tier-1); the nightly CI job
runs them with ``-m chaos``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.circuit import superblue_suite
from repro.models.mlp_baseline import MLPBaseline
from repro.nn.serialize import CheckpointError, save_checkpoint
from repro.pipeline import (PipelineConfig, STAGE_CALLS, StageCache,
                            prepare_designs, reset_stage_calls,
                            stage_keys_for)
from repro.placement import PlacementConfig
from repro.routing import RouterConfig
from repro.serve.registry import restore_model, save_model
from repro.store import StoreDegradedWarning, sweep
from repro.testing import FaultInjector, FaultRule
from repro.testing.faults import FAULTS_ENV

pytestmark = pytest.mark.chaos


def tiny_config(**overrides) -> PipelineConfig:
    base = dict(scale=0.15, use_cache=True,
                placement=PlacementConfig(outer_iterations=1),
                router=RouterConfig(nx=8, ny=8, rrr_iterations=1))
    base.update(overrides)
    return PipelineConfig(**base)


def subprocess_env(**extra) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    env.pop(FAULTS_ENV, None)
    env.update(extra)
    return env


#: Runs the staged pipeline over the first two tiny designs; argv is
#: ``<cache_root> <workers>``.  The config must match tiny_config().
PREPARE_SCRIPT = """
import sys
from repro.circuit import superblue_suite
from repro.pipeline import PipelineConfig, StageCache, prepare_designs
from repro.placement import PlacementConfig
from repro.routing import RouterConfig

config = PipelineConfig(scale=0.15, use_cache=True,
                        placement=PlacementConfig(outer_iterations=1),
                        router=RouterConfig(nx=8, ny=8, rrr_iterations=1))
designs = superblue_suite(scale=0.15)[:2]
prepare_designs(designs, config, workers=int(sys.argv[2]),
                cache=StageCache(sys.argv[1]))
print("PREPARED-OK")
"""

#: Prepares ONE design sequentially and reports its stage-call counters
#: as JSON; argv is ``<cache_root>``.
PREPARE_ONE_SCRIPT = """
import json, sys
from repro.circuit import superblue_suite
from repro.pipeline import (PipelineConfig, STAGE_CALLS, StageCache,
                            prepare_design, reset_stage_calls)
from repro.placement import PlacementConfig
from repro.routing import RouterConfig

config = PipelineConfig(scale=0.15, use_cache=True,
                        placement=PlacementConfig(outer_iterations=1),
                        router=RouterConfig(nx=8, ny=8, rrr_iterations=1))
design = superblue_suite(scale=0.15)[0]
reset_stage_calls()
prepare_design(design, config, cache=StageCache(sys.argv[1]))
print(json.dumps(dict(STAGE_CALLS)))
"""

#: Saves a checkpoint over argv[1]; a fault plan in the environment can
#: kill the process between the tmp write and the rename.
SAVE_CKPT_SCRIPT = """
import sys
import numpy as np
from repro.models.mlp_baseline import MLPBaseline
from repro.nn.serialize import save_checkpoint

model = MLPBaseline(hidden=8, rng=np.random.default_rng(99))
save_checkpoint(model, sys.argv[1])
print("SAVED-OK")
"""


class TestCrashResume:
    """SIGKILL a pool worker at a stage barrier; resume must be exact."""

    @pytest.mark.parametrize("barrier,stage", [
        ("stage.start", "route"),    # killed before the stage computes
        ("stage.stored", "route"),   # killed right after the blob landed
        ("store.write.tmp", ""),     # killed between tmp write and rename
    ])
    def test_sigkill_then_resume_recomputes_only_missing(self, tmp_path,
                                                         barrier, stage):
        root = str(tmp_path / "cache")
        designs = superblue_suite(scale=0.15)[:2]
        config = tiny_config()
        victim = designs[0].name
        match = f"{stage}:{victim}" if stage else ""
        plan = FaultInjector(
            [FaultRule(point=barrier, action="kill", match=match)]).to_env()

        crashed = subprocess.run(
            [sys.executable, "-c", PREPARE_SCRIPT, root, "2"],
            env=subprocess_env(**{FAULTS_ENV: plan}),
            capture_output=True, text=True)
        assert crashed.returncode != 0, crashed.stdout  # the pool broke
        assert "PREPARED-OK" not in crashed.stdout

        # Record exactly which stage products survived the crash...
        all_keys = [stage_keys_for(d, config) for d in designs]
        survived = {(i, s): os.path.getmtime(StageCache(root)._path(k[s]))
                    for i, k in enumerate(all_keys)
                    for s in ("place", "route", "graph")
                    if os.path.exists(StageCache(root)._path(k[s]))}
        missing = 6 - len(survived)
        assert missing > 0  # the kill really interrupted something

        # ...resume without faults: only the missing products recompute.
        reset_stage_calls()
        cache = StageCache(root)
        graphs, _ = prepare_designs(designs, config, cache=cache)
        assert len(graphs) == 2
        assert sum(STAGE_CALLS[s] for s in ("place", "route", "graph")) \
            == missing
        # Zero recomputed finished stages: surviving blobs untouched.
        for (i, s), mtime in survived.items():
            assert os.path.getmtime(cache._path(all_keys[i][s])) == mtime

        # And the resumed cache state is complete and clean.
        rerun = StageCache(root)
        again, _ = prepare_designs(designs, config, cache=rerun)
        assert rerun.hits == 2 and rerun.misses == 0
        np.testing.assert_array_equal(again[0].congestion,
                                      graphs[0].congestion)

    def test_concurrent_prepare_computes_each_stage_exactly_once(
            self, tmp_path):
        """Two processes, one design, one shared cache: no duplicate work."""
        root = str(tmp_path / "cache")
        procs = [subprocess.Popen(
            [sys.executable, "-c", PREPARE_ONE_SCRIPT, root],
            env=subprocess_env(), stdout=subprocess.PIPE, text=True)
            for _ in range(2)]
        counts = []
        for proc in procs:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0
            counts.append(json.loads(out.strip().splitlines()[-1]))
        for stage in ("place", "route", "graph"):
            total = sum(c.get(stage, 0) for c in counts)
            assert total == 1, (stage, counts)  # never duplicated

    def test_startup_gc_reaps_dead_leases_and_tmp(self, tmp_path):
        from repro.pipeline import prepare_workload
        root = str(tmp_path)
        monkey_cache = StageCache(root)
        orphan = os.path.join(root, "objects", "zz", "orphan.tmp")
        os.makedirs(os.path.dirname(orphan), exist_ok=True)
        with open(orphan, "wb") as fh:
            fh.write(b"debris")
        dead_lease = monkey_cache.blobs.lease_path("dead" * 8)
        os.makedirs(os.path.dirname(dead_lease), exist_ok=True)
        with open(dead_lease, "w") as fh:
            fh.write("{}")
        old = time.time() - 10_000
        os.utime(orphan, (old, old))
        os.utime(dead_lease, (old, old))

        designs = superblue_suite(scale=0.15)[:1]
        prepare_workload("superblue", tiny_config(), cache=StageCache(root),
                         designs=designs)
        assert not os.path.exists(orphan)
        assert not os.path.exists(dead_lease)


class TestCheckpointDurability:
    def test_sigkill_between_tmp_and_rename_keeps_old_checkpoint(
            self, tmp_path):
        path = str(tmp_path / "model.npz")
        model = MLPBaseline(hidden=8, rng=np.random.default_rng(0))
        save_checkpoint(model, path)
        before = open(path, "rb").read()

        plan = FaultInjector([FaultRule(point="checkpoint.write.tmp",
                                        action="kill")]).to_env()
        crashed = subprocess.run(
            [sys.executable, "-c", SAVE_CKPT_SCRIPT, path],
            env=subprocess_env(**{FAULTS_ENV: plan}),
            capture_output=True, text=True)
        assert crashed.returncode != 0
        assert "SAVED-OK" not in crashed.stdout

        # The old checkpoint is bit-identical and still restorable...
        assert open(path, "rb").read() == before
        restored = MLPBaseline(hidden=8, rng=np.random.default_rng(5))
        from repro.nn.serialize import read_checkpoint
        restored.load_state_dict(read_checkpoint(path)[1])
        # ...and the only debris is an orphaned tmp, reaped by the sweep.
        debris = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert len(debris) == 1
        report = sweep(str(tmp_path), max_tmp_age_s=0.0)
        assert len(report["tmp_removed"]) == 1
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_corrupt_checkpoint_quarantined_prior_restorable(
            self, tmp_path, damage):
        old_path = save_model(
            MLPBaseline(hidden=8, rng=np.random.default_rng(0)),
            str(tmp_path / "model-v1.npz"))
        new_path = save_model(
            MLPBaseline(hidden=8, rng=np.random.default_rng(1)),
            str(tmp_path / "model-v2.npz"))

        data = open(new_path, "rb").read()
        if damage == "truncate":
            bad = data[:len(data) // 2]
        else:
            mutated = bytearray(data)
            mutated[len(mutated) // 2] ^= 0xFF
            bad = bytes(mutated)
        open(new_path, "wb").write(bad)

        with pytest.raises(CheckpointError, match="quarantined") as info:
            restore_model(new_path)
        assert info.value.corrupt
        assert not os.path.exists(new_path)  # off the fast path
        qdir = tmp_path / "quarantine"
        quarantined = [n for n in os.listdir(qdir)
                       if n.endswith(".reason.json")]
        assert len(quarantined) == 1

        model, _ = restore_model(old_path)  # the prior checkpoint works
        assert isinstance(model, MLPBaseline)


class TestDegradedEndToEnd:
    def test_run_experiment_completes_uncached_on_readonly_root(
            self, tmp_path, monkeypatch):
        from repro.api import ExperimentSpec, apply_overrides, run_experiment
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        spec = apply_overrides(ExperimentSpec(), [
            "model.family=mlp", "model.params.hidden=8", "train.epochs=1",
            "workload.suite=hotspot", "workload.count=2",
            "workload.scale=0.15", f"output.artifacts_dir={tmp_path}"])
        with pytest.warns(StoreDegradedWarning):
            result = run_experiment(spec, save=False)
        assert np.isfinite(result.metrics["f1"])
