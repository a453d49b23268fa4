"""Shared fixtures for the experiment benchmarks.

Each ``test_table*.py`` / ``test_fig*.py`` file regenerates one table or
figure of the paper.  The data pipeline runs once per session (cached on
disk under ``REPRO_CACHE_DIR``); training budgets are controlled by:

* ``REPRO_SEEDS``  — number of random seeds per configuration (default 2;
  paper uses 5),
* ``REPRO_EPOCHS`` — training epochs (default 20),
* ``REPRO_SCALE``  — synthetic-suite scale multiplier (default 1.0).

Set ``REPRO_SEEDS=5`` for the paper-faithful protocol; the defaults keep a
full benchmark run within minutes on a laptop CPU.

The paper benches train through :func:`train_cell`, one call per seed.
Each cell trains once per session, keyed by ``fingerprint_of`` its
family, full ``TrainConfig``, knobs overlaid on the family's registered
``default_config`` (``channels`` defaults to 1), zero-G-cell-features
flag and default dtype.  A memo hit's ``benchmark.pedantic`` time is only
the lookup.  Tier-1 on one 2-core host: 376–387 s before the memo,
288–308 s with it.

Tables and figures go through the :func:`save_artifact` fixture into the
:func:`artifacts_dir` fixture's directory.  That is the tracked
``artifacts/`` only when ``REPRO_BENCH_REPORT=1`` is set; a plain run
writes them to a session temporary directory, so tier-1 leaves every
tracked file untouched.

The micro-benches that track a ``BENCH_*.json`` report at the repo root
name it with a module-level ``BENCH_REPORT = (file name, context)`` and
record into the :func:`bench_report` fixture.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro.data import CongestionDataset
from repro.nn import get_default_dtype
from repro.perf.report import report_requested, write_bench_report
from repro.pipeline import PipelineConfig, prepare_workload
from repro.pipeline.config import fingerprint_of
from repro.serve.registry import get_family
from repro.train import TrainConfig, evaluate, fit

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
ARTIFACTS = os.path.join(REPO_ROOT, "artifacts")


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def env_count(name: str, default: int) -> int:
    """An integer budget from the environment; below 1 is an error."""
    value = int(os.environ.get(name, default))
    if value < 1:
        raise ValueError(f"{name}={value}: must be at least 1")
    return value


@pytest.fixture(scope="session")
def num_seeds() -> int:
    return env_count("REPRO_SEEDS", 2)


@pytest.fixture(scope="session")
def num_epochs() -> int:
    return env_count("REPRO_EPOCHS", 20)


@pytest.fixture(scope="session")
def pipeline_config() -> PipelineConfig:
    return PipelineConfig(scale=env_float("REPRO_SCALE", 1.0))


@pytest.fixture(scope="session")
def suite_graphs(pipeline_config):
    """The 15 labelled LH-graphs (≈45 s cold, instant when cached)."""
    return prepare_workload("superblue", pipeline_config, verbose=True)


@pytest.fixture(scope="session")
def dataset_uni(suite_graphs):
    return CongestionDataset(suite_graphs, channels=1)


class CellTrainer:
    """``train_cell(family, seed, *, train=None, knobs=None,
    zero_features=False) -> (model, {"f1", "acc"})``: ``train`` overrides
    :class:`~repro.train.TrainConfig` fields, ``knobs`` is ``fit``'s
    ``model_config`` (its ``channels`` picks uni or duo).  A miss runs
    ``fit`` and then ``evaluate``, before any caller has the shared model.
    """

    def __init__(self, graphs, epochs: int):
        self.graphs = graphs
        self.epochs = epochs
        self.memo: dict[str, tuple] = {}

    def __call__(self, family: str, seed: int, *, train: dict | None = None,
                 knobs: dict | None = None, zero_features: bool = False):
        config = TrainConfig(epochs=self.epochs, seed=seed, **(train or {}))
        model_config = {"channels": 1, **get_family(family).default_config,
                        **(knobs or {})}
        key = fingerprint_of([family, config, model_config, zero_features,
                              str(get_default_dtype())])
        if key not in self.memo:
            data = CongestionDataset(self.graphs,
                                     channels=model_config["channels"],
                                     zero_gcell_features=zero_features)
            model = fit(family, data.train_samples(), config, model_config)
            self.memo[key] = (model,
                              evaluate(model, data.test_samples(), config))
        model, metrics = self.memo[key]
        return model, dict(metrics)


@pytest.fixture(scope="session")
def train_cell(suite_graphs, num_epochs) -> CellTrainer:
    """One memo of trained paper-bench cells per pytest session."""
    return CellTrainer(suite_graphs, num_epochs)


@pytest.fixture(scope="session")
def artifacts_dir(tmp_path_factory) -> str:
    """``artifacts/`` under ``REPRO_BENCH_REPORT=1``, else a temp dir."""
    if not report_requested():
        return str(tmp_path_factory.mktemp("artifacts"))
    os.makedirs(ARTIFACTS, exist_ok=True)
    return ARTIFACTS


@pytest.fixture(scope="session")
def save_artifact(artifacts_dir):
    """``save_artifact(name, text)``: write a text artifact into
    :func:`artifacts_dir`, echo it to stdout and return its path."""
    def save(name: str, text: str) -> str:
        path = os.path.join(artifacts_dir, name)
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print("\n" + text)
        return path
    return save


@pytest.fixture(scope="module")
def bench_report(request):
    """What a bench module records for its tracked ``BENCH_*.json``.

    Tests fill ``entries`` (name -> dict of numbers) and may set
    ``perf_ops``.  When the module finishes and ``REPRO_BENCH_REPORT=1``
    is set, the report is validated and written to the file named by the
    module's ``BENCH_REPORT``, so partial ``-k`` runs still record.
    """
    filename, context = request.module.BENCH_REPORT
    record = SimpleNamespace(entries={}, perf_ops=None)
    yield record
    if record.entries and report_requested():
        write_bench_report(os.path.join(REPO_ROOT, filename),
                           record.entries, context=context,
                           perf_ops=record.perf_ops)
