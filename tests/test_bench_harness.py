"""The paper-bench harness of ``benchmarks/conftest.py``.

Checks the training budgets and the memoised training cell without
training anything: ``fit`` and ``evaluate`` are replaced by counting
fakes and the dataset by an empty one, and each test builds its own
:class:`CellTrainer` with an empty memo, so the session's ``train_cell``
is never touched.  The call shapes
below are the ones the paper benches make.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn import DtypeConfig, get_default_dtype

# pytest imports every ``conftest.py`` under the one module name
# ``conftest``, so load the benches' one by path.
_SPEC = importlib.util.spec_from_file_location(
    "bench_conftest",
    Path(__file__).parents[1] / "benchmarks" / "conftest.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

EPOCHS = 20
CROP = 16

# One default uni-channel LHNN cell, as each bench asks for it.
LHNN_CALL_SHAPES = {
    "table2 uni-LHNN": {"knobs": {"channels": 1}},
    "table3 full": {"knobs": {}, "zero_features": False},
    "gamma 0.7": {"train": {"gamma": 0.7}},
    "hidden 32": {"knobs": {"hidden": 32}},
    "full-graph": {"train": {"use_sampling": False}},
    "related-models LHNN": {},
    "fig4 LHNN": {},
}

# Each differs from the default cell of its family in one input.
OWN_CELLS = {
    "gamma": ("lhnn", {"train": {"gamma": 0.3}}),
    "hidden": ("lhnn", {"knobs": {"hidden": 16}}),
    "use_sampling": ("lhnn", {"train": {"use_sampling": True}}),
    "channels": ("lhnn", {"knobs": {"channels": 2}}),
    "zero_features": ("lhnn", {"zero_features": True}),
    "unet crop": ("unet", {"train": {"crop": CROP}}),
}


@pytest.fixture
def cells(monkeypatch):
    """A fresh ``CellTrainer`` and the fake ``fit``/``evaluate`` log."""
    log = SimpleNamespace(fits=[], evaluations=0)

    def fake_fit(family, samples, config, model_config):
        log.fits.append((family, config, model_config))
        return SimpleNamespace(score=float(len(log.fits)))

    def fake_evaluate(model, samples, config):
        log.evaluations += 1
        return {"f1": model.score, "acc": 100.0 - model.score}

    monkeypatch.setattr(bench, "fit", fake_fit)
    monkeypatch.setattr(bench, "evaluate", fake_evaluate)
    monkeypatch.setattr(bench, "CongestionDataset",
                        lambda graphs, channels, zero_gcell_features:
                        SimpleNamespace(train_samples=list, test_samples=list))
    return bench.CellTrainer(graphs=[], epochs=EPOCHS), log


def test_lhnn_call_shapes_train_once_per_seed(cells):
    trainer, log = cells
    for seed in (0, 1):
        for kwargs in LHNN_CALL_SHAPES.values():
            trainer("lhnn", seed, **kwargs)
    assert [(family, config.seed, config.epochs)
            for family, config, _ in log.fits] == [("lhnn", 0, EPOCHS),
                                                   ("lhnn", 1, EPOCHS)]
    assert log.fits[0][2]["channels"] == 1


def test_table2_and_fig4_unet_share_a_cell(cells):
    trainer, log = cells
    trainer("unet", 0, train={"crop": CROP}, knobs={"channels": 1})
    trainer("unet", 0, train={"crop": CROP})
    assert len(log.fits) == 1
    assert log.fits[0][1].crop == CROP


@pytest.mark.parametrize("name", list(OWN_CELLS))
def test_each_input_is_its_own_cell(cells, name):
    trainer, log = cells
    family, kwargs = OWN_CELLS[name]
    trainer(family, 0)
    trainer(family, 0, **kwargs)
    assert len(log.fits) == 2


def test_dtype_is_its_own_cell(cells):
    trainer, log = cells
    trainer("lhnn", 0)
    other = (np.float64 if get_default_dtype() == np.float32
             else np.float32)
    with DtypeConfig(other):
        trainer("lhnn", 0)
    assert len(log.fits) == 2


def test_metrics_are_computed_right_after_fit(cells):
    trainer, log = cells
    model, metrics = trainer("lhnn", 0)
    model.score = -1.0          # a consumer changes the shared model
    metrics["f1"] = 0.0         # and the metrics it was handed
    again_model, again = trainer("lhnn", 0)
    assert again_model is model
    assert again == {"f1": 1.0, "acc": 99.0}
    assert log.evaluations == 1


@pytest.mark.parametrize("name", ["REPRO_SEEDS", "REPRO_EPOCHS"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_budget_below_one_names_its_variable(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=f"{name}={value}"):
        bench.env_count(name, 2)
    monkeypatch.setenv(name, "3")
    assert bench.env_count(name, 2) == 3
