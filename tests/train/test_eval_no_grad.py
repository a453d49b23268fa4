"""Regression: inference paths must not record autograd closures.

:func:`repro.train.evaluate` (for every model family) and the serving
engine's ``flush`` run under :func:`repro.nn.no_grad`; if someone adds a
forward pass outside the guard, evaluation silently builds (and leaks)
training graphs.  These tests spy on ``Tensor._make`` and assert no
created tensor carries a backward closure during inference.
"""

import numpy as np
import pytest

from repro.data import CongestionDataset
from repro.nn.tensor import Tensor
from repro.serve import InferenceEngine, PredictRequest, ServeConfig
from repro.train import TrainConfig, evaluate, fit

#: Evaluation one design per forward pass.
PER_DESIGN = TrainConfig(batch_size=1)


@pytest.fixture(scope="module")
def dataset(tiny_graph_suite):
    return CongestionDataset(tiny_graph_suite, channels=1)


@pytest.fixture(scope="module")
def samples(dataset):
    return dataset.test_samples()


@pytest.fixture(scope="module")
def lhnn_model(dataset):
    return fit("lhnn", dataset.train_samples(), TrainConfig(epochs=1, seed=0),
               {"hidden": 8})


@pytest.fixture
def closure_spy(monkeypatch):
    """Record every tensor Tensor._make creates while active."""
    created: list[Tensor] = []
    original = Tensor._make

    def spy(data, parents, backward):
        out = original(data, parents, backward)
        created.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(spy))
    return created


def _assert_no_closures(created):
    assert created, "spy saw no tensors — the forward pass did not run"
    recording = [t for t in created if t._backward is not None]
    assert not recording, (f"{len(recording)} tensors recorded backward "
                           f"closures during evaluation")


def test_evaluate_lhnn_records_no_closures(lhnn_model, samples, closure_spy):
    evaluate(lhnn_model, samples, TrainConfig(batch_size=2))
    _assert_no_closures(closure_spy)


def test_evaluate_mlp_records_no_closures(dataset, samples, closure_spy,
                                          monkeypatch):
    model = fit("mlp", dataset.train_samples(), TrainConfig(epochs=1, seed=0),
                {"hidden": 8})
    closure_spy.clear()  # drop tensors created during training
    evaluate(model, samples, PER_DESIGN)
    _assert_no_closures(closure_spy)


def test_evaluate_unet_records_no_closures(dataset, samples, closure_spy):
    model = fit("unet", dataset.train_samples(), TrainConfig(epochs=1, seed=0),
                {"base_width": 4})
    closure_spy.clear()
    evaluate(model, samples, PER_DESIGN)
    _assert_no_closures(closure_spy)


def test_engine_flush_records_no_closures(lhnn_model, tiny_graph_suite,
                                          closure_spy):
    engine = InferenceEngine(lhnn_model, ServeConfig())
    for graph in tiny_graph_suite[:3]:
        engine.submit(PredictRequest(graph=graph))
    closure_spy.clear()  # keep only tensors created by the flush itself
    results = engine.flush()
    assert len(results) == 3
    _assert_no_closures(closure_spy)
