"""Tests for Module/Linear/ResidualMLP."""

import numpy as np
import pytest

from repro.nn import Linear, Module, ResidualMLP, Tensor
from repro.nn.layers import Identity


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestModule:
    def test_parameters_discovered(self, rng):
        lin = Linear(3, 4, rng)
        params = lin.parameters()
        assert len(params) == 2
        assert lin.num_parameters() == 3 * 4 + 4

    def test_nested_parameters(self, rng):
        mlp = ResidualMLP(3, 8, 2, rng)
        names = dict(mlp.named_parameters())
        assert "fc1.weight" in names
        assert "fc2.bias" in names
        assert "proj.weight" in names

    def test_parameters_deduplicated(self, rng):
        class Shared(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 2, rng)
                self.b = self.a

        assert len(Shared().parameters()) == 2

    def test_train_eval_propagates(self, rng):
        model = ResidualMLP(2, 4, 3, rng)
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears(self, rng):
        lin = Linear(2, 2, rng)
        out = lin(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        m1 = ResidualMLP(3, 5, 2, rng)
        m2 = ResidualMLP(3, 5, 2, np.random.default_rng(99))
        m2.load_state_dict(m1.state_dict())
        x = np.random.default_rng(1).normal(size=(4, 3))
        assert np.allclose(m1(Tensor(x)).data, m2(Tensor(x)).data)

    def test_load_state_dict_rejects_mismatch(self, rng):
        m = Linear(2, 2, rng)
        with pytest.raises(KeyError):
            m.load_state_dict({"weight": np.zeros((2, 2))})

    def test_load_state_dict_rejects_bad_shape(self, rng):
        m = Linear(2, 2, rng)
        state = m.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            m.load_state_dict(state)


class TestLinear:
    def test_forward_shape(self, rng):
        lin = Linear(5, 3, rng)
        assert lin(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_no_bias(self, rng):
        lin = Linear(5, 3, rng, bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_gradient_flows_to_both(self, rng):
        lin = Linear(2, 2, rng)
        lin(Tensor(np.ones((3, 2)))).sum().backward()
        assert lin.weight.grad is not None
        assert lin.bias.grad is not None
        assert np.allclose(lin.bias.grad, 3.0)


class TestResidualMLP:
    def test_identity_skip_when_same_width(self, rng):
        r = ResidualMLP(4, 8, 4, rng)
        assert isinstance(r.proj, Identity)

    def test_projection_skip_when_width_changes(self, rng):
        r = ResidualMLP(4, 8, 6, rng)
        assert isinstance(r.proj, Linear)
        assert r(Tensor(np.zeros((2, 4)))).shape == (2, 6)

    def test_residual_passes_input_at_zero_weights(self, rng):
        r = ResidualMLP(3, 3, 3, rng)
        for p in r.parameters():
            p.data[...] = 0.0
        x = np.random.default_rng(0).normal(size=(2, 3))
        assert np.allclose(r(Tensor(x)).data, x)
