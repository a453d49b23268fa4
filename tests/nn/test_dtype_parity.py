"""float32 ↔ float64 parity: the dtype drop must not change the science.

For every model family the engine serves (LHNN, MLP, GridSAGE, U-Net,
Pix2Pix) the float32 forward pass must agree with its float64 twin to
rounding tolerance, and a short training run must land at statistically
indistinguishable metrics.  Finite-difference gradient checks at
float32-appropriate tolerances guard the backward pass itself.
"""

import numpy as np
import pytest

from repro.data import CongestionDataset
from repro.models.lhnn import LHNN, LHNNConfig
from repro.models.mlp_baseline import MLPBaseline
from repro.models.pix2pix import Pix2Pix
from repro.models.related import GridSAGE
from repro.models.unet import UNet
from repro.nn import DtypeConfig, Tensor, no_grad
from repro.train import TrainConfig, evaluate, fit, predict_probs


@pytest.fixture(scope="module")
def suite(tiny_graph_suite):
    return tiny_graph_suite


def _samples(graphs, dtype):
    """Materialise dataset samples under the given compute dtype."""
    with DtypeConfig(dtype):
        dataset = CongestionDataset(graphs, channels=1)
        return dataset.train_samples(), dataset.test_samples()


def _forward(model, sample):
    with no_grad():
        return predict_probs(model, sample)


# Model builders at a fixed seed; rebuilt under each DtypeConfig so the
# float32 model is the cast image of the float64 one (init draws in
# float64, then casts — see repro.nn.init).
_BUILDERS = {
    "lhnn": lambda s, rng: LHNN(LHNNConfig(hidden=8), rng),
    "mlp": lambda s, rng: MLPBaseline(in_features=s.features.shape[1],
                                      hidden=8, channels=1, rng=rng),
    "gridsage": lambda s, rng: GridSAGE(in_features=s.features.shape[1],
                                        hidden=8, channels=1, rng=rng),
    "unet": lambda s, rng: UNet(in_channels=s.image.shape[1],
                                out_channels=1, base_width=4, rng=rng),
    "pix2pix": lambda s, rng: Pix2Pix(in_channels=s.image.shape[1],
                                      out_channels=1, base_width=4, rng=rng),
}


class TestForwardParity:
    @pytest.mark.parametrize("family", sorted(_BUILDERS))
    def test_forward_outputs_match_across_dtypes(self, suite, family):
        build = _BUILDERS[family]
        probs = {}
        for dtype in (np.float64, np.float32):
            with DtypeConfig(dtype):
                train, _ = _samples(suite, dtype)
                sample = train[0]
                model = build(sample, np.random.default_rng(0))
                model.eval()
                probs[dtype] = np.asarray(_forward(model, sample),
                                          dtype=np.float64)
        # Sigmoid probabilities: float32 rounding through a few layers
        # stays well inside 1e-3 absolute.
        np.testing.assert_allclose(probs[np.float32], probs[np.float64],
                                   atol=2e-3)


# Small construction knobs per family, so two epochs stay fast.
_KNOBS = {
    "lhnn": {"hidden": 8},
    "mlp": {"hidden": 8},
    "gridsage": {"hidden": 8},
    "unet": {"base_width": 4},
    "pix2pix": {"base_width": 4},
}


class TestTrainingParity:
    @pytest.mark.parametrize("family", sorted(_KNOBS))
    def test_two_epoch_f1_within_noise(self, suite, family):
        cfg = TrainConfig(epochs=2, seed=0)
        results = {}
        for dtype in (np.float64, np.float32):
            with DtypeConfig(dtype):
                train, test = _samples(suite, dtype)
                model = fit(family, train, cfg, _KNOBS[family])
                results[dtype] = evaluate(model, test, cfg)
        f1_64 = results[np.float64]["f1"]
        f1_32 = results[np.float32]["f1"]
        assert np.isfinite(f1_32) and np.isfinite(f1_64)
        # Two epochs on six tiny designs: identical seeds, so the only
        # divergence is float32 rounding along the trajectory.  Allow a
        # few F1 percentage points of accumulated drift.
        assert abs(f1_32 - f1_64) <= 5.0, results
        acc_64 = results[np.float64]["acc"]
        acc_32 = results[np.float32]["acc"]
        assert abs(acc_32 - acc_64) <= 5.0, results


def _fd_grad(loss_fn, x: np.ndarray, eps: float) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


class TestFloat32GradChecks:
    """Finite-difference checks at float32-appropriate tolerances.

    Central differences at float32 are good to roughly cbrt(eps_f32)
    relative error, so eps is large (1e-2) and tolerances are loose
    compared to the float64 autograd property tests — the point is to
    catch dtype bugs (silent upcasts, wrong-dtype accumulation), not to
    re-prove the calculus.
    """

    EPS = 1e-2
    RTOL = 8e-2
    ATOL = 2e-3

    def _check(self, x32, forward):
        t = Tensor(x32, requires_grad=True)
        loss = forward(t)
        assert loss.dtype == np.float32
        loss.backward()
        analytic = np.asarray(t.grad, dtype=np.float64)
        fd = _fd_grad(lambda: float(forward(Tensor(x32)).item()),
                      x32, self.EPS)
        np.testing.assert_allclose(analytic, fd,
                                   rtol=self.RTOL, atol=self.ATOL)

    def test_linear_chain(self, ):
        rng = np.random.default_rng(1)
        x32 = (rng.standard_normal((4, 3)) + 0.5).astype(np.float32)
        w = Tensor(rng.standard_normal((3, 2)).astype(np.float32))

        def forward(t):
            return ((t @ w).tanh() * 0.5).sum()

        self._check(x32, forward)

    def test_sigmoid_bce_like(self):
        rng = np.random.default_rng(2)
        x32 = rng.standard_normal(12).astype(np.float32)
        target = (rng.random(12) > 0.5).astype(np.float32)

        def forward(t):
            prob = t.sigmoid().clip(1e-4, 1.0 - 1e-4)
            tt = Tensor(target)
            return -(tt * prob.log()
                     + (1.0 - tt) * (1.0 - prob).log()).mean()

        self._check(x32, forward)

    def test_spmm_chain(self):
        from repro.nn import SparseMatrix, spmm
        rng = np.random.default_rng(3)
        import scipy.sparse as sp
        op = SparseMatrix(sp.random(6, 6, density=0.5, random_state=0))
        x32 = rng.standard_normal((6, 2)).astype(np.float32)

        def forward(t):
            return spmm(op, t).tanh().sum()

        self._check(x32, forward)

    def test_conv2d(self):
        from repro.nn.conv import Conv2d
        rng = np.random.default_rng(4)
        with DtypeConfig(np.float32):
            conv = Conv2d(2, 2, 3, rng, padding=1)
        x32 = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)

        def forward(t):
            return conv(t).tanh().mean()

        self._check(x32, forward)
