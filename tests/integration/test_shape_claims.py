"""Fast shape-claim checks distilled from the paper's narrative.

These are cheaper cousins of the benchmark assertions, runnable inside the
normal test suite: each encodes a qualitative claim the paper makes, at
the tiny-suite scale.
"""

import numpy as np
import pytest

from repro.data import CongestionDataset
from repro.eval import rate_tracking_error
from repro.nn import Tensor, no_grad
from repro.train import TrainConfig, evaluate, fit


@pytest.fixture(scope="module")
def dataset(tiny_graph_suite):
    return CongestionDataset(tiny_graph_suite, channels=1)


@pytest.fixture(scope="module")
def trained_lhnn(dataset):
    return fit("lhnn", dataset.train_samples(), TrainConfig(epochs=10, seed=0),
               {"hidden": 16})


class TestPaperClaims:
    def test_lhnn_learns_better_than_chance(self, trained_lhnn, dataset):
        """§5.2: LHNN produces a usable congestion classifier."""
        te = dataset.test_samples()
        metrics = evaluate(trained_lhnn, te, TrainConfig(batch_size=1))
        # Random guessing at the positive rate p has F1 ≈ p on average;
        # trained LHNN must beat the base-rate F1 comfortably.
        base_rate = 100 * float(np.mean([s.cls_target.mean() for s in te]))
        assert metrics["f1"] > base_rate

    def test_demand_regression_correlates(self, trained_lhnn, dataset):
        """§4.4: the jointly-trained regression head predicts demand."""
        sample = dataset.test_samples()[0]
        trained_lhnn.eval()
        with no_grad():
            out = trained_lhnn(sample.graph, vc=Tensor(sample.features),
                               vn=Tensor(sample.net_features))
        trained_lhnn.train()
        corr = np.corrcoef(out.reg_pred.data[:, 0],
                           sample.reg_target[:, 0])[0, 1]
        assert corr > 0.3

    def test_congested_cells_get_higher_scores(self, trained_lhnn, dataset):
        """The classifier separates the two classes in score space."""
        sample = max(dataset.test_samples(),
                     key=lambda s: s.cls_target.mean())
        if sample.cls_target.sum() == 0:
            pytest.skip("no positives in the chosen design")
        trained_lhnn.eval()
        with no_grad():
            out = trained_lhnn(sample.graph, vc=Tensor(sample.features),
                               vn=Tensor(sample.net_features))
        trained_lhnn.train()
        prob = out.cls_prob.data[:, 0]
        pos = prob[sample.cls_target[:, 0] > 0.5]
        neg = prob[sample.cls_target[:, 0] <= 0.5]
        assert pos.mean() > neg.mean()

    def test_gamma_below_one_increases_positive_predictions(self, dataset):
        """Eq. 5's purpose: γ<1 counters all-negative collapse."""
        tr = dataset.train_samples()
        te = dataset.test_samples()
        rates = {}
        for gamma in (0.5, 1.0):
            model = fit("lhnn", tr,
                        TrainConfig(epochs=6, seed=0, gamma=gamma),
                        {"hidden": 16})
            model.eval()
            with no_grad():
                preds = [model(s.graph, vc=Tensor(s.features),
                               vn=Tensor(s.net_features)).cls_prob.data
                         for s in te]
            rates[gamma] = float(np.mean([(p >= 0.5).mean() for p in preds]))
        assert rates[0.5] >= rates[1.0]

    def test_lhnn_tracks_rates_at_least_as_well_as_mlp(self, trained_lhnn,
                                                       dataset):
        """Figure 4's calibration claim, via the rate-tracking metric."""
        te = dataset.test_samples()
        trained_lhnn.eval()
        with no_grad():
            lhnn_probs = [trained_lhnn(s.graph, vc=Tensor(s.features),
                                       vn=Tensor(s.net_features)).cls_prob.data
                          for s in te]
        trained_lhnn.train()
        targets = [s.cls_target for s in te]
        lhnn_err = rate_tracking_error(lhnn_probs, targets)
        assert lhnn_err < 0.5  # sane absolute bound
