"""Design-choice ablations beyond the paper's Table 3.

DESIGN.md calls out three implementation choices worth quantifying:

* **γ sweep** — the label-balance factor (paper fixes γ = 0.7 without a
  sweep); we scan γ ∈ {0.3, 0.5, 0.7, 1.0}.
* **neighbour sampling vs full-graph** — the paper trains with DGL
  sampling fan-outs {6, 3, 2} to save GPU memory; at CPU scale we can
  afford full-graph aggregation, so we measure what sampling costs/buys.
* **hidden width** — the paper uses 32; we scan {16, 32, 64}.
"""

import numpy as np
import pytest

from repro.train import TrainConfig, evaluate, fit

from conftest import save_artifact

GAMMAS = (0.3, 0.5, 0.7, 1.0)
WIDTHS = (16, 32, 64)

GAMMA_RESULTS: dict[float, float] = {}
WIDTH_RESULTS: dict[int, float] = {}
SAMPLING_RESULTS: dict[str, float] = {}


def _mean_f1(dataset, seeds, epochs, gamma=0.7, hidden=32,
             use_sampling=False):
    tr = dataset.train_samples()
    te = dataset.test_samples()
    f1s = []
    for seed in range(seeds):
        cfg = TrainConfig(epochs=epochs, seed=seed, gamma=gamma,
                          use_sampling=use_sampling)
        model = fit("lhnn", tr, cfg, {"hidden": hidden})
        f1s.append(evaluate(model, te, cfg)["f1"])
    return float(np.mean(f1s))


@pytest.mark.parametrize("gamma", GAMMAS)
def test_gamma_sweep(gamma, dataset_uni, num_seeds, num_epochs, benchmark):
    f1 = benchmark.pedantic(_mean_f1,
                            args=(dataset_uni, num_seeds, num_epochs),
                            kwargs={"gamma": gamma}, rounds=1, iterations=1)
    GAMMA_RESULTS[gamma] = f1
    assert np.isfinite(f1)


@pytest.mark.parametrize("hidden", WIDTHS)
def test_hidden_width_sweep(hidden, dataset_uni, num_seeds, num_epochs,
                            benchmark):
    f1 = benchmark.pedantic(_mean_f1,
                            args=(dataset_uni, num_seeds, num_epochs),
                            kwargs={"hidden": hidden}, rounds=1, iterations=1)
    WIDTH_RESULTS[hidden] = f1
    assert np.isfinite(f1)


@pytest.mark.parametrize("mode", ["full-graph", "sampled {6,3,2}"])
def test_sampling_vs_full(mode, dataset_uni, num_seeds, num_epochs,
                          benchmark):
    f1 = benchmark.pedantic(
        _mean_f1, args=(dataset_uni, num_seeds, num_epochs),
        kwargs={"use_sampling": mode != "full-graph"},
        rounds=1, iterations=1)
    SAMPLING_RESULTS[mode] = f1
    assert np.isfinite(f1)


def test_design_choice_report(benchmark):
    if not (GAMMA_RESULTS and WIDTH_RESULTS and SAMPLING_RESULTS):
        pytest.skip("sweeps did not all run")

    def render():
        lines = ["Design-choice ablations (uni-channel F1)", ""]
        lines.append("gamma sweep (paper fixes 0.7):")
        for g, f1 in sorted(GAMMA_RESULTS.items()):
            lines.append(f"  gamma={g:<4} F1={f1:.2f}")
        lines.append("hidden width (paper uses 32):")
        for w, f1 in sorted(WIDTH_RESULTS.items()):
            lines.append(f"  hidden={w:<4} F1={f1:.2f}")
        lines.append("aggregation (paper samples {6,3,2} for GPU memory):")
        for mode, f1 in SAMPLING_RESULTS.items():
            lines.append(f"  {mode:<16} F1={f1:.2f}")
        return "\n".join(lines)

    save_artifact("ablation_design_choices.txt", benchmark(render))
