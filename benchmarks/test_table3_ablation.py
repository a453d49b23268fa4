"""Table 3 — ablation study on the uni-channel task.

Regenerates the paper's ablation table: F1 of the full LHNN versus
variants that (a) remove FeatureGen relation edges, (b) remove HyperMP
edges, (c) remove LatticeMP edges, (d) remove the regression branch
("jointing"), and (e) zero the G-cell input features.  As in the paper,
edge removals keep every linear/residual layer so depth and parameter
count stay comparable.

Expected shape (paper: 40.89 full; −4.65 % FG, −20.45 % HyperMP, −10.69 %
LatticeMP, −12.64 % jointing, −7.02 % G-cell features): every ablation
loses F1 relative to the full model, with HyperMP among the most damaging,
and the zero-feature variant still works (while feature-only baselines
collapse — Table 2's MLP evidence).
"""

import numpy as np
import pytest

from repro.eval import format_table3
from repro.train import summarize_runs

ABLATIONS = {
    "full": {},
    "no FeatureGen edges": {"use_featuregen_edges": False},
    "no HyperMP edges": {"use_hypermp_edges": False},
    "no LatticeMP edges": {"use_latticemp_edges": False},
    "no Jointing": {"use_jointing": False},
    "no G-cell features": {},    # trained with zero_features=True
    # Extension row (not in the paper): strip ALL topological relations.
    # At CPU-scale grids one FeatureGen hop already carries most G-net
    # information, so removing HyperMP alone under-states the value of
    # topology; this row removes both to isolate it.
    "no topological edges": {"use_featuregen_edges": False,
                             "use_hypermp_edges": False},
}

RESULTS: dict[str, float] = {}


@pytest.mark.parametrize("name", list(ABLATIONS))
def test_table3_ablation_cell(name, train_cell, num_seeds, benchmark):
    f1 = benchmark.pedantic(
        lambda: summarize_runs([
            train_cell("lhnn", seed, knobs=ABLATIONS[name],
                       zero_features=name == "no G-cell features")[1]
            for seed in range(num_seeds)]).f1_mean,
        rounds=1, iterations=1)
    RESULTS[name] = f1
    assert np.isfinite(f1)


def test_table3_report(num_seeds, num_epochs, save_artifact, benchmark):
    if len(RESULTS) < len(ABLATIONS):
        pytest.skip("ablation cells did not all run")
    text = benchmark(format_table3, RESULTS)
    text += f"\n(seeds={num_seeds}, epochs={num_epochs})"
    save_artifact("table3.txt", text)

    full = RESULTS["full"]
    # Shape assertions (soft, ±noise tolerance): removing topological
    # message passing (HyperMP) must hurt.
    assert RESULTS["no HyperMP edges"] < full + 1.0
    # The zero-feature variant must stay usable (paper: 38.02 vs 40.89).
    assert RESULTS["no G-cell features"] > 0.0
