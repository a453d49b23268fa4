"""Extension bench: the related-work lattice GNN the paper argues against
(§2.2).

The paper motivates the LH-graph by the failure modes of prior GNN
formulations.  One of them is grid GraphSAGE: message passing on the
G-cell lattice only, so it reasons about geometry but sees the netlist
topology only through the crafted input features.  It does not appear
in the paper's Table 2.  This bench trains GridSAGE and LHNN through
the same :func:`repro.train.fit` on the same split and checks that the
lattice-only model does not beat LHNN's F1.
"""

import numpy as np

from repro.train import summarize_runs

RESULTS: dict[str, dict] = {}


def test_gridsage_lattice(train_cell, num_seeds, benchmark):
    summary = benchmark.pedantic(
        lambda: summarize_runs([train_cell("gridsage", seed)[1]
                                for seed in range(num_seeds)]),
        rounds=1, iterations=1)
    RESULTS["GridSAGE (lattice)"] = summary
    assert np.isfinite(summary.f1_mean)


def test_lhnn_reference(train_cell, num_seeds, benchmark):
    summary = benchmark.pedantic(
        lambda: summarize_runs([train_cell("lhnn", seed)[1]
                                for seed in range(num_seeds)]),
        rounds=1, iterations=1)
    RESULTS["LHNN (both spaces)"] = summary
    assert np.isfinite(summary.f1_mean)


def test_related_models_report(save_artifact, benchmark):
    if len(RESULTS) < 2:
        pytest.skip("model cells did not all run")

    def render():
        lines = ["Related-work GNN formulations (uni-channel, extension "
                 "beyond the paper's Table 2)",
                 f"{'model':<28} {'F1':>14} {'ACC':>14}"]
        for name, s in RESULTS.items():
            lines.append(f"{name:<28} {s.f1_mean:>7.2f}±{s.f1_std:<5.2f} "
                         f"{s.acc_mean:>7.2f}±{s.acc_std:<5.2f}")
        return "\n".join(lines)

    save_artifact("related_models.txt", benchmark(render))
    lhnn = RESULTS["LHNN (both spaces)"].f1_mean
    gridsage = RESULTS["GridSAGE (lattice)"].f1_mean
    assert lhnn > gridsage - 1.0, "LHNN should outperform GridSAGE (lattice)"
