"""Extension bench: the related-work GNNs the paper argues against (§2.2).

The paper motivates the LH-graph by the failure modes of prior GNN
formulations: CongestionNet (GAT on the *cell* graph — topology only) and
grid GraphSAGE (lattice only — geometry only).  Neither appears in the
paper's Table 2; this bench scores both against LHNN on the same split so
the argument is quantified: a model restricted to either space alone
should not reach LHNN's F1.

CongestionNet is trained on per-cell labels (each cell inherits its
G-cell's congestion bit) and evaluated after scattering per-cell
predictions back onto G-cells (max-reduce), mirroring how cell-level
predictions are consumed in practice.
"""

import numpy as np
import pytest

from repro.circuit import (build_cell_graph, cell_features, cells_to_gcells,
                           superblue_suite)
from repro.models import CongestionNet, EdgeList
from repro.nn import Adam, GammaWeightedBCE, Tensor, clip_grad_norm, no_grad
from repro.placement import place
from repro.routing import GlobalRouter, RouterConfig, extract_maps
from repro.train import TrainConfig, evaluate, evaluate_binary, fit
from repro.train.metrics import summarize_runs

from conftest import env_float, save_artifact

RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def cell_level_data(dataset_uni, pipeline_config):
    """Cell graphs + features + per-cell labels for every suite design.

    The pipeline caches LH-graphs, not designs, so the designs are
    re-placed/re-routed here once per session (deterministic)."""
    designs = superblue_suite(scale=env_float("REPRO_SCALE", 1.0))
    data = []
    for design in designs:
        place(design, pipeline_config.placement)
        router = GlobalRouter(design, RouterConfig(
            nx=pipeline_config.grid_nx, ny=pipeline_config.grid_ny))
        result = router.run()
        maps = extract_maps(result.grid)
        cg = build_cell_graph(design)
        edges = EdgeList.with_self_loops(cg.src, cg.dst, design.num_cells)
        feats = cell_features(design)
        # standardise features per design
        mean = feats.mean(axis=0, keepdims=True)
        std = feats.std(axis=0, keepdims=True)
        feats = (feats - mean) / np.where(std > 1e-12, std, 1.0)
        cx = design.cell_x + design.cell_w / 2.0
        cy = design.cell_y + design.cell_h / 2.0
        gx, gy = result.grid.gcells_of(cx, cy)
        cell_labels = maps.congestion_h[gx, gy].astype(float).reshape(-1, 1)
        gcell_labels = maps.congestion_h.astype(float)
        data.append({
            "design": design, "grid": result.grid, "edges": edges,
            "features": feats, "cell_labels": cell_labels,
            "gcell_labels": gcell_labels, "name": design.name,
        })
    return data


def _train_congestionnet(data, split, seed, epochs):
    rng = np.random.default_rng(seed)
    model = CongestionNet(in_features=data[0]["features"].shape[1],
                          hidden=32, rng=rng, num_layers=3)
    opt = Adam(model.parameters(), lr=2e-3)
    loss_fn = GammaWeightedBCE(gamma=0.7)
    order = np.array(split.train_indices)
    for epoch in range(epochs):
        opt.lr = 2e-3 if epoch < epochs // 2 else 5e-4
        rng.shuffle(order)
        for idx in order:
            d = data[idx]
            opt.zero_grad()
            prob = model(Tensor(d["features"]), d["edges"])
            loss = loss_fn(prob, d["cell_labels"])
            loss.backward()
            clip_grad_norm(model.parameters(), 5.0)
            opt.step()
    return model


def _eval_congestionnet(model, data, split):
    model.eval()
    f1s, accs = [], []
    with no_grad():
        for idx in split.test_indices:
            d = data[idx]
            prob = model(Tensor(d["features"]), d["edges"]).data
            grid_prob = cells_to_gcells(d["design"], d["grid"],
                                        prob[:, 0], reduce="max")
            m = evaluate_binary(grid_prob, d["gcell_labels"])
            f1s.append(m["f1"])
            accs.append(m["acc"])
    model.train()
    return {"f1": float(np.mean(f1s)), "acc": float(np.mean(accs))}


def test_congestionnet_cell_gat(cell_level_data, dataset_uni, num_seeds,
                                num_epochs, benchmark):
    split = dataset_uni.split

    def run():
        per_seed = []
        for seed in range(num_seeds):
            model = _train_congestionnet(cell_level_data, split, seed,
                                         num_epochs)
            per_seed.append(_eval_congestionnet(model, cell_level_data,
                                                split))
        return summarize_runs(per_seed)

    summary = benchmark.pedantic(run, rounds=1, iterations=1)
    RESULTS["CongestionNet (cell GAT)"] = summary
    assert np.isfinite(summary.f1_mean)


def test_gridsage_lattice(dataset_uni, num_seeds, num_epochs, benchmark):
    tr = dataset_uni.train_samples()
    te = dataset_uni.test_samples()

    def run():
        per_seed = []
        for seed in range(num_seeds):
            cfg = TrainConfig(epochs=num_epochs, seed=seed)
            model = fit("gridsage", tr, cfg)
            per_seed.append(evaluate(model, te, cfg))
        return summarize_runs(per_seed)

    summary = benchmark.pedantic(run, rounds=1, iterations=1)
    RESULTS["GridSAGE (lattice)"] = summary
    assert np.isfinite(summary.f1_mean)


def test_lhnn_reference(dataset_uni, num_seeds, num_epochs, benchmark):
    tr = dataset_uni.train_samples()
    te = dataset_uni.test_samples()

    def run():
        per_seed = []
        for seed in range(num_seeds):
            cfg = TrainConfig(epochs=num_epochs, seed=seed)
            model = fit("lhnn", tr, cfg, {"channels": 1})
            per_seed.append(evaluate(model, te, cfg))
        return summarize_runs(per_seed)

    summary = benchmark.pedantic(run, rounds=1, iterations=1)
    RESULTS["LHNN (both spaces)"] = summary
    assert np.isfinite(summary.f1_mean)


def test_related_models_report(benchmark):
    if len(RESULTS) < 3:
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
    for name in ("CongestionNet (cell GAT)", "GridSAGE (lattice)"):
        assert lhnn > RESULTS[name].f1_mean - 1.0, (
            f"LHNN should outperform {name}")
