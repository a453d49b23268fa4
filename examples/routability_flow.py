#!/usr/bin/env python
"""Routability-driven placement flow with LHNN as a fast congestion oracle.

The paper's motivating scenario (§1): inside the placement loop, running
a global router for a congestion map is too slow, and fast estimators like
RUDY are unreliable.  This example plays the whole story on one design:

1. place a congested design,
2. get the *ground-truth* congestion map from the global router (slow),
3. get the RUDY estimate (fast but crude) and a trained LHNN prediction
   (fast and learned),
4. compare accuracy (F1 against the router's map) and wall-clock cost.

LHNN is trained on the other designs of the suite first — it has never
seen the design being analysed.

Usage::

    python examples/routability_flow.py
"""

import time

import numpy as np

from repro.data import CongestionDataset
from repro.eval import comparison_panel
from repro.features import compute_gnets, rudy_map
from repro.nn import Tensor, no_grad
from repro.pipeline import PipelineConfig, prepare_workload
from repro.train import TrainConfig, f1_score, fit
from repro.train.metrics import evaluate_binary


def main() -> None:
    print("== preparing suite (cached after first run) ==")
    graphs = prepare_workload("superblue", PipelineConfig())
    dataset = CongestionDataset(graphs, channels=1)

    # Hold out the most congested test design as "the design being placed".
    test_ids = dataset.split.test_indices
    rates = dataset.congestion_rates(0)
    target_idx = max(test_ids, key=lambda i: rates[i])
    target = dataset.sample(target_idx)
    g = target.graph
    print(f"target design: {g.name} "
          f"(H-congestion rate {100 * rates[target_idx]:.1f} %)")

    # ---- train LHNN on the other designs --------------------------------
    train_samples = [dataset.sample(i) for i in range(len(graphs))
                     if i != target_idx]
    print("\n== training LHNN on the remaining 14 designs ==")
    t0 = time.time()
    model = fit("lhnn", train_samples, TrainConfig(epochs=20, seed=0),
                {"channels": 1})
    print(f"   {time.time() - t0:.1f} s")

    # ---- oracle 1: the global router (ground truth, slow) ---------------
    # (already computed by the pipeline; time a fresh run for the report)
    from repro.circuit import superblue_suite
    from repro.placement import place
    from repro.routing import GlobalRouter, RouterConfig, extract_maps
    design = [d for d in superblue_suite() if d.name == g.name][0]
    place(design)
    t0 = time.time()
    result = GlobalRouter(design, RouterConfig()).run()
    router_time = time.time() - t0
    truth = extract_maps(result.grid).congestion_h
    print(f"\nglobal router:   {router_time * 1e3:8.1f} ms  (ground truth)")

    # ---- oracle 2: RUDY (fast, unreliable) -------------------------------
    t0 = time.time()
    gnets = compute_gnets(design, result.grid, max_fraction=0.05)
    rudy = rudy_map(gnets, g.nx, g.ny)
    rudy_time = time.time() - t0
    # Threshold RUDY at the quantile matching the true congestion rate —
    # the most charitable calibration possible.
    q = 1.0 - max(truth.mean(), 1e-6)
    rudy_mask = rudy > np.quantile(rudy, q)
    rudy_f1 = 100 * f1_score(rudy_mask, truth)
    print(f"RUDY estimate:   {rudy_time * 1e3:8.1f} ms  F1 {rudy_f1:5.1f} %")

    # ---- oracle 3: LHNN (fast, learned) ----------------------------------
    model.eval()
    t0 = time.time()
    with no_grad():
        out = model(g, vc=Tensor(target.features),
                    vn=Tensor(target.net_features))
    lhnn_time = time.time() - t0
    lhnn_prob = g.map_to_grid(out.cls_prob.data[:, 0])
    lhnn_metrics = evaluate_binary(out.cls_prob.data,
                                   truth.reshape(-1, 1).astype(float))
    print(f"LHNN prediction: {lhnn_time * 1e3:8.1f} ms  "
          f"F1 {lhnn_metrics['f1']:5.1f} %  "
          f"({router_time / max(lhnn_time, 1e-9):.0f}x faster than routing)")

    print("\n" + comparison_panel(
        truth.astype(float),
        {"RUDY (calibrated)": rudy_mask.astype(float),
         "LHNN": lhnn_prob},
        title=f"{g.name}: ground truth vs fast estimates"))


if __name__ == "__main__":
    main()
