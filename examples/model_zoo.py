#!/usr/bin/env python
"""Model zoo: train every registered model family through one spec.

Loops :func:`repro.api.run_experiment` over the five registered families
(LHNN, MLP, GridSAGE, U-Net, Pix2Pix), sharing one prepared workload,
prints the per-design precision/recall/F1 breakdown for each, and leaves
one checkpoint + result manifest per family under ``artifacts/``.

Usage::

    python examples/model_zoo.py [--epochs 20] [--seed 0]
"""

import argparse
import time

from repro.api import (ExperimentSpec, apply_overrides, load_dataset,
                       run_experiment)
from repro.eval import format_table, per_design_report
from repro.serve.registry import list_families


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = apply_overrides(ExperimentSpec(), [
        f"train.epochs={args.epochs}",
        f"train.seed={args.seed}",
    ])
    # Prepare the workload once; every family trains off the same views.
    dataset = load_dataset(base, verbose=False)
    # Half the grid side mirrors the paper's 256x256-crops-of-~550x600
    # protocol, whatever grid the pipeline is configured for.
    base = apply_overrides(base,
                           [f"train.crop={dataset.graphs[0].nx // 2}"])

    results = {}
    for family in list_families():
        spec = apply_overrides(base, [f"model.family={family}",
                                      f"output.name={family}_zoo"])
        t0 = time.time()
        results[family] = run_experiment(spec, dataset=dataset)
        print(f"trained {family} in {time.time() - t0:.1f} s")

    print()
    for family, result in results.items():
        rows = per_design_report(result.model, dataset.test_samples(),
                                 crop=base.train.crop)
        print(format_table(
            rows, title=f"{family}: held-out per-design results"))
        print(f"mean F1: {result.metrics['f1']:.2f} %  "
              f"(checkpoint: {result.checkpoint_path})\n")

    print("inspect any checkpoint with\n"
          "  python -m repro.cli evaluate --checkpoint "
          "artifacts/lhnn_zoo.npz")


if __name__ == "__main__":
    main()
