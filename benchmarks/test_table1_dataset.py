"""Table 1 — dataset statistics and the balanced 10:5 split.

Regenerates the paper's Table 1 on the synthetic suite: per-split average
cell/net/G-cell counts and the train/test congestion rates, chosen by
exhaustively minimising the rate gap over all C(15,5) = 3003 splits.
The paper's selected split reaches a 17.38 % rate on both sides (gap ≈ 0);
the reproduction's gap must likewise be tiny.
"""

import numpy as np

from repro.data.splits import enumerate_splits, select_balanced_split
from repro.eval import format_table


def test_table1_dataset_statistics(dataset_uni, save_artifact, benchmark):
    rates = dataset_uni.congestion_rates(0)

    split = benchmark(select_balanced_split, rates, 5)

    assert len(list(enumerate_splits(15, 5))) == 3003
    assert len(split.train_indices) == 10
    assert len(split.test_indices) == 5
    # The exhaustive selection must produce a near-zero rate gap (paper:
    # both sides at exactly 17.38 %).
    assert split.rate_gap < 0.01

    rows = dataset_uni.table1_rows()
    text = format_table(rows, title="Table 1: dataset information "
                        "(synthetic superblue suite)")
    text += (f"\nper-design H-congestion rates (%): "
             f"{[round(float(100 * r), 1) for r in rates]}")
    text += (f"\nselected split gap: {100 * split.rate_gap:.3f} pp "
             f"(train {100 * split.train_rate:.2f} %, "
             f"test {100 * split.test_rate:.2f} %)")
    save_artifact("table1.txt", text)
