"""Figure 2 — crafted features recovered by one-step LH-graph message passing.

The paper's §3.2 argues the LH-graph encodes the conventional crafted
features: assigning simple per-G-net payloads and doing one sum-aggregated
hop over the G-net → G-cell relation reproduces the net-density and RUDY
maps exactly, and the expected pin-density map in expectation.  This bench
verifies the identities to machine precision on every suite design and
times the one-step recovery against the direct (loop-based) generators.
"""

import numpy as np

from repro.features import net_density_maps, rudy_map
from repro.nn import Tensor, spmm


def _recover_all(graph):
    """One-step message passing recovery of H/V net density and RUDY."""
    vn = graph.gnets.features
    span_v = vn[:, 0:1]
    span_h = vn[:, 1:2]
    npin = vn[:, 2:3]
    area = vn[:, 3:4]
    payload = np.concatenate([1.0 / span_v, 1.0 / span_h,
                              npin * (span_h + span_v) / area], axis=1)
    return spmm(graph.op_nc_sum, Tensor(payload)).data


def test_fig2_feature_recovery(suite_graphs, save_artifact, benchmark):
    graph = suite_graphs[0]

    recovered = benchmark(_recover_all, graph)

    lines = ["Figure 2: crafted-feature recovery by one-step message passing",
             f"{'design':<14} {'max|Δ netdens H|':>18} "
             f"{'max|Δ netdens V|':>18} {'max|Δ RUDY|':>14}"]
    for g in suite_graphs:
        rec = _recover_all(g)
        h_ref, v_ref = net_density_maps(g.gnets, g.nx, g.ny)
        rudy_ref = rudy_map(g.gnets, g.nx, g.ny)
        err_h = np.abs(rec[:, 0] - h_ref.reshape(-1)).max()
        err_v = np.abs(rec[:, 1] - v_ref.reshape(-1)).max()
        err_r = np.abs(rec[:, 2] - rudy_ref.reshape(-1)).max()
        lines.append(f"{g.name:<14} {err_h:>18.2e} {err_v:>18.2e} "
                     f"{err_r:>14.2e}")
        assert err_h < 1e-9
        assert err_v < 1e-9
        assert err_r < 1e-9
    save_artifact("fig2_feature_recovery.txt", "\n".join(lines))
