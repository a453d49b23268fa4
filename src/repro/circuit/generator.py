"""Synthetic "superblue-like" benchmark generator.

The paper evaluates on the ISPD 2011 / DAC 2012 contest suites (15
``superblue`` designs).  Those inputs are multi-gigabyte proprietary-fab
derived benchmarks we cannot ship, so this module generates circuits that
reproduce the statistical structure that drives routing congestion:

* **Clustered logic** — cells belong to Rent's-rule-style clusters; most
  nets are intra-cluster (short), a tunable fraction are global.
* **Skewed net degrees** — net fan-out follows a shifted-geometric
  distribution with a heavy tail (occasional very large nets, which the
  LH-graph builder later filters at the paper's 0.25 % threshold).
* **Terminals and macros** — fixed I/O pads on the periphery and large
  fixed macro blocks that create routing blockages and congestion hotspots.
* **Per-design congestion diversity** — the paper's designs span
  congestion rates from ~1 % to ~48 % (Figure 4); the suite varies die
  utilisation and routing capacity per design to cover the same range.

The generated designs flow through exactly the same pipeline (placement →
routing → features → LH-graph) as real Bookshelf designs parsed by
:mod:`repro.circuit.bookshelf`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import Design

__all__ = ["DesignSpec", "generate_design", "superblue_suite",
           "macro_heavy_suite", "hotspot_suite"]

# The 15 design ids used in the paper (Table 1): 10 train + 5 test.
SUPERBLUE_IDS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14, 16, 18, 19)


@dataclass
class DesignSpec:
    """Parameters controlling one synthetic design.

    The defaults give a CPU-scale design; ``scale`` multiplies cell and net
    counts for larger runs.

    Attributes
    ----------
    name: design name, e.g. ``"superblue5"``.
    seed: RNG seed; every array drawn in generation derives from it.
    num_movable: number of movable standard cells.
    num_terminals: number of fixed peripheral I/O pads.
    num_macros: number of large fixed macro blocks.
    nets_per_cell: ratio of nets to movable cells.
    die_size: die edge length in database units (square die).
    num_clusters: number of logic clusters.
    cluster_spread: std-dev of a cluster's cell cloud, in die fractions.
    p_local: probability a net is intra-cluster.
    degree_p: geometric parameter of the net-degree distribution.
    max_degree: hard cap on net degree.
    utilization: target fraction of die area covered by movable cells.
    capacity_factor: per-design routing-capacity multiplier; lower values
        produce more congested designs (the suite's diversity knob).
    """

    name: str = "synthetic"
    seed: int = 0
    num_movable: int = 900
    num_terminals: int = 64
    num_macros: int = 4
    nets_per_cell: float = 1.0
    die_size: float = 64.0
    num_clusters: int = 9
    cluster_spread: float = 0.08
    p_local: float = 0.78
    degree_p: float = 0.45
    max_degree: int = 24
    utilization: float = 0.45
    capacity_factor: float = 1.0
    row_height: float = 1.0
    metadata: dict = field(default_factory=dict)


def _net_degrees(rng: np.random.Generator, count: int, spec: DesignSpec) -> np.ndarray:
    """Sample net degrees: 2 + geometric body with a small heavy tail."""
    base = 2 + rng.geometric(spec.degree_p, size=count) - 1
    # ~2 % of nets get a tail degree (clock/reset-like high fan-out).
    tail = rng.random(count) < 0.02
    tail_extra = rng.integers(4, max(5, spec.max_degree), size=count)
    deg = np.where(tail, base + tail_extra, base)
    return np.clip(deg, 2, spec.max_degree)


def _place_macros(rng: np.random.Generator, spec: DesignSpec):
    """Macro rectangles placed away from the periphery, non-overlapping-ish."""
    size = spec.die_size
    widths, heights, xs, ys = [], [], [], []
    attempts = 0
    while len(widths) < spec.num_macros and attempts < 200:
        attempts += 1
        w = rng.uniform(0.08, 0.18) * size
        h = rng.uniform(0.08, 0.18) * size
        x = rng.uniform(0.1 * size, 0.9 * size - w)
        y = rng.uniform(0.1 * size, 0.9 * size - h)
        overlap = any(not (x + w <= xo or xo + wo <= x
                           or y + h <= yo or yo + ho <= y)
                      for xo, yo, wo, ho in zip(xs, ys, widths, heights))
        if not overlap:
            widths.append(w)
            heights.append(h)
            xs.append(x)
            ys.append(y)
    return (np.array(xs), np.array(ys), np.array(widths), np.array(heights))


def generate_design(spec: DesignSpec) -> Design:
    """Generate one synthetic design from ``spec`` (deterministic in seed)."""
    rng = np.random.default_rng(spec.seed)
    size = spec.die_size
    die = (0.0, 0.0, size, size)

    # ---- clusters -----------------------------------------------------
    centers = rng.uniform(0.12 * size, 0.88 * size, size=(spec.num_clusters, 2))
    cluster_of = rng.integers(0, spec.num_clusters, size=spec.num_movable)

    # ---- movable standard cells --------------------------------------
    # Widths chosen so total area ≈ utilization * die area.
    target_area = spec.utilization * size * size
    mean_w = target_area / (spec.num_movable * spec.row_height)
    widths_mov = np.clip(rng.gamma(4.0, mean_w / 4.0, size=spec.num_movable),
                         0.2 * mean_w, 4.0 * mean_w)
    heights_mov = np.full(spec.num_movable, spec.row_height)
    spread = spec.cluster_spread * size
    pos = centers[cluster_of] + rng.normal(0.0, spread, size=(spec.num_movable, 2))
    x_mov = np.clip(pos[:, 0], 0.0, size - widths_mov)
    y_mov = np.clip(pos[:, 1], 0.0, size - heights_mov)

    # ---- macros -------------------------------------------------------
    mx, my, mw, mh = _place_macros(rng, spec)
    num_macros = len(mx)

    # ---- peripheral terminals ----------------------------------------
    n_t = spec.num_terminals
    t_side = rng.integers(0, 4, size=n_t)
    t_frac = rng.uniform(0.02, 0.98, size=n_t)
    tw = np.full(n_t, 1.0)
    th = np.full(n_t, 1.0)
    tx = np.where(t_side == 0, 0.0,
                  np.where(t_side == 1, size - 1.0, t_frac * (size - 1.0)))
    ty = np.where(t_side == 2, 0.0,
                  np.where(t_side == 3, size - 1.0, t_frac * (size - 1.0)))

    # ---- assemble cell arrays ----------------------------------------
    cell_w = np.concatenate([widths_mov, mw, tw])
    cell_h = np.concatenate([heights_mov, mh, th])
    cell_x = np.concatenate([x_mov, mx, tx])
    cell_y = np.concatenate([y_mov, my, ty])
    cell_fixed = np.concatenate([
        np.zeros(spec.num_movable, dtype=bool),
        np.ones(num_macros + n_t, dtype=bool),
    ])
    cell_names = ([f"c{i}" for i in range(spec.num_movable)]
                  + [f"macro{i}" for i in range(num_macros)]
                  + [f"pad{i}" for i in range(n_t)])

    # ---- nets ---------------------------------------------------------
    num_nets = int(round(spec.nets_per_cell * spec.num_movable))
    degrees = _net_degrees(rng, num_nets, spec)
    first_macro = spec.num_movable
    first_pad = spec.num_movable + num_macros
    num_cells = len(cell_names)

    # Pre-bucket movable cells by cluster for fast local sampling.
    by_cluster = [np.flatnonzero(cluster_of == c) for c in range(spec.num_clusters)]

    net_names = [f"n{i}" for i in range(num_nets)]
    net_ptr = np.zeros(num_nets + 1, dtype=np.int64)
    pin_cells: list[np.ndarray] = []
    is_local = rng.random(num_nets) < spec.p_local
    driver = rng.integers(0, spec.num_movable, size=num_nets)
    for i in range(num_nets):
        d = int(degrees[i])
        root = int(driver[i])
        members = [root]
        if is_local[i]:
            pool = by_cluster[cluster_of[root]]
            picks = pool[rng.integers(0, len(pool), size=d - 1)]
        else:
            # Global net: mix of any movable cell, macros and pads.
            r = rng.random(d - 1)
            picks = np.empty(d - 1, dtype=np.int64)
            any_mov = rng.integers(0, spec.num_movable, size=d - 1)
            picks[:] = any_mov
            pad_mask = r < 0.15
            picks[pad_mask] = rng.integers(first_pad, num_cells,
                                           size=int(pad_mask.sum()))
            if num_macros:
                macro_mask = (r >= 0.15) & (r < 0.25)
                picks[macro_mask] = rng.integers(first_macro, first_pad,
                                                 size=int(macro_mask.sum()))
        members.extend(int(p) for p in picks)
        # Deduplicate while preserving net degree >= 2.
        members = list(dict.fromkeys(members))
        if len(members) < 2:
            alt = int(rng.integers(0, spec.num_movable))
            while alt == members[0]:
                alt = int(rng.integers(0, spec.num_movable))
            members.append(alt)
        pin_cells.append(np.array(members, dtype=np.int64))
        net_ptr[i + 1] = net_ptr[i] + len(members)

    pin_cell = np.concatenate(pin_cells)
    num_pins = len(pin_cell)
    # Pin offsets: uniform inside the owning cell.
    off_u = rng.random(num_pins)
    off_v = rng.random(num_pins)
    pin_dx = off_u * cell_w[pin_cell]
    pin_dy = off_v * cell_h[pin_cell]

    meta = dict(spec.metadata)
    meta.update({
        "capacity_factor": spec.capacity_factor,
        "num_clusters": spec.num_clusters,
        "seed": spec.seed,
        "spec_name": spec.name,
    })
    return Design(
        name=spec.name,
        cell_names=cell_names,
        cell_w=cell_w, cell_h=cell_h, cell_fixed=cell_fixed,
        cell_x=cell_x, cell_y=cell_y,
        net_names=net_names, net_ptr=net_ptr,
        pin_cell=pin_cell, pin_dx=pin_dx, pin_dy=pin_dy,
        die=die, row_height=spec.row_height, metadata=meta,
    )


def superblue_suite(scale: float = 1.0, base_seed: int = 2022) -> list[Design]:
    """Generate the 15-design synthetic suite mirroring Table 1.

    Per-design parameters are varied deterministically so the suite spans
    a wide congestion range (the paper's test designs run from 1.1 % to
    47.7 % congested G-cells).  ``scale`` multiplies cell/net counts.
    """
    designs = []
    rng = np.random.default_rng(base_seed)
    for i, sid in enumerate(SUPERBLUE_IDS):
        # Spread utilisation and capacity widely but deterministically.
        utilization = float(rng.uniform(0.35, 0.6))
        capacity = float(rng.uniform(0.75, 1.45))
        p_local = float(rng.uniform(0.7, 0.85))
        clusters = int(rng.integers(6, 13))
        spec = DesignSpec(
            name=f"superblue{sid}",
            seed=base_seed * 1000 + sid,
            num_movable=int(900 * scale * rng.uniform(0.8, 1.25)),
            num_terminals=int(64 * max(1.0, scale ** 0.5)),
            num_macros=int(rng.integers(3, 7)),
            nets_per_cell=float(rng.uniform(0.9, 1.1)),
            die_size=64.0 * scale ** 0.5,
            num_clusters=clusters,
            p_local=p_local,
            utilization=utilization,
            capacity_factor=capacity,
        )
        designs.append(generate_design(spec))
    return designs


def macro_heavy_suite(scale: float = 1.0, base_seed: int = 2022,
                      count: int = 8) -> list[Design]:
    """Macro-dominated scenario family (``--suite macro-heavy``).

    Each design carries 2–4× the macro count of the superblue-like suite
    at elevated utilisation, so large fixed blockages — not wirelength —
    drive congestion.  This stresses the blockage-derating path of the
    routing grid and the terminal-mask feature channel, the regime where
    CNN baselines historically over-predict around macro edges.
    """
    designs = []
    rng = np.random.default_rng(base_seed + 7_001)
    for i in range(count):
        spec = DesignSpec(
            name=f"macroheavy{i}",
            seed=base_seed * 1000 + 500 + i,
            num_movable=int(900 * scale * rng.uniform(0.8, 1.2)),
            num_terminals=int(64 * max(1.0, scale ** 0.5)),
            num_macros=int(rng.integers(10, 17)),
            nets_per_cell=float(rng.uniform(0.9, 1.1)),
            die_size=64.0 * scale ** 0.5,
            num_clusters=int(rng.integers(6, 11)),
            p_local=float(rng.uniform(0.7, 0.82)),
            utilization=float(rng.uniform(0.5, 0.65)),
            capacity_factor=float(rng.uniform(0.7, 1.1)),
        )
        designs.append(generate_design(spec))
    return designs


def hotspot_suite(scale: float = 1.0, base_seed: int = 2022,
                  count: int = 8) -> list[Design]:
    """Clustered congestion-hotspot scenario family (``--suite hotspot``).

    Very few, very tight logic clusters with mostly-local connectivity
    concentrate pin and routing demand into a handful of G-cell
    neighbourhoods; reduced track capacity turns those neighbourhoods
    into pronounced hotspots while the rest of the die stays nearly
    empty.  The congestion-rate distribution is therefore strongly
    bimodal per G-cell — the hard case for threshold-calibrated
    predictors trained on the smoother superblue-like suite.
    """
    designs = []
    rng = np.random.default_rng(base_seed + 9_001)
    for i in range(count):
        spec = DesignSpec(
            name=f"hotspot{i}",
            seed=base_seed * 1000 + 700 + i,
            num_movable=int(900 * scale * rng.uniform(0.8, 1.2)),
            num_terminals=int(48 * max(1.0, scale ** 0.5)),
            num_macros=int(rng.integers(1, 4)),
            nets_per_cell=float(rng.uniform(1.0, 1.2)),
            die_size=64.0 * scale ** 0.5,
            num_clusters=int(rng.integers(2, 5)),
            cluster_spread=float(rng.uniform(0.03, 0.05)),
            p_local=float(rng.uniform(0.85, 0.93)),
            utilization=float(rng.uniform(0.4, 0.55)),
            capacity_factor=float(rng.uniform(0.55, 0.85)),
        )
        designs.append(generate_design(spec))
    return designs
