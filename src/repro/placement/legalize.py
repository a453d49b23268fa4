"""Row legalisation (Tetris-style greedy).

After global placement and spreading, movable standard cells must sit on
row grid positions without overlaps and away from macro blockages.  This
greedy legaliser processes cells in x-order and packs each into the
feasible row segment closest to its global position — the classic
"Tetris" heuristic, adequate for label-generation purposes.

:func:`legalize` scores every candidate position of a cell at once: the
rows' free segments, each row followed by its overfill fallback slot,
are flattened once into per-slot arrays in the loop's row → segment →
fallback order, with one cursor array shared by a row's last segment and
its fallback.  Per cell, the slot costs are the loop's float expressions
evaluated elementwise (infeasible segments cost ``inf``), and
``np.argmin`` takes the first minimum, as the loop's strict ``<`` does.
So every cell lands on the same row and the same bits as in the per-slot
loop, kept as :func:`_legalize_reference` and pinned by
``tests/placement/test_legalize_exact.py``.
"""

from __future__ import annotations

import numpy as np

from ..circuit.design import Design

__all__ = ["legalize", "overlap_count"]


def row_segments(design: Design) -> list[list[tuple[float, float]]]:
    """Free intervals per row after subtracting fixed-cell blockages.

    Returns ``segments[row] = [(xl0, xh0), ...]`` sorted by x.
    """
    xl, yl, xh, yh = design.die
    num_rows = max(1, int(round((yh - yl) / design.row_height)))
    segments: list[list[tuple[float, float]]] = [[(xl, xh)] for _ in range(num_rows)]
    for i in np.flatnonzero(design.cell_fixed):
        bx0, bx1 = design.cell_x[i], design.cell_x[i] + design.cell_w[i]
        by0, by1 = design.cell_y[i], design.cell_y[i] + design.cell_h[i]
        r0 = int(np.floor((by0 - yl) / design.row_height))
        r1 = int(np.ceil((by1 - yl) / design.row_height)) - 1
        for r in range(max(r0, 0), min(r1, num_rows - 1) + 1):
            new_segs: list[tuple[float, float]] = []
            for s0, s1 in segments[r]:
                if bx1 <= s0 or bx0 >= s1:
                    new_segs.append((s0, s1))
                    continue
                if bx0 > s0:
                    new_segs.append((s0, bx0))
                if bx1 < s1:
                    new_segs.append((bx1, s1))
            segments[r] = new_segs
    return segments


def legalize(design: Design) -> Design:
    """Legalise movable cells onto rows in place (greedy Tetris packing).

    Cells are processed left-to-right; each is placed in the row whose
    remaining free cursor position minimises displacement from its global
    location.  When no free segment fits anywhere (genuinely overfull
    die), the cell is appended at the high-water mark of the
    least-overflowing row: movable cells then never overlap each other —
    the invariant label generation relies on — though such spills may sit
    over fixed blockages or past the die edge, since in that regime no
    fully legal position exists.  The overflow penalty spreads spills
    across rows instead of marching one row out.
    """
    xl, yl, xh, yh = design.die
    rh = design.row_height
    num_rows = max(1, int(round((yh - yl) / rh)))
    segments = row_segments(design)
    # One slot per free segment, then the row's fallback slot, in loop
    # order; a fallback slot reads its row's last segment's cursor.
    slot_row, slot_seg, slot_end, fallback = [], [], [], []
    starts = []
    for r, segs in enumerate(segments):
        for s0, s1 in segs:
            slot_row.append(r)
            slot_seg.append(len(starts))
            slot_end.append(s1)
            fallback.append(False)
            starts.append(s0)
        if segs:
            slot_row.append(r)
            slot_seg.append(len(starts) - 1)
            slot_end.append(segs[-1][1])
            fallback.append(True)
    slot_seg = np.array(slot_seg, dtype=np.int64)
    slot_end = np.array(slot_end, dtype=float)
    slot_y = yl + np.array(slot_row, dtype=np.int64) * rh
    fallback = np.array(fallback, dtype=bool)
    cursors = np.array(starts, dtype=float)

    movable = np.flatnonzero(~design.cell_fixed)
    order = movable[np.argsort(design.cell_x[movable])]
    for cid in order:
        w = design.cell_w[cid]
        gx = design.cell_x[cid]
        gy = design.cell_y[cid]
        if not len(slot_seg):
            # Every row is fully blocked by fixed cells: stack at the die
            # edge of the nearest row (nothing legal exists).
            r = int(np.clip(round((gy - yl) / rh), 0, num_rows - 1))
            design.cell_y[cid] = yl + r * rh
            design.cell_x[cid] = min(max(gx, xl), xh - w)
            continue
        cur = cursors[slot_seg]
        x = np.where(fallback, cur,
                     np.maximum(cur, np.minimum(gx, slot_end - w)))
        cost = np.abs(x - gx) + np.abs(slot_y - gy)
        # Overfill fallback: append at the row's high-water mark (the
        # last segment's cursor).  A spill placed there can never reach
        # a seated movable cell, unlike stacking at the die edge, and the
        # penalty keeps any fitting segment strictly preferred.
        cost += np.where(fallback, 1e6 * np.maximum(x + w - slot_end, 0.0),
                         0.0)
        cost[~fallback & (x + w > slot_end + 1e-9)] = np.inf
        k = int(np.argmin(cost))
        design.cell_x[cid] = x[k]
        design.cell_y[cid] = yl + slot_row[k] * rh
        cursors[slot_seg[k]] = x[k] + w
    return design


def _legalize_reference(design: Design) -> Design:
    """Per-slot loop reference of :func:`legalize` (same bits)."""
    xl, yl, xh, yh = design.die
    num_rows = max(1, int(round((yh - yl) / design.row_height)))
    segments = row_segments(design)
    # cursor[r][s] = next free x in segment s of row r
    cursors: list[list[float]] = [[s0 for s0, _ in segs] for segs in segments]

    movable = np.flatnonzero(~design.cell_fixed)
    order = movable[np.argsort(design.cell_x[movable])]
    for cid in order:
        w = design.cell_w[cid]
        gx = design.cell_x[cid]
        gy = design.cell_y[cid]
        best = None  # (cost, row, seg, x)
        for r in range(num_rows):
            if not segments[r]:
                continue
            row_y = yl + r * design.row_height
            dy = abs(row_y - gy)
            for s, (s0, s1) in enumerate(segments[r]):
                cur = cursors[r][s]
                x = max(cur, min(gx, s1 - w))
                if x + w > s1 + 1e-9:
                    continue
                cost = abs(x - gx) + dy
                if best is None or cost < best[0]:
                    best = (cost, r, s, x)
            # Overfill fallback: append at the row's high-water mark (the
            # last segment's cursor).  A spill placed there can never reach
            # a seated movable cell, unlike stacking at the die edge, and
            # the penalty keeps any fitting segment strictly preferred.
            s_last = len(segments[r]) - 1
            x = cursors[r][s_last]
            overflow = max(x + w - segments[r][s_last][1], 0.0)
            cost = abs(x - gx) + dy + 1e6 * overflow
            if best is None or cost < best[0]:
                best = (cost, r, s_last, x)
        if best is None:
            # Every row is fully blocked by fixed cells: stack at the die
            # edge of the nearest row (nothing legal exists).
            r = int(np.clip(round((gy - yl) / design.row_height), 0, num_rows - 1))
            design.cell_y[cid] = yl + r * design.row_height
            design.cell_x[cid] = min(max(gx, xl), xh - w)
            continue
        _, r, s, x = best
        design.cell_x[cid] = x
        design.cell_y[cid] = yl + r * design.row_height
        cursors[r][s] = x + w
    return design


def overlap_count(design: Design, tolerance: float = 1e-6) -> int:
    """Number of overlapping movable-cell pairs within the same row.

    Used by tests to verify legalisation; O(n log n) per row via sorting.
    """
    movable = np.flatnonzero(~design.cell_fixed)
    rows: dict[float, list[int]] = {}
    for cid in movable:
        rows.setdefault(round(float(design.cell_y[cid]), 6), []).append(cid)
    overlaps = 0
    for cells in rows.values():
        cells.sort(key=lambda c: design.cell_x[c])
        for a, b in zip(cells, cells[1:]):
            if design.cell_x[a] + design.cell_w[a] > design.cell_x[b] + tolerance:
                overlaps += 1
    return overlaps
