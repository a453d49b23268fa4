"""Quadratic (analytical) global placement.

Stand-in for DREAMPlace: minimises the quadratic wirelength

``Φ(x) = Σ_e w_e (x_i - x_j)²``

over movable-cell coordinates with fixed cells as boundary conditions.
Nets are modelled with the standard hybrid net model — cliques for small
nets (degree ≤ 4, weight ``1/(deg-1)``) and stars with an auxiliary centre
variable for larger nets — giving a sparse symmetric positive-definite
system ``L x = b`` solved per axis with conjugate gradients.

Optional anchor terms (``anchor_weight · ‖x - x_anchor‖²``) implement the
SimPL-style pull toward spread positions used by the placement driver.

The system's structure does not change between solves, so each placer
builds one plan (:meth:`~QuadraticPlacer._build_plan`): the Laplacian
diagonal, summed by ``np.bincount`` over the edges' diagonal
contributions in edge-loop order; the off-diagonal triplets; and the
(variable, weight, fixed cell) terms of ``b`` from every edge with one
fixed end.  Each :meth:`~QuadraticPlacer._assemble` call then needs one
``bincount`` for ``b``.  ``bincount`` adds in input order from 0.0,
exactly as the per-edge ``+=`` loop did, so ``(L, b)`` are bit-identical
to :meth:`~QuadraticPlacer._assemble_reference`, the kept loop
(``tests/placement/test_quadratic_exact.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..circuit.design import Design

__all__ = ["QuadraticPlacer"]


def _ordered_sum(index, weights, n: int) -> np.ndarray:
    """``out[index[k]] += weights[k]`` for k in order, from zeros (float64)."""
    return np.bincount(np.asarray(index, dtype=np.int64),
                       weights=np.asarray(weights, dtype=float),
                       minlength=n).astype(float, copy=False)


class QuadraticPlacer:
    """Builds and solves the quadratic placement system for one design."""

    def __init__(self, design: Design, clique_max_degree: int = 4):
        self.design = design
        self.clique_max_degree = clique_max_degree
        self._movable = np.flatnonzero(~design.cell_fixed)
        self._fixed = np.flatnonzero(design.cell_fixed)
        self._var_of_cell = -np.ones(design.num_cells, dtype=np.int64)
        self._var_of_cell[self._movable] = np.arange(len(self._movable))
        self._build_edges()
        self._build_plan()

    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        """Collect weighted 2-pin edges (cell-cell and cell-star)."""
        design = self.design
        rows: list[int] = []
        cols: list[int] = []
        weights: list[float] = []
        # Star variables appended after movable-cell variables.
        num_mov = len(self._movable)
        star_count = 0
        deg = design.net_degree()
        for net in range(design.num_nets):
            d = int(deg[net])
            if d < 2:
                continue
            pins = design.net_pin_slice(net)
            cells = design.pin_cell[pins.start:pins.stop]
            if d <= self.clique_max_degree:
                w = 1.0 / (d - 1)
                for a in range(d):
                    for b in range(a + 1, d):
                        rows.append(int(cells[a]))
                        cols.append(int(cells[b]))
                        weights.append(w)
            else:
                # Star: connect each pin cell to a fresh centre variable.
                star_var = num_mov + star_count
                star_count += 1
                w = 1.0 / d
                for a in range(d):
                    rows.append(int(cells[a]))
                    cols.append(-star_var - 1)  # negative marks a star var
                    weights.append(w)
        self._edge_rows = np.array(rows, dtype=np.int64)
        self._edge_cols = np.array(cols, dtype=np.int64)
        self._edge_w = np.array(weights)
        self._num_star = star_count

    # ------------------------------------------------------------------
    def _build_plan(self) -> None:
        """Axis-independent structure of the system, built once.

        Walks the edges in the order :meth:`_assemble_reference` does and
        records where each edge's weight goes.
        """
        n = len(self._movable) + self._num_star
        var_of_cell = self._var_of_cell.tolist()
        diag_idx: list[int] = []
        diag_w: list[float] = []
        off_r: list[int] = []
        off_c: list[int] = []
        off_v: list[float] = []
        b_idx: list[int] = []
        b_w: list[float] = []
        b_cell: list[int] = []
        for r, c, w in zip(self._edge_rows.tolist(), self._edge_cols.tolist(),
                           self._edge_w.tolist()):
            vi = var_of_cell[r]  # rows are always cells
            vj = -c - 1 if c < 0 else var_of_cell[c]
            i_fixed = vi < 0
            j_fixed = c >= 0 and vj < 0
            if i_fixed and j_fixed:
                continue
            if not i_fixed and not j_fixed:
                diag_idx += (vi, vj)
                diag_w += (w, w)
                off_r.append(vi)
                off_c.append(vj)
                off_v.append(-w)
            elif i_fixed:
                diag_idx.append(vj)
                diag_w.append(w)
                b_idx.append(vj)
                b_w.append(w)
                b_cell.append(r)
            else:
                diag_idx.append(vi)
                diag_w.append(w)
                b_idx.append(vi)
                b_w.append(w)
                b_cell.append(c)
        self._diag = _ordered_sum(diag_idx, diag_w, n)
        self._off_v = np.concatenate([off_v, off_v])
        self._lap_rows = np.concatenate([np.arange(n), off_r, off_c])
        self._lap_cols = np.concatenate([np.arange(n), off_c, off_r])
        self._b_idx = np.array(b_idx, dtype=np.int64)
        self._b_w = np.array(b_w, dtype=float)
        self._b_cell = np.array(b_cell, dtype=np.int64)

    def _assemble(self, axis_pos: np.ndarray,
                  anchors: np.ndarray | None,
                  anchor_weight: float):
        """Assemble the SPD system (L, b) for one axis."""
        num_mov = len(self._movable)
        n = num_mov + self._num_star
        diag = self._diag.copy()
        b = _ordered_sum(self._b_idx, self._b_w * axis_pos[self._b_cell], n)
        if anchors is not None and anchor_weight > 0:
            diag[:num_mov] += anchor_weight
            b[:num_mov] += anchor_weight * anchors

        # Tiny regularisation keeps disconnected components well-posed.
        diag += 1e-9
        lap = sp.coo_matrix(
            (np.concatenate([diag, self._off_v]),
             (self._lap_rows, self._lap_cols)), shape=(n, n)).tocsr()
        return lap, b

    def _assemble_reference(self, axis_pos: np.ndarray,
                            anchors: np.ndarray | None,
                            anchor_weight: float):
        """Per-edge loop reference of :meth:`_assemble` (same bits)."""
        design = self.design
        num_mov = len(self._movable)
        n = num_mov + self._num_star
        diag = np.zeros(n)
        off_r: list[int] = []
        off_c: list[int] = []
        off_v: list[float] = []
        b = np.zeros(n)

        def var_index(token: int) -> int:
            """Map edge endpoint token → system variable or -1 if fixed."""
            if token < 0:  # star variable
                return -token - 1
            v = self._var_of_cell[token]
            return int(v)

        for r, c, w in zip(self._edge_rows, self._edge_cols, self._edge_w):
            vi = var_index(int(r))
            vj = var_index(int(c))
            pi = axis_pos[r] if r >= 0 else 0.0
            pj = axis_pos[c] if c >= 0 else 0.0
            i_fixed = (r >= 0 and vi < 0)
            j_fixed = (c >= 0 and vj < 0)
            if i_fixed and j_fixed:
                continue
            if not i_fixed and not j_fixed:
                diag[vi] += w
                diag[vj] += w
                off_r.append(vi)
                off_c.append(vj)
                off_v.append(-w)
            elif i_fixed:
                diag[vj] += w
                b[vj] += w * pi
            else:
                diag[vi] += w
                b[vi] += w * pj

        if anchors is not None and anchor_weight > 0:
            diag[:num_mov] += anchor_weight
            b[:num_mov] += anchor_weight * anchors

        # Tiny regularisation keeps disconnected components well-posed.
        diag += 1e-9
        lap = sp.coo_matrix(
            (np.concatenate([diag, off_v, off_v]),
             (np.concatenate([np.arange(n), off_r, off_c]),
              np.concatenate([np.arange(n), off_c, off_r]))),
            shape=(n, n)).tocsr()
        return lap, b

    # ------------------------------------------------------------------
    def solve(self, anchors_x: np.ndarray | None = None,
              anchors_y: np.ndarray | None = None,
              anchor_weight: float = 0.0,
              tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
        """Solve for movable-cell (x, y); returns positions of movable cells.

        ``anchors_*`` (length = #movable) add quadratic pull terms; used by
        the spreading loop.  Positions of fixed cells come from the design.
        """
        design = self.design
        num_mov = len(self._movable)
        if num_mov == 0:
            return np.array([]), np.array([])
        results = []
        for axis, anchors in (("x", anchors_x), ("y", anchors_y)):
            pos = design.cell_x if axis == "x" else design.cell_y
            # Use cell centres for the net model.
            half = (design.cell_w if axis == "x" else design.cell_h) / 2.0
            lap, b = self._assemble(pos + half, anchors, anchor_weight)
            x0 = np.concatenate([
                (pos + half)[self._movable],
                np.full(self._num_star, float((pos + half).mean())),
            ])
            sol, info = spla.cg(lap, b, x0=x0, rtol=tol, maxiter=2000)
            if info != 0:  # pragma: no cover - CG rarely stalls on SPD systems
                sol = spla.spsolve(lap.tocsc(), b)
            results.append(sol[:num_mov] - half[self._movable])
        lo_x, lo_y = results
        xl, yl, xh, yh = design.die
        w = design.cell_w[self._movable]
        h = design.cell_h[self._movable]
        return (np.clip(lo_x, xl, xh - w), np.clip(lo_y, yl, yh - h))
