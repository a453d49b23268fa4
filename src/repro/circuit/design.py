"""Netlist and design containers.

A :class:`Design` holds the circuit exactly as the ISPD 2011 / DAC 2012
contest benchmarks describe it: cells (movable standard cells, fixed
terminals and macros), pins with per-cell offsets, nets connecting pins and
a rectangular die.  Storage is flat numpy arrays in CSR-like layout so that
million-cell designs remain tractable and so feature extraction and graph
construction vectorise cleanly.

Coordinate convention: cell positions (``cell_x``, ``cell_y``) are the
lower-left corner of the cell; pin offsets are relative to that corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Design", "validate_design"]


@dataclass
class Design:
    """A placed or unplaced VLSI design.

    Attributes
    ----------
    name:
        Design identifier (e.g. ``"superblue1"``).
    cell_names:
        One name per cell; index is the cell id used everywhere else.
    cell_w, cell_h:
        Cell widths / heights in database units.
    cell_fixed:
        Boolean mask; True for terminals/macros whose position is final.
    cell_x, cell_y:
        Lower-left cell coordinates (updated by the placer).
    net_names:
        One name per net.
    net_ptr:
        CSR row pointer of length ``num_nets + 1``; pins of net *i* live in
        ``pin_*[net_ptr[i]:net_ptr[i+1]]``.
    pin_cell:
        Cell id of each pin.
    pin_dx, pin_dy:
        Pin offsets from the owning cell's lower-left corner.
    die:
        ``(xl, yl, xh, yh)`` die rectangle.
    row_height:
        Standard-cell row height used by legalisation.
    """

    name: str
    cell_names: list[str]
    cell_w: np.ndarray
    cell_h: np.ndarray
    cell_fixed: np.ndarray
    cell_x: np.ndarray
    cell_y: np.ndarray
    net_names: list[str]
    net_ptr: np.ndarray
    pin_cell: np.ndarray
    pin_dx: np.ndarray
    pin_dy: np.ndarray
    die: tuple[float, float, float, float]
    row_height: float = 1.0
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Total number of cells (movable + fixed)."""
        return len(self.cell_names)

    @property
    def num_movable(self) -> int:
        """Number of movable cells."""
        return int((~self.cell_fixed).sum())

    @property
    def num_terminals(self) -> int:
        """Number of fixed cells (terminals and macros)."""
        return int(self.cell_fixed.sum())

    @property
    def num_nets(self) -> int:
        """Number of nets."""
        return len(self.net_names)

    @property
    def num_pins(self) -> int:
        """Number of pins across all nets."""
        return len(self.pin_cell)

    # ------------------------------------------------------------------
    def net_pin_slice(self, net: int) -> slice:
        """Slice selecting the pins of ``net`` inside the flat pin arrays."""
        return slice(int(self.net_ptr[net]), int(self.net_ptr[net + 1]))

    def net_degree(self) -> np.ndarray:
        """Vector of pin counts per net."""
        return np.diff(self.net_ptr)

    def pin_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Absolute (x, y) position of every pin at the current placement."""
        px = self.cell_x[self.pin_cell] + self.pin_dx
        py = self.cell_y[self.pin_cell] + self.pin_dy
        return px, py

    def net_bounding_boxes(self) -> np.ndarray:
        """Per-net bounding boxes ``(num_nets, 4)`` as (xl, yl, xh, yh).

        Degenerate (0/1-pin) nets collapse to a point box.
        """
        px, py = self.pin_positions()
        nets = self.num_nets
        boxes = np.zeros((nets, 4))
        # Vectorised segmented min/max over the CSR layout.
        deg = self.net_degree()
        valid = deg > 0
        if self.num_pins:
            order = np.repeat(np.arange(nets), deg)
            boxes[:, 0] = np.inf
            boxes[:, 1] = np.inf
            boxes[:, 2] = -np.inf
            boxes[:, 3] = -np.inf
            np.minimum.at(boxes[:, 0], order, px)
            np.minimum.at(boxes[:, 1], order, py)
            np.maximum.at(boxes[:, 2], order, px)
            np.maximum.at(boxes[:, 3], order, py)
        boxes[~valid] = 0.0
        return boxes

    def hpwl(self) -> float:
        """Total half-perimeter wirelength of the current placement."""
        boxes = self.net_bounding_boxes()
        deg = self.net_degree()
        use = deg >= 2
        return float(((boxes[use, 2] - boxes[use, 0])
                      + (boxes[use, 3] - boxes[use, 1])).sum())

    def copy(self) -> "Design":
        """Deep copy (arrays copied; names shared since immutable)."""
        return Design(
            name=self.name,
            cell_names=list(self.cell_names),
            cell_w=self.cell_w.copy(),
            cell_h=self.cell_h.copy(),
            cell_fixed=self.cell_fixed.copy(),
            cell_x=self.cell_x.copy(),
            cell_y=self.cell_y.copy(),
            net_names=list(self.net_names),
            net_ptr=self.net_ptr.copy(),
            pin_cell=self.pin_cell.copy(),
            pin_dx=self.pin_dx.copy(),
            pin_dy=self.pin_dy.copy(),
            die=self.die,
            row_height=self.row_height,
            metadata=dict(self.metadata),
        )


def validate_design(design: Design) -> list[str]:
    """Return a list of consistency-violation messages (empty when valid).

    Checks index bounds, CSR monotonicity, geometry sanity and pin-offset
    containment.  Used by tests and by the Bookshelf reader.
    """
    problems: list[str] = []
    n_cells = design.num_cells
    if len(design.cell_w) != n_cells or len(design.cell_h) != n_cells:
        problems.append("cell size arrays disagree with cell_names length")
    if len(design.cell_x) != n_cells or len(design.cell_y) != n_cells:
        problems.append("cell position arrays disagree with cell_names length")
    if len(design.cell_fixed) != n_cells:
        problems.append("cell_fixed length mismatch")
    if len(design.net_ptr) != design.num_nets + 1:
        problems.append("net_ptr must have num_nets + 1 entries")
    if design.num_nets and design.net_ptr[0] != 0:
        problems.append("net_ptr must start at 0")
    if np.any(np.diff(design.net_ptr) < 0):
        problems.append("net_ptr must be non-decreasing")
    if design.num_pins and design.net_ptr[-1] != design.num_pins:
        problems.append("net_ptr must end at num_pins")
    if design.num_pins and (design.pin_cell.min() < 0
                            or design.pin_cell.max() >= n_cells):
        problems.append("pin_cell index out of range")
    xl, yl, xh, yh = design.die
    if xh <= xl or yh <= yl:
        problems.append("die rectangle is degenerate")
    if np.any(design.cell_w <= 0) or np.any(design.cell_h <= 0):
        problems.append("cell sizes must be positive")
    return problems
