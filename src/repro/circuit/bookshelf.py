"""Bookshelf benchmark format reader/writer.

The ISPD 2011 and DAC 2012 routability-driven placement contests distribute
designs in the academic *Bookshelf* format: an ``.aux`` index file naming a
``.nodes`` (cells), ``.nets`` (connectivity), ``.pl`` (placement) and
``.scl`` (rows) file.  This module parses that format into
:class:`~repro.circuit.design.Design` and can write a design back out, so
the reproduction pipeline runs unchanged on the real superblue benchmarks
when they are available.

Only the subset of the grammar the contest files use is supported; the
parser is deliberately strict and raises :class:`BookshelfError` with file
and line context on anything unexpected.
"""

from __future__ import annotations

import os

import numpy as np

from .design import Design, validate_design

__all__ = ["BookshelfError", "read_design", "write_design"]


class BookshelfError(ValueError):
    """Raised on malformed Bookshelf input."""


def _data_lines(path: str):
    """Yield (lineno, stripped_line) skipping comments, blanks and headers."""
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("UCLA"):
                continue
            yield lineno, line


def read_aux(path: str) -> dict[str, str]:
    """Parse an ``.aux`` file into a mapping of extension → absolute path."""
    base = os.path.dirname(os.path.abspath(path))
    files: dict[str, str] = {}
    with open(path) as handle:
        content = handle.read()
    if ":" not in content:
        raise BookshelfError(f"{path}: missing ':' separator")
    _, _, names = content.partition(":")
    for token in names.split():
        ext = token.rsplit(".", 1)[-1].lower()
        files[ext] = os.path.join(base, token)
    for required in ("nodes", "nets", "pl"):
        if required not in files:
            raise BookshelfError(f"{path}: missing .{required} entry")
    return files


def _read_nodes(path: str):
    """Parse ``.nodes``: returns (names, widths, heights, fixed_mask)."""
    names: list[str] = []
    widths: list[float] = []
    heights: list[float] = []
    fixed: list[bool] = []
    for lineno, line in _data_lines(path):
        if line.startswith("NumNodes") or line.startswith("NumTerminals"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise BookshelfError(f"{path}:{lineno}: expected "
                                 f"'name width height [terminal]', got {line!r}")
        names.append(parts[0])
        try:
            widths.append(float(parts[1]))
            heights.append(float(parts[2]))
        except ValueError as exc:
            raise BookshelfError(f"{path}:{lineno}: bad size: {line!r}") from exc
        fixed.append(len(parts) > 3 and parts[3].lower().startswith("terminal"))
    return names, np.array(widths), np.array(heights), np.array(fixed, dtype=bool)


def _read_nets(path: str, cell_index: dict[str, int], cell_w, cell_h):
    """Parse ``.nets`` into CSR net arrays.

    Bookshelf pin offsets are measured from the *cell centre*; we convert
    to lower-left-relative offsets on the fly.
    """
    net_names: list[str] = []
    net_ptr: list[int] = [0]
    pin_cell: list[int] = []
    pin_dx: list[float] = []
    pin_dy: list[float] = []
    expected_pins = 0
    anon = 0
    for lineno, line in _data_lines(path):
        if line.startswith("NumNets") or line.startswith("NumPins"):
            continue
        if line.startswith("NetDegree"):
            if pin_cell and len(pin_cell) - net_ptr[-1] != expected_pins:
                raise BookshelfError(
                    f"{path}:{lineno}: net {net_names[-1]!r} declared "
                    f"{expected_pins} pins, found {len(pin_cell) - net_ptr[-1]}")
            if net_names:
                net_ptr.append(len(pin_cell))
            _, _, rest = line.partition(":")
            parts = rest.split()
            if not parts:
                raise BookshelfError(f"{path}:{lineno}: NetDegree without count")
            expected_pins = int(parts[0])
            if len(parts) > 1:
                net_names.append(parts[1])
            else:
                net_names.append(f"net_{anon}")
                anon += 1
            continue
        # Pin line: "cellname I/O/B : dx dy" (offsets optional).
        parts = line.replace(":", " ").split()
        if not parts:
            continue
        cname = parts[0]
        if cname not in cell_index:
            raise BookshelfError(f"{path}:{lineno}: unknown cell {cname!r}")
        cid = cell_index[cname]
        dx = float(parts[2]) if len(parts) > 2 else 0.0
        dy = float(parts[3]) if len(parts) > 3 else 0.0
        pin_cell.append(cid)
        # centre-relative → lower-left-relative
        pin_dx.append(dx + cell_w[cid] / 2.0)
        pin_dy.append(dy + cell_h[cid] / 2.0)
    net_ptr.append(len(pin_cell))
    return (net_names, np.array(net_ptr, dtype=np.int64),
            np.array(pin_cell, dtype=np.int64),
            np.array(pin_dx), np.array(pin_dy))


def _read_pl(path: str, cell_index: dict[str, int], x: np.ndarray,
             y: np.ndarray, fixed: np.ndarray) -> None:
    """Parse ``.pl`` placements in place; '/FIXED' suffix pins the cell."""
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) < 3:
            raise BookshelfError(f"{path}:{lineno}: expected 'name x y ...'")
        name = parts[0]
        if name not in cell_index:
            raise BookshelfError(f"{path}:{lineno}: unknown cell {name!r}")
        cid = cell_index[name]
        x[cid] = float(parts[1])
        y[cid] = float(parts[2])
        if "/FIXED" in line.upper():
            fixed[cid] = True


def _read_scl(path: str) -> tuple[float, tuple[float, float, float, float]]:
    """Parse ``.scl`` core rows; returns (row_height, die_bbox)."""
    row_height = 1.0
    xl = yl = np.inf
    xh = yh = -np.inf
    coord = height = origin = sites = None
    for _, line in _data_lines(path):
        lower = line.lower()
        if lower.startswith("corerow"):
            coord = height = origin = sites = None
        elif lower.startswith("coordinate"):
            coord = float(line.split(":")[1])
        elif lower.startswith("height"):
            height = float(line.split(":")[1])
        elif lower.startswith("subroworigin"):
            # "SubrowOrigin : x NumSites : n"
            tokens = line.replace(":", " ").split()
            origin = float(tokens[1])
            if "numsites" in lower:
                sites = float(tokens[tokens.index("NumSites") + 1]
                              if "NumSites" in tokens else tokens[3])
        elif lower.startswith("end"):
            if None not in (coord, height, origin, sites):
                row_height = height
                xl = min(xl, origin)
                xh = max(xh, origin + sites)
                yl = min(yl, coord)
                yh = max(yh, coord + height)
    if not np.isfinite(xl):
        raise BookshelfError(f"{path}: no complete CoreRow found")
    return row_height, (xl, yl, xh, yh)


def read_design(aux_path: str, name: str | None = None) -> Design:
    """Read a full Bookshelf design from its ``.aux`` file.

    Raises :class:`BookshelfError` when the files parse but describe an
    inconsistent design (see :func:`~repro.circuit.design.validate_design`).
    """
    files = read_aux(aux_path)
    cell_names, cell_w, cell_h, fixed = _read_nodes(files["nodes"])
    index = {n: i for i, n in enumerate(cell_names)}
    if len(index) != len(cell_names):
        raise BookshelfError(f"{files['nodes']}: duplicate cell names")
    net_names, net_ptr, pin_cell, pin_dx, pin_dy = _read_nets(
        files["nets"], index, cell_w, cell_h)
    x = np.zeros(len(cell_names))
    y = np.zeros(len(cell_names))
    _read_pl(files["pl"], index, x, y, fixed)
    if "scl" in files and os.path.exists(files["scl"]):
        row_height, die = _read_scl(files["scl"])
    else:
        row_height = float(cell_h[~fixed].min()) if (~fixed).any() else 1.0
        die = (float(x.min()), float(y.min()),
               float((x + cell_w).max()), float((y + cell_h).max()))
    design = Design(
        name=name or os.path.splitext(os.path.basename(aux_path))[0],
        cell_names=cell_names, cell_w=cell_w, cell_h=cell_h,
        cell_fixed=fixed, cell_x=x, cell_y=y,
        net_names=net_names, net_ptr=net_ptr,
        pin_cell=pin_cell, pin_dx=pin_dx, pin_dy=pin_dy,
        die=die, row_height=row_height,
    )
    problems = validate_design(design)
    if problems:
        raise BookshelfError(f"{aux_path}: {'; '.join(problems)}")
    return design


def write_design(design: Design, directory: str, basename: str | None = None) -> str:
    """Write ``design`` as a Bookshelf bundle; returns the ``.aux`` path."""
    os.makedirs(directory, exist_ok=True)
    base = basename or design.name
    paths = {ext: os.path.join(directory, f"{base}.{ext}")
             for ext in ("aux", "nodes", "nets", "pl", "scl")}

    with open(paths["nodes"], "w") as f:
        f.write("UCLA nodes 1.0\n")
        f.write(f"NumNodes : {design.num_cells}\n")
        f.write(f"NumTerminals : {design.num_terminals}\n")
        for i, cname in enumerate(design.cell_names):
            suffix = " terminal" if design.cell_fixed[i] else ""
            f.write(f"{cname} {design.cell_w[i]:.10g} {design.cell_h[i]:.10g}{suffix}\n")

    with open(paths["nets"], "w") as f:
        f.write("UCLA nets 1.0\n")
        f.write(f"NumNets : {design.num_nets}\n")
        f.write(f"NumPins : {design.num_pins}\n")
        for i, nname in enumerate(design.net_names):
            pins = design.net_pin_slice(i)
            f.write(f"NetDegree : {pins.stop - pins.start} {nname}\n")
            for p in range(pins.start, pins.stop):
                cid = design.pin_cell[p]
                # lower-left-relative → centre-relative
                dx = design.pin_dx[p] - design.cell_w[cid] / 2.0
                dy = design.pin_dy[p] - design.cell_h[cid] / 2.0
                f.write(f"  {design.cell_names[cid]} B : {dx:.10g} {dy:.10g}\n")

    with open(paths["pl"], "w") as f:
        f.write("UCLA pl 1.0\n")
        for i, cname in enumerate(design.cell_names):
            suffix = " /FIXED" if design.cell_fixed[i] else ""
            f.write(f"{cname} {design.cell_x[i]:.10g} {design.cell_y[i]:.10g} : N{suffix}\n")

    xl, yl, xh, yh = design.die
    num_rows = max(1, int(round((yh - yl) / design.row_height)))
    with open(paths["scl"], "w") as f:
        f.write("UCLA scl 1.0\n")
        f.write(f"NumRows : {num_rows}\n")
        for r in range(num_rows):
            f.write("CoreRow Horizontal\n")
            f.write(f" Coordinate : {yl + r * design.row_height:g}\n")
            f.write(f" Height : {design.row_height:g}\n")
            f.write(" Sitewidth : 1\n Sitespacing : 1\n Siteorient : 1\n Sitesymmetry : 1\n")
            f.write(f" SubrowOrigin : {xl:g} NumSites : {int(xh - xl)}\n")
            f.write("End\n")

    with open(paths["aux"], "w") as f:
        f.write(f"RowBasedPlacement : {base}.nodes {base}.nets "
                f"{base}.pl {base}.scl\n")
    return paths["aux"]
