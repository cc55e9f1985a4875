"""Legacy-ASCII VTK and CSV writers for networks and cell fields.

Each writer formats whole columns with one `%` template over a tuple of
Python numbers. VTK numbers are written `%.12g`, CSV fields as `str` (the
shortest round-trip repr of a float).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .grid import TissueGrid
from .network import VascularNetwork


def network_to_vtk(net: VascularNetwork) -> str:
    """VTK polydata: points, lines, and radius as point data."""
    table = net.table()
    # point radius: max incident segment radius (nodes have no radius of
    # their own; this renders tube scaling sensibly)
    point_radius = np.zeros(table.node_ids.size)
    np.maximum.at(point_radius, table.ends, table.radius[:, None])
    n, n_seg = table.node_ids.size, table.segment_ids.size
    return (
        "# vtk DataFile Version 3.0\nvascular network\nASCII\nDATASET POLYDATA\n"
        f"POINTS {n} double\n"
        + ("%.12g %.12g %.12g\n" * n) % tuple(table.position.ravel().tolist())
        + f"LINES {n_seg} {3 * n_seg}\n"
        + ("2 %d %d\n" * n_seg) % tuple(table.ends.ravel().tolist())
        + f"POINT_DATA {n}\nSCALARS radius double 1\nLOOKUP_TABLE default\n"
        + ("%.12g\n" * n) % tuple(point_radius.tolist())
    )


def cell_field_to_vtk(grid: TissueGrid, fields: dict[str, np.ndarray]) -> str:
    """VTK structured points with one or more per-cell scalar fields."""
    nx, ny, nz = grid.cells_per_axis
    dx, dy, dz = grid.spacing
    ox, oy, oz = grid.box.lower + 0.5 * grid.spacing
    parts = [
        "# vtk DataFile Version 3.0\ntissue fields\nASCII\nDATASET STRUCTURED_POINTS\n"
        f"DIMENSIONS {nx} {ny} {nz}\n"
        f"ORIGIN {ox:.12g} {oy:.12g} {oz:.12g}\n"
        f"SPACING {dx:.12g} {dy:.12g} {dz:.12g}\n"
        f"POINT_DATA {grid.n_cells}\n"
    ]
    for name, values in fields.items():
        values = np.asarray(values).ravel().tolist()
        parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        parts.append(("%.12g\n" * len(values)) % tuple(values))
    return "".join(parts)


def write_csv(path, header: list[str], columns, preamble: list[str] | None = None):
    """CSV of equal-length `columns`, one per `header` name, after optional
    '#'-prefixed provenance preamble lines (each ending in LF).

    Fields are numbers and plain names, written as csv.writer writes them:
    str of each (the shortest round-trip repr of a float), CRLF line ends.
    Columns of Python numbers (`tolist()`) format fastest. The writer holds
    one tuple of every field and the text of the whole file, then writes it
    in one call.
    """
    n_rows = len(columns[0]) if columns else 0
    row = ",".join(["%s"] * len(header)) + "\r\n"
    text = (row * n_rows) % tuple(chain.from_iterable(zip(*columns, strict=True)))
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in preamble or [])
        fh.write(",".join(map(str, header)) + "\r\n" + text)
