"""Legacy-ASCII VTK and CSV writers for networks and cell fields."""

from __future__ import annotations

import io
from itertools import chain

import numpy as np

from .grid import TissueGrid
from .network import VascularNetwork


def network_to_vtk(net: VascularNetwork) -> str:
    """VTK polydata: points, lines, and radius as point data."""
    order = sorted(net.nodes)
    index = {nid: i for i, nid in enumerate(order)}
    # point radius: max incident segment radius (nodes have no radius of
    # their own; this renders tube scaling sensibly)
    radii = []
    for nid in order:
        incident = net.adjacency[nid]
        radii.append(
            max((net.segments[s].radius for s in incident), default=0.0)
        )
    buf = io.StringIO()
    buf.write("# vtk DataFile Version 3.0\n")
    buf.write("vascular network\nASCII\nDATASET POLYDATA\n")
    buf.write(f"POINTS {len(order)} double\n")
    for nid in order:
        x, y, z = net.nodes[nid].position
        buf.write(f"{x:.12g} {y:.12g} {z:.12g}\n")
    n_seg = len(net.segments)
    buf.write(f"LINES {n_seg} {3 * n_seg}\n")
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        buf.write(f"2 {index[seg.node_a]} {index[seg.node_b]}\n")
    buf.write(f"POINT_DATA {len(order)}\n")
    buf.write("SCALARS radius double 1\nLOOKUP_TABLE default\n")
    for r in radii:
        buf.write(f"{r:.12g}\n")
    return buf.getvalue()


def cell_field_to_vtk(grid: TissueGrid, fields: dict[str, np.ndarray]) -> str:
    """VTK structured points with one or more per-cell scalar fields."""
    nx, ny, nz = grid.cells_per_axis
    dx, dy, dz = grid.spacing
    ox, oy, oz = grid.box.lower + 0.5 * grid.spacing
    buf = io.StringIO()
    buf.write("# vtk DataFile Version 3.0\n")
    buf.write("tissue fields\nASCII\nDATASET STRUCTURED_POINTS\n")
    buf.write(f"DIMENSIONS {nx} {ny} {nz}\n")
    buf.write(f"ORIGIN {ox:.12g} {oy:.12g} {oz:.12g}\n")
    buf.write(f"SPACING {dx:.12g} {dy:.12g} {dz:.12g}\n")
    buf.write(f"POINT_DATA {grid.n_cells}\n")
    for name, values in fields.items():
        buf.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        buf.writelines(map("{:.12g}\n".format, np.asarray(values).ravel().tolist()))
    return buf.getvalue()


def write_csv(path, header: list[str], rows, preamble: list[str] | None = None):
    """CSV with optional '#'-prefixed provenance preamble lines.

    Fields are numbers and plain names, written as csv.writer writes them:
    str of each (the shortest round-trip repr of a float), CRLF line ends.
    Rows of Python numbers (`tolist()`) format fastest; they are streamed,
    so an iterator of rows is never held whole.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in preamble or [])
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in chain([header], rows))
