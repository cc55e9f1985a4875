"""Line-by-line and row-by-row reference readers and writers of the text
formats: DGF networks, legacy-ASCII VTK and CSV.

These are the bodies the library ran before its readers and writers
worked on whole columns: one Python step per line, per value or per row.
The tests compare the library's bytes and parsed networks against them.
"""

import io
from itertools import chain

import numpy as np

from microvasc.errors import ParseError, TopologyError, ValidationError
from microvasc.network import NetworkNode, VascularNetwork


def _is_comment(line: str) -> bool:
    s = line.strip()
    return s.startswith("%") or (s.startswith("#") and s != "#")


def reference_parse_dgf(text: str) -> VascularNetwork:
    """DGF read one line at a time, each check raised where it fails."""
    net = VascularNetwork()
    block = None
    n_vertices = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or _is_comment(line):
            continue
        upper = line.upper()
        if upper == "DGF":
            continue
        if upper.startswith("VERTEX"):
            block = "vertex"
            continue
        if upper.startswith("SIMPLEX") or upper.startswith("CUBE"):
            block = "simplex"
            continue
        if upper.startswith("PARAMETERS"):
            continue
        if line == "#":
            block = None
            continue
        if upper.startswith("BOUNDARYDOMAIN") or upper.startswith("GRIDPARAMETER"):
            block = "ignored"
            continue
        if block == "ignored":
            continue
        if block is None:
            raise ParseError(f"data outside any block: {line!r}", lineno)

        fields = line.split()
        if block == "vertex":
            if len(fields) not in (3, 4):
                raise ParseError(
                    f"vertex line needs 3 coordinates (+ optional pressure), got "
                    f"{len(fields)} fields",
                    lineno,
                )
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise ParseError(f"non-numeric vertex entry: {line!r}", lineno)
            pos = np.array(values[:3])
            if len(values) == 4:
                if values[3] <= 0.0:
                    raise ParseError("boundary pressure must be positive", lineno)
                net.add_node(
                    NetworkNode(n_vertices, pos, "boundary", values[3])
                )
            else:
                net.add_node(NetworkNode(n_vertices, pos))
            n_vertices += 1
        elif block == "simplex":
            if len(fields) != 3:
                raise ParseError(
                    f"segment line needs node, node, radius; got {len(fields)} fields",
                    lineno,
                )
            try:
                a, b = int(fields[0]), int(fields[1])
                radius = float(fields[2])
            except ValueError:
                raise ParseError(f"non-numeric segment entry: {line!r}", lineno)
            if a == b:
                raise TopologyError(f"line {lineno}: self-loop at node {a}")
            if radius <= 0.0:
                raise ValidationError(f"line {lineno}: non-positive radius {radius}")
            if a not in net.nodes or b not in net.nodes:
                raise TopologyError(
                    f"line {lineno}: segment references unknown node "
                    f"{a if a not in net.nodes else b}"
                )
            net.new_segment(a, b, radius)
    return net


def reference_serialize_dgf(net: VascularNetwork) -> str:
    """DGF written one line per node and per segment."""
    order = sorted(net.nodes)
    index = {nid: i for i, nid in enumerate(order)}
    lines = ["DGF", "VERTEX", "parameters 1"]
    for nid in order:
        node = net.nodes[nid]
        coords = " ".join(f"{c:.17g}" for c in node.position)
        if node.kind == "boundary" and node.boundary_pressure is not None:
            lines.append(f"{coords} {node.boundary_pressure:.17g}")
        else:
            lines.append(coords)
    lines.append("#")
    lines.append("SIMPLEX")
    lines.append("parameters 1")
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        lines.append(
            f"{index[seg.node_a]} {index[seg.node_b]} {seg.radius:.17g}"
        )
    lines.append("#")
    return "\n".join(lines) + "\n"


def reference_network_to_vtk(net: VascularNetwork) -> str:
    """VTK polydata written one point, line and radius at a time."""
    order = sorted(net.nodes)
    index = {nid: i for i, nid in enumerate(order)}
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


def reference_cell_field_to_vtk(grid, fields: dict) -> str:
    """VTK structured points written one value at a time."""
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


def reference_write_csv(path, header, rows, preamble=None):
    """CSV written one row at a time: str of each field, CRLF line ends."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in preamble or [])
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in chain([header], rows))
