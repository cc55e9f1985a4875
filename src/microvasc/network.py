"""1D vascular graph: geometry, topology, boundary data and DGF ingestion.

The network is a collection of straight cylindrical segments joining nodes.
Nodes carrying a pressure value are Dirichlet boundary nodes of the 1D flow
problem; their oxygen boundary value is assigned later by arterial/venous
classification (`oxygen.classify_arterial_venous`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, TopologyError, ValidationError


@dataclass
class NetworkNode:
    id: int
    position: np.ndarray  # shape (3,), meters
    kind: str = "inner"  # "boundary" or "inner"
    boundary_pressure: float | None = None  # Pa, present iff kind == "boundary"
    boundary_po2: float | None = None  # mmHg, assigned by classification
    is_root: bool = False  # designated inflow/outflow, never a growth tip

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.position.shape != (3,):
            raise ValidationError(f"node {self.id}: position must be a 3-vector")
        if self.kind == "boundary" and self.boundary_pressure is not None:
            if self.boundary_pressure <= 0.0:
                raise ValidationError(
                    f"node {self.id}: boundary pressure must be positive"
                )

    def copy(self) -> "NetworkNode":
        return NetworkNode(self.id, self.position.copy(), self.kind,
                           self.boundary_pressure, self.boundary_po2, self.is_root)


@dataclass
class Segment:
    id: int
    node_a: int
    node_b: int
    radius: float  # meters

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise TopologyError(f"segment {self.id}: self-loop at node {self.node_a}")
        if self.radius <= 0.0:
            raise ValidationError(f"segment {self.id}: radius must be positive")

    def copy(self) -> "Segment":
        return Segment(self.id, self.node_a, self.node_b, self.radius)

    def other(self, node_id: int) -> int:
        return self.node_b if node_id == self.node_a else self.node_a


@dataclass
class DomainBox:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if not np.all(self.lower < self.upper):
            raise ValidationError("domain box requires lower < upper componentwise")

    @property
    def extent(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def strictly_contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x > self.lower) and np.all(x < self.upper))


def enlarge_domain(roi: DomainBox, factor: float = 0.10) -> DomainBox:
    """Grow each axis extent of `roi` by `factor` at both ends."""
    if factor < 0.0:
        raise ValidationError("enlargement factor must be nonnegative")
    pad = factor * roi.extent
    return DomainBox(roi.lower - pad, roi.upper + pad)


class VascularNetwork:
    """Geometric graph of nodes and cylindrical segments with adjacency."""

    def __init__(self):
        self.nodes: dict[int, NetworkNode] = {}
        self.segments: dict[int, Segment] = {}
        self.adjacency: dict[int, list[int]] = {}
        self._next_node_id = 0
        self._next_segment_id = 0

    # -- construction ---------------------------------------------------

    def add_node(self, node: NetworkNode) -> NetworkNode:
        if node.id in self.nodes:
            raise TopologyError(f"duplicate node id {node.id}")
        self.nodes[node.id] = node
        self.adjacency[node.id] = []
        self._next_node_id = max(self._next_node_id, node.id + 1)
        return node

    def new_node(self, position, **kwargs) -> NetworkNode:
        node = NetworkNode(self._next_node_id, np.asarray(position, float), **kwargs)
        return self.add_node(node)

    def add_segment(self, segment: Segment) -> Segment:
        if segment.id in self.segments:
            raise TopologyError(f"duplicate segment id {segment.id}")
        for nid in (segment.node_a, segment.node_b):
            if nid not in self.nodes:
                raise TopologyError(
                    f"segment {segment.id} references unknown node {nid}"
                )
        self.segments[segment.id] = segment
        self.adjacency[segment.node_a].append(segment.id)
        self.adjacency[segment.node_b].append(segment.id)
        self._next_segment_id = max(self._next_segment_id, segment.id + 1)
        return segment

    def new_segment(self, node_a: int, node_b: int, radius: float) -> Segment:
        seg = Segment(self._next_segment_id, node_a, node_b, radius)
        return self.add_segment(seg)

    def remove_segment(self, seg_id: int):
        """Remove a segment and every node it leaves without segments."""
        seg = self.segments.pop(seg_id)
        for nid in (seg.node_a, seg.node_b):
            self.adjacency[nid].remove(seg_id)
            if not self.adjacency[nid]:
                del self.adjacency[nid]
                del self.nodes[nid]

    def degree(self, node_id: int) -> int:
        return len(self.adjacency[node_id])

    def copy(self) -> "VascularNetwork":
        out = VascularNetwork()
        for node in self.nodes.values():
            out.add_node(node.copy())
        for seg in self.segments.values():
            out.add_segment(seg.copy())
        return out

    # -- queries --------------------------------------------------------

    def segment_geometry(self, seg_id: int) -> tuple[float, np.ndarray]:
        """Length and unit orientation (node_a -> node_b) of a segment."""
        seg = self.segments[seg_id]
        delta = self.nodes[seg.node_b].position - self.nodes[seg.node_a].position
        length = float(np.linalg.norm(delta))
        if length == 0.0:
            raise ValidationError(f"segment {seg_id}: coincident endpoints")
        return length, delta / length

    def segment_endpoints(self, seg_id: int) -> tuple[np.ndarray, np.ndarray]:
        seg = self.segments[seg_id]
        return self.nodes[seg.node_a].position, self.nodes[seg.node_b].position

    def boundary_nodes(self) -> list[int]:
        return [n.id for n in self.nodes.values() if n.kind == "boundary"]

    def bounding_box(self, pad: float = 0.0) -> DomainBox:
        pts = np.array([n.position for n in self.nodes.values()])
        return DomainBox(pts.min(axis=0) - pad, pts.max(axis=0) + pad)

    def terminal_nodes(self, region: DomainBox) -> list[int]:
        """Degree-1 nodes strictly inside `region`, excluding designated
        roots and pressure-boundary (Dirichlet) nodes."""
        out = []
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            if node.is_root or node.kind == "boundary" or len(self.adjacency[nid]) != 1:
                continue
            if region.strictly_contains(node.position):
                out.append(nid)
        return out

    def validate(self):
        """Check adjacency consistency; raises on violation."""
        incidences = 0
        for nid, sids in self.adjacency.items():
            for sid in sids:
                seg = self.segments[sid]
                if nid not in (seg.node_a, seg.node_b):
                    raise TopologyError(f"adjacency of node {nid} lists segment {sid}")
                incidences += 1
        if incidences != 2 * len(self.segments):
            raise TopologyError("adjacency incidence count mismatch")


# -- DGF ingestion / serialization ---------------------------------------


def _is_comment(line: str) -> bool:
    s = line.strip()
    return s.startswith("%") or (s.startswith("#") and s != "#")


def parse_dgf(text: str) -> VascularNetwork:
    """Parse the three-block DGF dialect (vertices, simplex list).

    Vertex lines hold three coordinates in meters and an optional boundary
    pressure in Pa. Simplex lines hold two zero-based node indices and a
    radius in meters. A bare '#' terminates a block; lines starting with
    '#text' or '%' are comments.
    """
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


def serialize_dgf(net: VascularNetwork) -> str:
    """Write the network back out in the same dialect parse_dgf reads.

    Node ids are renumbered densely in ascending id order; positions are
    written with 17 significant digits so a round-trip is lossless.
    """
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
