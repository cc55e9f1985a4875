"""1D vascular graph: geometry, topology, boundary data and DGF ingestion.

The network is a collection of straight cylindrical segments joining nodes.
Nodes carrying a pressure value are Dirichlet boundary nodes of the 1D flow
problem. Their oxygen boundary values are not stored here: they are a map
passed to the oxygen assembly (`oxygen.classify_arterial_venous`).

A network has two forms. `VascularNetwork` holds node and segment objects
and an adjacency; growth edits it. `NetworkTable` holds the same network as
columns, nodes and segments each in ascending id order; it is the one
numbering of nodes and segments, and every reader of a network takes it:
`VascularNetwork.table()` gathers it from the objects, and `table()` of a
table is the table itself, so code that only reads a network takes either
form. `read_dgf` reads a DGF file straight into a table, with no objects;
`parse_dgf` builds the objects from that table (`VascularNetwork.from_table`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParseError, TopologyError, ValidationError


@dataclass
class NetworkNode:
    id: int
    position: np.ndarray  # shape (3,), meters
    kind: str = "inner"  # "boundary" or "inner"
    boundary_pressure: float | None = None  # Pa, present iff kind == "boundary"
    is_root: bool = False  # designated inflow/outflow, never a growth tip

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.position.shape != (3,):
            raise ValidationError(f"node {self.id}: position must be a 3-vector")
        x, y, z = self.position.tolist()  # scalar tests: a parse builds one node per vertex
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValidationError(f"node {self.id}: position must be finite")
        if self.kind == "boundary" and self.boundary_pressure is not None:
            if not 0.0 < self.boundary_pressure < math.inf:
                raise ValidationError(
                    f"node {self.id}: boundary pressure must be positive and finite"
                )

    def copy(self) -> "NetworkNode":
        return NetworkNode(self.id, self.position.copy(), self.kind,
                           self.boundary_pressure, self.is_root)


@dataclass
class Segment:
    id: int
    node_a: int
    node_b: int
    radius: float  # meters

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise TopologyError(f"segment {self.id}: self-loop at node {self.node_a}")
        if not 0.0 < self.radius < math.inf:
            raise ValidationError(f"segment {self.id}: radius must be positive and finite")

    def copy(self) -> "Segment":
        return Segment(self.id, self.node_a, self.node_b, self.radius)


@dataclass
class DomainBox:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (3,) or self.upper.shape != (3,):
            raise ValidationError("domain box bounds must be 3-vectors")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValidationError("domain box bounds must be finite")
        if not np.all(self.lower < self.upper):
            raise ValidationError("domain box requires lower < upper componentwise")

    @property
    def extent(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x: np.ndarray) -> bool:
        """Whether the point x lies in the closed box (False for NaN)."""
        return all(lo <= v <= hi for lo, v, hi in self._bounds(x))

    def strictly_contains(self, x: np.ndarray) -> bool:
        """Whether the point x lies in the open box (False for NaN)."""
        return all(lo < v < hi for lo, v, hi in self._bounds(x))

    def _bounds(self, x):
        """(lower, x, upper) per axis as floats: one point's tests are
        float comparisons, exact as numpy's."""
        return zip(self.lower.tolist(), np.asarray(x, float).tolist(), self.upper.tolist())


def enlarge_domain(roi: DomainBox, factor: float = 0.10) -> DomainBox:
    """Grow each axis extent of `roi` by `factor` at both ends."""
    if factor < 0.0:
        raise ValidationError("enlargement factor must be nonnegative")
    pad = factor * roi.extent
    return DomainBox(roi.lower - pad, roi.upper + pad)


@dataclass(frozen=True)
class NetworkTable:
    """A network as columns, nodes and segments each in ascending id order."""

    node_ids: np.ndarray  # (n,) int64
    position: np.ndarray  # (n, 3) m
    pressure: np.ndarray  # (n,) Pa; NaN unless a boundary node with a pressure
    boundary: np.ndarray  # (n,) bool; a boundary node, with a pressure or without
    segment_ids: np.ndarray  # (m,) int64
    ends: np.ndarray  # (m, 2) places of node_a and node_b in node_ids
    radius: np.ndarray  # (m,) m

    def table(self) -> NetworkTable:
        """The table itself: a reader of `net.table()` takes a table or a
        `VascularNetwork`."""
        return self


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

    def copy(self) -> "VascularNetwork":
        out = VascularNetwork()
        for node in self.nodes.values():
            out.add_node(node.copy())
        for seg in self.segments.values():
            out.add_segment(seg.copy())
        return out

    @classmethod
    def from_table(cls, table: NetworkTable) -> VascularNetwork:
        """The network of a table's columns as objects, each node's segments
        listed in ascending id order. Every node owns its position: a row of
        the network's own copy of the table's positions, writable, never a
        view of the table."""
        net = cls()
        node_ids, segment_ids = table.node_ids.tolist(), table.segment_ids.tolist()
        # the constructors check each value; ids and ends of a table are
        # unique and known, which is what add_node and add_segment check
        net.nodes = {
            nid: NetworkNode(nid, position, "boundary", None if math.isnan(p) else p)
            if boundary else NetworkNode(nid, position)
            for nid, position, p, boundary in zip(
                node_ids, table.position.copy(), table.pressure.tolist(), table.boundary.tolist())
        }
        net.segments = {
            sid: Segment(sid, a, b, r)
            for sid, a, b, r in zip(segment_ids, *table.node_ids[table.ends].T.tolist(),
                                    table.radius.tolist())
        }
        # each node's segments in ascending id order, as add_segment appends them
        places = table.ends.ravel()
        incident = table.segment_ids[np.argsort(places, kind="stable") // 2].tolist()
        bounds = np.cumsum(np.bincount(places, minlength=len(node_ids))).tolist()
        net.adjacency = {nid: incident[lo:hi] for nid, lo, hi in zip(node_ids, [0] + bounds, bounds)}
        net._next_node_id = node_ids[-1] + 1 if node_ids else 0
        net._next_segment_id = segment_ids[-1] + 1 if segment_ids else 0
        return net

    # -- queries --------------------------------------------------------

    def table(self) -> NetworkTable:
        """The network's columns, gathered from the node and segment objects."""
        node_ids = np.array(sorted(self.nodes), np.int64)
        nodes = [self.nodes[nid] for nid in node_ids.tolist()]
        segment_ids = np.array(sorted(self.segments), np.int64)
        segments = [self.segments[sid] for sid in segment_ids.tolist()]
        ends = np.array([[s.node_a for s in segments], [s.node_b for s in segments]], np.int64)
        boundary = [node.kind == "boundary" for node in nodes]
        return NetworkTable(
            node_ids=node_ids,
            position=np.array([node.position for node in nodes]).reshape(-1, 3),
            # None, for a node written without a pressure, becomes NaN
            pressure=np.array([node.boundary_pressure if b else None
                               for node, b in zip(nodes, boundary)], float),
            boundary=np.array(boundary, bool),
            segment_ids=segment_ids,
            ends=np.searchsorted(node_ids, ends).T,
            radius=np.array([s.radius for s in segments], float),
        )

    def segment_geometry(self, seg_id: int) -> tuple[float, np.ndarray]:
        """Length and unit orientation (node_a -> node_b) of a segment."""
        seg = self.segments[seg_id]
        delta = self.nodes[seg.node_b].position - self.nodes[seg.node_a].position
        length = float(np.linalg.norm(delta))
        if length == 0.0:
            raise ValidationError(f"segment {seg_id}: coincident endpoints")
        return length, delta / length

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

# first characters of a number: no keyword or comment starts with one
_NUMBER_START = frozenset("0123456789+-.")


def _is_comment(line: str) -> bool:
    s = line.strip()
    return s.startswith("%") or (s.startswith("#") and s != "#")


_DATA = object()  # what `_block_after` returns for a data line


def _block_after(line: str, block):
    """The block the reader is in after a stripped line that starts with no
    number: the one a keyword opens ("vertex", "simplex", "ignored"; None
    after a bare '#'), `block` after a blank, a comment or a skipped keyword,
    and `_DATA` when the line is none of these, a data line of `block`."""
    if not line or _is_comment(line):
        return block
    upper = line.upper()
    if upper == "DGF" or upper.startswith("PARAMETERS"):
        return block
    if upper.startswith("VERTEX"):
        return "vertex"
    if upper.startswith(("SIMPLEX", "CUBE")):
        return "simplex"
    if line == "#":
        return None
    if upper.startswith(("BOUNDARYDOMAIN", "GRIDPARAMETER")):
        return "ignored"
    return _DATA


class _FirstFailure:
    """The earliest offending line found by checks that run over whole blocks.

    A file read line by line stops at its first offending line, and on that
    line at its first failed check. Checks run in the order a line is
    checked in, and a failure replaces the recorded one only on an earlier
    line, so the failure left at the end is the one the file reports.
    """

    def __init__(self):
        self.line = math.inf
        self.error = None

    def lines_before(self, linenos: list[int]) -> int:
        """How many of `linenos` (ascending) precede the failure."""
        return bisect.bisect_left(linenos, self.line)

    def record(self, bad: np.ndarray, linenos: list[int], error) -> int:
        """Note the first True of `bad` (indexed like `linenos`) as the
        failure, `error(k)` at its index k, if it is on an earlier line;
        return how many lines precede the failure."""
        hits = np.flatnonzero(bad)
        if hits.size and linenos[hits[0]] < self.line:
            k = int(hits[0])
            self.line, self.error = linenos[k], error(k)
        return self.lines_before(linenos)


def _unconvertible(lines: list[str], converters) -> np.ndarray:
    """Which lines have a field its converter rejects, one converter per
    field (error path only)."""

    def rejected(line):
        try:
            for convert, text in zip(converters, line.split()):
                convert(text)
        except ValueError:
            return True
        return False

    return np.fromiter(map(rejected, lines), bool, len(lines))


def _node_indices(texts: tuple) -> np.ndarray:
    """Node index strings as integers, Python ints where int64 overflows."""
    try:
        return np.array(texts, np.int64)
    except OverflowError:
        return np.array([int(t) for t in texts], object)


def _segment_numbers(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """End node indices (n, 2) and radii of n simplex lines of three fields."""
    fields = " ".join(lines).split()
    ends = _node_indices(fields[0::3] + fields[1::3]).reshape(2, len(lines)).T
    return ends, np.array(fields[2::3], float)


def _field_counts(lines: list[str]) -> np.ndarray:
    # one count per line, with no list of fields kept per line: held lists
    # would each be a container for the garbage collector to trace
    return np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))


def _vertex_block(lines, linenos, first):
    """Positions (n, 3) and boundary pressures (NaN where none) of the n
    vertex lines before the first failure."""
    lines = lines[:first.lines_before(linenos)]
    counts = _field_counts(lines)
    n = first.record((counts != 3) & (counts != 4), linenos, lambda k: ParseError(
        f"vertex line needs 3 coordinates (+ optional pressure), got "
        f"{counts[k]} fields", linenos[k]))
    try:
        values = np.array(" ".join(lines[:n]).split(), float)
    except ValueError:
        n = first.record(_unconvertible(lines[:n], [float] * 4), linenos, lambda k: ParseError(
            f"non-numeric vertex entry: {lines[k]!r}", linenos[k]))
        values = np.array(" ".join(lines[:n]).split(), float)
    counts = counts[:n]
    line_of = np.repeat(np.arange(n), counts)
    first.record(np.bincount(line_of[~np.isfinite(values)], minlength=n) > 0, linenos,
                 lambda k: ParseError(f"non-finite vertex entry: {lines[k]!r}", linenos[k]))
    starts = np.cumsum(counts) - counts
    pressure = np.where(counts == 4, values[starts + counts - 1], np.nan)
    first.record(pressure <= 0.0, linenos,
                 lambda k: ParseError("boundary pressure must be positive", linenos[k]))
    return values[starts[:, None] + np.arange(3)], pressure


def _segment_block(lines, linenos, known, first):
    """End node indices (n, 2) and radii of the n simplex lines before the
    first failure; `known` counts the vertices read before each line."""
    lines = lines[:first.lines_before(linenos)]
    counts = _field_counts(lines)
    n = first.record(counts != 3, linenos, lambda k: ParseError(
        f"segment line needs node, node, radius; got {counts[k]} fields", linenos[k]))
    try:
        ends, radius = _segment_numbers(lines[:n])
    except ValueError:
        n = first.record(_unconvertible(lines[:n], (int, int, float)), linenos,
                         lambda k: ParseError(f"non-numeric segment entry: {lines[k]!r}",
                                              linenos[k]))
        ends, radius = _segment_numbers(lines[:n])
    first.record(~np.isfinite(radius), linenos, lambda k: ParseError(
        f"non-finite segment entry: {lines[k]!r}", linenos[k]))
    a, b = ends.T
    first.record(a == b, linenos, lambda k: TopologyError(
        f"line {linenos[k]}: self-loop at node {a[k]}"))
    first.record(radius <= 0.0, linenos, lambda k: ValidationError(
        f"line {linenos[k]}: non-positive radius {float(radius[k])}"))
    known = np.asarray(known[:n])
    unknown_a, unknown_b = (a < 0) | (a >= known), (b < 0) | (b >= known)
    first.record(unknown_a | unknown_b, linenos, lambda k: TopologyError(
        f"line {linenos[k]}: segment references unknown node "
        f"{a[k] if unknown_a[k] else b[k]}"))
    return ends, radius


def read_dgf(text: str) -> NetworkTable:
    """Read the three-block DGF dialect (vertices, simplex list) into a table.

    Vertex lines hold three coordinates in meters and an optional boundary
    pressure in Pa; a vertex with a pressure is a boundary node, node ids
    are the vertices' zero-based places. Simplex lines hold two zero-based
    node indices and a radius in meters; segment ids are their places. A
    bare '#' terminates a block; lines starting with '#text' or '%' are
    comments. Every number must be finite. A malformed file raises the
    error of its first offending line, as a line-by-line reader would.

    The lines are sorted into blocks run by run; each block's numbers are
    then converted and checked as whole arrays. The table's arrays are
    read-only, and no node or segment object is built.
    """
    # only a line that starts with no number can be a blank, a comment or a
    # keyword; the lines between two of those are data of the block they
    # sit in, and are sorted as one run. A '#' after the last line closes
    # the last run.
    lines = list(map(str.strip, text.splitlines()))
    lines.append("#")
    vertices, vertex_linenos = [], []
    segments, segment_linenos, known = [], [], []
    first = _FirstFailure()
    block, start = None, 0  # the block read in, and where its run of data lines starts
    for end in [i for i, line in enumerate(lines) if line[:1] not in _NUMBER_START]:
        after = _block_after(lines[end], block)
        if after is _DATA:
            continue  # a line of text in the run
        if start < end:
            if block is None:
                first.line = start + 1
                first.error = ParseError(f"data outside any block: {lines[start]!r}", start + 1)
                break
            if block == "vertex":
                vertices += lines[start:end]
                vertex_linenos += range(start + 1, end + 1)
            elif block == "simplex":
                segments += lines[start:end]
                segment_linenos += range(start + 1, end + 1)
                known += [len(vertices)] * (end - start)
        block, start = after, end + 1

    positions, pressure = _vertex_block(vertices, vertex_linenos, first)
    ends, radius = _segment_block(segments, segment_linenos, known, first)
    if first.error is not None:
        raise first.error
    columns = NetworkTable(
        node_ids=np.arange(len(positions), dtype=np.int64),
        position=positions,
        pressure=pressure,
        boundary=~np.isnan(pressure),
        segment_ids=np.arange(len(radius), dtype=np.int64),
        ends=np.ascontiguousarray(ends),
        radius=radius,
    )
    for array in vars(columns).values():
        array.flags.writeable = False
    return columns


def parse_dgf(text: str) -> VascularNetwork:
    """`read_dgf`'s network as node and segment objects, for code that
    edits it (`VascularNetwork.from_table`)."""
    return VascularNetwork.from_table(read_dgf(text))


def serialize_dgf(net: VascularNetwork) -> str:
    """Write the network back out in the same dialect parse_dgf reads.

    Nodes and segments are written as `table()` numbers them, so node
    indices are dense. Every number is written `%.17g`, 17 significant
    digits, so a round-trip is lossless; lines end in LF.
    """
    table = net.table()
    has_pressure = ~np.isnan(table.pressure)
    # one row per node: three coordinates, then the pressure where there is one
    vertices = np.column_stack([table.position, table.pressure])
    written = np.ones(vertices.shape, bool)
    written[:, 3] = has_pressure
    templates = ("%.17g %.17g %.17g\n", "%.17g %.17g %.17g %.17g\n")
    vertex_text = "".join([templates[h] for h in has_pressure.tolist()]) % tuple(
        vertices[written].tolist())
    segment_text = ("%d %d %.17g\n" * table.radius.size) % tuple(chain.from_iterable(
        zip(*table.ends.T.tolist(), table.radius.tolist())))
    return ("DGF\nVERTEX\nparameters 1\n" + vertex_text
            + "#\nSIMPLEX\nparameters 1\n" + segment_text + "#\n")
