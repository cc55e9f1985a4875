"""The column-wise DGF, VTK and CSV readers and writers against the
line-by-line references in `io_oracle`: the same bytes out, the same
networks in, and the same error, message and line for a malformed file."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import io_oracle as oracle
from microvasc import DomainBox, VascularNetwork, build_grid, parse_dgf, serialize_dgf
from microvasc.errors import MicrovascError
from microvasc.export import cell_field_to_vtk, network_to_vtk, write_csv

from conftest import make_desk_network, make_jittered_lattice, make_y_junction

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 3.0, -2.0, 1e16, 1e-5]
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.integers(1, 10**6),
    st.sampled_from([5e-324, 1e308, 6e-6, 1.0]),
)


@st.composite
def networks(draw):
    """Boundary nodes with and without a pressure, isolated nodes, and the
    sparse node and segment ids `remove_segment` leaves."""
    net = VascularNetwork()
    n = draw(st.integers(0, 7))
    for _ in range(n):
        position = draw(st.tuples(finite, finite, finite))
        kind = draw(st.sampled_from(["inner", "boundary", "boundary-no-pressure"]))
        if kind == "boundary":
            net.new_node(position, kind="boundary", boundary_pressure=draw(positive))
        else:
            net.new_node(position, kind=kind.split("-")[0])
    if n >= 2:
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for a, b in draw(st.lists(ends.filter(lambda e: e[0] != e[1]), max_size=10)):
            net.new_segment(a, b, draw(positive))
        if net.segments:
            for sid in draw(st.lists(st.sampled_from(sorted(net.segments)), unique=True)):
                net.remove_segment(sid)
    return net


FIXED = [VascularNetwork(), make_y_junction(), make_desk_network()]


def assert_same_network(got, want):
    assert list(got.nodes) == list(want.nodes)
    for nid, node in want.nodes.items():
        other = got.nodes[nid]
        assert (other.id, other.kind, other.boundary_pressure, other.is_root) == (
            node.id, node.kind, node.boundary_pressure, node.is_root)
        assert other.position.dtype == node.position.dtype
        assert other.position.tobytes() == node.position.tobytes()
    assert [vars(s) for s in got.segments.values()] == [vars(s) for s in want.segments.values()]
    assert list(got.adjacency.items()) == list(want.adjacency.items())
    assert (got._next_node_id, got._next_segment_id) == (
        want._next_node_id, want._next_segment_id)


def outcome(parse, text):
    try:
        return parse(text)
    except MicrovascError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# -- DGF ---------------------------------------------------------------------


@given(networks())
@example(FIXED[0])
@example(FIXED[1])
@example(FIXED[2])
def test_serialize_matches_reference(net):
    assert serialize_dgf(net) == oracle.reference_serialize_dgf(net)


@given(networks())
@example(FIXED[1])
def test_parse_matches_reference_and_round_trips(net):
    text = oracle.reference_serialize_dgf(net)
    parsed = parse_dgf(text)
    assert_same_network(parsed, oracle.reference_parse_dgf(text))
    assert serialize_dgf(parsed) == text
    # ids renumbered densely in ascending order, every number kept exactly
    nodes, segments = sorted(net.nodes), sorted(net.segments)
    for i, nid in enumerate(nodes):
        node = net.nodes[nid]
        assert parsed.nodes[i].position.tobytes() == node.position.tobytes()
        pressure = node.boundary_pressure if node.kind == "boundary" else None
        assert parsed.nodes[i].boundary_pressure == pressure
    for i, sid in enumerate(segments):
        seg, back = net.segments[sid], parsed.segments[i]
        assert (nodes[back.node_a], nodes[back.node_b]) == (seg.node_a, seg.node_b)
        assert back.radius == seg.radius


def test_parse_matches_reference_on_a_lattice():
    text = serialize_dgf(make_jittered_lattice(seed=1, n_per_axis=5))
    assert_same_network(parse_dgf(text), oracle.reference_parse_dgf(text))


def test_parsed_nodes_share_no_position_memory():
    net = parse_dgf(serialize_dgf(make_y_junction()))
    positions = [node.position for node in net.nodes.values()]
    for i, p in enumerate(positions):
        assert not any(np.shares_memory(p, q) for q in positions[i + 1:])
    before = [p.copy() for p in positions]
    positions[2][2] = 1.0
    for i, (p, q) in enumerate(zip(positions, before)):
        assert np.array_equal(p, q) == (i != 2)


# tokens of a damaged DGF file; none is NaN or infinite, which the
# reference reader accepted and the library rejects
TOKENS = ["0", "1", "2", "3", "-1", "1e-6", "-5e-6", "0.0", "8000", "-8000", "1.5",
          "abc", "1_0", "99999999999999999999", "-99999999999999999999",
          "%c", "#", "#x", "VERTEX", "SIMPLEX", "CUBE", "BOUNDARYDOMAIN", "DGF"]
lines = st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join)


@settings(max_examples=300)
@given(base=st.sampled_from(FIXED[1:]), edits=st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 200), lines),
    min_size=1, max_size=4))
def test_damaged_files_fail_as_the_reference_does(base, edits):
    text = oracle.reference_serialize_dgf(base).splitlines()
    for how, at, line in edits:
        at %= len(text) + 1
        if how == "insert":
            text.insert(at, line)
        elif at < len(text):
            text[at:at + 1] = [line] if how == "replace" else []
    text = "\n".join(text)
    want = outcome(oracle.reference_parse_dgf, text)
    got = outcome(parse_dgf, text)
    if isinstance(want, VascularNetwork):
        assert_same_network(got, want)
    else:
        assert got == want


# -- VTK ---------------------------------------------------------------------


@given(networks())
@example(FIXED[0])
@example(FIXED[2])
def test_network_vtk_matches_reference(net):
    assert network_to_vtk(net) == oracle.reference_network_to_vtk(net)


field_values = st.one_of(st.floats(), st.sampled_from(SPECIAL),
                         st.integers(-10**6, 10**6).map(float))


@given(cells=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 3)),
       upper=st.tuples(*[st.floats(1e-6, 1.0)] * 3), data=st.data())
def test_cell_field_vtk_matches_reference(cells, upper, data):
    grid = build_grid(DomainBox([0.0] * 3, list(upper)), cells)
    fields = {
        "pressure_pa": np.array(data.draw(st.lists(field_values, min_size=grid.n_cells,
                                                   max_size=grid.n_cells))),
        "count": np.arange(grid.n_cells),
    }
    assert cell_field_to_vtk(grid, fields) == oracle.reference_cell_field_to_vtk(grid, fields)


def test_cell_field_vtk_special_values():
    grid = build_grid(DomainBox([0.0] * 3, [1e-3] * 3), (len(SPECIAL), 2, 2))
    fields = {"v": np.tile(SPECIAL, 4)}
    text = cell_field_to_vtk(grid, fields)
    assert text == oracle.reference_cell_field_to_vtk(grid, fields)
    assert text.splitlines()[-len(SPECIAL):] == [
        "nan", "inf", "-inf", "-0", "0", "4.94065645841e-324", "1e+308", "3", "-2",
        "1e+16", "1e-05"]


# -- CSV ---------------------------------------------------------------------

csv_fields = st.one_of(
    st.integers(-10**20, 10**20),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from(SPECIAL),
    st.sampled_from(SPECIAL).map(np.float64),
)
ascii_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


@given(width=st.integers(1, 5), data=st.data(),
       preamble=st.none() | st.lists(ascii_text, max_size=3))
def test_write_csv_matches_reference(tmp_path_factory, width, data, preamble):
    header = data.draw(st.lists(ascii_text, min_size=width, max_size=width))
    rows = data.draw(st.lists(st.lists(csv_fields, min_size=width, max_size=width),
                              max_size=6))
    directory = tmp_path_factory.mktemp("csv")
    columns = [[row[j] for row in rows] for j in range(width)]
    write_csv(directory / "got.csv", header, columns, preamble)
    oracle.reference_write_csv(directory / "want.csv", header, rows, preamble)
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()


def test_write_csv_numpy_scalars_and_ints(tmp_path):
    columns = [range(1, 4), [np.float64(1.5), np.float64(-0.0), np.float64(1e-7)],
               np.array([2.0, 1e20, 0.1]).tolist()]
    write_csv(tmp_path / "got.csv", ["i", "a", "b"], columns, ["prov"])
    oracle.reference_write_csv(tmp_path / "want.csv", ["i", "a", "b"],
                               list(zip(*columns)), ["prov"])
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got == b"# prov\ni,a,b\r\n1,1.5,2.0\r\n2,-0.0,1e+20\r\n3,1e-07,0.1\r\n"


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [3]])
