import math
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from microvasc import (
    DomainBox,
    FlowParameters,
    GrowthEngine,
    GrowthParameters,
    NetworkNode,
    RheologyParameters,
    Segment,
    VascularNetwork,
    assemble_flow_system,
    build_grid,
    build_surface_coupling,
    classify_arterial_venous,
    clip_to_box,
    enlarge_domain,
    parse_dgf,
    read_dgf,
    serialize_dgf,
    solve_flow,
)
from microvasc.errors import (
    ParseError,
    StateError,
    TopologyError,
    ValidationError,
)
from microvasc import OxygenParameters

from conftest import (
    UM,
    boundary_nodes,
    make_desk_network,
    make_perfbench_lattice,
    make_single_vessel,
    make_starter_network,
    make_y_junction,
)

SIMPLE_DGF = """\
DGF
VERTEX
parameters 1
0 0 0 8000
1e-4 0 0
2e-4 0 0 4000
#
SIMPLEX
parameters 1
0 1 5e-6
1 2 4e-6
#
"""


class TestDataModel:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Segment(0, 3, 3, 5 * UM)

    def test_nonpositive_radius_rejected(self):
        for radius in (0.0, -1 * UM, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                Segment(0, 0, 1, radius)

    def test_nonpositive_boundary_pressure_rejected(self):
        for pressure in (0.0, -8000.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                NetworkNode(0, np.zeros(3), "boundary", pressure)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_position_rejected(self, value, axis):
        # such a node would serialize to a vertex line parse_dgf rejects
        position = np.zeros(3)
        position[axis] = value
        with pytest.raises(ValidationError, match="finite"):
            NetworkNode(0, position)
        with pytest.raises(ValidationError, match="finite"):
            VascularNetwork().new_node(position)

    def test_duplicate_ids_rejected(self):
        net = make_single_vessel()
        with pytest.raises(TopologyError):
            net.add_node(NetworkNode(0, np.zeros(3)))
        with pytest.raises(TopologyError):
            net.add_segment(Segment(0, 0, 1, 5 * UM))

    def test_segment_unknown_node_rejected(self):
        net = make_single_vessel()
        with pytest.raises(TopologyError):
            net.new_segment(0, 99, 5 * UM)

    def test_adjacency_bookkeeping(self):
        net = make_y_junction()
        assert len(net.adjacency[1]) == 3
        assert len(net.adjacency[0]) == 1
        total = sum(len(sids) for sids in net.adjacency.values())
        assert total == 2 * len(net.segments)
        net.validate()

    def test_remove_segment_drops_orphans(self):
        net = make_y_junction()
        net.remove_segment(2)  # 1-3 branch
        assert 2 not in net.segments
        assert 3 not in net.nodes
        net.validate()

    def test_copy_is_deep(self):
        net = make_y_junction()
        dup = net.copy()
        dup.nodes[0].position[0] = 1.0
        dup.new_segment(2, 3, 2 * UM)
        assert net.nodes[0].position[0] == 0.0
        assert len(net.segments) == 3

    @pytest.mark.parametrize("how", ["copy", "clip_to_box"])
    def test_copies_carry_every_field_and_share_nothing(self, how):
        net = VascularNetwork()
        net.new_node([0.0, 0.0, 0.0], kind="boundary", boundary_pressure=8000.0,
                     is_root=True)
        net.new_node([50 * UM, 0.0, 0.0])
        net.new_node([80 * UM, 20 * UM, 0.0], kind="boundary", boundary_pressure=4000.0)
        net.new_node([300 * UM, 0.0, 0.0])  # outside the clip box
        net.new_segment(0, 1, 6 * UM)
        net.new_segment(1, 2, 4 * UM)
        net.new_segment(1, 3, 3 * UM)  # crosses the box face: cut, not copied
        if how == "copy":
            dup = net.copy()
        else:
            dup = clip_to_box(net, DomainBox([0.0] * 3, [100 * UM] * 3))
        # every field of the source differs from its default somewhere, so a
        # copy that drops one fails below
        for cls, items in ((NetworkNode, net.nodes), (Segment, net.segments)):
            for f in fields(cls):
                if f.default is not MISSING:
                    assert any(getattr(x, f.name) != f.default for x in items.values())
        for nid in (0, 1, 2):
            for f in fields(NetworkNode):
                got, want = getattr(dup.nodes[nid], f.name), getattr(net.nodes[nid], f.name)
                assert np.array_equal(got, want), f.name
        for sid in (0, 1):
            for f in fields(Segment):
                assert getattr(dup.segments[sid], f.name) == getattr(net.segments[sid], f.name)
        dup.nodes[0].position[0] = 1.0
        dup.nodes[1].kind = "boundary"
        dup.segments[0].radius = 1.0
        assert net.nodes[0].position[0] == 0.0
        assert net.nodes[1].kind == "inner"
        assert net.segments[0].radius == 6 * UM

    def test_segment_geometry(self):
        net = VascularNetwork()
        net.new_node([0.0, 0.0, 0.0])
        net.new_node([0.0, 0.0, 2e-4])
        seg = net.new_segment(0, 1, 5 * UM)
        length, orientation = net.segment_geometry(seg.id)
        assert length == pytest.approx(2e-4, abs=0.0)
        assert np.allclose(orientation, [0.0, 0.0, 1.0])

    def test_segment_geometry_diagonal(self):
        net = VascularNetwork()
        net.new_node([1 * UM, 1 * UM, 1 * UM])
        net.new_node([2 * UM, 2 * UM, 2 * UM])
        net.new_segment(0, 1, 2 * UM)
        length, orientation = net.segment_geometry(0)
        assert length == pytest.approx(np.sqrt(3) * UM, rel=1e-15)
        assert np.allclose(orientation, np.ones(3) / np.sqrt(3))

    def test_zero_length_segment_rejected(self):
        net = VascularNetwork()
        net.new_node([0.0, 0.0, 0.0])
        net.new_node([0.0, 0.0, 0.0])
        net.new_segment(0, 1, 5 * UM)
        with pytest.raises(ValidationError):
            net.segment_geometry(0)


class TestDomainBox:
    def test_extent(self):
        box = DomainBox([0.0, 0.0, 0.0], [1.0, 2.0, 4.0])
        assert np.allclose(box.extent, [1.0, 2.0, 4.0])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValidationError):
            DomainBox([0.0, 0.0, 0.0], [1.0, 0.0, 1.0])

    def test_contains_is_closed_strict_is_open(self):
        box = DomainBox([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert box.contains([0.0, 0.5, 1.0])
        assert not box.strictly_contains([0.0, 0.5, 1.0])
        assert box.strictly_contains([0.5, 0.5, 0.5])

    @given(
        lower=st.tuples(*[st.sampled_from([-0.0, 0.0, -1e-3, 2.5e-4])] * 3),
        data=st.data(),
    )
    def test_point_tests_match_the_array_forms(self, lower, data):
        """`contains` and `strictly_contains` compare floats; they answer
        as numpy's comparisons of the whole point on faces, their
        neighbouring floats, signed zeros, outside points and NaN."""
        box = DomainBox(lower, np.add(lower, [1e-3, 0.7e-3, 0.3e-3]))

        def coordinate(axis):
            lo, hi = float(box.lower[axis]), float(box.upper[axis])
            faces = st.sampled_from([lo, hi, 0.0, -0.0, math.nan])
            beside = st.tuples(faces, st.sampled_from([-np.inf, np.inf])).map(
                lambda pair: float(np.nextafter(*pair))
            )
            return st.one_of(faces, beside, st.floats(lo - 1e-3, hi + 1e-3))

        point = np.array([data.draw(coordinate(axis)) for axis in range(3)])
        closed = bool(np.all(point >= box.lower) and np.all(point <= box.upper))
        open_ = bool(np.all(point > box.lower) and np.all(point < box.upper))
        assert box.contains(point) is closed and box.contains(point.tolist()) is closed
        assert box.strictly_contains(point) is open_
        assert box.strictly_contains(point.tolist()) is open_

    def test_enlarge_symmetric(self):
        roi = DomainBox([0.0, 0.0, 0.0], [1.0e-3, 2.0e-3, 1.0e-3])
        big = enlarge_domain(roi, 0.10)
        assert np.allclose(big.lower, [-0.1e-3, -0.2e-3, -0.1e-3])
        assert np.allclose(big.upper, [1.1e-3, 2.2e-3, 1.1e-3])
        assert np.allclose(big.lower + big.upper, roi.lower + roi.upper)


class TestTerminalNodes:
    def test_y_tree_leaf_tips(self):
        net = VascularNetwork()
        net.new_node([0.0, 0.5e-3, 0.5e-3], kind="boundary",
                     boundary_pressure=8000.0, is_root=True)
        net.new_node([0.4e-3, 0.5e-3, 0.5e-3])
        net.new_node([0.7e-3, 0.7e-3, 0.5e-3])
        net.new_node([0.7e-3, 0.3e-3, 0.5e-3])
        net.new_segment(0, 1, 6 * UM)
        net.new_segment(1, 2, 4 * UM)
        net.new_segment(1, 3, 4 * UM)
        box = DomainBox([0.0, 0.0, 0.0], [1.0e-3, 1.0e-3, 1.0e-3])
        assert net.terminal_nodes(box) == [2, 3]

    def test_spanning_segment_has_no_terminals(self):
        box = DomainBox([0.0, 0.0, 0.0], [1.0e-3, 1.0e-3, 1.0e-3])
        net = make_single_vessel(start=(0.0, 0.5e-3, 0.5e-3),
                                 end=(1.0e-3, 0.5e-3, 0.5e-3))
        assert net.terminal_nodes(box) == []

    def test_region_filters_outside_leaves(self):
        net = VascularNetwork()
        net.new_node([0.5e-3, 0.5e-3, 0.5e-3])
        net.new_node([0.6e-3, 0.5e-3, 0.5e-3])
        net.new_node([1.4e-3, 0.5e-3, 0.5e-3])
        net.new_segment(0, 1, 4 * UM)
        net.new_segment(1, 2, 4 * UM)
        roi = DomainBox([0.4e-3, 0.0, 0.0], [1.0e-3, 1.0e-3, 1.0e-3])
        assert net.terminal_nodes(roi) == [0]


def first_listed_segment_rule(net, flow, params=OxygenParameters()):
    """The artery/vein rule written on the objects: each boundary node's
    terminal segment is the first its adjacency lists."""
    speed = np.abs(flow.velocity)
    ends = [nid for nid in boundary_nodes(net) if net.adjacency[nid]]
    terminal = np.searchsorted(flow.segment_ids, [net.adjacency[nid][0] for nid in ends])
    veins = (speed[terminal] < np.mean(speed)).tolist()
    return {nid: params.venous_po2 if v else params.arterial_po2 for nid, v in zip(ends, veins)}


def grown_starter():
    """A starter tree's network at its last phase-2 checkpoint: the objects
    growth edited, and their DGF text."""
    roi = DomainBox([0.0] * 3, [0.5e-3] * 3)
    domain = enlarge_domain(roi, 0.10)
    engine = GrowthEngine(
        make_starter_network(), domain, roi, build_grid(domain, (8, 8, 8)),
        RheologyParameters(), FlowParameters(), OxygenParameters(),
        GrowthParameters(max_iter_p1=2, max_iter_p2=2), np.random.default_rng(3),
    )
    engine.run_phase1()
    engine.run_phase2()
    return engine.net, serialize_dgf(engine.net)


class TestClassification:
    @pytest.mark.parametrize("source", ["desk", "starter", "lattice", "grown starter"])
    def test_table_rule_is_the_first_listed_segment_rule(self, source):
        """On a table, each boundary node's terminal segment is its
        lowest-id one; on the objects of a parsed or grown network that is
        the one its adjacency lists first. Random speeds label many nodes
        each way; a solved flow labels the desk ladder."""
        if source == "grown starter":
            grown, text = grown_starter()
            grown_table = grown.table()
        elif source == "lattice":
            text = serialize_dgf(make_perfbench_lattice()[0])
        else:
            text = serialize_dgf({"desk": make_desk_network, "starter": make_starter_network}[source]())
        table, net = read_dgf(text), parse_dgf(text)
        rng = np.random.default_rng(0)

        class Flow:
            segment_ids = table.segment_ids.tolist()
            velocity = rng.uniform(-1.0, 1.0, table.segment_ids.size)

        flows = [Flow()]
        if source == "desk":
            grid = build_grid(DomainBox([0.0] * 3, [1e-3] * 3), (8, 8, 8))
            coupling = build_surface_coupling(grid, table)
            flows.append(solve_flow(assemble_flow_system(
                table, grid, coupling, RheologyParameters(), FlowParameters())))
        seen = set()
        for flow in flows:
            labels = classify_arterial_venous(table, flow)
            assert labels == classify_arterial_venous(net, flow)
            assert labels == first_listed_segment_rule(net, flow)
            seen |= set(labels.values())
        assert len(seen) == 2
        if source == "grown starter":  # the objects as growth left them, not parsed
            assert grown_table.segment_ids.tolist() == table.segment_ids.tolist()
            assert classify_arterial_venous(grown_table, flows[0]) == first_listed_segment_rule(
                grown, flows[0])

    def test_two_velocity_split(self):
        net = make_single_vessel()
        net.new_node([0.0, 50 * UM, 0.0], kind="boundary", boundary_pressure=7000.0)
        net.new_node([100 * UM, 50 * UM, 0.0], kind="boundary", boundary_pressure=6000.0)
        net.new_segment(2, 3, 5 * UM)

        class Flow:
            segment_ids = [0, 1]
            velocity = np.array([3.0e-3, 1.0e-3])

        arterial, venous = OxygenParameters().arterial_po2, OxygenParameters().venous_po2
        boundary_po2 = classify_arterial_venous(net, Flow())
        assert boundary_po2 == {0: arterial, 1: arterial, 2: venous, 3: venous}

    def test_tie_goes_to_artery(self):
        net = make_single_vessel()

        class Flow:
            segment_ids = [0]
            velocity = np.array([2.0e-3])

        boundary_po2 = classify_arterial_venous(net, Flow())
        assert set(boundary_po2.values()) == {OxygenParameters().arterial_po2}

    def test_requires_flow_state(self):
        net = make_single_vessel()
        with pytest.raises(StateError):
            classify_arterial_venous(net, None)


class TestDgf:
    def test_parse_simple(self):
        net = parse_dgf(SIMPLE_DGF)
        assert len(net.nodes) == 3 and len(net.segments) == 2
        assert net.nodes[0].kind == "boundary"
        assert net.nodes[0].boundary_pressure == 8000.0
        assert net.nodes[1].kind == "inner"
        assert net.segments[0].radius == pytest.approx(5 * UM)

    def test_parse_ignores_comments(self):
        text = SIMPLE_DGF.replace("DGF\n", "DGF\n% a comment\n#another\n")
        net = parse_dgf(text)
        assert len(net.nodes) == 3

    def test_parse_malformed_vertex(self):
        for vertex in ("1e-4 0", "nan 0 0", "1 inf 0", "1 0 0 nan", "1 0 0 inf", "1 0 0 -1"):
            bad = SIMPLE_DGF.replace("1e-4 0 0\n", vertex + "\n")
            with pytest.raises(ParseError) as err:
                parse_dgf(bad)
            assert err.value.line == 5, vertex

    def test_parse_dangling_segment(self):
        bad = SIMPLE_DGF.replace("1 2 4e-6", "1 9 4e-6")
        with pytest.raises(TopologyError):
            parse_dgf(bad)

    def test_parse_negative_radius(self):
        bad = SIMPLE_DGF.replace("0 1 5e-6", "0 1 -5e-6")
        with pytest.raises(ValidationError):
            parse_dgf(bad)
        for radius in ("nan", "inf", "-inf"):
            with pytest.raises(ParseError) as err:
                parse_dgf(SIMPLE_DGF.replace("0 1 5e-6", "0 1 " + radius))
            assert err.value.line == 10, radius

    def test_round_trip_identity(self):
        net = parse_dgf(SIMPLE_DGF)
        again = parse_dgf(serialize_dgf(net))
        assert sorted(again.nodes) == sorted(net.nodes)
        for nid in net.nodes:
            assert np.array_equal(again.nodes[nid].position, net.nodes[nid].position)
            assert again.nodes[nid].boundary_pressure == net.nodes[nid].boundary_pressure
        for sid in net.segments:
            assert again.segments[sid].radius == net.segments[sid].radius
            assert (again.segments[sid].node_a, again.segments[sid].node_b) == (
                net.segments[sid].node_a,
                net.segments[sid].node_b,
            )

    @given(
        coords=st.lists(
            st.tuples(
                st.floats(-1e-3, 1e-3, allow_nan=False),
                st.floats(-1e-3, 1e-3, allow_nan=False),
                st.floats(-1e-3, 1e-3, allow_nan=False),
            ),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        radius=st.floats(1e-6, 1e-4),
    )
    def test_round_trip_chain_property(self, coords, radius):
        net = VascularNetwork()
        for xyz in coords:
            net.new_node(np.array(xyz))
        for i in range(len(coords) - 1):
            net.new_segment(i, i + 1, radius)
        again = parse_dgf(serialize_dgf(net))
        assert len(again.nodes) == len(net.nodes)
        for nid in net.nodes:
            assert np.array_equal(again.nodes[nid].position, net.nodes[nid].position)
        for sid in net.segments:
            assert again.segments[sid].radius == net.segments[sid].radius


@st.composite
def shuffled_networks(draw):
    """A network whose node and segment ids are inserted out of order and
    with gaps, some segments then removed with `remove_segment`; boundary
    nodes with and without a pressure, and inner nodes holding one."""
    net = VascularNetwork()
    node_ids = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=12))
    for nid in node_ids:
        position = draw(st.tuples(*[st.floats(-1e-3, 1e-3)] * 3))
        kind = draw(st.sampled_from(("inner", "boundary")))
        pressure = draw(st.one_of(st.none(), st.floats(1.0, 1e4)))
        net.add_node(NetworkNode(nid, np.array(position), kind, pressure))
    if len(node_ids) >= 2:
        ends = draw(st.lists(
            st.tuples(st.sampled_from(node_ids), st.sampled_from(node_ids)).filter(
                lambda e: e[0] != e[1]),
            max_size=16,
        ))
        ids = draw(st.lists(st.integers(0, 10**6), unique=True,
                            min_size=len(ends), max_size=len(ends)))
        for sid, (a, b) in zip(ids, ends):
            net.add_segment(Segment(sid, a, b, draw(st.floats(1e-7, 1e-4))))
    if net.segments:
        for sid in draw(st.lists(st.sampled_from(sorted(net.segments)), unique=True)):
            net.remove_segment(sid)
    return net


def written_pressures(text: str) -> list[float]:
    """Each vertex line's pressure in a `serialize_dgf` text, NaN where none."""
    lines = text.split("#\n")[0].splitlines()[3:]
    return [float(f[3]) if len(f) == 4 else math.nan for f in map(str.split, lines)]


class TestTable:
    @pytest.mark.blas_threads
    @given(net=shuffled_networks())
    @example(net=VascularNetwork())
    def test_columns_match_the_dict_graph(self, net):
        table = net.table()
        n, m = len(net.nodes), len(net.segments)
        assert table.node_ids.dtype == table.segment_ids.dtype == np.int64
        assert table.node_ids.tolist() == sorted(net.nodes)
        assert table.segment_ids.tolist() == sorted(net.segments)
        assert table.position.shape == (n, 3) and table.ends.shape == (m, 2)
        for nid, position in zip(table.node_ids.tolist(), table.position):
            assert position.tobytes() == net.nodes[nid].position.tobytes()
        pairs = table.node_ids[table.ends].tolist()
        for sid, pair, radius in zip(table.segment_ids.tolist(), pairs, table.radius):
            seg = net.segments[sid]
            assert pair == [seg.node_a, seg.node_b]
            assert radius.tobytes() == np.float64(seg.radius).tobytes()
        assert np.array_equal(table.pressure, written_pressures(serialize_dgf(net)),
                              equal_nan=True)
