from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from microvasc import (
    DomainBox,
    NetworkNode,
    Segment,
    VascularNetwork,
    classify_arterial_venous,
    clip_to_box,
    enlarge_domain,
    parse_dgf,
    serialize_dgf,
)
from microvasc.errors import (
    ParseError,
    StateError,
    TopologyError,
    ValidationError,
)
from microvasc import OxygenParameters

from conftest import UM, make_single_vessel, make_y_junction

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
        with pytest.raises(ValidationError):
            Segment(0, 0, 1, 0.0)
        with pytest.raises(ValidationError):
            Segment(0, 0, 1, -1 * UM)

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
                     boundary_po2=75.0, is_root=True)
        net.new_node([50 * UM, 0.0, 0.0])
        net.new_node([80 * UM, 20 * UM, 0.0], kind="boundary", boundary_pressure=4000.0,
                     boundary_po2=38.0)
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


class TestClassification:
    def test_two_velocity_split(self):
        net = make_single_vessel()
        net.new_node([0.0, 50 * UM, 0.0], kind="boundary", boundary_pressure=7000.0)
        net.new_node([100 * UM, 50 * UM, 0.0], kind="boundary", boundary_pressure=6000.0)
        net.new_segment(2, 3, 5 * UM)

        class Flow:
            segment_ids = [0, 1]
            velocity = np.array([3.0e-3, 1.0e-3])

        labels = classify_arterial_venous(net, Flow())
        assert labels[0] == "artery" and labels[1] == "artery"
        assert labels[2] == "vein" and labels[3] == "vein"
        assert net.nodes[0].boundary_po2 == OxygenParameters().arterial_po2
        assert net.nodes[2].boundary_po2 == OxygenParameters().venous_po2

    def test_tie_goes_to_artery(self):
        net = make_single_vessel()

        class Flow:
            segment_ids = [0]
            velocity = np.array([2.0e-3])

        labels = classify_arterial_venous(net, Flow())
        assert set(labels.values()) == {"artery"}

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
        bad = SIMPLE_DGF.replace("1e-4 0 0\n", "1e-4 0\n")
        with pytest.raises(ParseError) as err:
            parse_dgf(bad)
        assert err.value.line is not None

    def test_parse_dangling_segment(self):
        bad = SIMPLE_DGF.replace("1 2 4e-6", "1 9 4e-6")
        with pytest.raises(TopologyError):
            parse_dgf(bad)

    def test_parse_negative_radius(self):
        bad = SIMPLE_DGF.replace("0 1 5e-6", "0 1 -5e-6")
        with pytest.raises(ValidationError):
            parse_dgf(bad)

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
