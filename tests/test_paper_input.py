"""The paper-scale root lattice of `paper_input`: where its roots sit, what
they hold, and that it survives the DGF file it is grown from."""

import numpy as np
import pytest

from microvasc import RunConfig, parse_dgf, serialize_dgf

from paper_input import FACE_PRESSURES, UM, make_paper_network


@pytest.fixture(scope="module")
def paper():
    return make_paper_network(), RunConfig().roi_box()


def test_nine_roots_per_face_with_the_face_pressure(paper):
    net, roi = paper
    roots = [nid for nid, node in net.nodes.items() if node.kind == "boundary"]
    assert len(roots) == 36 and len(net.nodes) == 72 and len(net.segments) == 36
    fractions = (np.arange(3) + 0.5) / 3
    for (axis, side), pressure in FACE_PRESSURES.items():
        face = (roi.lower, roi.upper)[side][axis]
        on_face = [nid for nid in roots if net.nodes[nid].position[axis] == face]
        assert len(on_face) == 9
        assert {net.nodes[nid].boundary_pressure for nid in on_face} == {pressure}
        across = np.array([net.nodes[nid].position for nid in on_face])
        for other in (a for a in range(3) if a != axis):
            want = roi.lower[other] + fractions * roi.extent[other]
            assert np.allclose(np.unique(across[:, other]), want, rtol=0, atol=1e-18)


def test_each_root_is_a_stub_pointing_inward(paper):
    net, roi = paper
    for seg in net.segments.values():
        root, end = net.nodes[seg.node_a], net.nodes[seg.node_b]
        assert root.kind == "boundary" and end.kind == "inner"
        assert seg.radius == 15 * UM
        assert np.linalg.norm(end.position - root.position) == pytest.approx(60 * UM)
        assert roi.strictly_contains(end.position)
        assert len(net.adjacency[end.id]) == 1


def test_dgf_round_trip(paper):
    net, _ = paper
    text = serialize_dgf(net)
    back = parse_dgf(text)
    assert serialize_dgf(back) == text
    assert sorted(back.nodes) == sorted(net.nodes)
    for nid, node in net.nodes.items():
        assert np.array_equal(back.nodes[nid].position, node.position)
        assert back.nodes[nid].boundary_pressure == node.boundary_pressure
    for sid, seg in net.segments.items():
        got = back.segments[sid]
        assert (got.node_a, got.node_b, got.radius) == (seg.node_a, seg.node_b, seg.radius)
