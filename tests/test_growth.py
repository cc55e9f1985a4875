import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microvasc import growth
from microvasc import (
    DomainBox,
    FlowParameters,
    GrowthEngine,
    GrowthParameters,
    OctantIndex,
    OxygenParameters,
    RheologyParameters,
    VascularNetwork,
    assemble_flow_system,
    bifurcation_angles,
    bifurcation_decision,
    bifurcation_probability,
    build_bifurcation_directions,
    build_grid,
    build_surface_coupling,
    check_and_insert,
    clip_to_box,
    collides,
    enlarge_domain,
    growth_direction,
    murray_branch_radii,
    sample_length,
    segment_distance,
)
from microvasc.errors import ValidationError
from microvasc.growth import cell_gradient, control_volume_averages, segment_distances

from conftest import (
    UM,
    cell_midpoints,
    cell_ijk,
    endpoints,
    make_jittered_lattice,
    make_starter_network,
)

point = st.floats(-1e-3, 1e-3, allow_nan=False)
point3 = st.tuples(point, point, point)


# -- reference: the scalar Eberly distance, plain float arithmetic -----------

_EPS = 1e-30  # squared length below which a segment is a point


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _clamp(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def reference_segment_distance(a0, a1, b0, b1) -> float:
    """Minimum distance between 3D line segments a0-a1 and b0-b1.

    The closest pair from the clamped line parameters is wrong for nearly
    parallel segments, where a*e - b*b is rounding noise, so the answer is
    the least of it and the four endpoint-to-segment distances: each is a
    true point-pair distance, and in the degenerate case the minimum is one
    of the endpoint ones (Eberly, "Robust Computation of Distance Between
    Line Segments", 2015). Plain float arithmetic: one call is one pair.
    """
    a0, a1, b0, b1 = (np.asarray(p, float).tolist() for p in (a0, a1, b0, b1))
    d1 = [q - p for p, q in zip(a0, a1)]
    d2 = [q - p for p, q in zip(b0, b1)]
    r = [p - q for p, q in zip(a0, b0)]
    a, e, f, c, b = _dot(d1, d1), _dot(d2, d2), _dot(d2, r), _dot(d1, r), _dot(d1, d2)
    # a0 and a1 projected onto segment b, b0 and b1 onto segment a
    t0, t1 = (_clamp(f / e), _clamp((f + b) / e)) if e > _EPS else (0.0, 0.0)
    s0, s1 = (_clamp(-c / a), _clamp((b - c) / a)) if a > _EPS else (0.0, 0.0)
    if a <= _EPS:
        s, t = 0.0, t0
    elif e <= _EPS:
        s, t = s0, 0.0
    else:
        denom = a * e - b * b
        s = _clamp((b * f - c * e) / denom) if denom > 0 else 0.0
        t = (b * s + f) / e
        if t < 0.0:
            s, t = s0, 0.0
        elif t > 1.0:
            s, t = s1, 1.0
    pairs = ((s, t), (0.0, t0), (1.0, t1), (s0, 0.0), (s1, 1.0))
    return math.sqrt(min(
        sum((ri + sk * u - tk * v) ** 2 for ri, u, v in zip(r, d1, d2)) for sk, tk in pairs
    ))


# -- reference: the batched kernel as it was before its branches were trimmed --


def frozen_segment_distances(a0, a1, b0, b1):
    """`segment_distances` with every branch run on every row and a mask
    picking the answer, and its clamps by `np.clip`."""
    a0 = np.asarray(a0, float)
    d1 = np.asarray(a1, float) - a0
    d2 = b1 - b0
    r = a0 - b0
    a = np.vecdot(d1, d1)
    e = np.vecdot(d2, d2)
    f = np.vecdot(d2, r)
    c = np.vecdot(r, d1)
    b = np.vecdot(d2, d1)
    denom = a * e - b * b
    point_b = e <= _EPS
    e_safe = np.where(point_b, 1.0, e)
    if a <= _EPS:
        s = np.zeros_like(e)
        t = np.where(point_b, 0.0, np.clip(f / e_safe, 0.0, 1.0))
    else:
        skew = denom > 0
        s = np.clip((b * f - c * e) / np.where(skew, denom, 1.0), 0.0, 1.0)
        s = np.where(skew, s, 0.0)
        t = (b * s + f) / e_safe
        s_low = np.clip(-c / a, 0.0, 1.0)
        s_high = np.clip((b - c) / a, 0.0, 1.0)
        s = np.where(t < 0.0, s_low, np.where(t > 1.0, s_high, s))
        t = np.clip(t, 0.0, 1.0)
        s = np.where(point_b, s_low, s)
        t = np.where(point_b, 0.0, t)
    diff = r + s[:, None] * d1 - t[:, None] * d2
    dist = np.sqrt(np.vecdot(diff, diff))
    near = np.flatnonzero(denom <= 1e-6 * a * e)
    if near.size:
        r, d2, e, f, c, b = r[near], d2[near], e[near], f[near], c[near], b[near]
        e_safe = np.where(e > _EPS, e, np.inf)
        a_safe = a if a > _EPS else np.inf
        zeros, ones = np.zeros_like(e), np.ones_like(e)
        s = np.stack([zeros, ones, np.clip(-c / a_safe, 0, 1), np.clip((b - c) / a_safe, 0, 1)])
        t = np.stack([np.clip(f / e_safe, 0, 1), np.clip((f + b) / e_safe, 0, 1), zeros, ones])
        ends = r + s[..., None] * d1 - t[..., None] * d2
        dist[near] = np.minimum(dist[near], np.sqrt(np.min(np.vecdot(ends, ends), axis=0)))
    return dist


def scan_collides(net, p0, p1, radius, attached) -> bool:
    """`collides` as a scan of `segment_distance` over every segment."""
    for sid, seg in net.segments.items():
        if seg.node_a in attached or seg.node_b in attached:
            continue
        q0, q1 = endpoints(net, sid)
        if segment_distance(p0, p1, q0, q1) < radius + seg.radius:
            return True
    return False


class TestSegmentDistance:
    def test_parallel_offset(self):
        d = segment_distance([0, 0, 0], [1, 0, 0], [0, 0.5, 0], [1, 0.5, 0])
        assert d == pytest.approx(0.5, rel=1e-12)

    def test_crossing_segments(self):
        d = segment_distance([-1, 0, 0], [1, 0, 0], [0, -1, 1], [0, 1, 1])
        assert d == pytest.approx(1.0, rel=1e-12)

    def test_intersecting_is_zero(self):
        d = segment_distance([-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0])
        assert d == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_to_endpoint(self):
        d = segment_distance([0, 0, 0], [1, 0, 0], [3, 0, 0], [4, 0, 0])
        assert d == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_points(self):
        d = segment_distance([0, 0, 0], [0, 0, 0], [1, 1, 1], [1, 1, 1])
        assert d == pytest.approx(math.sqrt(3), rel=1e-12)

    @staticmethod
    def both_ways(a0, a1, b0, b1):
        """Library and reference distance, each with the segments in both orders."""
        a0, a1, b0, b1 = (np.array(p, float) for p in (a0, a1, b0, b1))
        return [
            segment_distance(a0, a1, b0, b1),
            segment_distance(b0, b1, a0, a1),
            reference_segment_distance(a0, a1, b0, b1),
            reference_segment_distance(b0, b1, a0, a1),
        ]

    def test_nearly_collinear_overlap(self):
        # a recorded property-test failure: a*e - b*b is rounding noise here,
        # and the clamped closest pair gave 1e-12 in one order
        a0, a1 = (0.0, -5.579e-4, 0.0), (0.0, 0.0, 0.0)
        b0, b1 = (0.0, 0.0, 1e-12), (0.0, -8.088e-4, 0.0)
        height = 1e-12 * (1.0 - 5.579e-4 / 8.088e-4)  # b above a0, the closest point
        for d in self.both_ways(a0, a1, b0, b1):
            assert d == pytest.approx(height, rel=1e-9)

    def test_shared_endpoint_is_zero(self):
        # nearly collinear segments meeting at a1 == b1; the clamped closest
        # pair gave 1e-11 in both orders
        a0, b0, shared = (0.0, 8.909e-4, 0.0), (1e-11, 5.87994e-4, 0.0), (0.0, 0.0, 0.0)
        assert self.both_ways(a0, shared, b0, shared) == [0.0] * 4

    @given(a0=point3, a1=point3, b0=point3, b1=point3)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_lower_bound(self, a0, a1, b0, b1):
        d_ab = segment_distance(a0, a1, b0, b1)
        d_ba = segment_distance(b0, b1, a0, a1)
        assert d_ab == pytest.approx(d_ba, rel=1e-9, abs=1e-15)
        assert d_ab >= 0.0
        # achievable: never less than the gap between closest endpoints' segments
        pairwise = min(
            np.linalg.norm(np.subtract(p, q))
            for p in (a0, a1)
            for q in (b0, b1)
        )
        assert d_ab <= pairwise + 1e-12


@pytest.mark.blas_threads
class TestCollision:
    def build_random_net(self, n_segments, seed=0, lo=0.0, hi=1e-3):
        rng = np.random.default_rng(seed)
        net = VascularNetwork()
        for _ in range(n_segments):
            p0 = rng.uniform(lo, hi, 3)
            p1 = p0 + rng.uniform(-80e-6, 80e-6, 3)
            a = net.new_node(p0)
            b = net.new_node(np.clip(p1, lo, hi))
            net.new_segment(a.id, b.id, rng.uniform(2e-6, 8e-6))
        return net

    brute_force = staticmethod(scan_collides)

    def test_octant_matches_brute_force(self):
        domain = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = self.build_random_net(120, seed=3)
        octants = OctantIndex.build(domain, net)
        rng = np.random.default_rng(17)
        disagreements = 0
        for _ in range(300):
            p0 = rng.uniform(0, 1e-3, 3)
            p1 = p0 + rng.uniform(-60e-6, 60e-6, 3)
            r = rng.uniform(2e-6, 6e-6)
            fast = collides(net, octants, p0, p1, r, set())
            slow = self.brute_force(net, p0, p1, r, set())
            disagreements += fast != slow
        assert disagreements == 0

    def test_attached_segments_exempt(self):
        domain = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = VascularNetwork()
        a = net.new_node([0.4e-3, 0.5e-3, 0.5e-3])
        b = net.new_node([0.6e-3, 0.5e-3, 0.5e-3])
        net.new_segment(a.id, b.id, 5 * UM)
        octants = OctantIndex.build(domain, net)
        # doubling back along the parent touches it everywhere
        assert not collides(
            net, octants, np.array([0.6e-3, 0.5e-3, 0.5e-3]),
            np.array([0.5e-3, 0.5e-3, 0.5e-3]), 5 * UM, {b.id},
        )
        assert collides(
            net, octants, np.array([0.6e-3, 0.5e-3, 0.5e-3]),
            np.array([0.5e-3, 0.5e-3, 0.5e-3]), 5 * UM, set(),
        )

    def test_check_and_insert_accept_and_reject(self):
        domain = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = VascularNetwork()
        a = net.new_node([0.2e-3, 0.5e-3, 0.5e-3])
        b = net.new_node([0.5e-3, 0.5e-3, 0.5e-3])
        net.new_segment(a.id, b.id, 5 * UM)
        blocker0 = net.new_node([0.6e-3, 0.4e-3, 0.5e-3])
        blocker1 = net.new_node([0.6e-3, 0.6e-3, 0.5e-3])
        net.new_segment(blocker0.id, blocker1.id, 5 * UM)
        octants = OctantIndex.build(domain, net)
        # crossing the blocker is rejected, net unchanged
        rejected = check_and_insert(
            net, octants, b.id, np.array([0.7e-3, 0.5e-3, 0.5e-3]), 4 * UM
        )
        assert rejected is None
        assert len(net.segments) == 2
        # growing away is accepted and registered in the index
        created = check_and_insert(
            net, octants, b.id, np.array([0.5e-3, 0.7e-3, 0.5e-3]), 4 * UM
        )
        assert created is not None
        assert created.id in net.segments
        assert len(net.adjacency[b.id]) == 2

    def test_removed_segment_not_counted(self):
        domain = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = self.build_random_net(10, seed=5)
        octants = OctantIndex.build(domain, net)
        sid = next(iter(net.segments))
        p0, p1 = (x.copy() for x in endpoints(net, sid))
        radius = net.segments[sid].radius
        # a query along the segment's own axis hits it while it is indexed
        assert collides(net, octants, p0, p1, radius, set())
        octants.remove(sid)
        assert sid not in octants.ids[octants.candidates(p0, p1, radius)]
        net.remove_segment(sid)
        assert not self.brute_force(net, p0, p1, radius, set())
        assert not collides(net, octants, p0, p1, radius, set())
        # a new segment in the same place is found again
        a = net.new_node(p0)
        b = net.new_node(p1)
        seg = net.new_segment(a.id, b.id, radius)
        assert seg.id != sid
        octants.insert(seg.id, p0, p1, radius)
        assert collides(net, octants, p0, p1, radius, set())
        assert not collides(net, octants, p0, p1, radius, {a.id})

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(("insert", "remove", "query")),
                      st.integers(0, 2**32 - 1)),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_collides_matches_brute_force_after_edits(self, ops):
        # dense, so that queries hit; vessels may leave the indexed domain
        domain = DomainBox([0.0, 0.0, 0.0], [0.3e-3, 0.3e-3, 0.3e-3])
        net = self.build_random_net(60, seed=1, hi=0.3e-3)
        octants = OctantIndex.build(domain, net)
        for kind, seed in ops:
            rng = np.random.default_rng(seed)
            if kind == "remove":
                if net.segments:
                    sid = sorted(net.segments)[seed % len(net.segments)]
                    octants.remove(sid)
                    net.remove_segment(sid)
                continue
            nodes = sorted(net.nodes)
            if not nodes:
                assert not collides(net, octants, np.zeros(3), np.ones(3) * 1e-4,
                                    3 * UM, set())
                continue
            tip = nodes[seed % len(nodes)]
            p0 = net.nodes[tip].position.copy()
            p1 = p0 + rng.uniform(-80e-6, 80e-6, 3)
            radius = rng.uniform(2e-6, 8e-6)
            if kind == "insert":
                expected = not self.brute_force(net, p0, p1, radius, {tip})
                seg = check_and_insert(net, octants, tip, p1, radius)
                assert (seg is not None) == expected
            else:
                attached = {tip, nodes[(seed // 7) % len(nodes)]}
                if seed % 3 == 0:
                    p0 = rng.uniform(-0.05e-3, 0.35e-3, 3)  # from anywhere
                assert collides(net, octants, p0, p1, radius, attached) == (
                    self.brute_force(net, p0, p1, radius, attached)
                )


coord = st.floats(-1e-3, 1e-3, allow_nan=False)
vec3 = st.builds(lambda *c: np.array(c), coord, coord, coord)


@st.composite
def stored_segment(draw, a0, a1):
    """A segment random, parallel or collinear to a0-a1, or of zero length."""
    kind = draw(st.sampled_from(("random", "parallel", "collinear", "point")))
    if kind == "collinear":
        u, v = (draw(st.floats(-1.5, 2.5)) for _ in range(2))
        return a0 + u * (a1 - a0), a0 + v * (a1 - a0)
    q0 = draw(vec3)
    if kind == "random":
        return q0, draw(vec3)
    if kind == "parallel":
        return q0, q0 + draw(st.floats(-2.0, 2.0)) * (a1 - a0)
    return q0, q0.copy()


@pytest.mark.blas_threads
class TestBatchedDistance:
    @given(data=st.data(), a0=vec3, a1=vec3, zero_length=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_segment_distance(self, data, a0, a1, zero_length):
        if zero_length:
            a1 = a0.copy()
        pairs = data.draw(st.lists(stored_segment(a0, a1), min_size=1, max_size=8))
        b0 = np.array([q0 for q0, _ in pairs])
        b1 = np.array([q1 for _, q1 in pairs])
        batched = segment_distances(a0, a1, b0, b1)
        # near zero the coordinates' own rounding sets the scale
        scale = max(np.max(np.abs(b0)), np.max(np.abs(b1)), np.max(np.abs(a0)),
                    np.max(np.abs(a1)), 1e-300)
        for i, (q0, q1) in enumerate(pairs):
            scalar = reference_segment_distance(a0, a1, q0, q1)
            assert batched[i] == pytest.approx(scalar, rel=1e-12, abs=1e-12 * scale)


def seeded_batches(seed, queries):
    """Queries with up to 39 stored rows each: random, parallel or collinear
    to the query, or of zero length; one query in ten is itself a point."""
    rng = np.random.default_rng(seed)
    for _ in range(queries):
        a0 = rng.uniform(-1e-3, 1e-3, 3)
        a1 = a0.copy() if rng.random() < 0.1 else rng.uniform(-1e-3, 1e-3, 3)
        n = int(rng.integers(1, 40))
        kind = rng.integers(0, 4, n)
        b0 = rng.uniform(-1e-3, 1e-3, (n, 3))
        b1 = rng.uniform(-1e-3, 1e-3, (n, 3))
        parallel, collinear, point_rows = kind == 1, kind == 2, kind == 3
        b1[parallel] = b0[parallel] + rng.uniform(-2, 2, (parallel.sum(), 1)) * (a1 - a0)
        u = rng.uniform(-1.5, 2.5, (collinear.sum(), 2))
        b0[collinear] = a0 + u[:, :1] * (a1 - a0)
        b1[collinear] = a0 + u[:, 1:] * (a1 - a0)
        b1[point_rows] = b0[point_rows]
        yield a0, a1, b0, b1


@pytest.mark.blas_threads
class TestRowIndependence:
    """A row's distance alone equals the same row inside any batch, bit for
    bit, so `collides` deciding on one batched pass is a scan of
    `segment_distance` over every candidate."""

    @staticmethod
    def alone(a0, a1, b0, b1):
        return np.array([segment_distance(a0, a1, q0, q1) for q0, q1 in zip(b0, b1)])

    @given(data=st.data(), a0=vec3, a1=vec3, zero_length=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_row_alone_equals_row_in_batch(self, data, a0, a1, zero_length):
        if zero_length:
            a1 = a0.copy()
        pairs = data.draw(st.lists(stored_segment(a0, a1), min_size=1, max_size=32))
        b0 = np.array([q0 for q0, _ in pairs])
        b1 = np.array([q1 for _, q1 in pairs])
        pick = np.array(
            data.draw(st.lists(st.integers(0, len(pairs) - 1), max_size=32)), dtype=np.intp
        )
        alone = self.alone(a0, a1, b0, b1)
        assert np.array_equal(segment_distances(a0, a1, b0, b1), alone)
        assert np.array_equal(segment_distances(a0, a1, b0[pick], b1[pick]), alone[pick])

    def test_seeded_batches(self):
        mismatches = 0
        for a0, a1, b0, b1 in seeded_batches(0, 300):
            alone = self.alone(a0, a1, b0, b1)
            mismatches += np.count_nonzero(segment_distances(a0, a1, b0, b1) != alone)
        assert mismatches == 0


@pytest.mark.blas_threads
class TestTrimmedKernel:
    """The kernel runs its zero-length, non-skew and clamp branches only on
    the rows that take them; its distances are the frozen formula's, bit
    for bit."""

    @given(data=st.data(), a0=vec3, a1=vec3, zero_length=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_frozen_formula(self, data, a0, a1, zero_length):
        if zero_length:
            a1 = a0.copy()
        pairs = data.draw(st.lists(stored_segment(a0, a1), min_size=1, max_size=32))
        b0 = np.array([q0 for q0, _ in pairs])
        b1 = np.array([q1 for _, q1 in pairs])
        with np.errstate(divide="raise", invalid="raise"):  # no masked-out 0/0
            trimmed = segment_distances(a0, a1, b0, b1)
        assert np.array_equal(trimmed.view(np.uint64),
                              frozen_segment_distances(a0, a1, b0, b1).view(np.uint64))

    def test_seeded_batches(self):
        rows = 0
        for a0, a1, b0, b1 in seeded_batches(1, 1000):
            trimmed = segment_distances(a0, a1, b0, b1)
            assert np.array_equal(trimmed.view(np.uint64),
                                  frozen_segment_distances(a0, a1, b0, b1).view(np.uint64))
            rows += len(b0)
        assert rows > 15000


@pytest.mark.blas_threads
class TestBoxTest:
    """`collides` measures only the candidates whose box row reaches the
    query's box grown by its pad; near-touching pairs on either side of
    R_new + R_k, and at the pad itself, answer as the scan."""

    @pytest.mark.parametrize("axis", range(3))
    def test_near_touching_pairs_match_the_scan(self, axis):
        domain = DomainBox([0.0] * 3, [1e-3] * 3)
        r_new, r_k = 3.0 * UM, 5.0 * UM
        unit = np.eye(3)
        along, across = unit[(axis + 1) % 3], unit[(axis + 2) % 3]
        center = np.array([0.5e-3, 0.45e-3, 0.55e-3])
        # one stored vessel on each side of the query, at different gaps
        net = VascularNetwork()
        below = [net.new_node(center - 40 * UM * along).id,
                 net.new_node(center + 40 * UM * along).id]
        net.new_segment(*below, r_k)
        octants = OctantIndex.build(domain, net)
        pad = r_new * (1.0 + growth._MARGIN) + growth._MARGIN * octants.edge
        gaps = [(r_new + r_k) * (1.0 + k * 1e-12) for k in range(-3, 4)]
        gaps += [(r_k + pad) * (1.0 + k * 1e-15) for k in range(-3, 4)]
        cases = 0
        for gap in gaps:
            offset = center + gap * unit[axis]
            above = [net.new_node(center + 2.5 * gap * unit[axis] + 30 * UM * across).id,
                     net.new_node(center + 2.5 * gap * unit[axis] + 50 * UM * across).id]
            sid = net.new_segment(*above, r_k).id
            octants.insert(sid, *endpoints(net, sid), r_k)
            queries = {
                "parallel": (offset - 30 * UM * along, offset + 30 * UM * along),
                "skew": (offset - 30 * UM * across, offset + 30 * UM * across),
                "end on": (offset, offset + 60 * UM * unit[axis]),
                "end across": (offset + 10 * UM * along, offset + 10 * UM * along
                               + 60 * UM * across),
            }
            for p0, p1 in queries.values():
                for attached in (set(), {below[0]}, {above[1]}, {below[1], above[0]}):
                    assert collides(net, octants, p0, p1, r_new, attached) == (
                        scan_collides(net, p0, p1, r_new, attached)
                    )
                    cases += 1
            octants.remove(sid)
            net.remove_segment(sid)
        assert cases == len(gaps) * 16
        # both answers occur at the edge: 1 - 1e-12 touches, 1 + 1e-12 does not
        p0 = center + gaps[0] * unit[axis] - 30 * UM * along
        p1 = center + gaps[0] * unit[axis] + 30 * UM * along
        assert collides(net, octants, p0, p1, r_new, set())
        p0, p1 = (p + (gaps[6] - gaps[0]) * unit[axis] for p in (p0, p1))
        assert not collides(net, octants, p0, p1, r_new, set())


@pytest.mark.blas_threads
class TestGrowthQueries:
    def test_starter_growth_decides_as_the_scan_and_rarely_measures(self, monkeypatch):
        """Every `collides` decision of a starter-tree growth run (12^3
        grid, six steps per phase, seed 0, as the benchmark's
        `starter_generate`) equals the scan's, and at most a third of the
        queries reach the distance kernel."""
        roi = DomainBox([0.0] * 3, [0.5e-3] * 3)
        domain = enlarge_domain(roi, 0.10)
        engine = GrowthEngine(
            make_starter_network(), domain, roi, build_grid(domain, (12, 12, 12)),
            RheologyParameters(), FlowParameters(), OxygenParameters(),
            GrowthParameters(max_iter_p1=6, max_iter_p2=6, max_iter_p3=6),
            np.random.default_rng(0),
        )
        decisions, kernel_calls, measured = [], [], []
        real_collides, real_kernel = growth.collides, growth.segment_distances

        def checked(net, octants, p0, p1, radius, attached):
            before = len(kernel_calls)
            hit = real_collides(net, octants, p0, p1, radius, attached)
            measured.append(len(kernel_calls) - before)
            decisions.append(hit == scan_collides(net, p0, p1, radius, attached))
            return hit

        def counted(*args):
            kernel_calls.append(len(args[2]))
            return real_kernel(*args)

        monkeypatch.setattr(growth, "collides", checked)
        monkeypatch.setattr(growth, "segment_distances", counted)
        engine.run_phase1()
        engine.run_phase2()
        engine.run_phase3()
        assert len(decisions) >= 100 and all(decisions)
        assert max(measured) == 1  # one batched pass at most
        assert sum(measured) <= len(decisions) / 3


# -- reference: the index built one insert at a time -------------------------


def reference_keys(index, p0, p1, pad: float):
    """`OctantIndex._keys` as it was written in numpy on 3-vectors."""
    lo = np.floor((np.minimum(p0, p1) - pad - index.origin) / index.edge)
    hi = np.floor((np.maximum(p0, p1) + pad - index.origin) / index.edge)
    i0, j0, k0 = np.clip(lo, 0, index.top).astype(int).tolist()
    i1, j1, k1 = np.clip(hi, 0, index.top).astype(int).tolist()
    ny, nz = int(index.top[1]) + 1, int(index.top[2]) + 1
    return [
        (i * ny + j) * nz + k
        for i in range(i0, i1 + 1)
        for j in range(j0, j1 + 1)
        for k in range(k0, k1 + 1)
    ]


def reference_build(domain, net):
    """`OctantIndex.build` as a loop of one `insert` per segment."""
    lengths = [
        float(np.linalg.norm(np.subtract(*endpoints(net, sid))))
        for sid in net.segments
    ]
    radii = [seg.radius for seg in net.segments.values()]
    # no segments: one bucket holding everything added later
    edge = (float(np.median(lengths)) + 2.0 * max(radii) if lengths
            else float(np.max(domain.extent)))
    index = OctantIndex(domain, edge)
    for sid in net.segments:
        p0, p1 = endpoints(net, sid)
        index.insert(sid, p0, p1, net.segments[sid].radius)
    return index


def assert_same_index(built, reference):
    """Same edge, buckets (keys, slot lists and order, all Python ints),
    slot map and live rows."""
    assert built.edge == reference.edge
    assert list(built.buckets.items()) == list(reference.buckets.items())
    assert all(type(key) is int and all(type(slot) is int for slot in slots)
               for key, slots in built.buckets.items())
    assert list(built.slot_of.items()) == list(reference.slot_of.items())
    n = reference.size
    assert built.size == n
    for name in ("ids", "p0", "p1", "radius", "box", "alive"):
        ours, theirs = getattr(built, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours[:n], theirs[:n])


@st.composite
def index_inputs(draw):
    """A domain and a network to index in it, possibly empty, with segments
    random, tiny or of zero length, partly or wholly outside the domain, and
    some removed before the build. In the 1 m domain tiny segments make the
    bucket edge that of MAX_BUCKETS_PER_AXIS."""
    side = draw(st.sampled_from((1e-3, 1.0)))
    lower = np.array(draw(st.tuples(*[st.floats(-1e-3, 1e-3)] * 3)))
    upper = lower + side * np.array(draw(st.tuples(*[st.floats(0.2, 1.0)] * 3)))
    offset = st.tuples(*[st.floats(-0.5 * side, 1.5 * side)] * 3)
    tiny = st.tuples(*[st.floats(-1e-6, 1e-6)] * 3)
    net = VascularNetwork()
    for kind in draw(st.lists(st.sampled_from(("random", "tiny", "point")), max_size=24)):
        p0 = lower + np.array(draw(offset))
        p1 = {"random": lambda: lower + np.array(draw(offset)),
              "tiny": lambda: p0 + np.array(draw(tiny)),
              "point": p0.copy}[kind]()
        a, b = net.new_node(p0), net.new_node(p1)
        net.new_segment(a.id, b.id, draw(st.floats(1e-7, 1e-4)))
    if net.segments:
        for sid in draw(st.lists(st.sampled_from(sorted(net.segments)), unique=True)):
            net.remove_segment(sid)
    return DomainBox(lower, upper), net


@lru_cache(maxsize=1)
def indexed_lattice():
    """The 5.6k-segment jittered lattice and its index over the grown domain."""
    net = make_jittered_lattice(0, 13)
    domain = enlarge_domain(DomainBox([0.0] * 3, [0.5e-3] * 3), 0.10)
    return net, OctantIndex.build(domain, net)


@pytest.mark.blas_threads
class TestBucketIndex:
    @given(
        start=st.tuples(*[st.floats(0.0, 0.5e-3)] * 3),
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda d: np.linalg.norm(d) > 1e-3
        ),
        length=st.floats(20 * UM, 60 * UM),
        radius=st.floats(2 * UM, 5 * UM),
    )
    @settings(max_examples=100, deadline=None)
    def test_lattice_queries_see_few_candidates(self, start, direction, length, radius):
        net, octants = indexed_lattice()
        assert len(net.segments) > 5500
        p0 = np.array(start)
        p1 = p0 + length * np.array(direction) / np.linalg.norm(direction)
        assert len(octants.candidates(p0, p1, radius)) < 0.05 * len(net.segments)

    def test_neighbour_across_a_bucket_face_is_found(self):
        domain = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = VascularNetwork()
        a = net.new_node([0.107e-3, 0.40e-3, 0.5e-3])
        b = net.new_node([0.107e-3, 0.50e-3, 0.5e-3])
        net.new_segment(a.id, b.id, 2 * UM)
        octants = OctantIndex.build(domain, net)
        assert octants.edge == pytest.approx(0.104e-3)
        # the stored vessel's box lies in the second bucket along x, the
        # query's axis in the first: only the query radius bridges the face
        p0 = np.array([0.102e-3, 0.40e-3, 0.5e-3])
        p1 = np.array([0.102e-3, 0.50e-3, 0.5e-3])
        gap = segment_distance(p0, p1, *endpoints(net, 0))
        assert collides(net, octants, p0, p1, gap * (1 + 1e-7) - 2 * UM, set())
        assert not collides(net, octants, p0, p1, gap * (1 - 1e-7) - 2 * UM, set())

    def test_geometry_outside_the_domain_is_found(self):
        domain = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = VascularNetwork()
        a = net.new_node([1.4e-3, 0.5e-3, 0.5e-3])
        b = net.new_node([1.5e-3, 0.5e-3, 0.5e-3])
        net.new_segment(a.id, b.id, 5 * UM)
        octants = OctantIndex.build(domain, net)
        assert collides(net, octants, np.array([1.45e-3, 0.4e-3, 0.5e-3]),
                        np.array([1.45e-3, 0.6e-3, 0.5e-3]), 3 * UM, set())

    @given(inputs=index_inputs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_build_matches_incremental_inserts(self, inputs, data):
        domain, net = inputs
        built, reference = OctantIndex.build(domain, net), reference_build(domain, net)
        assert_same_index(built, reference)
        # inserts and removals after the build, through `_grow`
        _, extra = data.draw(index_inputs())
        next_id = max(net.segments, default=-1) + 1
        for i, seg in enumerate(extra.segments.values()):
            p0, p1 = extra.nodes[seg.node_a].position, extra.nodes[seg.node_b].position
            for index in (built, reference):
                index.insert(next_id + i, p0, p1, seg.radius)
        for sid in data.draw(st.lists(st.sampled_from(sorted(built.slot_of)), unique=True)
                             if built.slot_of else st.just([])):
            built.remove(sid)
            reference.remove(sid)
        assert_same_index(built, reference)

    def test_lattice_build_matches_incremental_inserts(self):
        net, octants = indexed_lattice()
        domain = enlarge_domain(DomainBox([0.0] * 3, [0.5e-3] * 3), 0.10)
        assert_same_index(octants, reference_build(domain, net))

    @given(
        lower=st.tuples(*[st.floats(-1e-3, 1e-3)] * 3),
        edge=st.floats(2e-5, 2e-3),
        boxes=st.lists(
            st.tuples(
                st.tuples(*[st.floats(-2e-3, 3e-3)] * 3),
                st.one_of(st.none(), st.tuples(*[st.floats(-5e-4, 5e-4)] * 3)),
                st.one_of(st.just(0.0), st.floats(1e-9, 3e-4)),
            ),
            min_size=1, max_size=16,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_keys_match_the_array_pass(self, lower, edge, boxes):
        # boxes partly or wholly outside the domain, padded or not; a
        # missing offset is a zero-length segment
        lower = np.array(lower)
        index = OctantIndex(DomainBox(lower, lower + 1e-3), edge)
        p0 = np.array([lower + start for start, _, _ in boxes])
        p1 = np.array([p + (offset or 0.0) for p, (_, offset, _) in zip(p0, boxes)])
        pad = np.array([pad for _, _, pad in boxes])
        keys, rows = index._bucket_pairs(p0, p1, pad)
        for row in range(len(boxes)):
            expected = keys[rows == row].tolist()
            assert index._keys(p0[row], p1[row], float(pad[row])) == expected
            assert reference_keys(index, p0[row], p1[row], pad[row]) == expected


def all_node_link_candidates(engine, tip, d_x):
    """Oracle: the scan over every node `_link_terminal` made before the
    vectorized pre-filter, returning `_link_candidates`' format."""
    seg, d_tip = engine._tip_segment(tip)
    x = engine.net.nodes[tip].position
    cos_half = math.cos(engine.params.cone_angle / 2.0)
    p_v = dict(zip(engine.flow.node_order, engine.flow.p_nodes.tolist())) if engine.flow else {}
    p_x = p_v.get(tip)
    candidates = []
    for nid in sorted(engine.net.nodes):
        if nid == tip or nid in (seg.node_a, seg.node_b):
            continue
        delta = engine.net.nodes[nid].position - x
        dist = float(np.linalg.norm(delta))
        if dist == 0.0 or dist > d_x:
            continue
        if (delta / dist) @ d_tip < cos_half:
            continue
        dp = 0.0
        if p_x is not None and nid in p_v:
            dp = abs(p_v[nid] - p_x)
        candidates.append((nid, dist, dp))
    if not candidates:
        return []
    dp_max = max(c[2] for c in candidates)
    scored = sorted(
        candidates,
        key=lambda c: (-((c[2] / dp_max if dp_max > 0 else 0.0) - c[1] / d_x), c[0]),
    )
    return [
        (nid, dist, (dp / dp_max if dp_max > 0 else 0.0) - dist / d_x)
        for nid, dist, dp in scored
    ]


@pytest.mark.blas_threads
class TestLinking:
    def test_prefiltered_candidates_match_all_node_scan(self):
        net = make_jittered_lattice(3, 8, twig_fraction=0.2)
        roi = DomainBox([0.0] * 3, [0.5e-3] * 3)
        domain = enlarge_domain(roi, 0.10)
        engine = GrowthEngine(
            net, domain, roi, build_grid(domain, (4, 4, 4)), RheologyParameters(),
            FlowParameters(), OxygenParameters(), GrowthParameters(),
            np.random.default_rng(0),
        )
        rng = np.random.default_rng(1)
        # pressures on most nodes; the rest score with dp = 0
        pressures = {
            nid: float(rng.uniform(4000.0, 8000.0))
            for nid in net.nodes if rng.uniform() < 0.9
        }
        order = sorted(pressures)
        engine.flow = SimpleNamespace(
            node_order=order, p_nodes=np.array([pressures[nid] for nid in order])
        )
        table = engine._node_table()
        tips = net.terminal_nodes(domain)
        assert len(tips) >= 40
        compared = 0
        for tip in tips:
            wide = all_node_link_candidates(engine, tip, 150 * UM)
            # drawn-looking radii, and radii exactly at candidate distances
            for d_x in [40 * UM, 60 * UM, 90 * UM] + [c[1] for c in wide[:3]]:
                expected = all_node_link_candidates(engine, tip, d_x)
                assert engine._link_candidates(tip, d_x, table) == expected
                compared += len(expected)
        assert compared > 100

    def test_cone_and_distance_edges_match_all_node_scan(self):
        # nodes within 1e-9 rad of the cone's edge, at two distances
        box = DomainBox([0.0] * 3, [0.5e-3] * 3)
        net = VascularNetwork()
        root = net.new_node([0.15e-3, 0.25e-3, 0.25e-3])
        tip = net.new_node([0.25e-3, 0.25e-3, 0.25e-3])
        net.new_segment(root.id, tip.id, 4 * UM)
        engine = GrowthEngine(
            net, box, box, build_grid(box, (4, 4, 4)), RheologyParameters(),
            FlowParameters(), OxygenParameters(), GrowthParameters(),
            np.random.default_rng(0),
        )
        half = engine.params.cone_angle / 2.0
        for theta in half + np.linspace(-1e-9, 1e-9, 21):
            for phi in np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False):
                for rho in (30 * UM, 50 * UM):
                    unit = [math.cos(theta), math.sin(theta) * math.cos(phi),
                            math.sin(theta) * math.sin(phi)]
                    net.new_node(tip.position + rho * np.array(unit))
        table = engine._node_table()
        edges = {c[1] for c in all_node_link_candidates(engine, tip.id, 60 * UM)}
        inside = 0
        for d_x in [60 * UM] + sorted(edges)[-5:]:
            expected = all_node_link_candidates(engine, tip.id, d_x)
            assert engine._link_candidates(tip.id, d_x, table) == expected
            inside += len(expected)
        assert 0 < inside

magnitude = st.floats(1e-9, 1e-2)
signed = st.one_of(magnitude, magnitude.map(lambda x: -x))
row3 = st.tuples(signed, signed, signed)


@pytest.mark.blas_threads
class TestVecdotPremise:
    """The link pass and the surface coupling take norms and dots of rows
    with np.vecdot, trusting it to round as np.linalg.norm of one row and
    1-D @ do; einsum and norm(axis=1) do not."""

    @given(data=st.data(), rows=st.lists(row3, min_size=1, max_size=64), d=row3)
    @settings(max_examples=200, deadline=None)
    def test_vecdot_rounds_as_row_norm_and_matmul(self, data, rows, d):
        v = np.array(rows)
        d = np.array(d)
        pick = np.array(
            data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=64)), dtype=np.intp
        )
        norms = np.sqrt(np.vecdot(v, v))
        # whole rows, fancy-indexed rows, and fancy-indexed rows over their
        # norms, as the link pass forms its cone cosines
        for u in (v, v[pick], v[pick] / norms[pick, None]):
            scalar_norms = np.array([np.linalg.norm(r) for r in u])
            assert np.array_equal(np.sqrt(np.vecdot(u, u)), scalar_norms)
            scalar_dots = np.array([r @ d for r in u])
            assert np.array_equal(np.vecdot(u, d), scalar_dots)


class TestStochasticRules:
    def test_bifurcation_probability_frozen(self):
        params = GrowthParameters()
        assert bifurcation_probability(math.exp(2.4), params) == pytest.approx(0.5)
        assert bifurcation_probability(math.exp(2.7), params) == pytest.approx(
            0.84134474606854281, rel=1e-12
        )
        assert bifurcation_probability(5.0, params) == pytest.approx(
            0.0042042998338148729, rel=1e-12
        )
        assert bifurcation_probability(20.0, params) == pytest.approx(
            0.97647080163429467, rel=1e-12
        )

    def test_bifurcation_decision_threshold(self):
        params = GrowthParameters()
        assert not bifurcation_decision(math.exp(2.4), params)  # P = 0.5 < 0.6
        assert bifurcation_decision(20.0, params)
        with pytest.raises(ValidationError):
            bifurcation_decision(0.0, params)

    @given(st.floats(0.1, 100.0))
    def test_probability_in_unit_interval(self, r):
        p = bifurcation_probability(r, GrowthParameters())
        assert 0.0 <= p <= 1.0

    def test_length_sampler_positive_and_scales(self):
        params = GrowthParameters()
        rng = np.random.default_rng(0)
        lengths = [sample_length(5 * UM, rng, params) for _ in range(200)]
        assert all(l > 0 for l in lengths)
        # median ratio ~ e^mu_r
        med = np.median([l / (5 * UM) for l in lengths])
        assert 8.0 < med < 15.0
        with pytest.raises(ValidationError):
            sample_length(0.0, rng, params)

    def test_murray_radii_symmetric_mean(self):
        params = GrowthParameters()
        rng = np.random.default_rng(1)
        parent = 10 * UM
        draws = np.array(
            [murray_branch_radii(parent, rng, params) for _ in range(2000)]
        )
        r_c = 2.0 ** (-1.0 / 3.0) * parent
        assert np.mean(draws) == pytest.approx(r_c, rel=5e-3)
        assert np.all(draws > 0.0)
        assert np.all(draws <= parent)

    def test_murray_radius_gamma_dependence(self):
        assert 2.0 ** (-1.0 / 3.0) * 10 * UM == pytest.approx(7.937005259840998e-6)
        assert 2.0 ** (-1.0 / 3.5) * 10 * UM == pytest.approx(8.20335356007638e-6)

    def test_bifurcation_angles_frozen(self):
        phi1, phi2, clamped = bifurcation_angles(10 * UM, 8 * UM, 7.94 * UM)
        assert phi1 == pytest.approx(0.6587752739933922, rel=1e-12)
        assert phi2 == pytest.approx(0.6705735480761247, rel=1e-12)
        assert not clamped

    def test_bifurcation_angles_symmetric_branches(self):
        phi1, phi2, _ = bifurcation_angles(10 * UM, 7 * UM, 7 * UM)
        assert phi1 == pytest.approx(phi2, rel=1e-12)

    def test_bifurcation_angles_clamped_case(self):
        # wildly unbalanced radii push the arccos argument out of [-1, 1]
        _, _, clamped = bifurcation_angles(10 * UM, 1 * UM, 11 * UM)
        assert clamped

    def test_growth_direction_combines_gradient_and_parent(self):
        d = growth_direction([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0)
        assert np.allclose(d, np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
        assert np.linalg.norm(d) == pytest.approx(1.0, rel=1e-12)

    def test_growth_direction_zero_gradient_goes_straight(self):
        parent = np.array([0.0, 0.0, 1.0])
        assert np.allclose(growth_direction([0, 0, 0], parent, 1.0), parent)

    def test_growth_direction_lambda_zero_follows_gradient(self):
        d = growth_direction([0.0, 2.0, 0.0], [1.0, 0.0, 0.0], 0.0)
        assert np.allclose(d, [0.0, 1.0, 0.0])

    def test_branch_directions_preserve_angles(self):
        rng = np.random.default_rng(2)
        d_k = np.array([1.0, 0.0, 0.0])
        d_g = np.array([0.8, 0.6, 0.0])
        phi1, phi2 = 0.65, 0.67
        d_b1, d_b2, kept, n_p = build_bifurcation_directions(d_k, d_g, phi1, phi2, rng)
        kept_dir = (d_b1, d_b2)[kept]
        kept_phi = (phi1, phi2)[kept]
        angle = math.acos(np.clip(kept_dir @ d_k, -1.0, 1.0))
        assert angle == pytest.approx(kept_phi, abs=1e-12)
        # branches open to opposite sides of the parent in the growth plane
        assert np.sign(np.cross(d_k, d_b1) @ n_p) != np.sign(
            np.cross(d_k, d_b2) @ n_p
        )

    def test_branch_directions_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d_k = rng.normal(size=3)
            d_k /= np.linalg.norm(d_k)
            d_g = rng.normal(size=3)
            d_g /= np.linalg.norm(d_g)
            d_b1, d_b2, _, _ = build_bifurcation_directions(d_k, d_g, 0.6, 0.7, rng)
            assert np.linalg.norm(d_b1) == pytest.approx(1.0, rel=1e-9)
            assert np.linalg.norm(d_b2) == pytest.approx(1.0, rel=1e-9)

    def test_invalid_growth_parameters(self):
        with pytest.raises(ValidationError):
            GrowthParameters(p_th=1.5)
        with pytest.raises(ValidationError):
            GrowthParameters(gamma=5.0)


STARTER_ROI = DomainBox([0.0] * 3, [0.5e-3] * 3)
STARTER_DOMAIN = enlarge_domain(STARTER_ROI, 0.10)


class TestControlVolumes:
    def test_uniform_field_average(self):
        box = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        from microvasc import build_grid

        grid = build_grid(box, (8, 8, 8))
        field = np.full(grid.n_cells, 42.0)
        roi = DomainBox([0.2e-3, 0.2e-3, 0.2e-3], [0.8e-3, 0.8e-3, 0.8e-3])
        cv, mean = control_volume_averages(field, grid, roi, 4)
        assert cv.shape == (4, 4, 4)
        assert np.allclose(cv, 42.0)
        assert mean == pytest.approx(42.0)

    def test_ramp_field_ordering(self):
        box = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        from microvasc import build_grid

        grid = build_grid(box, (10, 10, 10))
        field = cell_midpoints(grid)[:, 0].copy()
        roi = DomainBox([0.1e-3, 0.1e-3, 0.1e-3], [0.9e-3, 0.9e-3, 0.9e-3])
        cv, mean = control_volume_averages(field, grid, roi, 2)
        assert cv[0, 0, 0] < cv[1, 0, 0]
        assert mean == pytest.approx(0.5e-3, rel=1e-6)


    def test_roi_equal_to_grid_is_plain_mean(self):
        box = DomainBox([0.1e-3, -0.2e-3, 0.0], [0.6e-3, 0.5e-3, 0.3e-3])
        grid = build_grid(box, (5, 7, 3))
        field = np.random.default_rng(3).uniform(0.0, 80.0, grid.n_cells)
        cv, mean = control_volume_averages(field, grid, box, 1)
        assert mean == pytest.approx(field.mean(), rel=1e-12)
        assert cv[0, 0, 0] == pytest.approx(field.mean(), rel=1e-12)

    @pytest.mark.parametrize(
        "box, cells, roi, n",
        [
            (STARTER_DOMAIN, (12, 12, 12), STARTER_ROI, 4),
            (STARTER_DOMAIN, (12, 12, 12), STARTER_ROI, 1),
            (DomainBox([0.0] * 3, [1e-3] * 3), (20, 20, 20), DomainBox([0.0] * 3, [1e-3] * 3), 1),
            (DomainBox([0.1e-3, -0.2e-3, 0.0], [0.6e-3, 0.5e-3, 0.3e-3]), (5, 7, 3),
             DomainBox([0.2e-3, -0.1e-3, 0.05e-3], [0.55e-3, 0.45e-3, 0.3e-3]), 3),
        ],
    )
    @pytest.mark.blas_threads
    def test_kept_weights_give_the_uncached_averages(self, box, cells, roi, n):
        """The grid's overlaps, volumes and contraction order, built once
        per (roi, n), give the averages of the formulas formed afresh on
        every call, bit for bit: the same contractions in the same order."""
        grid = build_grid(box, cells)
        for seed in range(3):
            field = np.random.default_rng(seed).uniform(0.0, 80.0, grid.n_cells)
            cv, mean = control_volume_averages(field, grid, roi, n)
            want_cv, want_mean = uncached_averages(field, grid, roi, n)
            assert np.array_equal(cv, want_cv) and mean == want_mean
        same_roi = DomainBox(roi.lower.copy(), roi.upper.copy())
        assert grid.control_volumes(same_roi, n) is grid.control_volumes(roi, n)
        assert grid.control_volumes(roi, n + 1) is not grid.control_volumes(roi, n)


def uncached_averages(values, grid, roi, n):
    """`control_volume_averages` as formed before the grid kept its
    control volumes: every overlap, volume and contraction path anew."""

    def overlaps(axis):
        edges = np.linspace(roi.lower[axis], roi.upper[axis], n + 1)
        cell_lo = grid.box.lower[axis] + grid.spacing[axis] * np.arange(grid.cells_per_axis[axis])
        lo = np.maximum(cell_lo[:, None], edges[None, :-1])
        hi = np.minimum((cell_lo + grid.spacing[axis])[:, None], edges[None, 1:])
        return np.maximum(hi - lo, 0.0)

    nx, ny, nz = grid.cells_per_axis
    ox, oy, oz = (overlaps(axis) for axis in range(3))
    weighted = np.einsum("kji,ix,jy,kz->xyz", values.reshape((nz, ny, nx)), ox, oy, oz,
                         optimize=True)
    volume = np.einsum("ix,jy,kz->xyz", ox, oy, oz, optimize=True)
    with np.errstate(invalid="ignore"):
        averages = np.where(volume > 0.0, weighted / np.maximum(volume, 1e-300), 0.0)
    return averages, float(np.sum(weighted) / np.sum(volume))


def stencil_gradient(po2_t, grid, position):
    """Oracle: the per-tip central-difference stencil `po2_gradient` ran
    before the gradient became one field per solved state."""
    cell, _ = grid.locate(position)
    i, j, k = (int(c) for c in cell_ijk(grid, cell))
    nx, ny, nz = grid.cells_per_axis
    p = po2_t.reshape((nz, ny, nx))
    grad = np.zeros(3)
    for comp, (idx, count, h) in enumerate(zip((i, j, k), (nx, ny, nz), grid.spacing)):
        lo = max(idx - 1, 0)
        hi = min(idx + 1, count - 1)
        sel = [i, j, k]
        sel[comp] = hi
        vh = p[sel[2], sel[1], sel[0]]
        sel[comp] = lo
        vl = p[sel[2], sel[1], sel[0]]
        grad[comp] = (vh - vl) / ((hi - lo) * h) if hi > lo else 0.0
    return grad


class TestGradientField:
    @pytest.mark.parametrize("cells", [(2, 3, 4), (5, 7, 3), (12, 12, 12), (20, 20, 20)])
    def test_field_equals_per_tip_stencil_in_every_cell(self, cells):
        box = DomainBox([-0.1e-3, 0.0, 0.2e-3], [0.4e-3, 0.7e-3, 0.5e-3])
        grid = build_grid(box, cells)
        po2_t = np.random.default_rng(sum(cells)).uniform(0.0, 80.0, grid.n_cells)
        engine = GrowthEngine(
            make_starter_network(), box, box, grid, RheologyParameters(),
            FlowParameters(), OxygenParameters(), GrowthParameters(),
            np.random.default_rng(0),
        )
        engine.po2_grad = cell_gradient(po2_t, grid)
        assert engine.po2_grad.shape == (grid.n_cells, 3)
        for center in cell_midpoints(grid):
            assert np.array_equal(
                engine.po2_gradient(center), stencil_gradient(po2_t, grid, center)
            )


@pytest.mark.blas_threads
class TestPhaseLoops:
    # Only the step budget can end phases 1 and 3 after one step: phase 1
    # keeps large tips and p3_terminal_stop = 0 never fires. po2_stop = 0
    # makes phase 2 stop on its first solve, before growing.
    @pytest.mark.parametrize("po2_stop", [36.5, 0.0])
    def test_zero_iteration_budget_runs_one_step_per_phase(self, po2_stop):
        roi = DomainBox([0.0, 0.0, 0.0], [0.5e-3, 0.5e-3, 0.5e-3])
        domain = enlarge_domain(roi, 0.10)
        steps = []
        engine = GrowthEngine(
            make_starter_network(), domain, roi, build_grid(domain, (8, 8, 8)),
            RheologyParameters(), FlowParameters(), OxygenParameters(),
            GrowthParameters(max_iter_p1=0, max_iter_p2=0, max_iter_p3=0,
                             po2_stop=po2_stop, p3_terminal_stop=0),
            np.random.default_rng(0),
            checkpoint=lambda phase, step, net, po2_roi: steps.append(
                (phase, step, po2_roi)
            ),
        )
        engine.run_phase1()
        n_seg = len(engine.net.segments)
        engine.run_phase2()
        assert (len(engine.net.segments) == n_seg) == (po2_stop == 0.0)
        engine.run_phase3()
        # the hook saw every step record as it was made
        assert steps == engine.steps
        assert [step[:2] for step in steps] == [(1, 0), (2, 0), (3, 0)]
        # phase 3 solves nothing: its step carries phase 2's solved PO2_roi
        assert engine.po2_roi is not None
        assert steps[2][2] == steps[1][2] == engine.po2_roi


def dict_walk_initial_guess(engine, system):
    """Oracle: a walk over the network's nodes by id, as `_initial_guess`
    made while oxygen states were keyed by node id; a node the last state
    lacks starts at the venous PO2."""
    guess = np.zeros(system.n_unknowns)
    guess[: engine.grid.n_cells] = engine.oxygen.po2_t
    for nid in engine.net.nodes:
        guess[system.node_index[nid]] = engine.oxygen.po2_v.get(
            nid, engine.oxygen_params.venous_po2
        )
    return guess


@pytest.mark.blas_threads
class TestWarmStart:
    def test_guess_equals_the_dict_walk_after_a_growth_step(self):
        roi = DomainBox([0.0, 0.0, 0.0], [0.5e-3, 0.5e-3, 0.5e-3])
        domain = enlarge_domain(roi, 0.10)
        engine = GrowthEngine(
            make_starter_network(), domain, roi, build_grid(domain, (8, 8, 8)),
            RheologyParameters(), FlowParameters(), OxygenParameters(),
            GrowthParameters(max_iter_p1=0), np.random.default_rng(0),
        )
        engine.run_phase1()  # one solve, then the large tips grow
        new = sorted(set(engine.net.nodes) - set(engine.oxygen.node_order))
        assert len(new) >= 2
        coupling = build_surface_coupling(engine.grid, engine.net)
        system = assemble_flow_system(
            engine.net, engine.grid, coupling, engine.rheology, engine.flow_params
        )
        guess = engine._initial_guess(system)
        assert np.array_equal(guess, dict_walk_initial_guess(engine, system))
        venous = engine.oxygen_params.venous_po2
        assert all(guess[coupling.node_index[nid]] == venous for nid in new)


class TestClipToBox:
    def test_inside_segments_kept(self):
        box = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = VascularNetwork()
        net.new_node([0.2e-3, 0.5e-3, 0.5e-3])
        net.new_node([0.8e-3, 0.5e-3, 0.5e-3])
        net.new_segment(0, 1, 5 * UM)
        out = clip_to_box(net, box)
        assert len(out.segments) == 1 and len(out.nodes) == 2

    def test_crossing_segment_truncated_at_face(self):
        box = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = VascularNetwork()
        net.new_node([0.5e-3, 0.5e-3, 0.5e-3])
        net.new_node([1.5e-3, 0.5e-3, 0.5e-3])
        net.new_segment(0, 1, 5 * UM)
        out = clip_to_box(net, box)
        assert len(out.segments) == 1
        cut = [n for n in out.nodes.values() if n.id != 0][0]
        assert cut.position[0] == pytest.approx(1e-3, rel=1e-12)

    def test_cut_that_rounds_outside_lands_on_the_face(self):
        # p_in + t (p_out - p_in) gives z = -3.4e-21 here
        box = DomainBox([0.0, 0.0, 0.0], [0.5e-3, 0.5e-3, 0.5e-3])
        net = VascularNetwork()
        net.new_node([0.00033584686718037227, 0.00018550137534781842, 2.301873567573609e-05])
        net.new_node([0.00023155655328082166, 0.00015838282393266994, -0.0001325250586824877])
        net.new_segment(0, 1, 5 * UM)
        out = clip_to_box(net, box)
        cut = out.nodes[1].position
        assert cut[2] == 0.0
        assert all(box.contains(node.position) for node in out.nodes.values())

    def test_outside_segment_dropped(self):
        box = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = VascularNetwork()
        net.new_node([1.2e-3, 0.5e-3, 0.5e-3])
        net.new_node([1.8e-3, 0.5e-3, 0.5e-3])
        net.new_segment(0, 1, 5 * UM)
        out = clip_to_box(net, box)
        assert len(out.segments) == 0 and len(out.nodes) == 0

    def test_cut_node_inherits_donor_boundary_data(self):
        box = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = VascularNetwork()
        net.new_node([0.9e-3, 0.5e-3, 0.5e-3])
        net.new_node(
            [1.1e-3, 0.5e-3, 0.5e-3], kind="boundary", boundary_pressure=8000.0
        )
        net.new_segment(0, 1, 5 * UM)
        out = clip_to_box(net, box)
        cut = [n for n in out.nodes.values() if n.id != 0][0]
        # outside endpoint is nearer to the cut: its pressure is carried over
        assert cut.boundary_pressure == 8000.0
        assert cut.kind == "boundary"


    def test_end_on_the_face_leaving_outward_adds_no_cut_node(self):
        box = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = VascularNetwork()
        on_face = net.new_node([0.0, 0.5e-3, 0.5e-3])
        outside = net.new_node([-0.2e-3, 0.5e-3, 0.5e-3])
        inside = net.new_node([0.5e-3, 0.5e-3, 0.5e-3])
        net.new_segment(on_face.id, outside.id, 5 * UM)
        net.new_segment(on_face.id, inside.id, 5 * UM)
        out = clip_to_box(net, box)
        assert len(out.nodes) == 2 and len(out.segments) == 1
        assert all(out.adjacency[nid] for nid in out.nodes)


class TestPhase3:
    def test_isolated_segment_between_two_terminals(self):
        # Clipping leaves pieces like this; pruning one end drops the other.
        box = DomainBox([0.0, 0.0, 0.0], [0.5e-3, 0.5e-3, 0.5e-3])
        net = VascularNetwork()
        net.new_node([0.2e-3, 0.25e-3, 0.25e-3])
        net.new_node([0.3e-3, 0.25e-3, 0.25e-3])
        net.new_segment(0, 1, 5 * UM)
        engine = GrowthEngine(
            net, box, box, build_grid(box, (5, 5, 5)), RheologyParameters(),
            FlowParameters(), OxygenParameters(), GrowthParameters(max_iter_p3=2),
            np.random.default_rng(0),
        )
        out = engine.run_phase3()
        assert len(out.segments) == 0 and len(out.nodes) == 0
