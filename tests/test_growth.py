import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microvasc import (
    DomainBox,
    FlowParameters,
    GrowthEngine,
    GrowthParameters,
    OctantIndex,
    OxygenParameters,
    RheologyParameters,
    VascularNetwork,
    bifurcation_angles,
    bifurcation_decision,
    bifurcation_probability,
    build_bifurcation_directions,
    build_grid,
    check_and_insert,
    clip_to_box,
    collides,
    growth_direction,
    murray_branch_radii,
    sample_length,
    segment_distance,
)
from microvasc.errors import ValidationError
from microvasc.growth import control_volume_averages

from conftest import UM

point = st.floats(-1e-3, 1e-3, allow_nan=False)
point3 = st.tuples(point, point, point)


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

    def brute_force(self, net, p0, p1, radius, attached):
        for sid, seg in net.segments.items():
            if seg.node_a in attached or seg.node_b in attached:
                continue
            q0, q1 = net.segment_endpoints(sid)
            if segment_distance(p0, p1, q0, q1) < radius + seg.radius:
                return True
        return False

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
        assert net.degree(b.id) == 2

    def test_removed_segment_not_counted(self):
        domain = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
        net = self.build_random_net(10, seed=5)
        octants = OctantIndex.build(domain, net)
        sid = next(iter(net.segments))
        p0, p1 = (x.copy() for x in net.segment_endpoints(sid))
        radius = net.segments[sid].radius
        octants.remove(sid)
        net.remove_segment(sid)
        assert not self.brute_force(net, p0, p1, radius, set()) or collides(
            net, octants, p0, p1, radius, set()
        ) == self.brute_force(net, p0, p1, radius, set())


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
            [murray_branch_radii(parent, 3.0, rng, params) for _ in range(2000)]
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
        field = grid.cell_centers()[:, 0].copy()
        roi = DomainBox([0.1e-3, 0.1e-3, 0.1e-3], [0.9e-3, 0.9e-3, 0.9e-3])
        cv, mean = control_volume_averages(field, grid, roi, 2)
        assert cv[0, 0, 0] < cv[1, 0, 0]
        assert mean == pytest.approx(0.5e-3, rel=1e-6)


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
