"""End-to-end acceptance criteria.

Each test implements one numbered criterion at its stated tolerance.
Criteria that compare against the published reference network skip unless
MICROVASC_PAPER_DGF points at that file. The paper-scale statistics
reproduction is a separately flagged suite (marker `paper_scale`).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from microvasc import (
    DomainBox,
    FlowParameters,
    GrowthParameters,
    OctantIndex,
    OxygenParameters,
    RheologyParameters,
    VascularNetwork,
    assemble_flow_system,
    build_grid,
    build_surface_coupling,
    classify_arterial_venous,
    collides,
    enlarge_domain,
    parse_dgf,
    sample_length_ratio,
    serialize_dgf,
    solve_flow,
    vessel_conductance,
)
from microvasc import growth
from microvasc.cli import main
from microvasc.growth import GrowthEngine
from microvasc.oxygen import (
    assemble_transport_operator,
    michaelis_menten,
    solve_oxygen,
)
from microvasc.rheology import segment_viscosity
from microvasc.stats import network_characteristics, tissue_averages

from conftest import (
    UM,
    endpoints,
    make_desk_network,
    make_single_vessel,
    make_starter_network,
    make_y_junction,
)

PAPER_DGF = os.environ.get("MICROVASC_PAPER_DGF")


def coupled_setup(net, grid, flow_params=None, oxy_params=None):
    flow_params = flow_params or FlowParameters()
    oxy_params = oxy_params or OxygenParameters()
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(
        net, grid, coupling, RheologyParameters(), flow_params
    )
    flow = solve_flow(system)
    operator = assemble_transport_operator(
        net, grid, coupling, flow, flow_params, oxy_params
    )
    return flow, solve_oxygen(operator, oxy_params)


def test_criterion_01_poiseuille_oracle():
    start = time.perf_counter()
    net = VascularNetwork()
    net.new_node([0.0, 0.0, 0.0], kind="boundary", boundary_pressure=8000.0)
    net.new_node([50 * UM, 0.0, 0.0])
    net.new_node([100 * UM, 0.0, 0.0], kind="boundary", boundary_pressure=4000.0)
    net.new_segment(0, 1, 5 * UM)
    net.new_segment(1, 2, 5 * UM)
    grid = build_grid(DomainBox([-1e-3] * 3, [1e-3] * 3), (4, 4, 4))
    params = FlowParameters(wall_conductivity=0.0)
    coupling = build_surface_coupling(grid, net)
    state = solve_flow(
        assemble_flow_system(net, grid, coupling, RheologyParameters(), params)
    )
    # exactly linear profile
    assert state.p_v[0] == 8000.0
    assert state.p_v[2] == 4000.0
    assert abs(state.p_v[1] - 6000.0) <= 6000.0 * 1e-12
    # flux equals conductance * dp to 1e-12 relative
    mu = segment_viscosity(5 * UM, RheologyParameters())
    g = vessel_conductance(5 * UM, 100 * UM, mu)
    flux = abs(state.velocity[state.segment_ids.index(0)]) * math.pi * (5 * UM) ** 2
    assert abs(flux - g * 4000.0) <= 1e-12 * g * 4000.0
    assert time.perf_counter() - start < 1.0


def test_criterion_02_resistor_network_oracle():
    start = time.perf_counter()
    net = make_y_junction()
    grid = build_grid(DomainBox([-1e-3] * 3, [1e-3] * 3), (4, 4, 4))
    coupling = build_surface_coupling(grid, net)
    state = solve_flow(
        assemble_flow_system(
            net, grid, coupling, RheologyParameters(),
            FlowParameters(wall_conductivity=0.0),
        )
    )
    # independent hand-assembled conductance system
    rh = RheologyParameters()
    g = {}
    for sid, seg in net.segments.items():
        length, _ = net.segment_geometry(sid)
        g[sid] = vessel_conductance(
            seg.radius, length, segment_viscosity(seg.radius, rh)
        )
    p1 = (g[0] * 8000.0 + g[1] * 4500.0 + g[2] * 4000.0) / (g[0] + g[1] + g[2])
    assert abs(state.p_v[1] - p1) <= 1e-10 * p1
    for nid, value in ((0, 8000.0), (2, 4500.0), (3, 4000.0)):
        assert state.p_v[nid] == value
    assert time.perf_counter() - start < 1.0


def test_criterion_03_mass_balance(desk_grid):
    start = time.perf_counter()
    net = make_desk_network()
    coupling = build_surface_coupling(desk_grid, net)
    state = solve_flow(
        assemble_flow_system(
            net, desk_grid, coupling, RheologyParameters(), FlowParameters()
        )
    )
    net_flux = sum(state.boundary_flux.values())
    scale = sum(abs(v) for v in state.boundary_flux.values())
    assert abs(net_flux) <= 1e-8 * scale
    # same transmural exchange accumulated on the tissue side and on the
    # vessel side; compare against the total exchange magnitude (the signed
    # net is ~0 in a sealed box)
    jp = np.concatenate(list(state.sample_jp.values()))  # segments in id order
    exchange_scale = float(np.sum(np.abs(jp) * coupling.area))
    assert exchange_scale > 0.0
    assert abs(state.filtration_3d - state.filtration_1d) <= 1e-12 * exchange_scale
    assert time.perf_counter() - start < 30.0


def test_criterion_04_surface_measure(desk_grid):
    start = time.perf_counter()
    net = parse_dgf(serialize_dgf(make_desk_network()))
    coupling = build_surface_coupling(desk_grid, net)
    areas = np.diff(coupling.offsets) * coupling.area[coupling.offsets[:-1]]
    for sid, area in zip(coupling.segments.ids, areas):
        seg = net.segments[sid]
        length, _ = net.segment_geometry(sid)
        exact = 2.0 * math.pi * seg.radius * length
        assert abs(area - exact) <= 1e-12 * exact
    if PAPER_DGF:
        ref = parse_dgf(Path(PAPER_DGF).read_text())
        points = np.array([node.position for node in ref.nodes.values()])
        dom = DomainBox(points.min(axis=0) - 50 * UM, points.max(axis=0) + 50 * UM)
        ref_grid = build_grid(dom, (40, 40, 50))
        total = float(np.sum(build_surface_coupling(ref_grid, ref).area))
        assert abs(total - 1.17e-5) <= 0.005 * 1.17e-5
    assert time.perf_counter() - start < 30.0


@pytest.mark.skipif(
    not PAPER_DGF, reason="reference network file not available"
)
def test_criterion_05_reference_characteristics():
    start = time.perf_counter()
    net = parse_dgf(Path(PAPER_DGF).read_text())
    length, area, volume, n_seg = network_characteristics(net)
    assert n_seg == 10746
    assert abs(length - 0.595) <= 0.0005
    assert abs(area - 1.17e-5) <= 0.005e-5
    assert abs(volume - 2.21e-11) <= 0.005e-11
    assert time.perf_counter() - start < 5.0


def test_criterion_06_oxygen_bounds_and_monotonicity(desk_grid):
    start = time.perf_counter()
    roi = DomainBox([0.1e-3] * 3, [0.9e-3] * 3)
    roi_means = []
    for m0 in (0.0, 3.0, 4.0):
        net = make_desk_network()
        flow, oxy = coupled_setup(
            net, desk_grid, oxy_params=OxygenParameters(max_consumption=m0)
        )
        assert oxy.iterations <= 200
        assert oxy.po2_t.min() >= 0.0
        assert oxy.po2_t.max() <= 75.0 + 1e-9
        assert all(-1e-9 <= v <= 75.0 + 1e-9 for v in oxy.po2_v.values())
        po2_roi, _, _ = tissue_averages(flow, oxy, desk_grid, roi)
        roi_means.append(po2_roi)
    assert roi_means[0] > roi_means[1] > roi_means[2]
    assert time.perf_counter() - start < 120.0


def test_criterion_07_michaelis_menten_points():
    params = OxygenParameters(max_consumption=3.0, po2_half=1.0)
    assert michaelis_menten(params.po2_half, params) == params.max_consumption / 2.0
    assert michaelis_menten(0.0, params) == 0.0


def _batch_segment_distance(p0, p1, q0, q1):
    """Clamped distances from one segment to N segments, vectorized."""
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = float(d1 @ d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = r @ d1
    b = d2 @ d1
    eps = 1e-30
    denom = a * e - b * b
    s = np.where(denom > 0, np.clip((b * f - c * e) / np.where(denom > 0, denom, 1.0), 0.0, 1.0), 0.0)
    t = np.where(e > eps, (b * s + f) / np.where(e > eps, e, 1.0), 0.0)
    low = t < 0.0
    high = t > 1.0
    t = np.clip(t, 0.0, 1.0)
    s = np.where(low, np.clip(-c / a, 0.0, 1.0), s)
    s = np.where(high, np.clip((b - c) / a, 0.0, 1.0), s)
    diff = (p0 + s[:, None] * d1) - (q0 + t[:, None] * d2)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


@pytest.mark.blas_threads
def test_criterion_08_collision_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    domain = DomainBox([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])
    net = VascularNetwork()
    for _ in range(500):
        a = net.new_node(rng.uniform(0, 1e-3, 3))
        b = net.new_node(
            np.clip(a.position + rng.uniform(-80e-6, 80e-6, 3), 0, 1e-3)
        )
        net.new_segment(a.id, b.id, rng.uniform(2e-6, 8e-6))
    octants = OctantIndex.build(domain, net)
    sids = sorted(net.segments)
    q0 = np.array([endpoints(net, s)[0] for s in sids])
    q1 = np.array([endpoints(net, s)[1] for s in sids])
    radii = np.array([net.segments[s].radius for s in sids])
    mismatches = 0
    for _ in range(1000):
        p0 = rng.uniform(0, 1e-3, 3)
        p1 = p0 + rng.uniform(-60e-6, 60e-6, 3)
        r = rng.uniform(2e-6, 6e-6)
        fast = collides(net, octants, p0, p1, r, set())
        dists = _batch_segment_distance(p0, p1, q0, q1)
        slow = bool(np.any(dists < r + radii))
        mismatches += fast != slow
    assert mismatches == 0
    assert time.perf_counter() - start < 30.0


class InstrumentedEngine(GrowthEngine):
    """Records phase-2 radii, the first state's artery/vein classification
    and each solved state's boundary PO2 for the invariants; its checkpoint
    hook records the phase-3 terminal counts and the network before
    clipping."""

    def __init__(self, *args):
        super().__init__(*args, checkpoint=self._record_phase3)
        self.phase2_radii = []
        self.phase3_terminals = []
        self.pre_clip_net = None
        self.first_classification = None
        self.pinned_po2 = []

    def solve_state(self):
        out = super().solve_state()
        if self.first_classification is None:
            self.first_classification = classify_arterial_venous(
                self.net, self.flow, self.oxygen_params
            )
        po2 = dict(zip(self.oxygen.node_order, self.oxygen.po2_nodes.tolist()))
        self.pinned_po2.append({nid: po2[nid] for nid in self.net.boundary_nodes()})
        return out

    def _child_radius(self, raw_radius, parent_radius, phase):
        out = super()._child_radius(raw_radius, parent_radius, phase)
        if phase == 2:
            self.phase2_radii.append((out, parent_radius))
        return out

    def _record_phase3(self, phase, step, snapshot, po2_roi):
        if phase == 3:
            self.phase3_terminals.append(self.interior_terminal_count())
            self.pre_clip_net = snapshot.copy()


def _collision_violations(net):
    """Brute-force pairwise scan; segments sharing a node are exempt."""
    sids = sorted(net.segments)
    ends = {s: endpoints(net, s) for s in sids}
    violations = 0
    for i, sa in enumerate(sids):
        a = net.segments[sa]
        pa0, pa1 = ends[sa]
        rest = sids[i + 1 :]
        if not rest:
            continue
        q0 = np.array([ends[s][0] for s in rest])
        q1 = np.array([ends[s][1] for s in rest])
        radii = np.array([net.segments[s].radius for s in rest])
        shared = np.array(
            [
                len({a.node_a, a.node_b} & {net.segments[s].node_a,
                                            net.segments[s].node_b}) > 0
                for s in rest
            ]
        )
        dists = _batch_segment_distance(pa0, pa1, q0, q1)
        violations += int(np.sum(~shared & (dists < a.radius + radii)))
    return violations


def _angle(u, v):
    """Angle between two directions; atan2 keeps it exact near 0 and pi,
    where acos of a rounded dot product is off by up to 1.5e-8."""
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))


def _grown_engine(seed, cells, monkeypatch):
    """The grown engine and every bifurcation it drew, as
    ((d_k, phi1, phi2), (d_b1, d_b2, kept_index, n_p)), attached or not."""
    roi = DomainBox([0.0, 0.0, 0.0], [0.5e-3, 0.5e-3, 0.5e-3])
    domain = enlarge_domain(roi, 0.10)
    grid = build_grid(domain, (cells, cells, cells))
    params = GrowthParameters(max_iter_p1=8, max_iter_p2=8)
    bifurcations = []
    draw = growth.build_bifurcation_directions

    def recorded(d_k, d_g, phi1, phi2, rng):
        out = draw(d_k, d_g, phi1, phi2, rng)
        bifurcations.append(((d_k, phi1, phi2), out))
        return out

    monkeypatch.setattr(growth, "build_bifurcation_directions", recorded)
    engine = InstrumentedEngine(
        make_starter_network(), domain, roi, grid, RheologyParameters(),
        FlowParameters(), OxygenParameters(), params,
        np.random.default_rng(seed),
    )
    engine.run_phase1()
    engine.run_phase2()
    engine.run_phase3()
    return engine, bifurcations


def _assert_growth_invariants(engine, bifurcations):
    # (a) no collision violations anywhere in the fully grown network
    assert engine.pre_clip_net is not None
    assert _collision_violations(engine.pre_clip_net) == 0

    # (b) every bifurcation drawn realizes its minimum-work angle on the
    # kept branch
    assert bifurcations
    for (d_k, phi1, phi2), (d_b1, d_b2, kept, _) in bifurcations:
        angle = _angle((d_b1, d_b2)[kept], d_k)
        assert abs(angle - (phi1, phi2)[kept]) <= 1e-9

    # (c) capillary-phase radii stay in [2 um, parent radius]
    assert engine.phase2_radii
    for radius, parent in engine.phase2_radii:
        assert 2.0 * UM - 1e-18 <= radius <= parent + 1e-18

    # (d) dead-end removal terminates
    phase3_steps = [step for step in engine.steps if step[0] == 3]
    assert len(engine.phase3_terminals) == len(phase3_steps)
    assert engine.phase3_terminals[-1] < 10 or len(phase3_steps) >= 15

    # (e) the oxygen boundary is frozen: `boundary_po2` is the first solved
    # state's classification, and every solved state pins its values
    assert engine.boundary_po2 == engine.first_classification
    assert engine.pinned_po2[0] == engine.boundary_po2
    for pinned in engine.pinned_po2:
        assert pinned == {nid: engine.boundary_po2[nid] for nid in pinned}


def test_criterion_09_growth_invariants(monkeypatch):
    start = time.perf_counter()
    _assert_growth_invariants(*_grown_engine(42, 20, monkeypatch))
    assert time.perf_counter() - start < 600.0


@pytest.mark.parametrize("seed", range(10))
def test_growth_invariants_hold_over_seeds(seed, monkeypatch):
    """Criterion 9's invariants on the starter tree, seeds 0-9, 12^3 grid."""
    _assert_growth_invariants(*_grown_engine(seed, 12, monkeypatch))


def test_criterion_10_distribution_fidelity():
    rng = np.random.default_rng(7)
    params = GrowthParameters()
    ratios = np.array([sample_length_ratio(rng, params) for _ in range(10_000)])
    _, p_value = scipy.stats.kstest(
        ratios, scipy.stats.lognorm(s=params.sigma_r, scale=math.exp(params.mu_r)).cdf
    )
    assert p_value > 0.01
    radii = rng.normal(
        params.small_radius_mode_mu, params.small_radius_mode_sigma, 10_000
    )
    _, p_value = scipy.stats.kstest(
        radii,
        scipy.stats.norm(
            params.small_radius_mode_mu, params.small_radius_mode_sigma
        ).cdf,
    )
    assert p_value > 0.01


@pytest.mark.blas_threads
def test_criterion_11_determinism(tmp_path):
    import json

    dgf = tmp_path / "starter.dgf"
    dgf.write_text(serialize_dgf(make_starter_network()))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        config = tmp_path / f"config_{run}.json"
        config.write_text(
            json.dumps(
                {
                    "input_dgf": str(dgf),
                    "output_dir": str(out),
                    "grid_cells": [10, 10, 10],
                    "roi_lower": [0.0, 0.0, 0.0],
                    "roi_upper": [0.5e-3, 0.5e-3, 0.5e-3],
                    "master_seed": 5,
                    "growth": {"max_iter_p1": 3, "max_iter_p2": 3,
                               "max_iter_p3": 3},
                }
            )
        )
        assert main(["generate", "--config", str(config)]) == 0
        outputs.append(out)
    for name in ("final_network.dgf", "po2_roi_trace.csv", "statistics.csv"):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


@pytest.mark.paper_scale
def test_criterion_12_reference_statistics():
    """Paper-scale reproduction: hours of compute; run only when asked.

    Requires the reference network (MICROVASC_PAPER_DGF). Passes when each
    of the eight reported quantities falls within two reported standard
    deviations of the published gamma=3, m0=3 ensemble.
    """
    if not PAPER_DGF:
        pytest.skip("reference network file not available")
    reference = {
        "L": (0.536, 0.145),
        "A": (10.5e-5, 2.49e-5),
        "V": (1.88e-11, 0.33e-11),
        "N_seg": (13845, 850),
        "PO2_roi": (34.8, 2.0),
        "p_t_roi": (34.8, 2.1),
        "F_tv": (8.22e-3, 1.28e-3),
        "N_it": (34.2, 2.2),
    }
    import json

    from microvasc import RunConfig
    from microvasc.cli import _run_generation

    config = RunConfig(input_dgf=PAPER_DGF, grid_cells=(40, 40, 50))
    samples = []
    for n in range(20):
        _, stats = _run_generation(config, config.master_seed + n, None)
        samples.append(stats)
    for name, (mean, std) in reference.items():
        values = np.array([getattr(s, name) for s in samples], dtype=float)
        assert abs(values.mean() - mean) <= 2.0 * std, name
