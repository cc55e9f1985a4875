"""The operator-built 3D-1D exchange against the per-segment reference
assemblies in `exchange_oracle`."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import exchange_oracle as oracle
from microvasc import (
    DomainBox,
    FlowParameters,
    OxygenParameters,
    RheologyParameters,
    VascularNetwork,
    assemble_flow_system,
    assemble_transport_operator,
    build_grid,
    build_surface_coupling,
    classify_arterial_venous,
    enlarge_domain,
    project_1d_to_surface,
    solve_flow,
    starling_flux,
)

from conftest import (
    UM,
    make_desk_network,
    make_jittered_lattice,
    make_single_vessel,
    make_y_junction,
)

OPERATOR_RTOL = 1e-14
FLUX_RTOL = 1e-12
CUBE = DomainBox([0.0, 0.0, 0.0], [1.0e-3, 1.0e-3, 1.0e-3])


def _lattice():
    box = enlarge_domain(DomainBox([0.0] * 3, [0.5e-3] * 3), 0.10)
    return make_jittered_lattice(3, 5), build_grid(box, (8, 8, 8)), FlowParameters()


CASES = {
    "desk": lambda: (make_desk_network(), build_grid(CUBE, (20, 20, 20)), FlowParameters()),
    "y_junction": lambda: (
        make_y_junction(),
        build_grid(DomainBox([-50 * UM, -100 * UM, -50 * UM], [250 * UM, 120 * UM, 50 * UM]),
                   (12, 8, 4)),
        FlowParameters(),
    ),
    # Dirichlet nodes at both ends of its only segment
    "single_vessel": lambda: (
        make_single_vessel(),
        build_grid(DomainBox([-20 * UM, -50 * UM, -50 * UM], [120 * UM, 50 * UM, 50 * UM]),
                   (7, 5, 5)),
        FlowParameters(),
    ),
    "lattice": _lattice,
    "decoupled": lambda: (
        make_desk_network(), build_grid(CUBE, (20, 20, 20)),
        FlowParameters(wall_conductivity=0.0),
    ),
}


@pytest.fixture(params=sorted(CASES))
def solved(request):
    net, grid, flow_params = CASES[request.param]()
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(net, grid, coupling, RheologyParameters(), flow_params)
    flow = solve_flow(system)
    classify_arterial_venous(net, flow)
    return net, grid, flow_params, coupling, system, flow


def row_scaled_difference(matrix, reference):
    """max_i sum_j |A_ij - R_ij| / sum_j |R_ij|."""
    diff = np.asarray(abs(matrix - reference).sum(axis=1)).ravel()
    scale = np.asarray(abs(reference).sum(axis=1)).ravel()
    return float(np.max(diff / np.where(scale > 0.0, scale, 1.0)))


def relative_difference(values, reference):
    diff = np.abs(np.asarray(values) - reference)
    return float(np.max(diff / np.where(reference != 0.0, np.abs(reference), 1.0)))


def pattern(matrix):
    m = matrix.tocsr(copy=True)
    m.eliminate_zeros()
    m.sort_indices()
    return m.indptr, m.indices


def assert_same_operator(matrix, rhs, ref_matrix, ref_rhs):
    assert row_scaled_difference(matrix, ref_matrix) <= OPERATOR_RTOL
    assert relative_difference(rhs, ref_rhs) <= OPERATOR_RTOL
    for got, want in zip(pattern(matrix), pattern(ref_matrix)):
        assert np.array_equal(got, want)


def test_flow_system_matches_per_segment_assembly(solved):
    net, grid, flow_params, coupling, system, _ = solved
    ref_matrix, ref_rhs = oracle.flow_system(
        net, grid, coupling, RheologyParameters(), flow_params
    )
    assert_same_operator(system.matrix, system.rhs, ref_matrix, ref_rhs)


def test_transport_operator_matches_per_segment_assembly(solved):
    net, grid, flow_params, coupling, _, flow = solved
    params = OxygenParameters()
    operator = assemble_transport_operator(net, grid, coupling, flow, flow_params, params)
    ref_base, ref_rhs = oracle.transport_operator(
        net, grid, coupling, flow, flow_params, params
    )
    assert_same_operator(operator.base, operator.rhs, ref_base, ref_rhs)


def test_sample_flux_is_starling_flux_of_projected_pressure(solved):
    net, _, flow_params, coupling, _, flow = solved
    for sid, sc in coupling.per_segment.items():
        want = np.array([
            starling_flux(project_1d_to_surface(net, flow.p_v, sid, s), flow.p_t[cell],
                          flow_params)
            for cell, s in zip(sc.cells, sc.s)
        ])
        assert relative_difference(flow.sample_jp[sid], want) <= FLUX_RTOL


def test_filtration_and_boundary_fluxes_match_per_segment_sums(solved):
    _, _, _, coupling, system, flow = solved
    exchange = sum(
        float(np.sum(np.abs(jp))) * coupling.per_segment[sid].sample_area
        for sid, jp in flow.sample_jp.items()
    )
    ref_3d = oracle.filtration_from_tissue_side(system, flow.p_t, flow.p_v)
    assert abs(flow.filtration_3d - ref_3d) <= FLUX_RTOL * exchange
    ref_fluxes = oracle.boundary_fluxes(system, flow.p_v, flow.sample_jp)
    assert flow.boundary_flux.keys() == ref_fluxes.keys()
    for nid, ref in ref_fluxes.items():
        assert abs(flow.boundary_flux[nid] - ref) <= FLUX_RTOL * abs(ref)


def assert_same_samples(grid, net, n_axial=None, n_angular=8):
    ref, ref_clamped = oracle.surface_samples(grid, net, n_axial, n_angular)
    coupling = build_surface_coupling(grid, net, n_axial, n_angular)
    assert coupling.clamped_samples == ref_clamped
    assert list(coupling.per_segment) == list(ref)
    for sid, (cells, s, area, na) in ref.items():
        sc = coupling.per_segment[sid]
        assert np.array_equal(sc.cells, cells)
        assert np.array_equal(sc.s, s)
        assert sc.sample_area == area and sc.n_axial == na
        assert np.shares_memory(sc.cells, coupling.cells)


@pytest.mark.parametrize("case", ["desk", "lattice", "y_junction"])
def test_batched_sampling_matches_per_sample_locate(case):
    net, grid, _ = CASES[case]()
    assert_same_samples(grid, net)


H = 2.0**-14  # a cell edge that is a power of two: faces sit at exact multiples


@st.composite
def vessels(draw, counts):
    """(start, end, radius): either an axis-aligned vessel starting on a
    cell face, whose rings fall on faces when n_axial divides it evenly, or
    an arbitrary one that may leave the domain."""
    extent = np.array(counts) * H
    radius = draw(st.floats(0.5 * UM, 0.6 * H))
    if draw(st.booleans()):
        start = np.array([draw(st.integers(0, c)) * H for c in counts])
        direction = np.zeros(3)
        direction[draw(st.integers(0, 2))] = draw(st.sampled_from([-1.0, 1.0]))
        return start, start + direction * draw(st.integers(1, 8)) * H, radius
    point = st.tuples(*[st.floats(-0.5 * e, 1.5 * e) for e in extent])
    return np.array(draw(point)), np.array(draw(point)), radius


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_sampling_matches_per_sample_locate_property(data):
    counts = tuple(data.draw(st.integers(2, 5)) for _ in range(3))
    grid = build_grid(DomainBox([0.0] * 3, np.array(counts) * H), counts)
    net = VascularNetwork()
    for start, end, radius in data.draw(st.lists(vessels(counts), min_size=1, max_size=4)):
        assume(np.linalg.norm(end - start) > 1e-3 * H)
        a, b = net.new_node(start), net.new_node(end)
        net.new_segment(a.id, b.id, radius)
    n_axial = data.draw(st.one_of(st.none(), st.integers(2, 8)))
    assert_same_samples(grid, net, n_axial, data.draw(st.integers(2, 9)))
