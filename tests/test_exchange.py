"""The operator-built 3D-1D exchange against the per-segment reference
assemblies in `exchange_oracle`; the coupling's per-pair moments against
per-sample sums; and the assembly on the coupled pattern, from per-pair
end values, against scipy's sparse products with per-sample
coefficients."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
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
    solve_flow,
    solve_oxygen,
    starling_flux,
)
from microvasc.grid import CoupledSystem

from conftest import (
    UM,
    boundary_nodes,
    dyadic_grids,
    make_desk_network,
    make_jittered_lattice,
    make_perfbench_lattice,
    make_single_vessel,
    make_y_junction,
)

pytestmark = pytest.mark.blas_threads

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


def _perfbench_lattice():
    return (*make_perfbench_lattice(), FlowParameters())


@pytest.fixture(params=sorted(CASES))
def solved(request):
    net, grid, flow_params = CASES[request.param]()
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(net, grid, coupling, RheologyParameters(), flow_params)
    flow = solve_flow(system)
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


def assert_pinned_rows(system):
    """Each `dirichlet` node's row of the matrix is an identity row and its
    right-hand side entry is the node's value."""
    rows = system.pinned
    identity = sp.csr_matrix(
        (np.ones(rows.size), (np.arange(rows.size), rows)),
        shape=(rows.size, system.n_unknowns),
    )
    assert abs(system.matrix[rows] - identity).max() == 0.0
    assert system.rhs[rows].tolist() == list(system.dirichlet.values())


def test_flow_system_matches_per_segment_assembly(solved):
    net, grid, flow_params, coupling, system, _ = solved
    ref_matrix, ref_rhs = oracle.flow_system(
        net, grid, coupling, RheologyParameters(), flow_params
    )
    assert_same_operator(system.matrix, system.rhs, ref_matrix, ref_rhs)


def test_transport_operator_matches_per_segment_assembly(solved):
    net, grid, flow_params, coupling, _, flow = solved
    params = OxygenParameters()
    boundary_po2 = classify_arterial_venous(net, flow, params)
    operator = assemble_transport_operator(
        net, grid, coupling, flow, flow_params, params, boundary_po2
    )
    ref_base, ref_rhs = oracle.transport_operator(
        net, grid, coupling, flow, flow_params, params, boundary_po2
    )
    assert_same_operator(operator.matrix, operator.rhs, ref_base, ref_rhs)


def test_sample_flux_is_starling_flux_of_projected_pressure(solved):
    net, _, flow_params, coupling, _, flow = solved
    for sid, length in zip(coupling.segments.ids, coupling.segments.length):
        cells, w_b, _ = oracle.wall_samples(coupling, sid)
        want = np.array([
            starling_flux(
                oracle.project_1d_to_surface(net, flow.p_v, sid, s), flow.p_t[cell], flow_params
            )
            for cell, s in zip(cells, w_b * length)
        ])
        assert relative_difference(flow.sample_jp[sid], want) <= FLUX_RTOL


def test_filtration_and_boundary_fluxes_match_per_segment_sums(solved):
    net, _, _, coupling, system, flow = solved
    jp = np.concatenate(list(flow.sample_jp.values()))  # segments in id order
    exchange = float(np.sum(np.abs(jp) * coupling.area))
    ref_3d = oracle.filtration_from_tissue_side(net, system, flow.p_t, flow.p_v)
    assert abs(flow.filtration_3d - ref_3d) <= FLUX_RTOL * exchange
    ref_fluxes = oracle.boundary_fluxes(net, system, flow.p_v, flow.sample_jp)
    assert flow.boundary_flux.keys() == ref_fluxes.keys()
    for nid, ref in ref_fluxes.items():
        assert abs(flow.boundary_flux[nid] - ref) <= FLUX_RTOL * abs(ref)


def sample_operators(coupling):
    """C and Pi as scipy matrices, built from the flat sample arrays: each
    sample's cell, its segment's end nodes and w_b = s/l."""
    table, n = coupling.segments, coupling.grid.n_cells
    m, nodes = coupling.cells.size, len(coupling.node_order)
    segment = np.repeat(np.arange(len(table.ids)), np.diff(coupling.offsets))
    w_b = coupling.weight
    ends = np.concatenate([table.a[segment], table.b[segment]]) - n
    C = sp.csr_matrix((np.ones(m), (np.arange(m), coupling.cells)), shape=(m, n))
    Pi = sp.csr_matrix(
        (np.concatenate([1.0 - w_b, w_b]), (np.tile(np.arange(m), 2), ends)), shape=(m, nodes)
    )
    return C, Pi


def sample_pairs(coupling):
    """The pair of each sample, found from its segment and cell among the
    pattern's (segment, cell) pairs."""
    pattern, n = coupling.pattern, coupling.grid.n_cells
    segment = np.repeat(np.arange(len(coupling.segments.ids)), np.diff(coupling.offsets))
    keys = pattern.pair_segment * n + pattern.pair_cell
    pair = np.searchsorted(keys, segment * n + coupling.cells)
    assert np.array_equal(keys[pair], segment * n + coupling.cells)
    return pair


def per_sample(coupling, ends):
    """The per-sample coefficient a (gamma_a w_a + gamma_b w_b) of per-pair
    end values `ends` (2, pairs)."""
    gamma_a, gamma_b = ends[:, sample_pairs(coupling)]
    w_b = coupling.weight
    return coupling.area * (gamma_a * (1.0 - w_b) + gamma_b * w_b)


@pytest.mark.parametrize("case", sorted(CASES))
def test_scatter_matches_the_sparse_products(case):
    """`coupled_matrix`, given coefficients affine along each pair by their
    end values, against G^T [diag(alpha) C, diag(beta) Pi] with alpha and
    beta evaluated per sample; `pair_transpose` against G^T alpha."""
    net, grid, _ = CASES[case]()
    coupling = build_surface_coupling(grid, net)
    C, Pi = sample_operators(coupling)
    G = sp.hstack([-C, Pi], format="csr")
    rng = np.random.default_rng(sorted(CASES).index(case))
    pairs = coupling.moments.shape[1]
    alpha_ends, beta_ends = rng.standard_normal((2, 2, pairs))
    alpha, beta = per_sample(coupling, alpha_ends), per_sample(coupling, beta_ends)
    want = G.T @ sp.hstack([sp.diags(alpha) @ C, sp.diags(beta) @ Pi], format="csr")
    zero_tissue = np.zeros(grid.laplacian.nnz)
    zero_graph = np.zeros((4, len(coupling.segments.ids)))
    got = coupling.coupled_matrix(zero_tissue, zero_graph, alpha_ends, beta_ends)
    assert row_scaled_difference(got, want) <= OPERATOR_RTOL
    for mine, theirs in zip(pattern(got), pattern(want)):
        assert np.array_equal(mine, theirs)
    scale = abs(G.T) @ np.abs(alpha)
    assert np.all(np.abs(coupling.pair_transpose(alpha_ends) - G.T @ alpha)
                  <= OPERATOR_RTOL * scale)

    # the products with G, each row against sum_j |G_ij y_j|
    x, v = rng.standard_normal(G.shape[1]), rng.standard_normal(G.shape[0])
    products = ((coupling.jump(x), G, x), (coupling.jump_transpose(v), G.T, v))
    for product, operator, y in products:
        scale = abs(operator) @ np.abs(y)
        assert np.all(np.abs(product - operator @ y) <= OPERATOR_RTOL * scale)

    # pinned rows become identity rows and leave every other row as it was
    dirichlet = {nid: float(k) for k, nid in enumerate(coupling.node_order[::3])}
    rhs = rng.standard_normal(G.shape[1])
    system = CoupledSystem(coupling, got.copy(), rhs.copy(), dirichlet)
    rows = system.pinned
    # taken once per system, in the order of `dirichlet`
    assert system.pinned is rows and not rows.flags.writeable
    assert rows.tolist() == [coupling.node_index[nid] for nid in dirichlet]
    assert_pinned_rows(system)
    kept = np.setdiff1d(np.arange(got.shape[0]), rows)
    assert abs(system.matrix[kept] - got[kept]).max() == 0.0
    assert np.array_equal(system.rhs[kept], rhs[kept])
    x = rng.standard_normal(G.shape[1])
    system.restore(x)
    assert x[rows].tolist() == list(dirichlet.values())

    # the cell block is on the pattern the multigrid plan's finest level has
    ones = sp.csr_matrix(
        (np.ones(got.nnz), got.indices, got.indptr), shape=got.shape
    )[: grid.n_cells, : grid.n_cells]
    finest = grid.multigrid.levels[0]
    assert np.array_equal(ones.indptr, finest.indptr)
    assert np.array_equal(ones.indices, finest.indices)


MOMENT_CASES = {**CASES, "perfbench_lattice_0": _perfbench_lattice}


@pytest.mark.parametrize("case", sorted(MOMENT_CASES))
def test_moments_are_the_per_sample_sums_by_pair(case):
    """The moments the coupling keeps, reduced over runs of samples, are
    the sums over each pair's samples of a w_a^i w_b^j, i + j = 3, to
    rounding, and none is negative."""
    net, grid, _ = MOMENT_CASES[case]()
    coupling = build_surface_coupling(grid, net)
    pair, pairs = sample_pairs(coupling), coupling.moments.shape[1]
    assert np.array_equal(np.unique(pair), np.arange(pairs))  # every pair has samples
    w_b = coupling.weight
    w_a = 1.0 - w_b
    for i, moment in zip((3, 2, 1, 0), coupling.moments):
        want = np.bincount(pair, coupling.area * w_a**i * w_b ** (3 - i), pairs)
        assert relative_difference(moment, want) <= 1e-14
        assert np.all(moment >= 0.0)


ASSEMBLY_CASES = {"desk": CASES["desk"], "lattice": CASES["lattice"],
                  "perfbench_lattice_0": _perfbench_lattice}


@pytest.fixture(scope="module", params=sorted(ASSEMBLY_CASES))
def flow_solved(request):
    net, grid, flow_params = ASSEMBLY_CASES[request.param]()
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(net, grid, coupling, RheologyParameters(), flow_params)
    return net, grid, flow_params, coupling, system, solve_flow(system)


def test_flow_rhs_is_the_per_sample_product(flow_solved):
    """Flow's right-hand side from the moments is G^T (L_p a sigma dpi)
    with the per-sample vector, on every row it does not pin."""
    _, _, flow_params, coupling, system, _ = flow_solved
    C, Pi = sample_operators(coupling)
    G = sp.hstack([-C, Pi], format="csr")
    filtration = flow_params.reflection * flow_params.oncotic_jump
    want = G.T @ (flow_params.wall_conductivity * coupling.area * filtration)
    free = np.setdiff1d(np.arange(want.size), system.pinned)
    assert relative_difference(system.rhs[free], want[free]) <= 1e-14
    assert np.abs(want[free]).max() > 0.0  # not vacuous


def test_transport_operator_is_the_per_sample_product(flow_solved):
    """The transport operator, assembled from the pair ends of the flow's
    pressures, against the same operator with its wall terms off plus
    G^T [diag(c_t) C, diag(c_v) Pi], c_t and c_v from the flow's
    per-sample `jp`, row-scaled on every row it does not pin."""
    net, grid, flow_params, coupling, _, flow = flow_solved
    params = OxygenParameters()
    operator = assemble_transport_operator(net, grid, coupling, flow, flow_params, params)
    closed = assemble_transport_operator(
        net, grid, coupling, flow,
        dataclasses.replace(flow_params, reflection=1.0),
        dataclasses.replace(params, wall_permeability=0.0),
    )
    C, Pi = sample_operators(coupling)
    G = sp.hstack([-C, Pi], format="csr")
    adv = 0.5 * (1.0 - flow_params.reflection) * flow.jp
    c_t = (adv - params.wall_permeability) * coupling.area
    c_v = (adv + params.wall_permeability) * coupling.area
    exchange = G.T @ sp.hstack([sp.diags(c_t) @ C, sp.diags(c_v) @ Pi], format="csr")
    free = np.setdiff1d(np.arange(operator.n_unknowns), operator.pinned)
    want = (closed.matrix + exchange).tocsr()[free]
    assert row_scaled_difference(operator.matrix.tocsr()[free], want) <= 1e-14
    assert abs(exchange[free]).max() > 0.0  # not vacuous


PINNED_CASES = {"desk": CASES["desk"], "perfbench_lattice_0": _perfbench_lattice}


@pytest.fixture(scope="module", params=sorted(PINNED_CASES))
def both_physics(request):
    """Per physics: the assembled system, its solved nodal values and the
    value it pins at each boundary node."""
    net, grid, flow_params = PINNED_CASES[request.param]()
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(net, grid, coupling, RheologyParameters(), flow_params)
    flow = solve_flow(system)
    params = OxygenParameters()
    boundary_po2 = classify_arterial_venous(net, flow, params)
    operator = assemble_transport_operator(
        net, grid, coupling, flow, flow_params, params, boundary_po2
    )
    oxygen = solve_oxygen(operator, params)
    pressure = {nid: net.nodes[nid].boundary_pressure for nid in boundary_nodes(net)}
    return net, {
        "flow": (system, flow.p_v, pressure),
        "oxygen": (operator, oxygen.po2_v, boundary_po2),
    }


@pytest.mark.parametrize("physics", ["flow", "oxygen"])
def test_solve_returns_the_pinned_values_exactly(both_physics, physics):
    net, systems = both_physics
    system, values, pinned = systems[physics]
    boundary = boundary_nodes(net)
    assert boundary and sorted(system.dirichlet) == sorted(boundary)
    assert all(system.dirichlet[nid] == pinned[nid] for nid in boundary)
    assert_pinned_rows(system)
    for nid, value in system.dirichlet.items():
        assert values[nid] == value


def assert_same_samples(grid, net, n_axial=None, n_angular=8):
    ref, ref_clamped = oracle.surface_samples(grid, net, n_axial, n_angular)
    coupling = build_surface_coupling(grid, net, n_axial, n_angular)
    assert coupling.clamped_samples == ref_clamped
    assert coupling.segments.ids == list(ref)
    bounds = zip(coupling.offsets[:-1], coupling.offsets[1:])
    for (lo, hi), (cells, w_b, area, na) in zip(bounds, ref.values()):
        assert hi - lo == na * n_angular
        assert np.array_equal(coupling.cells[lo:hi], cells)
        assert np.array_equal(coupling.weight[lo:hi], w_b)
        assert np.all(coupling.area[lo:hi] == area)
    assert coupling.offsets[-1] == coupling.cells.size


@pytest.mark.parametrize("case", ["desk", "lattice", "y_junction"])
def test_batched_sampling_matches_per_sample_locate(case):
    net, grid, _ = CASES[case]()
    assert_same_samples(grid, net)


@st.composite
def vessels(draw, grid):
    """(start, end, radius): either an axis-aligned vessel starting on a
    cell face, whose rings fall on faces when n_axial divides it evenly, or
    an arbitrary one that may leave the domain."""
    lower, spacing, extent = grid.box.lower, grid.spacing, grid.box.extent
    radius = draw(st.floats(0.5 * UM, 0.6 * float(spacing.min())))
    if draw(st.booleans()):
        start = lower + [draw(st.integers(0, c)) for c in grid.cells_per_axis] * spacing
        axis = draw(st.integers(0, 2))
        step = np.zeros(3)
        step[axis] = draw(st.sampled_from([-1.0, 1.0])) * spacing[axis]
        return start, start + step * draw(st.integers(1, 8)), radius
    point = st.tuples(*[
        st.floats(float(lo - 0.5 * e), float(lo + 1.5 * e)) for lo, e in zip(lower, extent)
    ])
    return np.array(draw(point)), np.array(draw(point)), radius


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_sampling_matches_per_sample_locate_property(data):
    grid = data.draw(dyadic_grids())
    net = VascularNetwork()
    for start, end, radius in data.draw(st.lists(vessels(grid), min_size=1, max_size=4)):
        assume(np.linalg.norm(end - start) > 1e-3 * grid.spacing.min())
        a, b = net.new_node(start), net.new_node(end)
        net.new_segment(a.id, b.id, radius)
    n_axial = data.draw(st.one_of(st.none(), st.integers(2, 8)))
    assert_same_samples(grid, net, n_axial, data.draw(st.integers(2, 9)))
