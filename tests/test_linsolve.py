"""The preconditioned GMRES of `linsolve` against a direct solve.

The oracle is scipy's `spsolve`, kept here only. Every case must agree
with it to 1e-12 (max-norm, relative), pass the row-scaled residual at
1e-12 and need no more than one GMRES(60) cycle, also when one solver is
reused for several cell diagonals. A hierarchy given a diagonal must match
one rebuilt from scratch. A solve given a forcing term stops once it has
reduced the row-scaled residual by that factor, in fewer iterations.

The grid's multigrid plan is checked against scipy's Galerkin product
P^T A P, also kept here only, its red-black colouring against the parity
of every level's cells, its banded coarsest solve against a dense solve,
and one V-cycle against a dense one written out here. The coarsest level
is factored only when a V-cycle reaches it. The blocks a coupling's
block plan gathers are bit for bit scipy's slices of the same matrix, and
the oxygen solver factors its node block in the order the flow solver on
the same plan took, with the fill of a fresh minimum-degree factor. A
node block singular to working precision is rejected.

The cosine solve is checked against `spsolve` on c L + eps I over
anisotropic grids, the grid's eigenvalue table against a dense
eigensolve and against its cosine basis applied to the Laplacian, and
its eps against the shift it is given. The selection takes the cosine
solve on the default desk, lattice and starter blocks and the V-cycle
for strongly coupled walls or a pinned cell; over a sweep of wall
conductivity it takes no more GMRES iterations than the V-cycle alone,
and on the desk ladder its counts stay flat from 10^3 to 40^3. Growth
states share one Laplacian and one eigenvalue table per grid, build no
multigrid plan and one block plan per coupling; neither importing the
package nor running `solve` or `generate` loads scipy.fft.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from microvasc import (
    DomainBox,
    FlowParameters,
    GrowthEngine,
    GrowthParameters,
    OxygenParameters,
    RheologyParameters,
    assemble_flow_system,
    assemble_transport_operator,
    build_grid,
    build_surface_coupling,
    enlarge_domain,
    serialize_dgf,
    solve_flow,
    solve_oxygen,
)
from microvasc import grid as grid_module
from microvasc import linsolve
from microvasc.errors import SolverError
from microvasc.flow import RESIDUAL_TOL
from microvasc.grid import edge_laplacian
from microvasc.linsolve import (
    OVER_CORRECTION,
    RESTART,
    CosineSolve,
    LinearSolver,
    MultigridPlan,
    VCycle,
    _aggregate,
    scaled_residual,
    scaled_residuals,
    tissue_preconditioner,
)
from microvasc.oxygen import _sink

from conftest import (
    UM,
    make_desk_network,
    make_jittered_lattice,
    make_perfbench_lattice,
    make_starter_network,
    make_y_junction,
    outside_krylov,
)

AGREEMENT = 1e-12
CUBE = DomainBox([0.0, 0.0, 0.0], [1.0e-3, 1.0e-3, 1.0e-3])
Y_BOX = DomainBox([-50 * UM, -100 * UM, -50 * UM], [250 * UM, 120 * UM, 50 * UM])
LATTICE_BOX = enlarge_domain(DomainBox([0.0] * 3, [0.5e-3] * 3), 0.10)
STARTER_BOX = enlarge_domain(DomainBox([0.0] * 3, [0.5e-3] * 3), 0.10)


def flow_system(net, box, cells, params=None):
    grid = build_grid(box, cells)
    coupling = build_surface_coupling(grid, net)
    return assemble_flow_system(
        net, grid, coupling, RheologyParameters(), params or FlowParameters()
    )


def newton_system(po2):
    """Oxygen operator of the desk ladder at 20^3, the diagonal its Jacobian
    adds at a Newton step from the uniform PO2 `po2` (0 on node rows) and
    that step's right-hand side."""
    net, params = make_desk_network(), OxygenParameters()
    system = flow_system(net, CUBE, (20, 20, 20))
    flow = solve_flow(system)
    operator = assemble_transport_operator(
        net, system.grid, system.coupling, flow, FlowParameters(), params
    )
    grid = system.grid
    rate = np.zeros(operator.rhs.size)
    rate[: grid.n_cells] = grid.cell_volume * params.max_consumption
    _, d, g = _sink(rate, params.po2_half, np.full(operator.rhs.size, po2))
    return operator.matrix, d, operator.rhs + g, grid


def jacobian_case(po2):
    def build():
        base, d, rhs, grid = newton_system(po2)
        return base + sp.diags(d), rhs, grid

    return build


def flow_case(net_fn, box, cells, params=None):
    def build():
        system = flow_system(net_fn(), box, cells, params)
        return system.matrix, system.rhs, system.grid

    return build


CASES = {
    "desk_12": flow_case(make_desk_network, CUBE, (12, 12, 12)),
    "desk_20": flow_case(make_desk_network, CUBE, (20, 20, 20)),
    "desk_odd_axes_small": flow_case(make_desk_network, CUBE, (7, 5, 9)),
    # odd on every axis, and large enough for a coarse level
    "desk_odd_axes": flow_case(make_desk_network, CUBE, (15, 13, 11)),
    "desk_decoupled": flow_case(
        make_desk_network, CUBE, (20, 20, 20), FlowParameters(wall_conductivity=0.0)
    ),
    "y_junction": flow_case(make_y_junction, Y_BOX, (12, 8, 4)),
    "lattice": flow_case(lambda: make_jittered_lattice(0, 9), LATTICE_BOX, (14, 14, 14)),
    "oxygen_at_0": jacobian_case(0.0),
    "oxygen_at_38": jacobian_case(38.0),
}


def assert_agrees(matrix, rhs, x, iterations):
    exact = spla.spsolve(sp.csc_matrix(matrix), rhs)
    assert np.max(np.abs(x - exact)) <= AGREEMENT * np.max(np.abs(exact))
    assert scaled_residual(matrix, x, rhs) <= AGREEMENT
    assert iterations <= RESTART


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.blas_threads
def test_agrees_with_direct_solve(case):
    matrix, rhs, grid = CASES[case]()
    assert_agrees(matrix, rhs, *LinearSolver(matrix, grid).solve(rhs))


def test_reused_solver_agrees_on_newton_systems():
    base, at_38, rhs_38, grid = newton_system(38.0)
    _, at_0, rhs_0, _ = newton_system(0.0)
    solver, cells = LinearSolver(base, grid), grid.n_cells
    for d, rhs in ((at_38, rhs_38), (at_0, rhs_0)):
        assert_agrees(base + sp.diags(d), rhs, *solver.solve(rhs, d[:cells]))
    # a solve without a diagonal is of the operator itself again
    assert_agrees(base, rhs_38, *solver.solve(rhs_38))


# At 20^3 the direct answer's own row-scaled 2-norm, about 1.4e-14, is
# above TARGET, so there even the exact guess takes one short cycle.
@pytest.mark.parametrize("case", ["desk_12", "lattice"])
def test_exact_guess_needs_no_iterations(case):
    matrix, rhs, grid = CASES[case]()
    exact = spla.spsolve(matrix.tocsc(), rhs)
    x, iterations = LinearSolver(matrix, grid).solve(rhs, guess=exact)
    assert iterations == 0
    assert np.max(np.abs(x - exact)) <= AGREEMENT * np.max(np.abs(exact))


def scaled_norm(matrix, x, rhs):
    """2-norm of the row-scaled residuals, the measure GMRES stops on."""
    return np.linalg.norm(scaled_residuals(matrix, x, rhs))


@pytest.mark.parametrize("case", ["desk_20", "lattice"])
@pytest.mark.blas_threads
def test_forcing_stops_at_the_relative_target(case):
    matrix, rhs, grid = CASES[case]()
    solver = LinearSolver(matrix, grid)
    start = solver._settle(solver._precondition(rhs), rhs)  # the start without a guess
    tight, tight_iterations = solver.solve(rhs)
    loose, loose_iterations = solver.solve(rhs, forcing=0.1)
    assert scaled_norm(matrix, loose, rhs) <= 0.1 * scaled_norm(matrix, start, rhs)
    assert 0 < loose_iterations < tight_iterations
    assert scaled_norm(matrix, tight, rhs) <= scaled_norm(matrix, loose, rhs)


@pytest.mark.parametrize("case", ["desk_20", "oxygen_at_38"])
def test_zero_forcing_is_the_default(case):
    matrix, rhs, grid = CASES[case]()
    solver = LinearSolver(matrix, grid)
    default, default_iterations = solver.solve(rhs)
    forced, forced_iterations = solver.solve(rhs, forcing=0.0)
    assert np.array_equal(default, forced)
    assert default_iterations == forced_iterations


@pytest.mark.parametrize("guess", [False, True])
def test_one_residual_per_start_and_per_cycle(monkeypatch, guess):
    matrix, rhs, grid = CASES["oxygen_at_38"]()
    solver = LinearSolver(matrix, grid)
    calls = {"residual": 0, "cycle": 0}
    residual, cycle = LinearSolver._residual, linsolve._gmres_cycle

    def counted_residual(*args):
        calls["residual"] += 1
        return residual(*args)

    def counted_cycle(*args):
        calls["cycle"] += 1
        return cycle(*args)

    monkeypatch.setattr(LinearSolver, "_residual", counted_residual)
    monkeypatch.setattr(linsolve, "_gmres_cycle", counted_cycle)
    solver.solve(rhs, guess=np.full(rhs.size, 38.0) if guess else None)
    assert calls["cycle"] >= 1
    assert calls["residual"] == 1 + calls["cycle"]  # one start, guess or not


@pytest.mark.parametrize("guess", [False, True])
@pytest.mark.blas_threads
def test_start_from_the_guess_evaluates_no_preconditioned_start(monkeypatch, guess):
    matrix, rhs, grid = CASES["oxygen_at_38"]()
    solver = LinearSolver(matrix, grid)
    applied = []
    precondition = LinearSolver._precondition

    def recorded(self, r):
        applied.append(r.copy())
        return precondition(self, r)

    monkeypatch.setattr(LinearSolver, "_precondition", recorded)
    x, iterations = solver.solve(rhs, guess=np.full(rhs.size, 38.0) if guess else None)
    assert iterations > 0 and scaled_residual(matrix, x, rhs) <= AGREEMENT
    # GMRES applies M to its basis vectors only; M^-1 b is the one start
    starts = [r for r in applied if np.array_equal(r, rhs)]
    assert len(starts) == (not guess)


def products_error(matrix, x, products):
    """Largest difference of (A x, |A||x|) from `products`, row by row in
    units of that row's |A||x|."""
    magnitude = abs(matrix) @ np.abs(x)
    scale = np.where(magnitude > 0.0, magnitude, 1.0)
    want = (matrix @ x, magnitude)
    return max(np.max(np.abs(got - w) / scale) for got, w in zip(products, want))


@pytest.mark.blas_threads
def test_a_settled_guess_starts_from_its_kept_products(monkeypatch):
    """A Newton step's guess is the iterate the last solve settled: the
    next solve, given that array or an equal one, neither settles nor
    multiplies it at its start, and its answer still agrees with a direct
    solve. A guess written into, or one for other node rows, is settled
    and multiplied afresh."""
    base, at_38, rhs_38, grid = newton_system(38.0)
    _, at_0, rhs_0, _ = newton_system(0.0)
    solver, cells = LinearSolver(base, grid), grid.n_cells
    settled, _ = solver.solve(rhs_38, at_38[:cells])
    starts, settle = [], LinearSolver._settle

    def recorded_settle(self, x, rhs):
        starts.append(x)
        return settle(self, x, rhs)

    monkeypatch.setattr(LinearSolver, "_settle", recorded_settle)
    products, cycles = outside_krylov(monkeypatch, rhs_0.size)
    other_nodes = rhs_38.copy()
    other_nodes[cells] += 1.0
    # each from the last settled iterate, for the other of the two systems
    guesses = {
        "itself": (lambda last: last, at_0, rhs_0, True),
        "an equal copy": (lambda last: last.copy(), at_38, rhs_38, True),
        "written into": (lambda last: last + np.eye(1, last.size)[0], at_0, rhs_0, False),
        "for other node rows": (lambda last: last, at_38, other_nodes, False),
    }
    last = settled
    for guess_from, d, rhs, kept in guesses.values():
        guess = guess_from(last)
        last, iterations = solver.solve(rhs, d[:cells], guess=guess)
        count = len(cycles) // 2
        # each settled iterate is multiplied once, (A + D) x and |A + D| |x|
        assert count >= 1 and len(products) == 2 * len(starts)
        assert len(starts) == count + (not kept)
        assert (starts[0] is guess) == (not kept)
        assert_agrees(base + sp.diags(d), rhs, last, iterations)
        for log in (starts, products, cycles):
            log.clear()


@pytest.mark.blas_threads
def test_an_iterate_written_into_is_multiplied_afresh():
    """`products` serves A x and |A||x| for the iterate a shifted solve
    settled last, corrected for its cell diagonal, and forms them again
    for that iterate once a caller has written into it."""
    base, at_38, rhs_38, grid = newton_system(38.0)
    solver = LinearSolver(base, grid)
    x, _ = solver.solve(rhs_38, at_38[: grid.n_cells])
    assert products_error(base, x, solver.products(x)) <= 1e-14
    x[0] += 1.0  # a write into the caller's array, as `restore` makes one
    assert products_error(base, x, solver.products(x)) <= 1e-14


def test_zero_right_hand_side_gives_zero_from_any_guess():
    matrix, rhs, grid = CASES["oxygen_at_38"]()
    guess = np.full(rhs.size, 38.0)
    x, iterations = LinearSolver(matrix, grid).solve(np.zeros(rhs.size), guess=guess)
    assert iterations == 0
    assert not np.any(x)


def level_matrices(vcycle):
    """Every level's operator, with the cycle's diagonal shift, in plan
    order: each smoothed level put together from its red-black blocks and
    diagonal (NaN where neither fills an entry), then the coarsest."""
    matrices = []
    for level, colouring, (red_black, black_red, _), diagonal in zip(
        vcycle.plan.levels, vcycle.plan.red_black, vcycle.levels, vcycle.diagonals
    ):
        data = np.full(level.indices.size, np.nan)
        data[colouring.gather] = np.concatenate([red_black.data, black_red.data])
        data[colouring.diagonal] = diagonal
        matrices.append(level.matrix(data))
    return matrices + [vcycle.bottom[0]]


@pytest.mark.parametrize("cells", [(20, 20, 20), (15, 13, 11)])
@pytest.mark.blas_threads
def test_diagonal_update_matches_rebuilt_hierarchy(cells):
    system = flow_system(make_desk_network(), CUBE, cells)
    n = system.grid.n_cells
    tissue = system.matrix[:n, :n]
    d = np.random.default_rng(7).uniform(0.0, 1.0, n) * tissue.diagonal()
    shifted = VCycle(tissue, system.grid)
    shifted.shift(d)
    rebuilt = VCycle(tissue + sp.diags(d), system.grid)
    levels, fresh = level_matrices(shifted), level_matrices(rebuilt)
    assert len(levels) == len(fresh) > 1
    for a, b in zip(levels, fresh):
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert np.max(np.abs(a.data - b.data)) <= 1e-14 * np.max(np.abs(b.data))
    r = np.random.default_rng(8).standard_normal(n)
    want = rebuilt(r)
    assert np.max(np.abs(shifted(r) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(4, 4, 4), (7, 5, 9), (1, 3, 2)])
def test_aggregation_covers_every_coarse_cell(shape):
    aggregate, coarse = _aggregate(shape)
    assert coarse == tuple((n + 1) // 2 for n in shape)
    counts = np.bincount(aggregate)
    assert counts.size == np.prod(coarse)
    # 2 cells per coarse cell on an even axis, 1 in the last slab of an odd one
    assert counts.max() == np.prod([min(n, 2) for n in shape])
    assert counts.min() >= 1


def test_vcycle_coarsens_odd_axes_down_to_the_direct_size():
    grid = build_grid(CUBE, (25, 23, 21))
    lo, hi, area, h = grid.faces()
    matrix = edge_laplacian(lo, hi, area / h, grid.n_cells) + sp.identity(grid.n_cells) * 1e-6
    vcycle = VCycle(matrix.tocsr(), grid)
    # smoothed levels above COARSEST_CELLS, then one level factored on use
    assert [level.size for level in vcycle.diagonals] == [25 * 23 * 21, 13 * 12 * 11]
    assert vcycle.bottom[0].shape == (7 * 6 * 6, 7 * 6 * 6)


@pytest.mark.parametrize(
    "cells, sizes",
    [
        ((12, 12, 12), [1728, 216]),
        ((20, 20, 20), [8000, 1000, 125]),
        ((40, 40, 50), [80000, 10000, 1300, 175]),
    ],
)
@pytest.mark.blas_threads
def test_plan_level_sizes(cells, sizes):
    # the grids the benchmark and the paper run on: coarsening stops at the
    # first level of at most COARSEST_CELLS, which is factored exactly
    levels = build_grid(CUBE, cells).multigrid.levels
    assert [level.indptr.size - 1 for level in levels] == sizes
    assert sizes[-1] <= linsolve.COARSEST_CELLS < sizes[-2]


def tissue_block(physics, cells):
    """Tissue block of the desk ladder's flow system or, with convection
    and the wall exchange, of its oxygen transport operator."""
    net = make_desk_network()
    system = flow_system(net, CUBE, cells)
    matrix = system.matrix
    if physics == "oxygen":
        flow, params = solve_flow(system), OxygenParameters()
        matrix = assemble_transport_operator(
            net, system.grid, system.coupling, flow, FlowParameters(), params
        ).matrix
    n = system.grid.n_cells
    return matrix[:n, :n], system.grid


@pytest.mark.parametrize("physics", ["flow", "oxygen"])
@pytest.mark.parametrize("cells", [(20, 20, 20), (15, 13, 11), (25, 23, 21)])
@pytest.mark.blas_threads
def test_galerkin_levels_match_the_triple_product(physics, cells):
    tissue, grid = tissue_block(physics, cells)
    if physics == "oxygen":  # convection: nonsymmetric far above the tolerance
        assert abs(tissue - tissue.T).max() > 1e-12 * abs(tissue).max()
    vcycle = VCycle(tissue, grid)
    levels = level_matrices(vcycle)
    oracle, shape = tissue.tocsr(), grid.cells_per_axis
    for level in levels:
        want = oracle.sorted_indices()
        assert np.array_equal(level.indptr, want.indptr)
        assert np.array_equal(level.indices, want.indices)
        assert np.max(np.abs(level.data - want.data)) <= 1e-14 * np.max(np.abs(want.data))
        aggregate, shape = _aggregate(shape)
        prolong = sp.csr_matrix(
            (np.ones(aggregate.size), (np.arange(aggregate.size), aggregate)),
            shape=(aggregate.size, int(np.prod(shape))),
        )
        oracle = (prolong.T @ oracle @ prolong).tocsr()
    assert len(levels) > 1


def parity(shape):
    """i + j + k mod 2 of every cell of a box, in linear order."""
    cells = np.arange(int(np.prod(shape)))
    i, j, k = cells % shape[0], cells // shape[0] % shape[1], cells // (shape[0] * shape[1])
    return (i + j + k) % 2


@pytest.mark.parametrize(
    "cells", [(12, 12, 12), (20, 20, 20), (15, 13, 11), (25, 23, 21), (64, 64, 4), (40, 40, 50)]
)
@pytest.mark.blas_threads
def test_every_smoothed_level_is_two_coloured(cells):
    plan, shape = build_grid(CUBE, cells).multigrid, cells
    assert len(plan.red_black) == len(plan.levels) - 1 >= 1
    for level, colouring in zip(plan.levels, plan.red_black):
        colour, n = parity(shape), level.indptr.size - 1
        rows = np.repeat(np.arange(n), np.diff(level.indptr))
        off = level.indices != rows
        assert np.all(colour[rows[off]] != colour[level.indices[off]])
        # red (even) cells first, then black, each in linear order
        assert np.array_equal(colouring.order, np.argsort(colour, kind="stable"))
        assert colouring.red == np.count_nonzero(colour == 0)
        # the gather and the diagonal cover the level's data once each
        covered = np.concatenate([colouring.gather, colouring.diagonal])
        assert np.array_equal(np.sort(covered), np.arange(level.indices.size))
        _, shape = _aggregate(shape)


@pytest.mark.blas_threads
def test_same_colour_entry_is_rejected():
    grid = build_grid(CUBE, (8, 8, 8))  # 512 cells: one smoothed level
    extra = sp.csr_matrix(([1.0, 1.0], ([0, 2], [2, 0])), shape=grid.laplacian.shape)
    pattern = (grid.laplacian + extra).tocsr()  # cells 0 and 2 are both red
    pattern.sort_indices()
    with pytest.raises(SolverError, match="one colour"):
        MultigridPlan(grid.cells_per_axis, pattern)


def dense_vcycle(a, shape, r):
    """One V-cycle from zero, written out densely: a symmetric red-black
    Gauss-Seidel sweep (red, black; coarse correction; black, red) on every
    level above COARSEST_CELLS cells, the correction from the Galerkin
    level P^T A P scaled by OVER_CORRECTION, and the first level of at most
    COARSEST_CELLS cells solved exactly."""
    if a.shape[0] <= linsolve.COARSEST_CELLS:
        return np.linalg.solve(a, r)
    colour, diagonal, x = parity(shape), np.diag(a), np.zeros(r.size)

    def sweep(c):
        x[colour == c] += ((r - a @ x) / diagonal)[colour == c]

    sweep(0)
    sweep(1)
    aggregate, coarse = _aggregate(shape)
    prolong = np.zeros((r.size, int(np.prod(coarse))))
    prolong[np.arange(r.size), aggregate] = 1.0
    x += OVER_CORRECTION * prolong @ dense_vcycle(
        prolong.T @ a @ prolong, coarse, prolong.T @ (r - a @ x)
    )
    sweep(1)
    sweep(0)
    return x


# a lowered limit gives 12^3 two smoothed levels, 1728 and 216 cells
@pytest.mark.parametrize("physics", ["flow", "oxygen"])
@pytest.mark.parametrize("cells, limit", [((12, 12, 12), 500), ((12, 12, 12), 30), ((15, 13, 11), 50)])
@pytest.mark.blas_threads
def test_vcycle_matches_a_dense_one(monkeypatch, physics, cells, limit):
    monkeypatch.setattr(linsolve, "COARSEST_CELLS", limit)
    tissue, grid = tissue_block(physics, cells)
    vcycle = VCycle(tissue, grid)
    d = np.random.default_rng(5).uniform(0.0, 1.0, grid.n_cells) * tissue.diagonal()
    vcycle.shift(d)  # as a Newton step shifts it
    r = np.random.default_rng(6).standard_normal(grid.n_cells)
    want = dense_vcycle((tissue + sp.diags(d)).toarray(), grid.cells_per_axis, r)
    assert len(vcycle.levels) == 1 + (limit < 500)
    assert np.max(np.abs(vcycle(r) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "cells, coarsest, bandwidth",
    [
        ((12, 12, 12), (6, 6, 6), 36),
        ((40, 40, 50), (5, 5, 7), 25),
        ((64, 64, 4), (16, 16, 1), 16),  # flat: a long axis goes outermost, not z
        ((7, 5, 9), (7, 5, 9), 35),
    ],
)
@pytest.mark.blas_threads
def test_coarsest_band_is_the_two_shorter_axes(cells, coarsest, bandwidth):
    plan = build_grid(CUBE, cells).multigrid
    bottom = plan.levels[-1]
    n = int(np.prod(coarsest))
    assert bottom.indptr.size - 1 == n and plan.bandwidth == bandwidth
    assert np.array_equal(np.sort(bottom.aggregate), np.arange(n))
    # every nonzero (i, j) lands in column j of the band, |i - j| <= kl away
    column, row = np.divmod(bottom.galerkin, 3 * bandwidth + 1)
    rows = np.repeat(np.arange(n), np.diff(bottom.indptr))
    assert np.array_equal(column, bottom.aggregate[bottom.indices])
    assert np.array_equal(row - 2 * bandwidth + column, bottom.aggregate[rows])
    assert row.min() >= bandwidth and row.max() <= 3 * bandwidth


# the coarsest level itself (desk_odd_axes_small) or below one or two
# smoothed levels, symmetric and not
@pytest.mark.parametrize("case", ["desk_odd_axes_small", "desk_odd_axes", "lattice", "oxygen_at_38"])
@pytest.mark.blas_threads
def test_banded_coarsest_matches_dense_solve(case):
    matrix, _, grid = CASES[case]()
    n = grid.n_cells
    vcycle = VCycle(matrix[:n, :n], grid)
    bottom, rank = vcycle.bottom[0], vcycle.plan.levels[-1].aggregate
    r = np.random.default_rng(3).standard_normal(bottom.shape[0])
    got = vcycle._solve_coarsest(r[np.argsort(rank)])[rank]  # in band order
    assert scaled_residual(bottom, got, r) <= 1e-14
    want = np.linalg.solve(bottom.toarray(), r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_singular_coarsest_level_raises():
    grid = build_grid(CUBE, (7, 5, 9))  # the finest level is the coarsest
    vcycle = VCycle(grid.laplacian * 0.0, grid)  # the pattern, all zeros
    with pytest.raises(SolverError, match="singular"):
        vcycle(np.ones(grid.n_cells))


def test_coarsest_factored_on_first_use_and_once_after_each_shift(monkeypatch):
    tissue, grid = tissue_block("flow", (12, 12, 12))
    factored = []
    dgbtrf = linsolve.dgbtrf

    def counted(band, *args, **kwargs):
        factored.append((band.shape[1],) * 2)  # the order of the banded matrix
        return dgbtrf(band, *args, **kwargs)

    monkeypatch.setattr(linsolve, "dgbtrf", counted)
    vcycle = VCycle(tissue, grid)
    r = np.ones(grid.n_cells)
    assert factored == []
    vcycle(r)
    vcycle(r)
    assert factored == [vcycle.bottom[0].shape]
    d = tissue.diagonal()
    for shifts in (1, 2):
        for _ in range(shifts):
            vcycle.shift(d)
        assert len(factored) == 1 + (shifts == 2)
        vcycle(r)
        vcycle(r)
    assert len(factored) == 3


def test_one_laplacian_and_eigenvalue_table_serve_every_solve_on_a_grid(monkeypatch):
    """Flow and oxygen, over two growth states, take the cosine solve on
    the grid's one Laplacian and eigenvalue table, and build no multigrid
    plan; the two solvers of a state share its coupling's one block plan."""
    plans, laplacians, tables, solves, blocks, unshared = [], [], [], [], [], []

    class CountedPlan(grid_module.MultigridPlan):
        def __init__(self, *args):
            plans.append(self)
            super().__init__(*args)

    def counted(log, build):
        def wrapped(*args):
            log.append(args)
            return build(*args)

        return wrapped

    init = CosineSolve.__init__

    def recorded(self, *args):
        solves.append(self)
        init(self, *args)

    monkeypatch.setattr(grid_module, "MultigridPlan", CountedPlan)
    monkeypatch.setattr(grid_module, "edge_laplacian", counted(laplacians, edge_laplacian))
    monkeypatch.setattr(
        grid_module, "cosine_eigenvalues", counted(tables, grid_module.cosine_eigenvalues)
    )
    monkeypatch.setattr(CosineSolve, "__init__", recorded)
    monkeypatch.setattr(grid_module, "block_plan", counted(blocks, grid_module.block_plan))
    monkeypatch.setattr(linsolve, "block_plan", counted(unshared, linsolve.block_plan))
    roi = DomainBox([0.0] * 3, [0.5e-3] * 3)
    domain = enlarge_domain(roi, 0.10)
    grid = build_grid(domain, (12, 12, 12))
    engine = GrowthEngine(
        make_starter_network(), domain, roi, grid, RheologyParameters(),
        FlowParameters(), OxygenParameters(), GrowthParameters(max_iter_p1=1),
        np.random.default_rng(0),
    )
    engine.run_phase1()
    assert [step[:2] for step in engine.steps] == [(1, 0), (1, 1)]  # grown in between
    assert len(solves) == 4  # flow and oxygen per state
    assert all(solve.mismatch <= 1.0 for solve in solves)
    assert len(laplacians) == 1 and len(tables) == 1 and plans == []
    # one block plan per coupling, each made from the coupling's pattern
    assert len(blocks) == 2 and blocks[0][0] is not blocks[1][0] and unshared == []


def test_tissue_block_off_the_grid_pattern_is_rejected():
    matrix, _, grid = CASES["desk_12"]()
    n = grid.n_cells
    coupled = matrix.tolil()
    coupled[0, n - 1] = -1e-30  # no face joins these cells
    for build in (VCycle, CosineSolve):
        with pytest.raises(SolverError, match="face stencil"):
            build(coupled.tocsr()[:n, :n], grid)
    with pytest.raises(SolverError, match="face stencil"):
        LinearSolver(coupled.tocsr(), grid)


@pytest.mark.parametrize(
    "net_fn, box, cells",
    [
        (make_desk_network, CUBE, (20, 20, 20)),
        (make_starter_network, STARTER_BOX, (12, 12, 12)),
        (lambda: make_jittered_lattice(0, 5), LATTICE_BOX, (8, 8, 8)),
    ],
)
@pytest.mark.blas_threads
def test_block_plan_gathers_the_scipy_slices(net_fn, box, cells):
    """The blocks a coupling's plan gathers, of its flow system and of its
    oxygen operator, are bit for bit scipy's slices of the same matrix."""
    net = net_fn()
    system = flow_system(net, box, cells)
    operator = assemble_transport_operator(
        net, system.grid, system.coupling, solve_flow(system), FlowParameters(), OxygenParameters()
    )
    plan, n = system.coupling.blocks, system.grid.n_cells
    for matrix in (system.matrix, operator.matrix):
        data = matrix.data
        assert np.array_equal(data[plan.tissue], matrix[:n, :n].data)
        assert np.array_equal(data[plan.cell_diagonal], matrix.diagonal()[:n])
        for got, want in (
            (plan.tissue_nodes.csr(data), matrix[:n, n:]),
            (plan.nodes_tissue.csr(data), matrix[n:, :n]),
            (plan.nodes.csc(data), matrix[n:, n:].tocsc()),
        ):
            assert got.format == want.format and got.shape == want.shape
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.blas_threads
def test_oxygen_factors_its_node_block_in_the_flow_order():
    """On the benchmark lattice, the flow solver, the first on its
    coupling's block plan, keeps its minimum-degree order in the plan; the
    oxygen solver on the same plan factors its node block in that order,
    with the fill of a fresh minimum-degree factor, and its node solves
    match spsolve. A solver on a bare matrix makes its own plan and takes
    the minimum-degree order itself."""
    net, grid = make_perfbench_lattice()
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(net, grid, coupling, RheologyParameters(), FlowParameters())
    flow = solve_flow(system)
    plan = coupling.blocks
    order, _ = plan.ordered_nodes
    operator = assemble_transport_operator(
        net, grid, coupling, flow, FlowParameters(), OxygenParameters()
    )
    solver = LinearSolver(operator.matrix, grid, plan)
    assert solver.nodes.order is order and plan.ordered_nodes[0] is order
    block = plan.nodes.csc(operator.matrix.data)
    fresh = spla.splu(block, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})

    def fill(lu):
        return lu.L.nnz + lu.U.nnz

    assert fill(solver.nodes.lu) == fill(fresh)
    r = np.random.default_rng(0).standard_normal(block.shape[0])
    want = spla.spsolve(block, r)
    assert np.max(np.abs(solver.nodes.solve(r) - want)) <= AGREEMENT * np.max(np.abs(want))
    bare = LinearSolver(operator.matrix, grid)
    assert bare.nodes.order is None and fill(bare.nodes.lu) == fill(fresh)
    assert np.array_equal(bare.nodes.lu.perm_c, fresh.perm_c)


@pytest.mark.parametrize(
    "shift, singular", [(0.0, True), (np.finfo(float).eps, True), (1e-6, False)]
)
def test_node_block_singular_to_rounding_is_rejected(shift, singular):
    """A node block with an exactly zero pivot, or one that rounding could
    have moved off a singular one (|A^-1||A| 1 past 1 / (n eps)), raises
    SolverError; one far from singular factors."""
    grid = build_grid(CUBE, (4, 4, 4))
    nodes = sp.csr_matrix([[1.0, -1.0], [-1.0, 1.0 + shift]])
    matrix = sp.block_diag([grid.laplacian + sp.eye(grid.n_cells), nodes], format="csr")
    if singular:
        with pytest.raises(SolverError, match="singular"):
            LinearSolver(matrix, grid)
    else:
        LinearSolver(matrix, grid)


# unequal extents make the three axes' face weights area/h differ
ANISOTROPIC = [
    (DomainBox([0.0] * 3, [0.3e-3, 0.8e-3, 1.7e-3]), (3, 4, 5)),
    (CUBE, (7, 2, 9)),
]


def constant_coefficient(grid, c, epsilon):
    """c L + eps I on the grid's Laplacian pattern."""
    return (c * grid.laplacian + epsilon * sp.identity(grid.n_cells)).tocsr()


@pytest.mark.parametrize("box, cells", ANISOTROPIC)
def test_eigenvalue_table_is_the_spectrum_of_the_laplacian(box, cells):
    grid = build_grid(box, cells)
    assert grid.eigenvalues.shape == cells[::-1]
    want = np.linalg.eigvalsh(grid.laplacian.toarray())
    got = np.sort(grid.eigenvalues.ravel())
    assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


@pytest.mark.parametrize("box, cells", ANISOTROPIC)
def test_cosine_basis_diagonalises_the_laplacian(box, cells):
    grid = build_grid(box, cells)
    qx, qy, qz = grid.cosine_basis
    modes = np.kron(qz, np.kron(qy, qx)).T  # a column per mode, rows in linear cell order
    got = modes.T @ grid.laplacian.toarray() @ modes
    want = np.diag(grid.eigenvalues.ravel())
    assert np.max(np.abs(got - want)) <= 1e-13 * grid.eigenvalues.max()


@pytest.mark.parametrize("box, cells", ANISOTROPIC)
def test_cosine_solve_matches_direct_solve(box, cells):
    grid = build_grid(box, cells)
    c, epsilon = 2.7e-3, 1.0e-9
    matrix = constant_coefficient(grid, c, epsilon)
    cosine = CosineSolve(matrix, grid)
    assert cosine.coefficient == pytest.approx(c, rel=1e-14)
    assert cosine.epsilon == pytest.approx(epsilon, rel=1e-6)  # a sum of terms of c
    _, _, area, h = grid.faces()  # A - c L is eps I
    assert cosine.mismatch == pytest.approx(epsilon / (c * np.min(area / h)), rel=1e-6)
    r = np.random.default_rng(4).standard_normal(grid.n_cells)
    exact = spla.spsolve(matrix.tocsc(), r)
    assert np.max(np.abs(cosine(r) - exact)) <= AGREEMENT * np.max(np.abs(exact))


def test_shift_moves_epsilon_by_the_mean_of_the_diagonal():
    box, cells = ANISOTROPIC[0]
    grid = build_grid(box, cells)
    c, epsilon = 2.7e-3, 1.0e-6
    cosine = CosineSolve(constant_coefficient(grid, c, epsilon), grid)
    d = np.random.default_rng(9).uniform(0.0, 2.0e-6, grid.n_cells)
    before = cosine.epsilon
    cosine.shift(d)
    assert cosine.epsilon == pytest.approx(before + np.mean(d), rel=1e-15)
    r = np.random.default_rng(10).standard_normal(grid.n_cells)
    exact = spla.spsolve(constant_coefficient(grid, c, epsilon + np.mean(d)).tocsc(), r)
    assert np.max(np.abs(cosine(r) - exact)) <= 1e-9 * np.max(np.abs(exact))
    cosine.shift(np.zeros(grid.n_cells))  # back to the block itself
    assert cosine.epsilon == before


def uncached_fit(data, grid):
    """c, mismatch and row_sum of a tissue block's data on the Laplacian's
    pattern, with everything the fit takes from the grid formed again."""
    laplacian = grid.laplacian.data
    faces = grid.stencil[1][1:3].ravel()
    block, unit = data[faces], laplacian[faces]
    c = block @ unit / (unit @ unit)
    _, _, area, h = grid.faces()
    weakest = c * np.min(area / h)
    mismatch = np.max(np.abs(data - c * laplacian)) / weakest if c > 0.0 else np.inf
    return c, mismatch, np.sum(data) / grid.n_cells


def fitted_blocks(case):
    """Tissue blocks of the ANISOTROPIC grids (c L + eps I and the same
    with every entry moved by up to 10%) or of a benchmark grid's flow and
    oxygen systems, and their grid."""
    if case[0] == "anisotropic":
        grid = build_grid(*ANISOTROPIC[case[1]])
        plain = constant_coefficient(grid, 2.7e-3, 1.0e-9)
        moved = plain.copy()
        moved.data *= np.random.default_rng(case[1]).uniform(0.9, 1.1, moved.nnz)
        return [plain, moved], grid
    net_fn, box, cells = BENCHMARK_GRIDS[case[1]]
    blocks, grid = coupled_blocks(net_fn(), box, cells)
    return list(blocks.values()), grid


@pytest.mark.parametrize("case", [("anisotropic", 0), ("anisotropic", 1),
                                  ("benchmark", 0), ("benchmark", 1), ("benchmark", 2)])
@pytest.mark.blas_threads
def test_cached_fit_reproduces_the_uncached_formulas(case):
    """The grid's cosine-fit constants give c, mismatch and row_sum bit
    for bit: the same operations on the same operands, only kept."""
    blocks, grid = fitted_blocks(case)
    for block in blocks:
        cosine = CosineSolve(block, grid)
        got = (cosine.coefficient, cosine.mismatch, cosine.row_sum)
        assert got == uncached_fit(linsolve.tissue_data(block, grid), grid)
    assert grid.cosine_fit is grid.cosine_fit  # built once per grid


@pytest.mark.parametrize("shift", [0.0, -1.0e-6])
def test_nonpositive_epsilon_is_singular(shift):
    box, cells = ANISOTROPIC[1]
    grid = build_grid(box, cells)
    cosine = CosineSolve(constant_coefficient(grid, 2.7e-3, 0.0), grid)
    cosine.shift(np.full(grid.n_cells, shift))
    with pytest.raises(SolverError, match="singular"):
        cosine(np.ones(grid.n_cells))


def coupled_blocks(net, box, cells, params=None):
    """Tissue blocks of a network's flow system and oxygen transport
    operator, by physics, and their grid."""
    params = params or FlowParameters()
    system = flow_system(net, box, cells, params)
    flow, oxygen = solve_flow(system), OxygenParameters()
    operator = assemble_transport_operator(
        net, system.grid, system.coupling, flow, params, oxygen
    )
    n = system.grid.n_cells
    return {"flow": system.matrix[:n, :n], "oxygen": operator.matrix[:n, :n]}, system.grid


# the desk, lattice and starter grids of the benchmark's three workloads
BENCHMARK_GRIDS = [
    (make_desk_network, CUBE, (20, 20, 20)),
    (lambda: make_jittered_lattice(0, 9), LATTICE_BOX, (12, 12, 12)),
    (make_starter_network, STARTER_BOX, (12, 12, 12)),
]


@pytest.mark.parametrize("net_fn, box, cells", BENCHMARK_GRIDS)
def test_default_tissue_blocks_take_the_cosine_solve(net_fn, box, cells):
    blocks, grid = coupled_blocks(net_fn(), box, cells)
    for block in blocks.values():
        chosen = tissue_preconditioner(block, grid)
        assert isinstance(chosen, CosineSolve) and chosen.mismatch <= 1.0
    assert "multigrid" not in vars(grid)  # no plan on the cosine path


@pytest.mark.parametrize("wall_conductivity", [1.0e-10, 0.0])  # x100, and a pinned cell
def test_strongly_coupled_or_pinned_tissue_takes_the_vcycle(wall_conductivity):
    params = FlowParameters(wall_conductivity=wall_conductivity)
    blocks, grid = coupled_blocks(make_desk_network(), CUBE, (20, 20, 20), params)
    assert CosineSolve(blocks["flow"], grid).mismatch > 1.0
    assert isinstance(tissue_preconditioner(blocks["flow"], grid), VCycle)
    assert "multigrid" in vars(grid)


def desk_iterations(cells, params=FlowParameters()):
    """GMRES iterations of the desk ladder's flow solve and of its cold
    oxygen solve, each of which passes its residual gate."""
    net, oxygen = make_desk_network(), OxygenParameters()
    system = flow_system(net, CUBE, cells, params)
    flow = solve_flow(system)  # raises above RESIDUAL_TOL
    operator = assemble_transport_operator(
        net, system.grid, system.coupling, flow, params, oxygen
    )
    state = solve_oxygen(operator, oxygen)  # raises above RESIDUAL_TOL
    assert flow.residual <= RESIDUAL_TOL
    return flow.linear_iterations, state.linear_iterations


# wall conductivity x1, x10 (mismatch 0.51: cosine), x100 and x1e4 (V-cycle)
@pytest.mark.parametrize(
    "factor, cosine", [(1.0, True), (10.0, True), (100.0, False), (1.0e4, False)]
)
@pytest.mark.blas_threads
def test_wall_coupling_sweep_takes_no_more_iterations_than_the_vcycle(
    monkeypatch, factor, cosine
):
    params = FlowParameters(wall_conductivity=factor * FlowParameters().wall_conductivity)
    blocks, grid = coupled_blocks(make_desk_network(), CUBE, (20, 20, 20), params)
    assert isinstance(tissue_preconditioner(blocks["flow"], grid), CosineSolve) == cosine
    selected = desk_iterations((20, 20, 20), params)
    monkeypatch.setattr(linsolve, "tissue_preconditioner", VCycle)
    vcycle = desk_iterations((20, 20, 20), params)
    assert selected[0] <= vcycle[0] and selected[1] <= vcycle[1]


# recorded at x100 before the solver kept its products: flow 22 GMRES
# iterations on the V-cycle, oxygen 5 Newton steps and 12 on the cosine solve
@pytest.mark.blas_threads
def test_vcycle_newton_solve_agrees_with_spsolve():
    params = FlowParameters(wall_conductivity=100 * FlowParameters().wall_conductivity)
    oxygen = OxygenParameters()
    net = make_desk_network()
    system = flow_system(net, CUBE, (20, 20, 20), params)
    n = system.grid.n_cells
    assert isinstance(tissue_preconditioner(system.matrix[:n, :n], system.grid), VCycle)
    flow = solve_flow(system)
    pressures = np.concatenate([flow.p_t, flow.p_nodes])
    exact = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.max(np.abs(pressures - exact)) <= AGREEMENT * np.max(np.abs(exact))
    operator = assemble_transport_operator(
        net, system.grid, system.coupling, flow, params, oxygen
    )
    state = solve_oxygen(operator, oxygen)
    # the root is the fixed point of an exact Newton step from it
    po2 = np.concatenate([state.po2_t, state.po2_nodes])
    rate = np.zeros(po2.size)
    rate[:n] = system.grid.cell_volume * oxygen.max_consumption
    _, d, g = _sink(rate, oxygen.po2_half, po2)
    step = spla.spsolve((operator.matrix + sp.diags(d)).tocsc(), operator.rhs + g)
    assert np.max(np.abs(po2 - step)) <= AGREEMENT * np.max(np.abs(step))
    assert flow.linear_iterations <= 22
    assert state.iterations <= 5 and state.linear_iterations <= 12


# with the V-cycle, flow took 16, 20 and 24 iterations and cold oxygen
# 25, 30 and 39: its count grows with the grid
@pytest.mark.parametrize("n", [10, 20, 40])
@pytest.mark.blas_threads
def test_iterations_stay_flat_over_the_desk_ladder(n):
    flow, oxygen = desk_iterations((n, n, n))
    assert flow <= 10 and oxygen <= 16


def loaded_transforms(code):
    """Which of scipy.fft and scipy.special a fresh interpreter has loaded
    after running `code`: scipy.fft pulls in scipy.special, tens of ms of
    start-up and about 4 MB, and the cosine solve needs neither."""
    source = Path(__file__).resolve().parent.parent / "src"
    code += "\nprint(sorted(m for m in ('scipy.fft', 'scipy.special') if m in sys.modules))"
    path = os.pathsep.join([str(source), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return loaded.stdout.splitlines()[-1]


def test_start_up_imports_no_transform():
    assert loaded_transforms("import sys, microvasc.cli, microvasc.growth") == "[]"


@pytest.mark.parametrize("command", ["solve", "generate"])
def test_commands_import_no_transform(tmp_path, command):
    net = make_desk_network() if command == "solve" else make_starter_network()
    dgf, config = tmp_path / "input.dgf", tmp_path / "config.json"
    dgf.write_text(serialize_dgf(net))
    config.write_text(json.dumps({
        "input_dgf": str(dgf),
        "output_dir": str(tmp_path / "out"),
        "grid_cells": [8, 8, 8],
        "roi_lower": [0.0, 0.0, 0.0],
        "roi_upper": [1.0e-3 if command == "solve" else 0.5e-3] * 3,
        "growth": {"max_iter_p1": 1, "max_iter_p2": 1, "max_iter_p3": 1},
    }))
    code = (
        "import sys\nfrom microvasc.cli import main\n"
        f"assert main([{command!r}, '--config', {str(config)!r}]) == 0"
    )
    assert loaded_transforms(code) == "[]"
    assert (tmp_path / "out").is_dir()  # the command ran
