"""The multigrid-preconditioned GMRES of `linsolve` against a direct solve.

The oracle is scipy's `spsolve`, kept here only. Every case must agree
with it to 1e-12 (max-norm, relative), pass the row-scaled residual at
1e-12 and need no more than one GMRES(60) cycle.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from microvasc import (
    DomainBox,
    FlowParameters,
    OxygenParameters,
    RheologyParameters,
    assemble_flow_system,
    assemble_transport_operator,
    build_grid,
    build_surface_coupling,
    classify_arterial_venous,
    enlarge_domain,
    solve_flow,
)
from microvasc.flow import edge_laplacian
from microvasc.linsolve import RESTART, VCycle, _aggregate, scaled_residual, solve_linear
from microvasc.oxygen import _sink

from conftest import UM, make_desk_network, make_jittered_lattice, make_y_junction

AGREEMENT = 1e-12
CUBE = DomainBox([0.0, 0.0, 0.0], [1.0e-3, 1.0e-3, 1.0e-3])
Y_BOX = DomainBox([-50 * UM, -100 * UM, -50 * UM], [250 * UM, 120 * UM, 50 * UM])
LATTICE_BOX = enlarge_domain(DomainBox([0.0] * 3, [0.5e-3] * 3), 0.10)


def flow_system(net, box, cells, params=None):
    grid = build_grid(box, cells)
    coupling = build_surface_coupling(grid, net)
    return assemble_flow_system(
        net, grid, coupling, RheologyParameters(), params or FlowParameters()
    )


def newton_system(po2):
    """Oxygen Jacobian and right-hand side of the desk ladder at 20^3 for a
    Newton step from the uniform PO2 `po2`."""
    net, params = make_desk_network(), OxygenParameters()
    system = flow_system(net, CUBE, (20, 20, 20))
    flow = solve_flow(system)
    classify_arterial_venous(net, flow, params)
    operator = assemble_transport_operator(
        net, system.grid, system.coupling, flow, FlowParameters(), params
    )
    grid = system.grid
    rate = np.zeros(operator.rhs.size)
    rate[: grid.n_cells] = grid.cell_volume * params.max_consumption
    _, d, g = _sink(rate, params.po2_half, np.full(operator.rhs.size, po2))
    return operator.base + sp.diags(d), operator.rhs + g, grid.cells_per_axis


def flow_case(net_fn, box, cells, params=None):
    def build():
        system = flow_system(net_fn(), box, cells, params)
        return system.matrix, system.rhs, system.grid.cells_per_axis

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
    "oxygen_at_0": lambda: newton_system(0.0),
    "oxygen_at_38": lambda: newton_system(38.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_agrees_with_direct_solve(case):
    matrix, rhs, shape = CASES[case]()
    x, iterations = solve_linear(matrix, rhs, shape)
    exact = spla.spsolve(matrix.tocsc(), rhs)
    assert np.max(np.abs(x - exact)) <= AGREEMENT * np.max(np.abs(exact))
    assert scaled_residual(matrix, x, rhs) <= AGREEMENT
    assert iterations <= RESTART


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
    vcycle = VCycle(matrix.tocsr(), grid.cells_per_axis)
    # smoothed levels above COARSEST_CELLS, then one factored level
    assert [level[0].shape[0] for level in vcycle.levels] == [25 * 23 * 21, 13 * 12 * 11]
    assert vcycle.coarsest.shape == (7 * 6 * 6, 7 * 6 * 6)
