import numpy as np
import pytest

from microvasc import (
    FlowParameters,
    OxygenParameters,
    RheologyParameters,
    assemble_flow_system,
    assemble_transport_operator,
    build_grid,
    build_surface_coupling,
    classify_arterial_venous,
    kedem_katchalsky_flux,
    michaelis_menten,
    solve_flow,
    solve_oxygen,
)
from microvasc import oxygen as oxygen_module
from microvasc.errors import ConvergenceError, StateError, ValidationError
from microvasc.flow import RESIDUAL_TOL, scaled_residual

from conftest import make_desk_network

ARTERIAL_PO2 = OxygenParameters().arterial_po2
VENOUS_PO2 = OxygenParameters().venous_po2


def desk_operator(net, grid, oxy_params, flow_params=None, pin_boundary=True):
    flow_params = flow_params or FlowParameters()
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(
        net, grid, coupling, RheologyParameters(), flow_params
    )
    flow = solve_flow(system)
    classify_arterial_venous(net, flow, oxy_params)
    if not pin_boundary:
        for nid in net.boundary_nodes():
            net.nodes[nid].kind = "inner"
    operator = assemble_transport_operator(
        net, grid, coupling, flow, flow_params, oxy_params
    )
    return operator, flow


def coupled_solve(net, grid, oxy_params=None, flow_params=None):
    oxy_params = oxy_params or OxygenParameters()
    operator, flow = desk_operator(net, grid, oxy_params, flow_params)
    return solve_oxygen(operator, oxy_params), flow


def oxygen_residual(operator, state, params):
    """Row-scaled residual of B x + s(x) - b, the sink written out here."""
    x = np.concatenate(
        [state.po2_t, [state.po2_v[nid] for nid in sorted(operator.net.nodes)]]
    )
    cells = operator.grid.n_cells
    sink = np.zeros_like(x)
    sink[:cells] = (
        operator.grid.cell_volume * params.max_consumption * x[:cells]
        / (np.maximum(x[:cells], 0.0) + params.po2_half)
    )
    return scaled_residual(operator.base, x, operator.rhs, sink)


class TestConsumptionLaw:
    def test_half_saturation_point(self):
        params = OxygenParameters(max_consumption=3.0, po2_half=1.0)
        assert michaelis_menten(params.po2_half, params) == 1.5

    def test_zero_point(self):
        assert michaelis_menten(0.0, OxygenParameters()) == 0.0

    def test_saturates_at_max(self):
        params = OxygenParameters(max_consumption=4.0)
        assert michaelis_menten(1e9, params) == pytest.approx(4.0, rel=1e-6)

    def test_monotone(self):
        params = OxygenParameters()
        values = [michaelis_menten(p, params) for p in (0.0, 0.5, 1.0, 10.0, 60.0)]
        assert values == sorted(values)

    def test_negative_po2_rejected(self):
        with pytest.raises(ValidationError):
            michaelis_menten(-1.0, OxygenParameters())


class TestWallFlux:
    def test_diffusive_part_sign(self):
        fp = FlowParameters(wall_conductivity=0.0)  # no filtration drag
        op = OxygenParameters()
        out = kedem_katchalsky_flux(5000.0, 5000.0, 60.0, 20.0, fp, op)
        assert out == pytest.approx(op.wall_permeability * 40.0, rel=1e-12)

    def test_advective_part_uses_mean_po2(self):
        fp = FlowParameters()
        op = OxygenParameters(wall_permeability=0.0)
        flux = kedem_katchalsky_flux(9000.0, 1000.0, 70.0, 30.0, fp, op)
        from microvasc import starling_flux

        jp = starling_flux(9000.0, 1000.0, fp)
        assert flux == pytest.approx(
            (1.0 - fp.reflection) * jp * 0.5 * (70.0 + 30.0), rel=1e-12
        )

    def test_zero_gradient_zero_filtration(self):
        fp = FlowParameters(wall_conductivity=0.0)
        op = OxygenParameters()
        assert kedem_katchalsky_flux(5000.0, 5000.0, 40.0, 40.0, fp, op) == 0.0


class TestCoupledOxygen:
    def test_zero_consumption_single_iteration(self, desk_grid):
        net = make_desk_network()
        params = OxygenParameters(max_consumption=0.0)
        state, _ = coupled_solve(net, desk_grid, oxy_params=params)
        assert state.iterations == 1

    def test_bounds(self, desk_grid):
        net = make_desk_network()
        state, _ = coupled_solve(net, desk_grid)
        assert state.po2_t.min() >= 0.0
        assert state.po2_t.max() <= ARTERIAL_PO2 + 1e-9
        for po2 in state.po2_v.values():
            assert -1e-9 <= po2 <= ARTERIAL_PO2 + 1e-9

    def test_boundary_values_pinned(self, desk_grid):
        net = make_desk_network()
        state, _ = coupled_solve(net, desk_grid)
        for nid in net.boundary_nodes():
            assert state.po2_v[nid] in (ARTERIAL_PO2, VENOUS_PO2)

    def test_boundary_po2_comes_from_parameters(self, desk_grid):
        net = make_desk_network()
        params = OxygenParameters(arterial_po2=80.0)
        operator, flow = desk_operator(net, desk_grid, params)
        state = solve_oxygen(operator, params)
        labels = classify_arterial_venous(net, flow, params)
        arteries = [nid for nid, label in labels.items() if label == "artery"]
        assert arteries
        for nid in arteries:
            assert net.nodes[nid].boundary_po2 == 80.0
            assert state.po2_v[nid] == 80.0
        assert state.po2_t.max() <= 80.0 + 1e-9

    def test_sink_comes_from_solver_parameters(self, desk_grid):
        # the operator is assembled with the default sink; the solve has none
        operator, _ = desk_operator(make_desk_network(), desk_grid, OxygenParameters())
        state = solve_oxygen(operator, OxygenParameters(max_consumption=0.0))
        linear, _ = coupled_solve(
            make_desk_network(), desk_grid, OxygenParameters(max_consumption=0.0)
        )
        assert state.iterations == 1
        assert np.array_equal(state.po2_t, linear.po2_t)

    def test_consumption_lowers_tissue_po2(self, desk_grid):
        net = make_desk_network()
        means = []
        for m0 in (0.0, 3.0, 4.0):
            state, _ = coupled_solve(
                net.copy(), desk_grid, oxy_params=OxygenParameters(max_consumption=m0)
            )
            means.append(float(np.mean(state.po2_t)))
        assert means[0] > means[1] > means[2]

    def test_converges_within_budget(self, desk_grid):
        net = make_desk_network()
        state, _ = coupled_solve(net, desk_grid)
        assert state.iterations <= 200
        assert state.update_norm <= 1e-8
        assert len(state.history) == state.iterations

    def test_newton_converges_fast_to_the_root(self, desk_grid):
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        state = solve_oxygen(operator, params)
        assert state.iterations <= 8
        assert oxygen_residual(operator, state, params) <= RESIDUAL_TOL

    def test_perturbed_newton_solution_fails_residual_gate(self, desk_grid, monkeypatch):
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        solve = oxygen_module.solve_linear

        def perturbed(matrix, rhs, shape):
            x, iterations = solve(matrix, rhs, shape)
            x[0] *= 1.0 + 1e-8  # one tissue cell: a physics row
            return x, iterations

        monkeypatch.setattr(oxygen_module, "solve_linear", perturbed)
        # Newton still meets its update test; the row-scaled gate does not pass
        with pytest.raises(ConvergenceError, match="row-scaled") as failure:
            solve_oxygen(operator, params)
        assert failure.value.history

    def test_zero_solution_reached(self, desk_grid):
        # No Dirichlet rows and no source: the root is PO2 = 0 everywhere,
        # where a purely relative update test can never be met.
        params = OxygenParameters()
        operator, _ = desk_operator(
            make_desk_network(), desk_grid, params, pin_boundary=False
        )
        assert not operator.dirichlet
        guess = np.full(operator.base.shape[0], 38.0)
        state = solve_oxygen(operator, params, initial_guess=guess)
        assert state.iterations <= 8
        assert np.max(np.abs(state.po2_t)) <= 1e-12
        assert max(abs(v) for v in state.po2_v.values()) <= 1e-12

    def test_warm_start_reduces_iterations(self, desk_grid):
        net = make_desk_network()
        params = OxygenParameters()
        fp = FlowParameters()
        coupling = build_surface_coupling(desk_grid, net)
        system = assemble_flow_system(
            net, desk_grid, coupling, RheologyParameters(), fp
        )
        flow = solve_flow(system)
        classify_arterial_venous(net, flow)
        operator = assemble_transport_operator(
            net, desk_grid, coupling, flow, fp, params
        )
        cold = solve_oxygen(operator, params)
        guess = np.zeros(operator.base.shape[0])
        guess[: desk_grid.n_cells] = cold.po2_t
        for nid, idx in operator.node_index.items():
            guess[idx] = cold.po2_v[nid]
        warm = solve_oxygen(operator, params, initial_guess=guess)
        assert warm.iterations < cold.iterations
        assert np.allclose(warm.po2_t, cold.po2_t, atol=1e-6)

    def test_missing_boundary_po2_rejected(self, desk_grid):
        net = make_desk_network()
        fp = FlowParameters()
        coupling = build_surface_coupling(desk_grid, net)
        system = assemble_flow_system(
            net, desk_grid, coupling, RheologyParameters(), fp
        )
        flow = solve_flow(system)
        # skip classification: boundary nodes carry no PO2 value
        with pytest.raises(StateError):
            assemble_transport_operator(
                net, desk_grid, coupling, flow, fp, OxygenParameters()
            )

    def test_invalid_solver_settings(self, desk_grid):
        net = make_desk_network()
        fp = FlowParameters()
        coupling = build_surface_coupling(desk_grid, net)
        system = assemble_flow_system(
            net, desk_grid, coupling, RheologyParameters(), fp
        )
        flow = solve_flow(system)
        classify_arterial_venous(net, flow)
        operator = assemble_transport_operator(
            net, desk_grid, coupling, flow, fp, OxygenParameters()
        )
        with pytest.raises(ValidationError):
            solve_oxygen(operator, OxygenParameters(), tol=-1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            OxygenParameters(diffusion_tissue=-1.0)
        with pytest.raises(ValidationError):
            OxygenParameters(max_consumption=-3.0)
