import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from microvasc import (
    DomainBox,
    FlowParameters,
    RheologyParameters,
    VascularNetwork,
    assemble_flow_system,
    build_grid,
    build_surface_coupling,
    solve_flow,
    starling_flux,
)
from microvasc import flow as flow_module
from microvasc.errors import SolverError, ValidationError
from microvasc.flow import RESIDUAL_TOL
from microvasc.linsolve import scaled_residual
from microvasc.linsolve import RESTART
from microvasc.rheology import segment_viscosity, vessel_conductance

from conftest import UM, boundary_nodes, make_desk_network, make_single_vessel, make_y_junction

DECOUPLED = FlowParameters(wall_conductivity=0.0)


def small_grid():
    return build_grid(DomainBox([-1e-3] * 3, [1e-3] * 3), (4, 4, 4))


def velocity(state, sid):
    return state.velocity[state.segment_ids.index(sid)]


def solve(net, grid=None, params=DECOUPLED):
    grid = grid or small_grid()
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(net, grid, coupling, RheologyParameters(), params)
    return solve_flow(system)


class TestStarling:
    def test_zero_at_balance(self):
        params = FlowParameters()
        p_t = 5000.0 - params.reflection * params.oncotic_jump
        assert starling_flux(5000.0, p_t, params) == pytest.approx(0.0, abs=1e-24)

    def test_sign_convention(self):
        params = FlowParameters()
        assert starling_flux(9000.0, 1000.0, params) > 0.0  # out of the vessel
        assert starling_flux(1000.0, 9000.0, params) < 0.0

    def test_linear_in_conductivity(self):
        p1 = FlowParameters(wall_conductivity=1e-12)
        p2 = FlowParameters(wall_conductivity=2e-12)
        assert starling_flux(8000.0, 2000.0, p2) == pytest.approx(
            2.0 * starling_flux(8000.0, 2000.0, p1), rel=1e-12
        )


class TestVesselNetworkFlow:
    def test_poiseuille_profile_exact(self):
        # single vessel with an interior midpoint node
        net = VascularNetwork()
        net.new_node([0.0, 0.0, 0.0], kind="boundary", boundary_pressure=8000.0)
        net.new_node([50 * UM, 0.0, 0.0])
        net.new_node([100 * UM, 0.0, 0.0], kind="boundary", boundary_pressure=4000.0)
        net.new_segment(0, 1, 5 * UM)
        net.new_segment(1, 2, 5 * UM)
        state = solve(net)
        assert state.p_v[0] == pytest.approx(8000.0, abs=0.0)
        assert state.p_v[2] == pytest.approx(4000.0, abs=0.0)
        assert state.p_v[1] == pytest.approx(6000.0, rel=1e-12)

    def test_poiseuille_flux_frozen(self):
        net = make_single_vessel()
        state = solve(net)
        area = math.pi * (5 * UM) ** 2
        flux = abs(velocity(state, 0)) * area
        # conductance * 4000 Pa with the in-vivo viscosity at d = 10 um
        assert flux == pytest.approx(1.671789057146667e-12, rel=1e-12)

    def test_y_junction_frozen_oracle(self):
        # independently assembled 3-conductance junction balance
        state = solve(make_y_junction())
        assert state.p_v[1] == pytest.approx(7582.083260534497, rel=1e-10)
        fluxes = {
            0: 4.2869557340094234e-13,
            1: 3.3110466762793515e-13,
            2: 9.759090577300682e-14,
        }
        net = make_y_junction()
        for sid, expected in fluxes.items():
            radius = net.segments[sid].radius
            flux = abs(velocity(state, sid)) * math.pi * radius**2
            assert flux == pytest.approx(expected, rel=1e-10)

    def test_junction_mass_balance(self):
        net = make_y_junction()
        state = solve(net)
        total = 0.0
        for sid, seg in net.segments.items():
            q = velocity(state, sid) * math.pi * seg.radius**2
            # signed along node_a -> node_b; sum of signed flows at node 1
            total += q if seg.node_b == 1 else -q
        assert abs(total) < 1e-24

    def test_velocity_from_conductance(self):
        net = make_single_vessel()
        state = solve(net)
        rh = RheologyParameters()
        g = vessel_conductance(5 * UM, 100 * UM, segment_viscosity(5 * UM, rh))
        expected_u = g * 4000.0 / (math.pi * (5 * UM) ** 2)
        assert abs(velocity(state, 0)) == pytest.approx(expected_u, rel=1e-12)

    def test_no_dirichlet_component_rejected(self):
        net = VascularNetwork()
        net.new_node([0.0, 0.0, 0.0])
        net.new_node([100 * UM, 0.0, 0.0])
        net.new_segment(0, 1, 5 * UM)
        with pytest.raises(SolverError):
            solve(net)

    def test_residual_reported(self):
        state = solve(make_y_junction())
        assert state.residual < 1e-10


class TestCoupledFlow:
    def test_perturbed_solution_fails_residual_gate(self, monkeypatch):
        net = make_desk_network()
        grid = small_grid()
        coupling = build_surface_coupling(grid, net)
        system = assemble_flow_system(
            net, grid, coupling, RheologyParameters(), FlowParameters()
        )
        exact = spla.spsolve(system.matrix.tocsc(), system.rhs)
        assert scaled_residual(system.matrix, exact, system.rhs) <= RESIDUAL_TOL
        bad = exact.copy()
        bad[0] *= 1.0 + 1e-6  # one tissue cell: a physics row
        # a norm-wise ||Ax - b|| / ||b|| gate is blind to it ...
        misfit = np.linalg.norm(system.matrix @ bad - system.rhs)
        assert misfit / np.linalg.norm(system.rhs) < RESIDUAL_TOL
        # ... the row-scaled gate is not
        monkeypatch.setattr(
            flow_module.LinearSolver, "solve", lambda self, rhs, *args, **kwargs: (bad, 0)
        )
        with pytest.raises(SolverError):
            solve_flow(system)

    def test_network_without_pressure_boundary_rejected(self):
        # wall leakage couples every node to the tissue, but only a
        # Dirichlet node fixes the level of the pressures
        net = make_desk_network()
        for nid in boundary_nodes(net):
            net.nodes[nid].kind = "inner"
        grid = small_grid()
        coupling = build_surface_coupling(grid, net)
        with pytest.raises(SolverError, match="no pressure-boundary node"):
            assemble_flow_system(net, grid, coupling, RheologyParameters(), FlowParameters())

    @pytest.mark.parametrize("wall_conductivity", [0.0, 1.0e-12])
    @pytest.mark.parametrize("pressure", [None, 5000.0])
    def test_node_without_segment_rejected(self, wall_conductivity, pressure):
        # an isolated inner node leaves its row empty; an isolated pressure
        # node solves but has no vessel to classify its oxygen value from
        net = make_single_vessel()
        kind = "inner" if pressure is None else "boundary"
        net.new_node(np.array([20 * UM, 10 * UM, 0.0]), kind=kind, boundary_pressure=pressure)
        grid = small_grid()
        coupling = build_surface_coupling(grid, net)
        params = FlowParameters(wall_conductivity=wall_conductivity)
        with pytest.raises(SolverError, match="node 2 has no segment"):
            assemble_flow_system(net, grid, coupling, RheologyParameters(), params)

    def test_desk_conservation(self, desk_grid):
        net = make_desk_network()
        state = solve(net, grid=desk_grid, params=FlowParameters())
        inflow = sum(state.boundary_flux.values())
        scale = sum(abs(v) for v in state.boundary_flux.values())
        assert abs(inflow) <= 1e-8 * scale

    def test_linear_work_reported(self, desk_grid):
        state = solve(make_desk_network(), grid=desk_grid, params=FlowParameters())
        # one GMRES cycle's worth at most, as on every tier-1 input
        assert 1 <= state.linear_iterations <= RESTART

    def test_filtration_bookkeeping_consistent(self, desk_grid):
        net = make_desk_network()
        state = solve(net, grid=desk_grid, params=FlowParameters())
        # identical per-sample exchange summed cell-wise and segment-wise
        scale = sum(float(np.sum(np.abs(jp))) for jp in state.sample_jp.values())
        assert abs(state.filtration_3d - state.filtration_1d) <= 1e-12 * scale

    def test_filtration_reported_in_micrograms(self, desk_grid):
        net = make_desk_network()
        state = solve(net, grid=desk_grid, params=FlowParameters())
        assert state.f_tv >= 0.0
        # f_tv counts only vessel-to-tissue (positive) filtration
        positive = sum(
            float(np.sum(jp[jp > 0.0])) for jp in state.sample_jp.values()
        )
        if positive == 0.0:
            assert state.f_tv == 0.0

    def test_tissue_pressure_between_extremes(self, desk_grid):
        net = make_desk_network()
        state = solve(net, grid=desk_grid, params=FlowParameters())
        jump = FlowParameters().oncotic_jump
        # tissue pressure relaxes toward p_v - sigma*(pi_v - pi_t)
        assert state.p_t.min() > 4000.0 - jump - 1.0
        assert state.p_t.max() < 8000.0

    def test_zero_permeability_wall_decouples(self, desk_grid):
        net = make_desk_network()
        state = solve(net, grid=desk_grid, params=DECOUPLED)
        # no wall exchange: tissue pressure field is constant
        assert state.p_t.max() - state.p_t.min() < 1e-8
        assert state.f_tv == pytest.approx(0.0, abs=1e-18)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            FlowParameters(tissue_permeability=-1.0)
        with pytest.raises(ValidationError):
            FlowParameters(reflection=1.5)
