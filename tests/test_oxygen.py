import dataclasses
import gc
import weakref

import numpy as np
import pytest

import exchange_oracle as oracle
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
from microvasc.flow import RESIDUAL_TOL
from microvasc.linsolve import scaled_residual

from conftest import make_desk_network, outside_krylov

ARTERIAL_PO2 = OxygenParameters().arterial_po2
VENOUS_PO2 = OxygenParameters().venous_po2


# keyword arguments `solve_oxygen` rejects, for a system of n unknowns
INVALID_SETTINGS = {
    "tol": lambda n: {"tol": -1.0},
    "max_iter": lambda n: {"max_iter": 0},
    "short_guess": lambda n: {"initial_guess": np.full(n - 1, VENOUS_PO2)},
    "long_guess": lambda n: {"initial_guess": np.full(n + 1, VENOUS_PO2)},
    "nan_guess": lambda n: {"initial_guess": np.full(n, np.nan)},
    "inf_guess": lambda n: {"initial_guess": np.r_[np.inf, np.full(n - 1, VENOUS_PO2)]},
}


def desk_operator(net, grid, oxy_params, flow_params=None, pin_boundary=True):
    flow_params = flow_params or FlowParameters()
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(
        net, grid, coupling, RheologyParameters(), flow_params
    )
    flow = solve_flow(system)
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


def solved_desk_state(grid):
    """The desk ladder's flow, operator and solved oxygen, and the oxygen
    state as one vector in the operator's unknown order."""
    net, params = make_desk_network(), OxygenParameters()
    operator, flow = desk_operator(net, grid, params)
    state = solve_oxygen(operator, params)
    x = np.concatenate([state.po2_t, [state.po2_v[nid] for nid in operator.node_order]])
    return net, flow, operator, state, x


def oxygen_residual(operator, state, params):
    """Row-scaled residual of B x + s(x) - b, the sink written out here."""
    x = np.concatenate(
        [state.po2_t, [state.po2_v[nid] for nid in operator.node_order]]
    )
    cells = operator.grid.n_cells
    sink = np.zeros_like(x)
    sink[:cells] = (
        operator.grid.cell_volume * params.max_consumption * x[:cells]
        / (np.maximum(x[:cells], 0.0) + params.po2_half)
    )
    return scaled_residual(operator.matrix, x, operator.rhs, sink)


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

    def test_solver_sink_is_the_law(self, desk_grid):
        """The sink the Newton solver runs, `_sink` on the cell rate
        `solve_oxygen` gives it, is the cell volume times `michaelis_menten`
        and its derivative for PO2 >= 0, to rounding, and continues linearly
        below 0 with the slope at 0. PO2 values: a solved desk state's cells,
        then 0 to 200 mmHg and -50 to 0 mmHg."""
        params = OxygenParameters()
        m0, k = params.max_consumption, params.po2_half
        state = solved_desk_state(desk_grid)[3]
        po2 = np.concatenate([
            state.po2_t, [0.0], np.geomspace(1e-6, 200.0, 99), -np.geomspace(1e-6, 50.0, 100)
        ])
        volume = desk_grid.cell_volume
        s, d, g = oxygen_module._sink(np.full(po2.size, volume * m0), k, po2)
        on = po2 >= 0.0
        law = volume * np.array([michaelis_menten(p, params) for p in po2[on]])
        slope = volume * m0 * k / (po2[on] + k) ** 2
        np.testing.assert_allclose(s[on], law, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(d[on], slope, rtol=1e-14, atol=0.0)
        # the slope is the law's derivative: central differences with steps
        # of 1e-4 (p + k) are exact to 1e-8 and to the law's rounding
        far = po2[on] >= 1e-3
        h = 1e-4 * (po2[on][far] + k)
        diff = volume * np.array([
            michaelis_menten(p + step, params) - michaelis_menten(p - step, params)
            for p, step in zip(po2[on][far], h)
        ]) / (2.0 * h)
        np.testing.assert_allclose(diff, slope[far], rtol=1e-6)
        # below 0: the tangent at 0, and no Newton correction term
        at_zero = volume * m0 / k
        np.testing.assert_allclose(d[~on], at_zero, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(s[~on], at_zero * po2[~on], rtol=1e-14, atol=0.0)
        assert not g[~on].any()


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

    def test_operator_exchange_is_the_law_per_sample(self, desk_grid):
        """The exchange block of the assembled operator, applied to a solved
        desk state, is G^T (area * `kedem_katchalsky_flux`) evaluated at
        each wall sample, to rounding, on every row it does not pin."""
        net, flow, operator, state, x = solved_desk_state(desk_grid)
        flow_params, params = FlowParameters(), OxygenParameters()
        # the same operator with both terms of the wall flux switched off
        closed = assemble_transport_operator(
            net, desk_grid, operator.coupling, flow,
            dataclasses.replace(flow_params, reflection=1.0),
            dataclasses.replace(params, wall_permeability=0.0),
        )
        exchange = operator.matrix @ x - closed.matrix @ x
        coupling = operator.coupling
        counts, table = np.diff(coupling.offsets), coupling.segments
        samples = zip(
            np.repeat(table.ids, counts).tolist(),
            coupling.cells,
            coupling.weight * np.repeat(table.length, counts),  # arc length s
        )
        flux = [
            kedem_katchalsky_flux(
                oracle.project_1d_to_surface(net, flow.p_v, sid, s), flow.p_t[cell],
                oracle.project_1d_to_surface(net, state.po2_v, sid, s), state.po2_t[cell],
                flow_params, params,
            )
            for sid, cell, s in samples
        ]
        want = coupling.jump_transpose(coupling.area * np.array(flux))
        free = np.setdiff1d(np.arange(x.size), operator.pinned)
        scale = abs(operator.matrix) @ np.abs(x)
        assert np.all(np.abs(exchange - want)[free] <= 1e-12 * scale[free])
        assert np.abs(want[free]).max() > 1e-6 * scale[free].max()  # not vacuous

    def test_zero_gradient_zero_filtration(self):
        fp = FlowParameters(wall_conductivity=0.0)
        op = OxygenParameters()
        assert kedem_katchalsky_flux(5000.0, 5000.0, 40.0, 40.0, fp, op) == 0.0


@pytest.mark.blas_threads
class TestCoupledOxygen:
    def test_keyed_views_are_derived_on_first_read(self, desk_grid):
        net, params = make_desk_network(), OxygenParameters()
        operator, flow = desk_operator(net, desk_grid, params)
        state = solve_oxygen(operator, params)
        views = {"p_v": flow, "sample_jp": flow, "po2_v": state}
        assert all(name not in vars(owner) for name, owner in views.items())
        nodes = operator.node_order
        assert flow.node_order == state.node_order == nodes
        assert list(flow.p_v) == list(state.po2_v) == nodes
        assert np.array_equal(list(flow.p_v.values()), flow.p_nodes)
        assert np.array_equal(list(state.po2_v.values()), state.po2_nodes)
        assert list(flow.sample_jp) == flow.segment_ids == sorted(net.segments)
        bounds = zip(flow.offsets[:-1], flow.offsets[1:])
        for jp, (lo, hi) in zip(flow.sample_jp.values(), bounds):
            assert np.shares_memory(jp, flow.jp)
            assert np.array_equal(jp, flow.jp[lo:hi])
        assert all(getattr(owner, name) is vars(owner)[name] for name, owner in views.items())
        # a map given to the constructor, as dataclasses.replace gives one, is kept
        assert dataclasses.replace(flow, p_v={}).p_v == {}
        assert dataclasses.replace(state, po2_v={}).po2_v == {}
        # the states keep the coupling's index arrays, not the coupling
        coupling = weakref.ref(operator.coupling)
        del operator
        gc.collect()
        assert coupling() is None

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
        boundary_po2 = classify_arterial_venous(net, flow, params)
        assert set(boundary_po2.values()) == {80.0, VENOUS_PO2}
        for nid, po2 in boundary_po2.items():
            assert state.po2_v[nid] == po2
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
        assert state.history[-1] <= 1e-8
        assert len(state.history) == state.iterations

    def test_newton_converges_fast_to_the_root(self, desk_grid):
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        state = solve_oxygen(operator, params)
        assert state.iterations <= 8
        assert oxygen_residual(operator, state, params) <= RESIDUAL_TOL

    def test_linear_work_reported(self, desk_grid):
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        state = solve_oxygen(operator, params)
        assert state.iterations == 5
        # GMRES iterations over all Newton steps, 12 when measured; each
        # step reuses one solver, starts from the Newton iterate (the cold
        # first step from M^-1 b) and stops at its Eisenstat-Walker forcing
        # term
        assert 0 < state.linear_iterations <= 14

    def test_newton_steps_start_at_the_iterate_on_the_paper_grid(self, unit_cube):
        # at 40x40x50 a step that may restart from M^-1 b discards its
        # iterate: the forcing term stayed at 0.5 through steps 3-5, and the
        # solve took 8 Newton steps and 81 GMRES iterations
        params = OxygenParameters()
        grid = build_grid(unit_cube, (40, 40, 50))
        operator, _ = desk_operator(make_desk_network(), grid, params)
        state = solve_oxygen(operator, params)
        assert state.iterations <= 6
        assert state.linear_iterations <= 55
        assert oxygen_residual(operator, state, params) <= RESIDUAL_TOL

    def test_perturbed_newton_solution_fails_residual_gate(self, desk_grid, monkeypatch):
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        solve = oxygen_module.LinearSolver.solve

        def perturbed(self, *args, **kwargs):
            x, iterations = solve(self, *args, **kwargs)
            x[0] *= 1.0 + 1e-8  # one tissue cell: a physics row
            return x, iterations

        monkeypatch.setattr(oxygen_module.LinearSolver, "solve", perturbed)
        # Newton still meets its update test; the row-scaled gate does not pass
        with pytest.raises(ConvergenceError, match="row-scaled") as failure:
            solve_oxygen(operator, params)
        assert failure.value.history

    def test_warm_step_multiplies_its_iterate_once(self, desk_grid, monkeypatch):
        """A warm Newton step that takes one GMRES cycle and its full step
        takes two full-size products outside the Krylov loop: (A + D) x
        and |A + D| |x| of the iterate the cycle ends on, which the gate,
        the merit and the next step's start all read. Before the solver
        kept them a step took six: two residuals of two products each, the
        merit and the row-scaled gate."""
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        products, cycles = outside_krylov(monkeypatch, operator.n_unknowns)
        solves, merits = [], []  # per linear solve: warm, counts at its start
        solve, served = oxygen_module.LinearSolver.solve, oxygen_module.LinearSolver.products

        def recorded(self, rhs, cell_diagonal=None, guess=None, forcing=0.0):
            solves.append((guess is not None, len(products), len(cycles), len(merits)))
            return solve(self, rhs, cell_diagonal, guess, forcing)

        def merit(self, x):
            merits.append(x)
            return served(self, x)

        monkeypatch.setattr(oxygen_module.LinearSolver, "solve", recorded)
        monkeypatch.setattr(oxygen_module.LinearSolver, "products", merit)
        state = solve_oxygen(operator, params)
        assert len(solves) == state.iterations  # no step redone tight
        ends = solves[1:] + [(None, len(products), len(cycles), len(merits))]
        steps = []  # per step: warm, its products, cycle log entries, merits
        for start, stop in zip(solves, ends):
            steps.append((start[0], *(end - at for end, at in zip(stop[1:], start[1:]))))
        # the first step's start is settled and multiplied, as is a cold one's;
        # a cycle logs its start and its end
        full = [count for _, count, logged, merits in steps[1:] if logged == 2 and merits == 1]
        assert len(full) >= 2 and all(warm for warm, *_ in steps[1:])
        assert max(full) <= 2

    def test_changed_iterate_is_never_served_kept_products(self, desk_grid, monkeypatch):
        """An iterate written into after its solve, and the x + t dx of a
        step that backtracks, are multiplied afresh: every A x and |A||x|
        the merit reads is that of its own x, to rounding."""
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        base = operator.matrix
        solve, served = oxygen_module.LinearSolver.solve, oxygen_module.LinearSolver.products
        restore = operator.restore
        forcings, restores, merits = [], [], []  # merits: (x is the kept iterate, error)

        def overshooting(self, rhs, cell_diagonal=None, guess=None, forcing=0.0):
            # the first warm step is turned round and its tight redo
            # overshoots three times: neither decreases ||F|| at t = 1
            x, iterations = solve(self, rhs, cell_diagonal, guess, forcing)
            forcings.append(forcing)
            if guess is not None and len(forcings) <= 3:
                x = guess - (x - guess) if len(forcings) == 2 else guess + 3.0 * (x - guess)
            return x, iterations

        def moving(x):
            restore(x)
            restores.append(len(merits))
            if len(restores) == 2:  # the first solve's answer, written into
                x[0] += 1.0

        def checked(self, x):
            kept = self.settled is not None and np.array_equal(x, self.settled.x)
            product, magnitude = served(self, x)
            want, scale = base @ x, abs(base) @ np.abs(x)
            scale_or_1 = np.where(scale > 0.0, scale, 1.0)
            error = max(np.max(np.abs(got - w) / scale_or_1)
                        for got, w in ((product, want), (magnitude, scale)))
            merits.append((kept, error))
            return product, magnitude

        monkeypatch.setattr(oxygen_module.LinearSolver, "solve", overshooting)
        monkeypatch.setattr(oxygen_module.LinearSolver, "products", checked)
        monkeypatch.setattr(operator, "restore", moving)
        state = solve_oxygen(operator, params)
        assert forcings[1] > 0.0 and forcings[2] == 0.0  # loose, redone tight
        assert merits[restores[1]][0] is False  # the written iterate
        # more merits than the first and one per solve: the redo backtracked
        assert len(merits) > 1 + len(forcings)
        assert max(error for _, error in merits) <= 1e-14
        assert oxygen_residual(operator, state, params) <= RESIDUAL_TOL

    def test_non_descent_loose_step_is_redone_tight(self, desk_grid, monkeypatch):
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        solve = oxygen_module.LinearSolver.solve
        forcings = []
        start = np.zeros(operator.n_unknowns)  # the cold start, which the
        operator.restore(start)  # first step solves from without a guess

        def reversed_once(self, rhs, cell_diagonal=None, guess=None, forcing=0.0):
            x, iterations = solve(self, rhs, cell_diagonal, guess, forcing)
            forcings.append(forcing)
            if len(forcings) == 1:
                assert guess is None
                x = 2.0 * start - x  # the step turned round: ||F|| grows along it
            return x, iterations

        monkeypatch.setattr(oxygen_module.LinearSolver, "solve", reversed_once)
        state = solve_oxygen(operator, params)
        assert forcings[0] > 0.0 and forcings[1] == 0.0
        assert len(forcings) == state.iterations + 1  # one step solved twice
        assert oxygen_residual(operator, state, params) <= RESIDUAL_TOL

    def test_loose_step_short_of_the_gate_is_followed_by_a_tight_one(
        self, desk_grid, monkeypatch
    ):
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        # a tol between the updates of the default solve's second and third
        # steps is met by the loose third step, whose row-scaled residual
        # is still above the gate
        updates = solve_oxygen(operator, params).history
        assert updates[1] > updates[2]
        tol = float(np.sqrt(updates[1] * updates[2]))
        solve = oxygen_module.LinearSolver.solve
        forcings = []

        def recorded(self, *args, **kwargs):
            forcings.append(kwargs["forcing"])
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(oxygen_module.LinearSolver, "solve", recorded)
        state = solve_oxygen(operator, params, tol=tol)
        assert state.history[-2] <= tol and forcings[-2] > 0.0
        assert forcings[-1] == 0.0 and len(forcings) == state.iterations
        assert oxygen_residual(operator, state, params) <= RESIDUAL_TOL

    @pytest.mark.parametrize("tol", [5e-3, 1e-2, 3e-2, 0.1, 0.3])
    def test_loose_tolerance_still_meets_the_gate(self, desk_grid, tol):
        # the update test is met while the row-scaled residual is far above
        # the gate; tight steps follow while they still halve it
        params = OxygenParameters()
        operator, _ = desk_operator(make_desk_network(), desk_grid, params)
        state = solve_oxygen(operator, params, tol=tol)
        assert state.history[-1] <= tol
        assert oxygen_residual(operator, state, params) <= RESIDUAL_TOL

    def test_zero_solution_reached(self, desk_grid):
        # No Dirichlet rows and no source: the root is PO2 = 0 everywhere,
        # where a purely relative update test can never be met.
        params = OxygenParameters()
        operator, _ = desk_operator(
            make_desk_network(), desk_grid, params, pin_boundary=False
        )
        assert not operator.dirichlet
        guess = np.full(operator.n_unknowns, 38.0)
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
        operator = assemble_transport_operator(
            net, desk_grid, coupling, flow, fp, params
        )
        cold = solve_oxygen(operator, params)
        guess = np.zeros(operator.n_unknowns)
        guess[: desk_grid.n_cells] = cold.po2_t
        for nid, idx in operator.node_index.items():
            guess[idx] = cold.po2_v[nid]
        warm = solve_oxygen(operator, params, initial_guess=guess)
        assert warm.iterations < cold.iterations
        assert np.allclose(warm.po2_t, cold.po2_t, atol=1e-6)

    def test_boundary_po2_is_an_input_of_the_assembly(self, desk_grid):
        """The assembly pins the `boundary_po2` map it is given, by default
        the classification of its flow, and rejects a map that lacks a
        boundary node."""
        net, fp, params = make_desk_network(), FlowParameters(), OxygenParameters()
        coupling = build_surface_coupling(desk_grid, net)
        flow = solve_flow(
            assemble_flow_system(net, desk_grid, coupling, RheologyParameters(), fp)
        )

        def assemble(*boundary_po2):
            return assemble_transport_operator(
                net, desk_grid, coupling, flow, fp, params, *boundary_po2
            )

        classified = classify_arterial_venous(net, flow, params)
        default, given = assemble(), assemble(classified)
        assert default.dirichlet == given.dirichlet == classified
        assert (default.matrix != given.matrix).nnz == 0
        assert np.array_equal(default.rhs, given.rhs)

        # every label swapped: pinned exactly, whatever the flow says
        swapped = {
            nid: VENOUS_PO2 if po2 == ARTERIAL_PO2 else ARTERIAL_PO2
            for nid, po2 in classified.items()
        }
        operator = assemble(swapped)
        assert operator.dirichlet == swapped
        state = solve_oxygen(operator, params)
        pinned = state.po2_nodes[operator.pinned - desk_grid.n_cells]
        assert pinned.tolist() == [swapped[nid] for nid in operator.dirichlet]

        missing = sorted(swapped)[1]
        with pytest.raises(StateError, match=f"boundary node {missing} "):
            assemble({nid: po2 for nid, po2 in swapped.items() if nid != missing})

    @pytest.mark.parametrize("case", list(INVALID_SETTINGS))
    def test_invalid_solver_settings(self, desk_grid, case):
        operator, _ = desk_operator(make_desk_network(), desk_grid, OxygenParameters())
        settings = INVALID_SETTINGS[case](operator.n_unknowns)
        with pytest.raises(ValidationError):
            solve_oxygen(operator, OxygenParameters(), **settings)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            OxygenParameters(diffusion_tissue=-1.0)
        with pytest.raises(ValidationError):
            OxygenParameters(max_consumption=-3.0)
