"""Coupled stationary oxygen transport with Kedem-Katchalsky wall flux and
Michaelis-Menten tissue consumption, solved by an inexact Newton method.
One `linsolve.LinearSolver`, the multigrid-preconditioned GMRES the flow
solve uses too, is built per `solve_oxygen` from the affine operator, on
the multigrid plan its grid keeps for every solve; each Newton step adds
only its sink derivative on the cell diagonal, starts GMRES from the
Newton iterate when that is the better start, and stops it at the
Eisenstat-Walker forcing term (Eisenstat & Walker, SIAM J. Sci. Comput.
17, 1996; Knoll & Keyes, J. Comput. Phys. 193, 2004), so the early steps
are solved loosely and the last ones tightly.

Partial pressures stay in mmHg; every transport coefficient multiplying
them is in SI, so both compartment balances carry units of mmHg*m^3/s.
The 1D advective-diffusive flux carries the cross-section factor pi*R^2,
which makes the 1D volumetric flow identical to the flow solver's and the
junction balance conservative. The operator is filled on the same
coupled pattern as the flow's (`SurfaceCoupling.coupled_matrix`), with the
same node index, face list and face Laplacian, in the flow's system type,
a `grid.CoupledSystem`, pinning every boundary node.
The oxygen boundary data, the PO2 of each arterial and venous
pressure-boundary node, comes from the run's `OxygenParameters` through
`classify_arterial_venous`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import norm

from .errors import ConvergenceError, StateError, ValidationError
from .flow import GRAPH_LAPLACIAN, RESIDUAL_TOL, FlowParameters, FlowState, starling_flux
from .grid import CoupledSystem, SurfaceCoupling, TissueGrid
from .linsolve import LinearSolver, absolute, scaled_residuals
from .network import VascularNetwork


@dataclass
class OxygenParameters:
    diffusion_vessel: float = 5.00e-5  # m^2/s
    diffusion_tissue: float = 1.35e-7  # m^2/s
    wall_permeability: float = 3.50e-5  # m/s
    max_consumption: float = 3.00  # mmHg/s
    po2_half: float = 1.00  # mmHg
    arterial_po2: float = 75.0  # mmHg
    venous_po2: float = 38.0  # mmHg

    def __post_init__(self):
        for name in ("diffusion_vessel", "diffusion_tissue", "po2_half",
                     "arterial_po2", "venous_po2"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be positive")
        for name in ("wall_permeability", "max_consumption"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be nonnegative")


def michaelis_menten(po2: float, params: OxygenParameters) -> float:
    """Saturating consumption rate m0 * po2 / (po2 + po2_half) in mmHg/s."""
    if po2 < 0.0:
        raise ValidationError("partial pressure must be nonnegative")
    return params.max_consumption * po2 / (po2 + params.po2_half)


def kedem_katchalsky_flux(
    p_v_wall: float,
    p_t_wall: float,
    po2_v_wall: float,
    po2_t_wall: float,
    flow_params: FlowParameters,
    oxy_params: OxygenParameters,
) -> float:
    """Oxygen wall flux [mmHg*m/s]: advective drag plus diffusive permeation."""
    jp = starling_flux(p_v_wall, p_t_wall, flow_params)
    mean = 0.5 * (po2_v_wall + po2_t_wall)
    return (1.0 - flow_params.reflection) * jp * mean + oxy_params.wall_permeability * (
        po2_v_wall - po2_t_wall
    )


def classify_arterial_venous(
    net: VascularNetwork, flow, params: OxygenParameters = OxygenParameters()
) -> dict[int, str]:
    """Label every boundary node artery/vein from the segment velocities.

    A boundary node whose terminal segment moves blood slower than the
    network-wide mean velocity magnitude is a vein (low-velocity side);
    ties go to artery. The label's boundary PO2, `params.venous_po2` or
    `params.arterial_po2`, is written onto the node.
    """
    if flow is None:
        raise StateError("classification requires a converged flow state")
    speed = np.abs(flow.velocity)
    if not speed.size:
        return {}
    ends = [nid for nid in net.boundary_nodes() if net.adjacency[nid]]
    terminal = np.searchsorted(flow.segment_ids, [net.adjacency[nid][0] for nid in ends])
    labels: dict[int, str] = {}
    for nid, vein in zip(ends, (speed[terminal] < np.mean(speed)).tolist()):
        labels[nid] = "vein" if vein else "artery"
        net.nodes[nid].boundary_po2 = params.venous_po2 if vein else params.arterial_po2
    return labels


@dataclass
class OxygenState:
    """A solved PO2 field: `po2_nodes` by `node_order`, the order of the
    coupling it was solved on. `po2_v` keys it by node id for the benchmark,
    derived on first read unless given, as `dataclasses.replace` gives it."""

    po2_t: np.ndarray  # per cell, mmHg
    po2_nodes: np.ndarray  # mmHg
    node_order: list[int]
    iterations: int  # Newton steps
    history: list[float] = field(default_factory=list)
    linear_iterations: int = 0  # GMRES iterations summed over the Newton steps
    po2_v: InitVar[dict[int, float]]

    def __post_init__(self, po2_v):
        # when not given, the InitVar's default is the view's descriptor
        if not isinstance(po2_v, cached_property):
            vars(self)["po2_v"] = po2_v

    @cached_property
    def po2_v(self) -> dict[int, float]:
        return dict(zip(self.node_order, self.po2_nodes.tolist()))


def assemble_transport_operator(
    net: VascularNetwork,
    grid: TissueGrid,
    coupling: SurfaceCoupling,
    flow: FlowState,
    flow_params: FlowParameters,
    params: OxygenParameters,
) -> CoupledSystem:
    """Convection-diffusion in both compartments plus the Kedem-Katchalsky
    exchange block G^T [diag(c_t) C, diag(c_v) Pi].

    Per sample the wall flux is linear in the partial pressures:
    J = (1-sigma)*J_p*(po2_v + po2_t)/2 + L*(po2_v - po2_t), so
    J*a = c_t po2_t + c_v po2_v with c_t, c_v = ((1-sigma)*J_p/2 -/+ L)*a.
    Outer tissue faces are zero-flux for both terms, which realises the
    zero-total-flux boundary condition exactly (the Darcy normal velocity
    vanishes there by the Neumann flow condition).
    """
    dirichlet = {nid: net.nodes[nid].boundary_po2 for nid in net.boundary_nodes()}
    unset = [nid for nid, po2 in dirichlet.items() if po2 is None]
    if unset:
        raise StateError(
            f"boundary node {unset[0]} has no oxygen value; run "
            "arterial/venous classification first"
        )
    table = coupling.segments

    # upwinded convection: volumetric flow v out of lo into hi (tissue faces)
    # and q out of node_a into node_b (vessels), carrying po2 of the upwind end
    lo, hi, area, h = grid.faces()
    v = -flow_params.mobility * (flow.p_t[hi] - flow.p_t[lo]) / h * area
    laplacian = grid.laplacian
    tissue = params.diffusion_tissue * laplacian.data + np.bincount(
        grid.stencil[1].ravel(), _upwind(v).ravel(), laplacian.nnz
    )
    cross = np.pi * table.radius**2
    q = flow.velocity * cross
    graph = np.outer(GRAPH_LAPLACIAN, params.diffusion_vessel * cross / table.length) + _upwind(q)

    adv = 0.5 * (1.0 - flow_params.reflection) * flow.jp
    c_t = (adv - params.wall_permeability) * coupling.area
    c_v = (adv + params.wall_permeability) * coupling.area

    matrix = coupling.coupled_matrix(tissue, graph, c_t, c_v)
    return CoupledSystem(coupling, matrix, np.zeros(matrix.shape[0]), dirichlet)


def _upwind(flux: np.ndarray) -> np.ndarray:
    """Upwinded convection of a flux out of lo into hi, carrying the value
    of its upwind end, as the (lo, lo), (lo, hi), (hi, lo), (hi, hi) rows of
    a (4, edges) array."""
    up = flux > 0.0
    from_lo, from_hi = np.where(up, flux, 0.0), np.where(up, 0.0, flux)
    return np.stack([from_lo, from_hi, -from_lo, -from_hi])


_ARMIJO = 1.0e-4  # sufficient decrease of ||F|| along a Newton step
_MAX_HALVINGS = 30
# Eisenstat-Walker forcing, their choice 2: the first step's GMRES reduces
# its residual by FORCING_MAX, each later one by
# FORCING_GAMMA * (phi_new / phi)^2, phi the row-scaled 2-norm of F, at
# most FORCING_MAX and at least FORCING_GAMMA * eta_prev^2 while that
# exceeds FORCING_SAFEGUARD.
FORCING_MAX = 0.5
FORCING_GAMMA = 0.9
FORCING_SAFEGUARD = 0.1


def _sink(rate: np.ndarray, k: float, x: np.ndarray):
    """Michaelis-Menten sink s = rate*x / (max(x, 0) + k), its derivative d
    and the Newton right-hand-side term g = d*x - s.

    `rate` is V*m0 on cell rows and 0 on vessel rows. Below zero the sink is
    linear, so g vanishes there exactly and a zero solution is reached
    exactly rather than approached through rounding noise.
    """
    pos = np.maximum(x, 0.0)
    den = pos + k
    return rate * x / den, rate * k / den**2, -rate * (pos / den) ** 2


def _decreases(f_new: float, f_norm: float, t: float, forcing: float) -> bool:
    """The inexact-Newton Armijo test for the fraction t of a step whose
    linear solve met the forcing term."""
    return f_new <= (1.0 - _ARMIJO * t * (1.0 - forcing)) * f_norm


def solve_oxygen(
    system: CoupledSystem,
    params: OxygenParameters,
    initial_guess: np.ndarray | None = None,
    tol: float = 1.0e-8,
    max_iter: int = 200,
) -> OxygenState:
    """Inexact Newton iteration on F(x) = B x + s(x) - b with Armijo
    backtracking.

    Each step solves J(x) x_new = b + g(x) with J = B + diag(s'(x)) and
    stops once ||x_new - x|| <= tol * max(||x_new||, po2_half). The sink
    (max_consumption, po2_half) comes from `params` alone. With zero
    consumption the problem is linear and the first solve is the answer. On
    exit the row-scaled residual of F must be at most RESIDUAL_TOL.

    The linear solver is built once from B: the sink acts on cell rows
    only, so each step changes nothing but the cell diagonal, and GMRES
    may start from the iterate x, whose residual for the step is F(x).
    GMRES stops at the Eisenstat-Walker forcing term (0 when the problem
    is linear). The Armijo test stays on the unscaled ||F||, relaxed by
    (1 - eta). Two safeguards keep the loose steps honest: a loose step
    that fails that test at t = 1 is redone from the same x with eta = 0
    rather than backtracked along, and a step that meets the update test
    but not the row-scaled gate is followed by one with eta = 0, as long as
    the last one still halved the row-scaled 2-norm of F.
    """
    if tol <= 0.0:
        raise ValidationError("tolerance must be positive")
    if max_iter < 1:
        raise ValidationError("at least one Newton iteration is needed")
    base, b, k = system.matrix, system.rhs, params.po2_half
    x = np.zeros(len(b)) if initial_guess is None else np.array(initial_guess, float)
    system.restore(x)  # Dirichlet rows are identity rows
    m0, cells = params.max_consumption, system.grid.n_cells
    rate = np.zeros(len(b))
    rate[:cells] = system.grid.cell_volume * m0

    def merit(x):
        sink = _sink(rate, k, x)
        return norm(base @ x + sink[0] - b), sink

    linear = m0 == 0.0
    magnitude = absolute(base)
    f_norm, (s, d, g) = merit(x)
    phi = norm(scaled_residuals(base, x, b, s, magnitude))
    forcing = 0.0 if linear else FORCING_MAX
    solver = LinearSolver(base, system.grid)
    history: list[float] = []
    linear_iterations = 0
    for iterations in range(1, max_iter + 1):
        for forcing in (forcing, 0.0):  # the second pass redoes a loose step tight
            x_new, steps = solver.solve(b + g, d[:cells], guess=x, forcing=forcing)
            linear_iterations += steps
            system.restore(x_new)
            step = x_new - x
            converged = linear or norm(step) <= tol * max(norm(x_new), k)
            f_new, sink = merit(x_new)
            if converged or forcing == 0.0 or _decreases(f_new, f_norm, 1.0, forcing):
                break
        t, halvings = 1.0, 0
        while not (converged or _decreases(f_new, f_norm, t, forcing)):  # Armijo
            halvings += 1
            if halvings == _MAX_HALVINGS:
                raise ConvergenceError(
                    f"Newton step {iterations} found no decrease of ||F||", history
                )
            t *= 0.5
            x_new = x + t * step
            f_new, sink = merit(x_new)
        history.append(norm(x_new - x) / max(norm(x_new), k))
        x, f_norm, (s, d, g) = x_new, f_new, sink
        rows = scaled_residuals(base, x, b, s, magnitude)
        residual = float(np.max(rows))
        phi_new = norm(rows)
        # a converged step short of the gate is followed by a tight one; a
        # tight one that no longer halves phi has stalled and fails the gate
        if converged and (
            residual <= RESIDUAL_TOL or (forcing == 0.0 and phi_new > 0.5 * phi)
        ):
            break
        if converged:
            forcing = 0.0
        else:
            floor = FORCING_GAMMA * forcing**2
            forcing = min(FORCING_MAX, FORCING_GAMMA * (phi_new / phi) ** 2)
            if floor > FORCING_SAFEGUARD:
                forcing = max(forcing, floor)
        phi = phi_new
    else:
        raise ConvergenceError(
            f"Newton did not converge in {max_iter} iterations "
            f"(last update {history[-1]:.3e})",
            history,
        )
    if not residual <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"row-scaled oxygen residual {residual:.3e} above {RESIDUAL_TOL:.0e}",
            history,
        )
    # boundedness: clip rounding-level violations only
    po2_t = np.clip(x[:cells], 0.0, None)
    return OxygenState(
        po2_t, x[cells:], system.node_order, iterations, history, linear_iterations
    )
