"""Coupled stationary oxygen transport with Kedem-Katchalsky wall flux and
Michaelis-Menten tissue consumption, solved by Newton's method; every
Newton step is one `linsolve.solve_linear` call, the multigrid-preconditioned
GMRES the flow solve uses too.

Partial pressures stay in mmHg; every transport coefficient multiplying
them is in SI, so both compartment balances carry units of mmHg*m^3/s.
The 1D advective-diffusive flux carries the cross-section factor pi*R^2,
which makes the 1D volumetric flow identical to the flow solver's and the
junction balance conservative. The wall exchange is built from the same
surface-coupling operators as the flow's (see `grid.SurfaceCoupling`), on
the same node index, face list and Dirichlet-row helper. The oxygen
boundary data, the PO2 of each arterial and venous pressure-boundary node,
comes from the run's `OxygenParameters` through `classify_arterial_venous`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.linalg import norm

from .errors import ConvergenceError, StateError, ValidationError
from .flow import (
    RESIDUAL_TOL,
    FlowParameters,
    FlowState,
    edge_laplacian,
    face_velocities,
    pin_rows,
    starling_flux,
)
from .grid import SurfaceCoupling, TissueGrid
from .linsolve import scaled_residual, solve_linear
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
    if flow is None or flow.u_v is None:
        raise StateError("classification requires a converged flow state")
    speeds = {sid: abs(flow.u_v[sid]) for sid in net.segments}
    if not speeds:
        return {}
    avg = sum(speeds.values()) / len(speeds)
    labels: dict[int, str] = {}
    for nid in net.boundary_nodes():
        incident = net.adjacency[nid]
        if not incident:
            continue
        v = speeds[incident[0]]
        label = "vein" if v < avg else "artery"
        labels[nid] = label
        net.nodes[nid].boundary_po2 = (
            params.venous_po2 if label == "vein" else params.arterial_po2
        )
    return labels


@dataclass
class OxygenState:
    po2_t: np.ndarray  # per-cell, mmHg
    po2_v: dict[int, float]  # per-node, mmHg
    iterations: int
    update_norm: float
    history: list[float] = field(default_factory=list)


@dataclass
class TransportOperator:
    """Affine part of the transport problem in (po2_t, po2_v).

    `base` holds convection, diffusion, exchange and the Dirichlet rows;
    `solve_oxygen` adds the Michaelis-Menten sink of the parameters it is
    given on the cell rows.
    """

    net: VascularNetwork
    grid: TissueGrid
    node_index: dict[int, int]
    base: sp.csr_matrix
    rhs: np.ndarray
    dirichlet: dict[int, float]


def assemble_transport_operator(
    net: VascularNetwork,
    grid: TissueGrid,
    coupling: SurfaceCoupling,
    flow: FlowState,
    flow_params: FlowParameters,
    params: OxygenParameters,
) -> TransportOperator:
    """Convection-diffusion in both compartments plus the Kedem-Katchalsky
    exchange block G^T [diag(c_t) C, diag(c_v) Pi].

    Per sample the wall flux is linear in the partial pressures:
    J = (1-sigma)*J_p*(po2_v + po2_t)/2 + L*(po2_v - po2_t), so
    J*a = c_t po2_t + c_v po2_v with c_t, c_v = ((1-sigma)*J_p/2 -/+ L)*a.
    Outer tissue faces are zero-flux for both terms, which realises the
    zero-total-flux boundary condition exactly (the Darcy normal velocity
    vanishes there by the Neumann flow condition).
    """
    dirichlet = {}
    for nid in net.boundary_nodes():
        node = net.nodes[nid]
        if node.boundary_po2 is None:
            raise StateError(
                f"boundary node {nid} has no oxygen value; run "
                "arterial/venous classification first"
            )
        dirichlet[nid] = node.boundary_po2
    table = coupling.segments
    n = grid.n_cells + len(coupling.node_order)

    # upwinded convection: volumetric flow v out of lo into hi (tissue faces)
    # and q out of node_a into node_b (vessels), carrying po2 of the upwind end
    lo, hi, area, h = grid.faces()
    v = np.concatenate([f.ravel() for f in face_velocities(grid, flow.p_t, flow_params)])
    v *= area
    cross = np.pi * table.radius**2
    q = np.array([flow.u_v[sid] for sid in table.ids]) * cross
    out = np.concatenate([lo, table.a])
    into = np.concatenate([hi, table.b])
    upwind = np.concatenate([np.where(v > 0.0, lo, hi), np.where(q > 0.0, table.a, table.b)])
    flux = np.concatenate([v, q])
    convection = sp.csr_matrix(
        (np.concatenate([flux, -flux]), (np.concatenate([out, into]), np.tile(upwind, 2))),
        shape=(n, n),
    )

    jp = np.concatenate([flow.sample_jp[sid] for sid in table.ids])
    adv = 0.5 * (1.0 - flow_params.reflection) * jp
    c_t = (adv - params.wall_permeability) * coupling.area
    c_v = (adv + params.wall_permeability) * coupling.area
    exchange = coupling.G.T @ sp.hstack(
        [sp.diags(c_t) @ coupling.C, sp.diags(c_v) @ coupling.Pi], format="csr"
    )

    matrix = (
        edge_laplacian(lo, hi, params.diffusion_tissue * area / h, n)
        + edge_laplacian(table.a, table.b, params.diffusion_vessel * cross / table.length, n)
        + convection
        + exchange
    )
    base, rhs = pin_rows(
        matrix, np.zeros(n), {coupling.node_index[nid]: po2 for nid, po2 in dirichlet.items()}
    )
    return TransportOperator(net, grid, coupling.node_index, base, rhs, dirichlet)


_ARMIJO = 1.0e-4  # sufficient decrease of ||F|| along a Newton step
_MAX_HALVINGS = 30


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


def solve_oxygen(
    operator: TransportOperator,
    params: OxygenParameters,
    initial_guess: np.ndarray | None = None,
    tol: float = 1.0e-8,
    max_iter: int = 200,
) -> OxygenState:
    """Newton iteration on F(x) = B x + s(x) - b with Armijo backtracking.

    Each step solves J(x) x_new = b + g(x) with J = B + diag(s'(x)) and
    stops once ||x_new - x|| <= tol * max(||x_new||, po2_half). The sink
    (max_consumption, po2_half) comes from `params` alone. With zero
    consumption the problem is linear and the first solve is the answer. On
    exit the row-scaled residual of F must be at most RESIDUAL_TOL.
    """
    if tol <= 0.0:
        raise ValidationError("tolerance must be positive")
    base, b, k = operator.base, operator.rhs, params.po2_half
    x = np.zeros(len(b)) if initial_guess is None else np.array(initial_guess, float)
    pinned = [operator.node_index[nid] for nid in operator.dirichlet]
    x[pinned] = b[pinned]  # Dirichlet rows are identity rows
    m0, cells = params.max_consumption, operator.grid.n_cells
    rate = np.zeros(len(b))
    rate[:cells] = operator.grid.cell_volume * m0
    linear = m0 == 0.0
    s, d, g = _sink(rate, k, x)
    f_norm = norm(base @ x + s - b)
    history: list[float] = []
    for iterations in range(1, max_iter + 1):
        x_new, _ = solve_linear(base + sp.diags(d), b + g, operator.grid.cells_per_axis)
        x_new[pinned] = b[pinned]  # rounding must not move pinned values
        step = x_new - x
        converged = linear or norm(step) <= tol * max(norm(x_new), k)
        t = 1.0
        for _ in range(_MAX_HALVINGS):  # backtrack on ||F|| (Armijo)
            s, d, g = _sink(rate, k, x_new)
            f_new = norm(base @ x_new + s - b)
            if converged or f_new <= (1.0 - _ARMIJO * t) * f_norm:
                break
            t *= 0.5
            x_new = x + t * step
        else:
            raise ConvergenceError(
                f"Newton step {iterations} found no decrease of ||F||", history
            )
        f_norm = f_new
        history.append(norm(x_new - x) / max(norm(x_new), k))
        x = x_new
        if converged:
            break
    else:
        raise ConvergenceError(
            f"Newton did not converge in {max_iter} iterations "
            f"(last update {history[-1]:.3e})",
            history,
        )
    residual = scaled_residual(base, x, b, s)
    if not residual <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"row-scaled oxygen residual {residual:.3e} above {RESIDUAL_TOL:.0e}",
            history,
        )
    po2_v = dict(zip(operator.node_index, x[cells:].tolist()))  # unknown order
    # boundedness: clip rounding-level violations only
    po2_t = np.clip(x[:cells], 0.0, None)
    return OxygenState(po2_t, po2_v, iterations, history[-1], history)
