"""Coupled stationary oxygen transport with Kedem-Katchalsky wall flux and
Michaelis-Menten tissue consumption, solved by Newton's method with one LU
factorization per state.

Partial pressures stay in mmHg; every transport coefficient multiplying
them is in SI, so both compartment balances carry units of mmHg*m^3/s.
The 1D advective-diffusive flux carries the cross-section factor pi*R^2,
which makes the 1D volumetric flow identical to the flow solver's and the
junction balance conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.linalg import norm

from .errors import ConvergenceError, StateError, ValidationError
from .flow import (
    RESIDUAL_TOL,
    FlowParameters,
    FlowState,
    face_velocities,
    scaled_residual,
)
from .grid import SurfaceCoupling, TissueGrid
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
    from .flow import starling_flux

    jp = starling_flux(p_v_wall, p_t_wall, flow_params)
    mean = 0.5 * (po2_v_wall + po2_t_wall)
    return (1.0 - flow_params.reflection) * jp * mean + oxy_params.wall_permeability * (
        po2_v_wall - po2_t_wall
    )


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
    the solver adds the Michaelis-Menten sink on the cell rows.
    """

    net: VascularNetwork
    grid: TissueGrid
    node_index: dict[int, int]
    base: sp.csr_matrix
    rhs: np.ndarray
    cell_volume: float
    params: OxygenParameters
    dirichlet: dict[int, float]


def assemble_transport_operator(
    net: VascularNetwork,
    grid: TissueGrid,
    coupling: SurfaceCoupling,
    flow: FlowState,
    flow_params: FlowParameters,
    params: OxygenParameters,
) -> TransportOperator:
    node_order = sorted(net.nodes)
    node_index = {nid: grid.n_cells + i for i, nid in enumerate(node_order)}
    n = grid.n_cells + len(node_order)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    rhs = np.zeros(n)

    dirichlet = {}
    for nid in net.boundary_nodes():
        node = net.nodes[nid]
        if node.boundary_po2 is None:
            raise StateError(
                f"boundary node {nid} has no oxygen value; run "
                "arterial/venous classification first"
            )
        dirichlet[nid] = node.boundary_po2

    _tissue_transport_entries(grid, flow, flow_params, params, rows, cols, vals)
    _vessel_transport_entries(
        net, flow, params, node_index, dirichlet, rows, cols, vals
    )
    _exchange_entries(
        net, grid, coupling, flow, flow_params, params, node_index, dirichlet,
        rows, cols, vals,
    )

    pinned = np.array([node_index[nid] for nid in sorted(dirichlet)], dtype=int)
    rows.append(pinned)
    cols.append(pinned)
    vals.append(np.ones(pinned.size))
    rhs[pinned] = [dirichlet[nid] for nid in sorted(dirichlet)]

    base = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return TransportOperator(
        net, grid, node_index, base, rhs, grid.cell_volume, params, dirichlet
    )


def _tissue_transport_entries(grid, flow, flow_params, params, rows, cols, vals):
    """Upwinded convection with the Darcy face velocities plus diffusion.

    Outer boundary faces are zero-flux for both terms, which realises the
    zero-total-flux boundary condition exactly (the Darcy normal velocity
    vanishes there by the Neumann flow condition).
    """
    nx, ny, nz = grid.cells_per_axis
    dx, dy, dz = grid.spacing
    areas = [dy * dz, dx * dz, dx * dy]
    diff_t = [params.diffusion_tissue * a / h for a, h in zip(areas, grid.spacing)]
    idx = np.arange(grid.n_cells).reshape((nz, ny, nx))
    faces = face_velocities(grid, flow.p_t, flow_params)
    for (axis, t, area, v) in zip((2, 1, 0), diff_t, areas, faces):
        lo = np.take(idx, range(idx.shape[axis] - 1), axis=axis).ravel()
        hi = np.take(idx, range(1, idx.shape[axis]), axis=axis).ravel()
        vflat = v.ravel() * area  # volumetric face flow lo -> hi
        up = np.where(vflat > 0.0, lo, hi)
        # diffusion
        for a, b in ((lo, hi), (hi, lo)):
            rows += [a, a]
            cols += [a, b]
            vals += [np.full(a.shape, t), np.full(a.shape, -t)]
        # upwinded advection: flux = vflat * po2[up], out of lo, into hi
        rows += [lo, hi]
        cols += [up, up]
        vals += [vflat, -vflat]


def _vessel_transport_entries(
    net, flow, params, node_index, dirichlet, rows, cols, vals
):
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        length, _ = net.segment_geometry(sid)
        area = math.pi * seg.radius**2
        q = flow.u_v[sid] * area  # volumetric flow node_a -> node_b
        d = params.diffusion_vessel * area / length
        ia, ib = node_index[seg.node_a], node_index[seg.node_b]
        up = ia if q > 0.0 else ib
        entries = [
            (ia, ia, d), (ia, ib, -d), (ib, ib, d), (ib, ia, -d),
            (ia, up, q), (ib, up, -q),
        ]
        for r, c, v in entries:
            nid = seg.node_a if r == ia else seg.node_b
            if nid in dirichlet:
                continue
            rows.append(np.array([r]))
            cols.append(np.array([c]))
            vals.append(np.array([v]))


def _exchange_entries(
    net, grid, coupling, flow, flow_params, params, node_index, dirichlet,
    rows, cols, vals,
):
    """Kedem-Katchalsky coupling over the shared sample set.

    Per sample the flux is linear in the unknown partial pressures:
    J = (1-sigma)*J_p*(po2_v + po2_t)/2 + L*(po2_v - po2_t).
    """
    sigma = flow_params.reflection
    lpo2 = params.wall_permeability
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        sc = coupling.per_segment[sid]
        length, _ = net.segment_geometry(sid)
        w_b = sc.s / length
        w_a = 1.0 - w_b
        jp = flow.sample_jp[sid]
        adv = 0.5 * (1.0 - sigma) * jp
        cv = (adv + lpo2) * sc.sample_area  # coefficient on po2_v_wall
        ct = (adv - lpo2) * sc.sample_area  # coefficient on po2_t
        cells = sc.cells
        ia, ib = node_index[seg.node_a], node_index[seg.node_b]
        m = len(cells)
        # tissue rows: -J*area moved left
        rows += [cells, cells, cells]
        cols += [cells, np.full(m, ia), np.full(m, ib)]
        vals += [-ct, -cv * w_a, -cv * w_b]
        # vessel rows: +J*area, split by nodal weight
        for node_id, node_row, w in ((seg.node_a, ia, w_a), (seg.node_b, ib, w_b)):
            if node_id in dirichlet:
                continue
            m_idx = np.full(m, node_row)
            rows += [m_idx, m_idx, m_idx]
            cols += [np.full(m, ia), np.full(m, ib), cells]
            vals += [w * cv * w_a, w * cv * w_b, w * ct]


# GMRES tolerance of one Newton step; at 1e-12 the exit gate held with only
# a 3x margin on grown networks, at 1e-14 with about 1000x.
_LINEAR_TOL = 1.0e-14
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


def _newton_solve(jacobian, rhs, lu):
    """Solve J(x) x_new = b + g(x), reusing the first Jacobian's LU.

    Only the consumption diagonal changes between Newton steps, so the LU of
    the first Jacobian preconditions GMRES at back-substitution cost; a
    stalled GMRES falls back to a fresh factorization.
    """
    csc = jacobian.tocsc()
    if lu is None:
        lu = spla.splu(csc)
        return lu.solve(rhs), lu
    precond = spla.LinearOperator(csc.shape, lu.solve, dtype=float)
    x, info = spla.gmres(csc, rhs, M=precond, rtol=_LINEAR_TOL, maxiter=50)
    if info != 0:
        lu = spla.splu(csc)
        x = lu.solve(rhs)
    return x, lu


def solve_oxygen(
    operator: TransportOperator,
    params: OxygenParameters,
    initial_guess: np.ndarray | None = None,
    tol: float = 1.0e-8,
    max_iter: int = 200,
) -> OxygenState:
    """Newton iteration on F(x) = B x + s(x) - b with Armijo backtracking.

    Each step solves J(x) x_new = b + g(x) with J = B + diag(s'(x)) and
    stops once ||x_new - x|| <= tol * max(||x_new||, po2_half). With zero
    consumption the problem is linear and the first solve is exact. On exit
    the row-scaled residual of F must be at most RESIDUAL_TOL.
    """
    if tol <= 0.0:
        raise ValidationError("tolerance must be positive")
    base, b, k = operator.base, operator.rhs, operator.params.po2_half
    x = np.zeros(len(b)) if initial_guess is None else np.array(initial_guess, float)
    pinned = [operator.node_index[nid] for nid in operator.dirichlet]
    x[pinned] = b[pinned]  # Dirichlet rows are identity rows
    m0, cells = operator.params.max_consumption, operator.grid.n_cells
    rate = np.zeros(len(b))
    rate[:cells] = operator.cell_volume * m0
    linear = m0 == 0.0
    s, d, g = _sink(rate, k, x)
    f_norm = norm(base @ x + s - b)
    history: list[float] = []
    lu = None
    for iterations in range(1, max_iter + 1):
        x_new, lu = _newton_solve(base + sp.diags(d), b + g, lu)
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
    index = operator.node_index
    po2_v = {nid: float(x[index[nid]]) for nid in sorted(operator.net.nodes)}
    # boundedness: clip rounding-level violations only
    po2_t = np.clip(x[:cells], 0.0, None)
    return OxygenState(po2_t, po2_v, iterations, history[-1], history)
