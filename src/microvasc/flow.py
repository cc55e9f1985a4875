"""Coupled stationary flow: 3D Darcy with a vessel-surface source and 1D
graph Poiseuille flow with Starling wall leakage.

Both compartments are assembled into one sparse linear system over
(tissue cells, network nodes) and solved monolithically. The exchange
terms on the 3D and 1D sides are built from the identical sample set of
the surface coupling, so total filtration agrees between the two sides
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError, ValidationError
from .grid import SurfaceCoupling, TissueGrid
from .network import VascularNetwork
from .rheology import RheologyParameters, segment_viscosity, vessel_conductance
from .units import MICROGRAM_PER_KG, WATER_DENSITY

RESIDUAL_TOL = 1.0e-10


@dataclass
class FlowParameters:
    tissue_permeability: float = 1.0e-18  # m^2
    interstitial_viscosity: float = 1.30e-3  # Pa*s
    wall_conductivity: float = 1.0e-12  # m/(Pa*s)
    reflection: float = 0.1  # dimensionless, in [0, 1]
    oncotic_vessel: float = 3733.0  # Pa
    oncotic_tissue: float = 666.0  # Pa

    def __post_init__(self):
        if self.tissue_permeability <= 0 or self.interstitial_viscosity <= 0:
            raise ValidationError("permeability and viscosity must be positive")
        if self.wall_conductivity < 0:
            raise ValidationError("wall conductivity must be nonnegative")
        if not 0.0 <= self.reflection <= 1.0:
            raise ValidationError("reflection coefficient must lie in [0, 1]")

    @property
    def oncotic_jump(self) -> float:
        return self.oncotic_vessel - self.oncotic_tissue


def starling_flux(p_v_wall: float, p_t_wall: float, params: FlowParameters) -> float:
    """Transmural plasma flux [m/s]: L_p((p_v - p_t) - sigma*(pi_v - pi_t))."""
    return params.wall_conductivity * (
        (p_v_wall - p_t_wall) - params.reflection * params.oncotic_jump
    )


@dataclass
class FlowState:
    p_t: np.ndarray  # per-cell pressure, Pa
    p_v: dict[int, float]  # per-node pressure, Pa
    u_v: dict[int, float]  # per-segment velocity along node_a -> node_b, m/s
    u_t: np.ndarray  # (n_cells, 3) Darcy velocity, m/s
    f_tv: float  # one-directional filtration into tissue, ug/s
    residual: float
    sample_jp: dict[int, np.ndarray] = field(default_factory=dict)
    boundary_flux: dict[int, float] = field(default_factory=dict)  # m^3/s, inflow > 0
    filtration_3d: float = 0.0  # net volumetric exchange, 3D-side sum, m^3/s
    filtration_1d: float = 0.0  # net volumetric exchange, 1D-side sum, m^3/s


class FlowSystem:
    """Assembled sparse system plus the index maps needed to interpret it."""

    def __init__(self, net, grid, coupling, rheology, params):
        self.net = net
        self.grid = grid
        self.coupling = coupling
        self.rheology = rheology
        self.params = params
        self.node_order = sorted(net.nodes)
        self.node_index = {
            nid: grid.n_cells + i for i, nid in enumerate(self.node_order)
        }
        self.conductance = {}
        self.viscosity = {}
        self.matrix = None
        self.rhs = None

    @property
    def n_unknowns(self) -> int:
        return self.grid.n_cells + len(self.node_order)


def _tissue_diffusion_entries(grid: TissueGrid, mobility: float, rows, cols, vals):
    """Two-point-flux Laplacian on the uniform grid; Neumann outer boundary."""
    nx, ny, nz = grid.cells_per_axis
    dx, dy, dz = grid.spacing
    face_t = [
        mobility * dy * dz / dx,
        mobility * dx * dz / dy,
        mobility * dx * dy / dz,
    ]
    idx = np.arange(grid.n_cells).reshape((nz, ny, nx))  # [k, j, i]
    for axis, t in zip((2, 1, 0), face_t):  # array axes: 2 -> x, 1 -> y, 0 -> z
        lo = np.take(idx, range(idx.shape[axis] - 1), axis=axis).ravel()
        hi = np.take(idx, range(1, idx.shape[axis]), axis=axis).ravel()
        for a, b in ((lo, hi), (hi, lo)):
            rows.append(a)
            cols.append(a)
            vals.append(np.full(a.shape, t))
            rows.append(a)
            cols.append(b)
            vals.append(np.full(a.shape, -t))


def assemble_flow_system(
    net: VascularNetwork,
    grid: TissueGrid,
    coupling: SurfaceCoupling,
    rheology: RheologyParameters,
    params: FlowParameters,
) -> FlowSystem:
    sys = FlowSystem(net, grid, coupling, rheology, params)
    n = sys.n_unknowns
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    rhs = np.zeros(n)

    mobility = params.tissue_permeability / params.interstitial_viscosity
    _tissue_diffusion_entries(grid, mobility, rows, cols, vals)

    dirichlet = {
        nid
        for nid in net.nodes
        if net.nodes[nid].kind == "boundary"
        and net.nodes[nid].boundary_pressure is not None
    }
    _check_1d_solvability(net, dirichlet, params)

    # 1D graph Laplacian with Poiseuille conductances
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        length, _ = net.segment_geometry(sid)
        mu = segment_viscosity(seg.radius, rheology)
        g = vessel_conductance(seg.radius, length, mu)
        sys.viscosity[sid] = mu
        sys.conductance[sid] = g
        ia, ib = sys.node_index[seg.node_a], sys.node_index[seg.node_b]
        for p, q in ((ia, ib), (ib, ia)):
            if sys.node_order[p - grid.n_cells] in dirichlet:
                continue
            rows.append(np.array([p, p]))
            cols.append(np.array([p, q]))
            vals.append(np.array([g, -g]))

    # Wall exchange over the shared sample set
    lp = params.wall_conductivity
    osm = params.reflection * params.oncotic_jump
    if lp > 0.0:
        for sid in sorted(net.segments):
            seg = net.segments[sid]
            sc = coupling.per_segment[sid]
            length, _ = net.segment_geometry(sid)
            la = lp * sc.sample_area
            w_b = sc.s / length
            w_a = 1.0 - w_b
            cells = sc.cells
            ia, ib = sys.node_index[seg.node_a], sys.node_index[seg.node_b]
            m = len(cells)
            # tissue rows: +la*p_t - la*(w_a p_a + w_b p_b) = -la*osm
            rows.append(cells)
            cols.append(cells)
            vals.append(np.full(m, la))
            rows.append(cells)
            cols.append(np.full(m, ia))
            vals.append(-la * w_a)
            rows.append(cells)
            cols.append(np.full(m, ib))
            vals.append(-la * w_b)
            np.add.at(rhs, cells, -la * osm)
            # vessel rows: node share w of  la*(Pi p_v - p_t) = la*osm,
            # with Pi p_v = w_a p_a + w_b p_b on each sample
            for node_row, w in ((ia, w_a), (ib, w_b)):
                if sys.node_order[node_row - grid.n_cells] in dirichlet:
                    continue
                m_idx = np.full(m, node_row)
                rows.append(m_idx)
                cols.append(np.full(m, ia))
                vals.append(la * w * w_a)
                rows.append(m_idx)
                cols.append(np.full(m, ib))
                vals.append(la * w * w_b)
                rows.append(m_idx)
                cols.append(cells)
                vals.append(-la * w)
                rhs[node_row] += float(np.sum(la * w * osm))
    else:
        # decoupled 3D Neumann problem: pin one tissue cell to remove null space
        rows.append(np.array([0]))
        cols.append(np.array([0]))
        vals.append(np.array([1.0]))

    # Dirichlet rows for boundary nodes
    for nid in sorted(dirichlet):
        r = sys.node_index[nid]
        rows.append(np.array([r]))
        cols.append(np.array([r]))
        vals.append(np.array([1.0]))
        rhs[r] = net.nodes[nid].boundary_pressure

    r = np.concatenate(rows)
    c = np.concatenate(cols)
    v = np.concatenate(vals)
    sys.matrix = sp.csr_matrix((v, (r, c)), shape=(n, n))
    sys.rhs = rhs
    sys.dirichlet = dirichlet
    return sys


def _check_1d_solvability(net, dirichlet, params):
    """With L_p = 0 every connected 1D component needs a Dirichlet node."""
    if params.wall_conductivity > 0.0:
        return
    seen: set[int] = set()
    for start in net.nodes:
        if start in seen:
            continue
        component = []
        stack = [start]
        seen.add(start)
        while stack:
            nid = stack.pop()
            component.append(nid)
            for sid in net.adjacency[nid]:
                other = net.segments[sid].other(nid)
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if not any(nid in dirichlet for nid in component):
            raise SolverError(
                f"1D component containing node {start} has no Dirichlet node "
                "and no wall coupling; system is singular"
            )


def scaled_residual(matrix, x, rhs, nonlinear=0.0) -> float:
    """Row-scaled residual max_i |(Ax + f - b)_i| / (sum_j |A_ij x_j| +
    |f_i| + |b_i|), with f an optional nonlinear term such as a sink.

    Every row, physics and Dirichlet alike, is measured against its own
    magnitude, so a bad solve fails the gate even where the coefficients
    are many orders below the Dirichlet rows' 1.
    """
    residual = np.abs(matrix @ x + nonlinear - rhs)
    scale = abs(matrix) @ np.abs(x) + np.abs(nonlinear) + np.abs(rhs)
    return float(np.max(residual / np.where(scale > 0.0, scale, 1.0)))


def _sparse_solve(matrix, rhs):
    x = spla.spsolve(matrix.tocsc(), rhs)
    residual = scaled_residual(matrix, x, rhs)
    if not residual <= RESIDUAL_TOL:
        raise SolverError(f"linear solve residual {residual:.3e} above tolerance")
    return x, residual


def solve_flow(system: FlowSystem) -> FlowState:
    net, grid, params = system.net, system.grid, system.params
    x, residual = _sparse_solve(system.matrix, system.rhs)
    p_t = x[: grid.n_cells]
    p_v = {nid: float(x[system.node_index[nid]]) for nid in system.node_order}

    u_v = {}
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        length, _ = net.segment_geometry(sid)
        dp = p_v[seg.node_b] - p_v[seg.node_a]
        u_v[sid] = -(seg.radius**2) / (8.0 * system.viscosity[sid]) * dp / length

    u_t = _cell_velocities(grid, p_t, params)

    sample_jp: dict[int, np.ndarray] = {}
    filtration = 0.0
    positive = 0.0
    for sid in sorted(net.segments):
        seg = net.segments[sid]
        sc = system.coupling.per_segment[sid]
        length, _ = net.segment_geometry(sid)
        w_b = sc.s / length
        pv_wall = (1.0 - w_b) * p_v[seg.node_a] + w_b * p_v[seg.node_b]
        jp = params.wall_conductivity * (
            (pv_wall - p_t[sc.cells]) - params.reflection * params.oncotic_jump
        )
        sample_jp[sid] = jp
        filtration += float(np.sum(jp) * sc.sample_area)
        positive += float(np.sum(jp[jp > 0.0]) * sc.sample_area)

    # 3D-side accumulation of the same exchange, summed in cell order
    filtration_3d = _filtration_from_tissue_side(system, p_t, p_v)

    f_tv = positive * WATER_DENSITY * MICROGRAM_PER_KG

    boundary_flux = _boundary_fluxes(system, p_v, sample_jp)

    return FlowState(
        p_t=p_t,
        p_v=p_v,
        u_v=u_v,
        u_t=u_t,
        f_tv=f_tv,
        residual=residual,
        sample_jp=sample_jp,
        boundary_flux=boundary_flux,
        filtration_3d=filtration_3d,
        filtration_1d=filtration,
    )


def _cell_velocities(grid: TissueGrid, p_t: np.ndarray, params: FlowParameters):
    """Cell-center Darcy velocity from two-point face differences.

    Outer boundary faces carry zero flux, matching the Neumann condition.
    """
    mobility = params.tissue_permeability / params.interstitial_viscosity
    nx, ny, nz = grid.cells_per_axis
    p = p_t.reshape((nz, ny, nx))
    u = np.zeros((nz, ny, nx, 3))
    for comp, (axis, h) in enumerate(zip((2, 1, 0), grid.spacing)):
        face = -mobility * np.diff(p, axis=axis) / h
        pad_shape = list(p.shape)
        pad_shape[axis] = 1
        zeros = np.zeros(pad_shape)
        lo = np.concatenate([zeros, face], axis=axis)
        hi = np.concatenate([face, zeros], axis=axis)
        u[..., comp] = 0.5 * (lo + hi)
    return u.reshape(grid.n_cells, 3)


def face_velocities(grid: TissueGrid, p_t: np.ndarray, params: FlowParameters):
    """Per-axis interior-face Darcy velocities, for upwinded transport.

    Returns a list of three arrays shaped like the cell grid with one fewer
    entry along the respective axis (array axes ordered [z, y, x]).
    """
    mobility = params.tissue_permeability / params.interstitial_viscosity
    nx, ny, nz = grid.cells_per_axis
    p = p_t.reshape((nz, ny, nx))
    out = []
    for axis, h in zip((2, 1, 0), grid.spacing):
        out.append(-mobility * np.diff(p, axis=axis) / h)
    return out


def _filtration_from_tissue_side(system, p_t, p_v):
    """Net exchange accumulated cell-by-cell (3D bookkeeping order)."""
    params = system.params
    per_cell = np.zeros(system.grid.n_cells)
    for sid in sorted(system.net.segments):
        seg = system.net.segments[sid]
        sc = system.coupling.per_segment[sid]
        length, _ = system.net.segment_geometry(sid)
        w_b = sc.s / length
        pv_wall = (1.0 - w_b) * p_v[seg.node_a] + w_b * p_v[seg.node_b]
        jp = params.wall_conductivity * (
            (pv_wall - p_t[sc.cells]) - params.reflection * params.oncotic_jump
        )
        np.add.at(per_cell, sc.cells, jp * sc.sample_area)
    return float(np.sum(per_cell))


def _boundary_fluxes(system, p_v, sample_jp):
    """Volumetric inflow at each Dirichlet node, wall-leak share included."""
    net, grid = system.net, system.grid
    out = {}
    for nid in sorted(system.dirichlet):
        flux = 0.0
        for sid in net.adjacency[nid]:
            seg = net.segments[sid]
            g = system.conductance[sid]
            flux += g * (p_v[nid] - p_v[seg.other(nid)])
            sc = system.coupling.per_segment[sid]
            length, _ = net.segment_geometry(sid)
            w_b = sc.s / length
            w = w_b if seg.node_b == nid else (1.0 - w_b)
            flux += float(np.sum(w * sample_jp[sid]) * sc.sample_area)
        out[nid] = flux
    return out
