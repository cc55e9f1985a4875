"""Coupled stationary flow: 3D Darcy with a vessel-surface source and 1D
graph Poiseuille flow with Starling wall leakage.

Both compartments are assembled into one sparse linear system over
(tissue cells, network nodes) and solved monolithically by
`linsolve.solve_linear`, multigrid-preconditioned GMRES, behind the
row-scaled residual gate. The wall exchange is the surface coupling's jump
operator G = [-C, Pi] weighted by the sample areas: the block
G^T diag(L_p a) G with right-hand side G^T (L_p a sigma dpi). Both sides
of the exchange come from the same product, so total filtration agrees
between them to rounding.

The module also holds the assembly pieces oxygen transport shares: the
Laplacian over an edge list (tissue faces, vessel segments) and the
Dirichlet-row helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import SolverError, ValidationError
from .grid import SurfaceCoupling, TissueGrid
from .linsolve import scaled_residual, solve_linear
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
        self.node_order = coupling.node_order
        self.node_index = coupling.node_index
        self.conductance = {}
        self.matrix = None
        self.rhs = None

    @property
    def n_unknowns(self) -> int:
        return self.grid.n_cells + len(self.node_order)


def edge_laplacian(lo, hi, weight, n: int) -> sp.csr_matrix:
    """n x n sum over edges of weight * (e_lo - e_hi)(e_lo - e_hi)^T."""
    rows = np.concatenate([lo, lo, hi, hi])
    cols = np.concatenate([lo, hi, hi, lo])
    vals = np.concatenate([weight, -weight, weight, -weight])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def pin_rows(matrix, rhs, values: dict[int, float]):
    """Dirichlet rows: replace each row r in `values` by an identity row
    with right-hand side values[r]."""
    rows = list(values)
    pinned = np.zeros(matrix.shape[0])
    pinned[rows] = 1.0
    rhs = rhs.copy()
    rhs[rows] = list(values.values())
    return (sp.diags(1.0 - pinned) @ matrix + sp.diags(pinned)).tocsr(), rhs


def assemble_flow_system(
    net: VascularNetwork,
    grid: TissueGrid,
    coupling: SurfaceCoupling,
    rheology: RheologyParameters,
    params: FlowParameters,
) -> FlowSystem:
    sys = FlowSystem(net, grid, coupling, rheology, params)
    n = sys.n_unknowns
    dirichlet = {
        nid
        for nid in net.nodes
        if net.nodes[nid].kind == "boundary"
        and net.nodes[nid].boundary_pressure is not None
    }
    _check_1d_solvability(coupling, dirichlet, params)

    # Poiseuille conductances on the graph, two-point fluxes in the tissue
    table = coupling.segments
    radius, length = table.radius.tolist(), table.length.tolist()
    mu = [segment_viscosity(r, rheology) for r in radius]
    g = [vessel_conductance(r, l, m) for r, l, m in zip(radius, length, mu)]
    sys.conductance = dict(zip(table.ids, g))
    lo, hi, area, h = grid.faces()
    mobility = params.tissue_permeability / params.interstitial_viscosity
    matrix = edge_laplacian(lo, hi, mobility * area / h, n)
    matrix += edge_laplacian(table.a, table.b, np.array(g), n)

    rhs = np.zeros(n)
    if params.wall_conductivity > 0.0:
        la = params.wall_conductivity * coupling.area
        matrix += coupling.G.T @ (sp.diags(la) @ coupling.G)
        rhs += coupling.G.T @ (la * (params.reflection * params.oncotic_jump))
    else:
        # decoupled 3D Neumann problem: pin one tissue cell to remove null space
        matrix += sp.csr_matrix(([1.0], ([0], [0])), shape=(n, n))

    sys.matrix, sys.rhs = pin_rows(matrix, rhs, {
        sys.node_index[nid]: net.nodes[nid].boundary_pressure for nid in dirichlet
    })
    sys.dirichlet = dirichlet
    return sys


def _check_1d_solvability(coupling, dirichlet, params):
    """With L_p = 0 every connected 1D component needs a Dirichlet node."""
    if params.wall_conductivity > 0.0:
        return
    table, first, nodes = coupling.segments, coupling.C.shape[1], len(coupling.node_order)
    graph = sp.csr_matrix(
        (np.ones(len(table.ids)), (table.a - first, table.b - first)), shape=(nodes, nodes)
    )
    count, component = connected_components(graph, directed=False)
    grounded = np.zeros(count, dtype=bool)
    grounded[component[[coupling.node_index[nid] - first for nid in dirichlet]]] = True
    floating = ~grounded[component]
    if floating.any():
        raise SolverError(
            f"1D component containing node {coupling.node_order[int(np.argmax(floating))]} "
            "has no Dirichlet node and no wall coupling; system is singular"
        )


def solve_flow(system: FlowSystem) -> FlowState:
    grid, params, coupling = system.grid, system.params, system.coupling
    table, n, n_all = coupling.segments, grid.n_cells, system.n_unknowns
    x, _ = solve_linear(system.matrix, system.rhs, grid.cells_per_axis)
    pinned = [system.node_index[nid] for nid in system.dirichlet]
    x[pinned] = system.rhs[pinned]  # rounding must not move pinned values
    residual = scaled_residual(system.matrix, x, system.rhs)
    if not residual <= RESIDUAL_TOL:
        raise SolverError(f"linear solve residual {residual:.3e} above tolerance")
    p_t = x[:n]
    g = np.array([system.conductance[sid] for sid in table.ids])
    q = g * (x[table.a] - x[table.b])  # Poiseuille flow node_a -> node_b, m^3/s

    jp = params.wall_conductivity * (
        coupling.jump(x) - params.reflection * params.oncotic_jump
    )
    exchange = coupling.area * jp  # m^3/s through each sample, out of the vessel
    wall = coupling.G.T @ exchange  # -C^T(a jp) on cells, Pi^T(a jp) on nodes
    # node inflow: Poiseuille flow away from the node plus its wall share
    inflow = np.bincount(table.a, q, n_all) - np.bincount(table.b, q, n_all) + wall
    return FlowState(
        p_t=p_t,
        p_v=dict(zip(system.node_order, x[n:].tolist())),
        u_v=dict(zip(table.ids, (q / (np.pi * table.radius**2)).tolist())),
        f_tv=float(np.sum(exchange[jp > 0.0])) * WATER_DENSITY * MICROGRAM_PER_KG,
        residual=residual,
        sample_jp=dict(zip(table.ids, np.split(jp, coupling.offsets[1:-1]))),
        boundary_flux={
            nid: float(inflow[system.node_index[nid]]) for nid in sorted(system.dirichlet)
        },
        filtration_3d=-float(np.sum(wall[:n])),
        filtration_1d=float(np.sum(exchange)),
    )


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
