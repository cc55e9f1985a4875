"""Coupled stationary flow: 3D Darcy with a vessel-surface source and 1D
graph Poiseuille flow with Starling wall leakage.

Both compartments are assembled into one sparse linear system over
(tissue cells, network nodes) and solved monolithically by
`linsolve.LinearSolver`, GMRES preconditioned on the tissue by a
cosine-transform solve (a multigrid V-cycle when the walls couple
strongly), behind the row-scaled residual gate, which reads the products
the solve formed of its answer (`LinearSolver.products`) rather than
multiplying it, or building |A|, again. The wall exchange is the surface
coupling's jump operator G = [-C, Pi] weighted by the sample areas: the
block G^T diag(L_p a) G with right-hand side G^T (L_p a sigma dpi), both
assembled from the coupling's per-pair moments with L_p at both ends of
every pair (`SurfaceCoupling.coupled_matrix` and `pair_transpose`). The
matrix is filled on the coupling's pattern: the grid's face Laplacian
scaled by the mobility, the Poiseuille conductances on the segment blocks
and the exchange, in a `grid.CoupledSystem` pinning pressure-boundary
nodes. A solved state's Starling flux is evaluated per wall sample, and
its filtration sums and boundary fluxes are G^T of those sample fluxes, so
the 3D and 1D totals of filtration agree to rounding.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import SolverError, ValidationError, require_finite
from .grid import CoupledSystem, SurfaceCoupling, TissueGrid
from .linsolve import LinearSolver, row_scaled
from .network import VascularNetwork
from .rheology import RheologyParameters, segment_viscosity, vessel_conductance
from .units import MICROGRAM_PER_KG, WATER_DENSITY

RESIDUAL_TOL = 1.0e-10
# a segment's 2x2 graph Laplacian per unit weight, in the order of
# `CoupledPattern.segment_at`: (a, a), (a, b), (b, a), (b, b)
GRAPH_LAPLACIAN = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass
class FlowParameters:
    tissue_permeability: float = 1.0e-18  # m^2
    interstitial_viscosity: float = 1.30e-3  # Pa*s
    wall_conductivity: float = 1.0e-12  # m/(Pa*s)
    reflection: float = 0.1  # dimensionless, in [0, 1]
    oncotic_vessel: float = 3733.0  # Pa
    oncotic_tissue: float = 666.0  # Pa

    def __post_init__(self):
        require_finite(self)
        if self.tissue_permeability <= 0 or self.interstitial_viscosity <= 0:
            raise ValidationError("permeability and viscosity must be positive")
        if self.wall_conductivity < 0:
            raise ValidationError("wall conductivity must be nonnegative")
        if not 0.0 <= self.reflection <= 1.0:
            raise ValidationError("reflection coefficient must lie in [0, 1]")

    @property
    def oncotic_jump(self) -> float:
        return self.oncotic_vessel - self.oncotic_tissue

    @property
    def mobility(self) -> float:
        """Darcy mobility k/mu of the interstitium, m^2/(Pa*s)."""
        return self.tissue_permeability / self.interstitial_viscosity


def starling_flux(p_v_wall: float, p_t_wall: float, params: FlowParameters) -> float:
    """Transmural plasma flux [m/s]: L_p((p_v - p_t) - sigma*(pi_v - pi_t))."""
    return params.wall_conductivity * (
        (p_v_wall - p_t_wall) - params.reflection * params.oncotic_jump
    )


@dataclass
class FlowState:
    """A solved pressure field, in the order of the coupling it was solved
    on: `p_nodes` by `node_order`, `velocity` by `segment_ids`, `jp` per
    wall sample, those of `segment_ids[k]` at `offsets[k]:offsets[k + 1]`.
    `p_v` and `sample_jp` key them by node and segment id for the benchmark,
    derived on first read unless given, as `dataclasses.replace` gives them.
    """

    p_t: np.ndarray  # per cell, Pa
    p_nodes: np.ndarray  # Pa
    velocity: np.ndarray  # along node_a -> node_b, m/s
    jp: np.ndarray  # Starling flux, m/s
    node_order: list[int]
    segment_ids: list[int]
    offsets: np.ndarray
    f_tv: float  # one-directional filtration into tissue, ug/s
    residual: float
    boundary_flux: dict[int, float] = field(default_factory=dict)  # m^3/s, inflow > 0
    filtration_3d: float = 0.0  # net volumetric exchange, 3D-side sum, m^3/s
    filtration_1d: float = 0.0  # net volumetric exchange, 1D-side sum, m^3/s
    linear_iterations: int = 0  # GMRES iterations of the solve
    p_v: InitVar[dict[int, float]]

    def __post_init__(self, p_v):
        # when not given, the InitVar's default is the view's descriptor
        if not isinstance(p_v, cached_property):
            vars(self)["p_v"] = p_v

    @cached_property
    def p_v(self) -> dict[int, float]:
        return dict(zip(self.node_order, self.p_nodes.tolist()))

    @cached_property
    def sample_jp(self) -> dict[int, np.ndarray]:
        bounds = self.offsets.tolist()
        return {sid: self.jp[lo:hi] for sid, lo, hi in zip(self.segment_ids, bounds, bounds[1:])}


@dataclass
class FlowSystem(CoupledSystem):
    """The pressure system, plus what `solve_flow` turns pressures into fluxes with."""

    params: FlowParameters
    conductance: np.ndarray  # per segment, in coupling.segments.ids order


def assemble_flow_system(
    net: VascularNetwork,
    grid: TissueGrid,
    coupling: SurfaceCoupling,
    rheology: RheologyParameters,
    params: FlowParameters,
) -> FlowSystem:
    dirichlet = {
        nid: node.boundary_pressure
        for nid, node in net.nodes.items()
        if node.kind == "boundary" and node.boundary_pressure is not None
    }
    _check_solvability(coupling, dirichlet, params)

    # Poiseuille conductances on the graph, two-point fluxes in the tissue
    table = coupling.segments
    conductance = vessel_conductance(
        table.radius, table.length, segment_viscosity(table.radius, rheology)
    )
    tissue = params.mobility * grid.laplacian.data
    graph = np.outer(GRAPH_LAPLACIAN, conductance)

    alpha = beta = None
    if params.wall_conductivity > 0.0:
        # constant along every pair: L_p at both ends
        lp = np.full((2, coupling.moments.shape[1]), params.wall_conductivity)
        alpha, beta = -lp, lp
        rhs = coupling.pair_transpose(lp * (params.reflection * params.oncotic_jump))
    else:
        # decoupled 3D Neumann problem: pin one tissue cell to remove null space
        tissue[grid.stencil[0][0]] += 1.0
        rhs = np.zeros(grid.n_cells + len(coupling.node_order))

    matrix = coupling.coupled_matrix(tissue, graph, alpha, beta)
    return FlowSystem(coupling, matrix, rhs, dirichlet, params, conductance)


def _check_solvability(coupling, dirichlet, params):
    """The network needs a Dirichlet node, or a constant pressure shift
    solves the homogeneous system; every node needs a segment; with L_p = 0
    every connected 1D component needs a Dirichlet node."""
    if not dirichlet:
        raise SolverError("no pressure-boundary node; system is singular")
    table, first, nodes = coupling.segments, coupling.grid.n_cells, len(coupling.node_order)
    isolated = np.bincount(np.concatenate([table.a, table.b]) - first, minlength=nodes) == 0
    if isolated.any():
        raise SolverError(f"node {coupling.node_order[int(np.argmax(isolated))]} has no segment")
    if params.wall_conductivity > 0.0:
        return
    graph = sp.csr_matrix(
        (np.ones(len(table.ids)), (table.a - first, table.b - first)), shape=(nodes, nodes)
    )
    _, component = connected_components(graph, directed=False)
    grounded = component[[coupling.node_index[nid] - first for nid in dirichlet]]
    floating = ~np.isin(component, grounded)
    if floating.any():
        raise SolverError(
            f"1D component containing node {coupling.node_order[int(np.argmax(floating))]} "
            "has no Dirichlet node and no wall coupling; system is singular"
        )


def solve_flow(system: FlowSystem) -> FlowState:
    grid, params, coupling = system.grid, system.params, system.coupling
    table, n, n_all = coupling.segments, grid.n_cells, system.n_unknowns
    solver = LinearSolver(system.matrix, grid, coupling.blocks)
    x, linear_iterations = solver.solve(system.rhs)
    system.restore(x)
    product, magnitude = solver.products(x)  # the solve's own, unless restore moved x
    del solver  # its LU and copies would otherwise sit under the per-sample passes below
    residual = float(np.max(row_scaled(product - system.rhs, magnitude, system.rhs)))
    if not residual <= RESIDUAL_TOL:
        raise SolverError(f"linear solve residual {residual:.3e} above tolerance")
    p_t = x[:n]
    # Poiseuille flow node_a -> node_b, m^3/s
    q = system.conductance * (x[table.a] - x[table.b])

    jp = params.wall_conductivity * (
        coupling.jump(x) - params.reflection * params.oncotic_jump
    )
    exchange = coupling.area * jp  # m^3/s through each sample, out of the vessel
    wall = coupling.jump_transpose(exchange)  # -C^T(a jp) on cells, Pi^T(a jp) on nodes
    # node inflow: Poiseuille flow away from the node plus its wall share
    inflow = np.bincount(table.a, q, n_all) - np.bincount(table.b, q, n_all) + wall
    return FlowState(
        p_t=p_t,
        p_nodes=x[n:],
        velocity=q / (np.pi * table.radius**2),
        jp=jp,
        node_order=coupling.node_order,
        segment_ids=table.ids,
        offsets=coupling.offsets,
        f_tv=float(np.sum(exchange[jp > 0.0])) * WATER_DENSITY * MICROGRAM_PER_KG,
        residual=residual,
        boundary_flux=dict(sorted(zip(system.dirichlet, inflow[system.pinned].tolist()))),
        filtration_3d=-float(np.sum(wall[:n])),
        filtration_1d=float(np.sum(exchange)),
        linear_iterations=linear_iterations,
    )
