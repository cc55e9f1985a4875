"""Uniform hexahedral tissue mesh and the discretized 3D-1D exchange operator.

A `TissueGrid` builds what depends on it alone once, on first use, and
keeps it for every solve on it (flow, oxygen, each Newton step, each
growth state): its interior faces, the face Laplacian with unit
coefficient, whose sparsity every tissue block shares, where each face's
entries sit in that Laplacian, and, for the linear solver's cosine solve,
the orthonormal DCT-II matrix of each axis, the Laplacian's eigenvalues
in that basis and what the fit of a block to it takes from the grid
alone (`CosineFit`); only when a tissue block takes the V-cycle, the
solver's `MultigridPlan`. They are kept on the instance, not in the
module, so a new grid starts afresh.

The Dirac surface measure concentrated on the vessel walls is discretised
by equal-area point sampling of each cylinder's lateral surface on an
(arc length, angle) lattice; each sample carries area 2*pi*R*l/(n_ax*n_ang)
and is charged to the finite volume cell containing it, so per-segment
area sums are exact by construction. Sample points are built and located
as (3, n) arrays, one contiguous row per axis.

On the samples, C maps cell values to samples (one 1 per sample), Pi
interpolates nodal values with weights w_a = 1 - s/l and w_b = s/l, and
G = [-C, Pi] is the vessel-minus-tissue jump on the wall. Flow and oxygen
both need blocks G^T [diag(alpha) C, diag(beta) Pi], and every coefficient
either takes is affine along a segment within one (segment, cell) pair:
a (gamma_a w_a + gamma_b w_b) per sample, a its area, given by its end
values gamma_a and gamma_b. Each entry of such a block is then a sum of
the pair's moments m_ij = sum a w_a^i w_b^j times end values, so
`SurfaceCoupling` reduces its samples once, to the moments with i + j = 3
(those with i + j = 2 are their sums, since w_a + w_b = 1), and never
forms C, Pi or G. The samples of a ring share w_b and a, so it reduces the
runs of one cell within a ring (about a fifth of the samples on a lattice
of capillaries), then sums the runs by pair. It keeps the flat sample
arrays (cell, weight w_b, area, segment by segment), for the per-sample
fluxes of a solved state, and the CSR pattern of the coupled (cells,
nodes) system, built once per coupling with the position of every
assembled term in it. An assembly is then one bincount of per-pair and
per-segment terms onto those positions, O(pairs + segments): the same
algebra as the sparse products, summed in another order. From the same
pattern the coupling also makes, on first use, the linear solver's
`BlockPlan` (`SurfaceCoupling.blocks`): where the tissue, node and
off-diagonal blocks sit in the data, so the flow and oxygen solvers of a
state gather their blocks without slicing.

`CoupledSystem` is the one system type of flow and oxygen, and the one
place that writes the rows of pinned (Dirichlet) nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .linsolve import BlockPlan, CosineFit, MultigridPlan, block_plan, csr_pattern
from .network import DomainBox, NetworkTable, VascularNetwork


class TissueGrid:
    """Cell-centered uniform grid tiling a box; linear index i + nx*(j + ny*k).

    `faces`, `laplacian`, `stencil`, `cosine_basis`, `eigenvalues`,
    `cosine_fit` and `multigrid` are built on first use and kept.
    """

    def __init__(self, box: DomainBox, cells_per_axis):
        counts = tuple(int(c) for c in cells_per_axis)
        if counts != tuple(cells_per_axis):
            raise ValidationError(f"cell counts must be integers, got {list(cells_per_axis)}")
        if len(counts) != 3 or any(c < 2 for c in counts):
            raise ValidationError("need at least 2 cells per axis")
        self.box = box
        self.cells_per_axis = counts
        self.spacing = box.extent / np.array(counts, dtype=float)
        self.cell_volume = float(np.prod(self.spacing))
        self.n_cells = counts[0] * counts[1] * counts[2]
        self._last_cell = np.array(counts)[:, None] - 1
        # per axis: lower corner, upper corner, spacing and last cell, as floats
        self._axes = list(zip(box.lower.tolist(), box.upper.tolist(),
                              self.spacing.tolist(), [c - 1.0 for c in counts]))

    def locate(self, point: np.ndarray) -> tuple[int, bool]:
        """Cell containing `point`; clamps to the nearest cell when outside.

        Returns (linear index, clamped flag): `locate_columns` of one
        point, with its operations on floats. The cell coordinate is
        clamped to [0, last] before the floor, which is the floor clamped,
        since both bounds are integers.
        """
        ijk, clamped = [], False
        for x, (lo, hi, h, last) in zip(np.asarray(point, float).tolist(), self._axes):
            ijk.append(math.floor(min(max((x - lo) / h, 0.0), last)))
            clamped = clamped or x < lo or x > hi
        nx, ny, _ = self.cells_per_axis
        return ijk[0] + nx * (ijk[1] + ny * ijk[2]), clamped

    def locate_columns(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cells containing the n points whose x, y and z are the rows of
        `coords` (3, n), clamped to the nearest cell when outside. Returns
        (linear indices, clamped mask), each (n,).

        Each pass runs over one axis's contiguous row with that axis's
        lower corner, spacing and count. A point is clamped when it lies
        outside the closed box; one on the upper face belongs to the last
        cell. The test is on the point, not on its cell coordinate, which
        extent / spacing may round past n.
        """
        lower, upper = self.box.lower[:, None], self.box.upper[:, None]
        rel = np.subtract(coords, lower)
        rel /= self.spacing[:, None]
        np.floor(rel, out=rel)
        ijk = rel.astype(np.int64)
        np.maximum(ijk, 0, out=ijk)
        np.minimum(ijk, self._last_cell, out=ijk)
        outside = coords < lower
        outside |= coords > upper
        nx, ny, _ = self.cells_per_axis
        return ijk[0] + nx * (ijk[1] + ny * ijk[2]), outside[0] | outside[1] | outside[2]

    @cached_property
    def faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Interior faces as flat read-only arrays (lo cell, hi cell, face
        area, cell spacing across the face): x faces, then y, then z, each in
        the order of np.diff along that axis of the [z, y, x] cell array."""
        nx, ny, nz = self.cells_per_axis
        dx, dy, dz = self.spacing
        idx = np.arange(self.n_cells).reshape((nz, ny, nx))
        parts = []
        for axis, area, h in ((2, dy * dz, dx), (1, dx * dz, dy), (0, dx * dy, dz)):
            lo = np.take(idx, range(idx.shape[axis] - 1), axis=axis).ravel()
            hi = np.take(idx, range(1, idx.shape[axis]), axis=axis).ravel()
            parts.append((lo, hi, np.full(lo.size, area), np.full(lo.size, h)))
        return tuple(_read_only(np.concatenate(column)) for column in zip(*parts))

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """Face Laplacian with unit coefficient, weight area/h per face, over
        the cells; read-only. Its sparsity, the face stencil plus the
        diagonal, is that of the tissue block of every coupled system."""
        lo, hi, area, h = self.faces
        matrix = edge_laplacian(lo, hi, area / h, self.n_cells)
        for array in (matrix.data, matrix.indices, matrix.indptr):
            _read_only(array)
        return matrix

    @cached_property
    def stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Where the face stencil sits in `laplacian.data`: the position of
        each cell's diagonal, and a (4, faces) array of each face's (lo, lo),
        (lo, hi), (hi, lo) and (hi, hi) entries, faces in `faces` order."""
        lo, hi, _, _ = self.faces
        laplacian, n = self.laplacian, self.n_cells
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(laplacian.indptr))
        keys = rows * n + laplacian.indices  # ascending: the CSR is canonical

        def at(row, col):
            return np.searchsorted(keys, row * n + col).astype(np.int32)

        cells = np.arange(n, dtype=np.int64)
        diagonal = at(cells, cells)
        faces = np.stack([diagonal[lo], at(lo, hi), at(hi, lo), diagonal[hi]])
        return _read_only(diagonal), _read_only(faces)

    @cached_property
    def cosine_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The orthonormal DCT-II matrix of the x, y and z axes, read-only:
        see `cosine_matrix`. Their Kronecker product Q_z (x) Q_y (x) Q_x
        diagonalises `laplacian`."""
        return tuple(_read_only(cosine_matrix(n)) for n in self.cells_per_axis)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of `laplacian` in the orthonormal DCT-II basis, as a
        read-only (nz, ny, nx) array: see `cosine_eigenvalues`."""
        return _read_only(cosine_eigenvalues(self.cells_per_axis, self.spacing))

    @cached_property
    def cosine_fit(self) -> CosineFit:
        """What `linsolve.CosineSolve` fits every tissue block on this grid
        with: the positions of the faces' off-diagonal entries in
        `laplacian.data`, those entries, their squared norm and the weakest
        face coupling min(area/h)."""
        faces = self.stencil[1][1:3].ravel()  # the (lo, hi) and (hi, lo) entries
        unit = _read_only(self.laplacian.data[faces])
        _, _, area, h = self.faces
        return CosineFit(faces, unit, float(unit @ unit), float(np.min(area / h)))

    @cached_property
    def multigrid(self) -> MultigridPlan:
        """The V-cycle's aggregation, level patterns, Galerkin maps,
        red-black orders and coarsest band storage for this grid, shared by
        every solve on it."""
        return MultigridPlan(self.cells_per_axis, self.laplacian)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def cosine_matrix(n: int) -> np.ndarray:
    """The n x n orthonormal DCT-II, Q[k, i] = sqrt(2/n) cos(pi k (2i + 1) /
    (2n)) with row 0 scaled by 1/sqrt(2) (Strang, SIAM Rev. 41, 1999): row
    k is the cosine mode k of n cells."""
    k, i = np.ogrid[:n, :n]
    basis = math.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    basis[0] /= math.sqrt(2.0)
    return basis


def cosine_eigenvalues(cells_per_axis, spacing) -> np.ndarray:
    """Eigenvalues of the face Laplacian with unit coefficient and
    zero-flux outer faces on a grid of these cell counts and spacings:
    lambda_ijk = w_x (2 - 2 cos(pi i / n_x)) + w_y (...) + w_z (...), with
    w = area/h of each axis's faces. The orthonormal DCT-II diagonalises
    it; entry [k, j, i] belongs to the cosine mode (i, j, k)."""
    dx, dy, dz = spacing
    weights = (dy * dz / dx, dx * dz / dy, dx * dy / dz)
    x, y, z = (
        w * (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n))
        for w, n in zip(weights, cells_per_axis)
    )
    return z[:, None, None] + y[None, :, None] + x[None, None, :]


def edge_laplacian(lo, hi, weight, n: int) -> sp.csr_matrix:
    """n x n sum over edges of weight * (e_lo - e_hi)(e_lo - e_hi)^T."""
    rows = np.concatenate([lo, lo, hi, hi])
    cols = np.concatenate([lo, hi, hi, lo])
    vals = np.concatenate([weight, -weight, weight, -weight])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def build_grid(box: DomainBox, cells_per_axis) -> TissueGrid:
    return TissueGrid(box, cells_per_axis)


@dataclass
class SegmentCoupling:
    """Wall samples of one segment: a view into the flat cell array."""

    cells: np.ndarray  # (n_samples,) linear cell indices, ring-major order
    sample_area: float  # m^2, identical for every sample of this segment


@dataclass
class SegmentTable:
    """Segments in `NetworkTable` order, with their end nodes as
    unknown indices of the coupled system (n_cells + place in node order)."""

    ids: list[int]
    a: np.ndarray  # node_a unknown index
    b: np.ndarray  # node_b unknown index
    length: np.ndarray  # m
    radius: np.ndarray  # m


@dataclass(frozen=True)
class CoupledPattern:
    """CSR sparsity of the coupled (cells, nodes) system on one network, and
    the position in its data of every term an assembly adds.

    Its entries are the grid's face stencil and diagonal on the cell rows,
    each segment's 2x2 block (a, a), (a, b), (b, a), (b, b) and every node's
    diagonal on the node rows, and for every distinct (segment, cell) pair
    of wall samples the entries (cell, a), (cell, b), (a, cell) and
    (b, cell), a and b the segment's end nodes. Positions are int32; those
    of the cell rows' stencil are derived from the grid's Laplacian.
    """

    indptr: np.ndarray
    indices: np.ndarray
    pair_segment: np.ndarray  # (pairs,) segment of each pair, ascending by (segment, cell)
    pair_cell: np.ndarray  # (pairs,) cell of each pair
    pair_at: np.ndarray  # (4, pairs): (cell, a), (cell, b), (a, cell), (b, cell)
    segment_at: np.ndarray  # (4, segments): (a, a), (a, b), (b, a), (b, b)
    node_diagonal_at: np.ndarray  # (nodes,)

    def stencil_at(self, laplacian: sp.csr_matrix) -> np.ndarray:
        """Position of each entry of `laplacian.data`: a cell row holds the
        Laplacian's row, then its node columns."""
        counts = np.diff(laplacian.indptr)
        shift = self.indptr[: counts.size] - laplacian.indptr[:-1]
        return np.arange(laplacian.nnz, dtype=np.int32) + np.repeat(shift, counts)


@dataclass
class SurfaceCoupling:
    """The exchange operator on the wall samples of every segment.

    Samples are stored flat, segment by segment:
    `offsets[k]:offsets[k + 1]` are the samples of segment `segments.ids[k]`.
    Each sample has its cell, its interpolation weight w_b = s/l of the
    segment's node_b (w_a = 1 - w_b) and its area. G = [-C, Pi] maps the
    coupled unknowns to the vessel-minus-tissue jump (see the module
    docstring); `jump` and `jump_transpose` apply it to per-sample values
    on these arrays. `coupled_matrix` and `pair_transpose` assemble from
    `moments` on `pattern`, for coefficients given per pair by their end
    values: a (2, pairs) array of gamma_a and gamma_b, each sample's
    coefficient a (gamma_a w_a + gamma_b w_b), pairs in `pattern` order.
    """

    clamped_samples: int  # samples that fell outside the grid
    grid: TissueGrid
    network: NetworkTable  # the columns it was built from: nodes in node_order
    segments: SegmentTable
    node_order: list[int]  # node ids in unknown order
    node_index: dict[int, int]  # node id -> unknown index
    offsets: np.ndarray
    cells: np.ndarray
    weight: np.ndarray  # w_b = s/l per sample
    area: np.ndarray  # m^2 per sample
    # (4, pairs): the sums over each pair's samples of a w_a^i w_b^j for
    # (i, j) = (3, 0), (2, 1), (1, 2), (0, 3), each nonnegative
    moments: np.ndarray
    pattern: CoupledPattern

    @cached_property
    def blocks(self) -> BlockPlan:
        """Where the linear solver's blocks sit in the data of a matrix on
        `pattern`, made once and shared by the flow and oxygen solves."""
        return block_plan(self.pattern, self.grid)

    @cached_property
    def per_segment(self) -> dict[int, SegmentCoupling]:
        """Each segment's cells and sample area by segment id, derived on
        first read. No solver reads it; it is kept for the benchmark."""
        bounds = zip(self.segments.ids, self.offsets[:-1], self.offsets[1:])
        return {
            sid: SegmentCoupling(self.cells[lo:hi], float(self.area[lo]))
            for sid, lo, hi in bounds
        }

    @cached_property
    def _positions(self) -> np.ndarray:
        """Where `coupled_matrix` scatters its terms in the data, in their
        order: the tissue block's, the segments' 2x2 blocks', then the
        exchange's: each pair's cell diagonal, its `pair_at` entries and
        its segment's 2x2 block."""
        pattern, grid = self.pattern, self.grid
        stencil_at = pattern.stencil_at(grid.laplacian)
        return np.concatenate([
            stencil_at,
            pattern.segment_at.ravel(),
            stencil_at[grid.stencil[0]][pattern.pair_cell],
            pattern.pair_at.ravel(),
            pattern.segment_at[:, pattern.pair_segment].ravel(),
        ])

    def jump(self, x: np.ndarray) -> np.ndarray:
        """G x, evaluated as Pi x_v - C x_t: the wall value of the nodal
        field, its linear interpolation along the segment, is formed first."""
        counts, table = np.diff(self.offsets), self.segments
        x_a, x_b = np.repeat(x[table.a], counts), np.repeat(x[table.b], counts)
        return ((1.0 - self.weight) * x_a + self.weight * x_b) - x[self.cells]

    def jump_transpose(self, v: np.ndarray) -> np.ndarray:
        """G^T v for per-sample v: -C^T v on the cells, Pi^T v on the nodes."""
        n_cells, n_nodes = self.grid.n_cells, len(self.node_order)
        starts, table = self.offsets[:-1], self.segments
        on_a = np.add.reduceat((1.0 - self.weight) * v, starts)
        on_b = np.add.reduceat(self.weight * v, starts)
        return np.concatenate([
            -np.bincount(self.cells, v, n_cells),
            np.bincount(table.a - n_cells, on_a, n_nodes)
            + np.bincount(table.b - n_cells, on_b, n_nodes),
        ])

    @cached_property
    def _quadratic(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The moments m20, m11 and m02 of each pair, as sums of `moments`:
        w_a + w_b = 1."""
        m30, m21, m12, m03 = self.moments
        return m30 + m21, m21 + m12, m12 + m03

    def _interpolated(self, ends) -> tuple[np.ndarray, np.ndarray]:
        """Per pair, the sums of v w_a and v w_b over its samples, v the
        per-sample coefficient of end values `ends`: gamma_a m20 + gamma_b
        m11 and gamma_a m11 + gamma_b m02, the pair's (a, cell) and (b,
        cell) entries of Pi^T diag(v) C."""
        gamma_a, gamma_b = ends
        m20, m11, m02 = self._quadratic
        return gamma_a * m20 + gamma_b * m11, gamma_a * m11 + gamma_b * m02

    def pair_transpose(self, ends) -> np.ndarray:
        """G^T v for v of end values `ends` (2, pairs): -C^T v on the cells,
        Pi^T v on the nodes, from the moments."""
        n_cells, n_nodes, pattern = self.grid.n_cells, len(self.node_order), self.pattern
        on_a, on_b = self._interpolated(ends)
        segment = pattern.pair_segment
        return np.concatenate([
            -np.bincount(pattern.pair_cell, on_a + on_b, n_cells),
            np.bincount(self.segments.a[segment] - n_cells, on_a, n_nodes)
            + np.bincount(self.segments.b[segment] - n_cells, on_b, n_nodes),
        ])

    def coupled_matrix(self, tissue, graph, alpha=None, beta=None) -> sp.csr_matrix:
        """The coupled matrix on `pattern`: `tissue`, data on the grid's
        Laplacian pattern, as the cell block; `graph`, a (4, segments)
        array, on the segments' 2x2 blocks; plus, given alpha and beta as
        end values (2, pairs), the exchange G^T [diag(alpha) C, diag(beta) Pi].

        Per pair the exchange adds -(sum alpha) on its cell's diagonal,
        -(sum beta w_a) and -(sum beta w_b) at (cell, a) and (cell, b), the
        sums of alpha w_a and alpha w_b at (a, cell) and (b, cell), and sum
        beta w_i w_j at (i, j) of its segment's block: each a sum of moments
        times end values, with no difference of moments.
        """
        terms = [tissue, graph.ravel()]
        if alpha is not None:
            alpha_wa, alpha_wb = self._interpolated(alpha)
            beta_wa, beta_wb = self._interpolated(beta)
            (beta_a, beta_b), (m30, m21, m12, m03) = beta, self.moments
            ab = beta_a * m21 + beta_b * m12
            terms += [
                -(alpha_wa + alpha_wb),  # -C^T diag(alpha) C
                -beta_wa, -beta_wb,  # -C^T diag(beta) Pi
                alpha_wa, alpha_wb,  # Pi^T diag(alpha) C
                beta_a * m30 + beta_b * m21, ab, ab, beta_a * m12 + beta_b * m03,
            ]  # Pi^T diag(beta) Pi
        terms = np.concatenate(terms)
        pattern = self.pattern
        data = np.bincount(self._positions[: terms.size], terms, pattern.indices.size)
        n = pattern.indptr.size - 1
        return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


@dataclass
class CoupledSystem:
    """A linear system on a coupling's (cells, nodes) unknowns. Building it
    pins the `dirichlet` nodes in place: identity rows in `matrix`, values in
    `rhs`."""

    coupling: SurfaceCoupling
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dirichlet: dict[int, float]  # node id -> pinned value

    def __post_init__(self):
        rows, pattern = self.pinned, self.coupling.pattern
        count = np.diff(pattern.indptr)[rows]
        within = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        self.matrix.data[np.repeat(pattern.indptr[rows], count) + within] = 0.0
        self.matrix.data[pattern.node_diagonal_at[rows - self.grid.n_cells]] = 1.0
        self.rhs[rows] = list(self.dirichlet.values())

    @property
    def grid(self) -> TissueGrid:
        return self.coupling.grid

    @property
    def node_order(self) -> list[int]:
        return self.coupling.node_order

    @property
    def node_index(self) -> dict[int, int]:
        return self.coupling.node_index

    @property
    def n_unknowns(self) -> int:
        return self.grid.n_cells + len(self.node_order)

    @cached_property
    def pinned(self) -> np.ndarray:
        """Unknown indices of the `dirichlet` nodes, in its order; read-only,
        taken once per system."""
        index = self.node_index
        return _read_only(np.array([index[nid] for nid in self.dirichlet], dtype=np.int64))

    def restore(self, x: np.ndarray):
        """Write the pinned values back into a solution x, in place."""
        x[self.pinned] = self.rhs[self.pinned]


def _frames(orientation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, two unit vectors orthogonal to `orientation` and each other."""
    helper = np.where(np.abs(orientation[:, :1]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    e1 = np.cross(orientation, helper)
    e1 /= np.sqrt(np.vecdot(e1, e1))[:, None]
    return e1, np.cross(orientation, e1)


def build_surface_coupling(
    grid: TissueGrid,
    net: VascularNetwork | NetworkTable,
    n_axial: int | None = None,
    n_angular: int = 8,
) -> SurfaceCoupling:
    """Sample every cylinder's lateral surface on a midpoint (s, theta) lattice.

    n_axial defaults per segment to max(4, 2*ceil(l/h)) with h the minimum
    cell spacing, so each cell crossed by a vessel receives samples. Each
    sample point is (x0 + s*o) + offset, summed axis by axis into (3, n)
    coordinate rows that `TissueGrid.locate_columns` locates. The coupling
    keeps `net.table()`, whose boundary columns the assemblies pin.
    """
    if n_angular < 2 or (n_axial is not None and n_axial < 2):
        raise ValidationError("need at least two samples per direction")
    table = net.table()
    node_order, ids, radius = table.node_ids.tolist(), table.segment_ids.tolist(), table.radius
    node_index = {nid: grid.n_cells + i for i, nid in enumerate(node_order)}
    a, b = table.ends.T + grid.n_cells
    x0, x1 = table.position[table.ends.T]
    delta = x1 - x0
    # vecdot rounds as np.linalg.norm of each row does; einsum and
    # norm(axis=1) do not, and would move samples
    length = np.sqrt(np.vecdot(delta, delta))
    if np.any(length == 0.0):
        raise ValidationError(
            f"segment {ids[int(np.argmin(length))]}: coincident endpoints"
        )
    orientation = delta / length[:, None]
    if n_axial is None:
        h_min = float(np.min(grid.spacing))
        na = np.maximum(4, 2 * np.ceil(length / h_min)).astype(np.int64)
    else:
        na = np.full(len(ids), n_axial, dtype=np.int64)

    # rings: one per (segment, axial index), centred at x0 + s*o; centres,
    # ring offsets and sample points are (3, ...) arrays, one row per axis
    ring_seg = np.repeat(np.arange(len(ids)), na)
    first_ring = np.cumsum(na) - na
    ring_s = (np.arange(ring_seg.size) - first_ring[ring_seg] + 0.5) * (length / na)[ring_seg]
    centers = x0.T[:, ring_seg] + ring_s * orientation.T[:, ring_seg]
    thetas = (np.arange(n_angular) + 0.5) * (2.0 * math.pi / n_angular)
    e1, e2 = _frames(orientation)
    ring_offsets = (
        (radius[:, None] * np.cos(thetas)) * e1.T[:, :, None]
        + (radius[:, None] * np.sin(thetas)) * e2.T[:, :, None]
    )  # (3, segments, n_angular)
    points = centers[:, :, None] + np.repeat(ring_offsets, na, axis=1)
    cells, clamped = grid.locate_columns(points.reshape(3, -1))

    per_sample = na * n_angular
    seg_area = 2.0 * math.pi * radius * length / per_sample
    ring_w = ring_s / length[ring_seg]  # w_b = s/l
    # the samples of a ring share w_b and a: reduce each run of one cell
    # within a ring, then the runs by (segment, cell) pair
    first = np.diff(cells, prepend=-1) != 0
    first[::n_angular] = True
    run = np.flatnonzero(first)
    run_ring = run // n_angular
    run_seg = ring_seg[run_ring]
    keys, run_pair = np.unique(run_seg * grid.n_cells + cells[run], return_inverse=True)
    w_b = ring_w[run_ring]
    w_a = 1.0 - w_b
    mass = np.diff(run, append=cells.size) * seg_area[run_seg]
    on_a, on_b = mass * (w_a * w_a), mass * (w_b * w_b)
    moments = np.stack([
        np.bincount(run_pair, term, keys.size)
        for term in (on_a * w_a, on_a * w_b, on_b * w_a, on_b * w_b)
    ])
    pair_seg, pair_cell = np.divmod(keys, grid.n_cells)
    return SurfaceCoupling(
        clamped_samples=int(np.count_nonzero(clamped)),
        grid=grid,
        network=table,
        segments=SegmentTable(ids, a, b, length, radius),
        node_order=node_order,
        node_index=node_index,
        offsets=np.concatenate([[0], np.cumsum(per_sample)]),
        cells=cells,
        weight=np.repeat(ring_w, n_angular),
        area=np.repeat(seg_area, per_sample),
        moments=moments,
        pattern=_coupled_pattern(grid, len(node_order), a, b, pair_seg, pair_cell),
    )


def _coupled_pattern(grid, n_nodes, a, b, pair_seg, pair_cell) -> CoupledPattern:
    """The pattern of the coupled system over the grid's cells and n_nodes
    nodes, for segments from unknowns a to b and the distinct (segment,
    cell) pairs of their wall samples, `pair_seg` and `pair_cell`."""
    n_cells = grid.n_cells
    pair_a, pair_b = a[pair_seg], b[pair_seg]
    nodes = np.arange(n_cells, n_cells + n_nodes)
    parts = [  # (rows, columns) of the entries off the face stencil
        (pair_cell, pair_a), (pair_cell, pair_b), (pair_a, pair_cell), (pair_b, pair_cell),
        (a, a), (a, b), (b, a), (b, b),
        (nodes, nodes),
    ]
    rows, cols = (np.concatenate(side) for side in zip(*parts))
    n = n_cells + n_nodes
    off_indptr, off_indices, position = csr_pattern(rows, cols, n)
    # a cell row holds the Laplacian's row, then its node columns
    laplacian = grid.laplacian
    stencil_indptr = np.full(n + 1, laplacian.nnz, np.int32)
    stencil_indptr[: n_cells + 1] = laplacian.indptr
    off_at = np.arange(off_indices.size, dtype=np.int32) + np.repeat(
        stencil_indptr[1:], np.diff(off_indptr)
    )
    pair_at, segment_at, node_diagonal_at = np.split(
        off_at[position], np.cumsum([part[0].size for part in parts])[[3, 7]]
    )
    pattern = CoupledPattern(
        indptr=off_indptr + stencil_indptr,
        indices=np.empty(off_indices.size + laplacian.nnz, np.int32),
        pair_segment=pair_seg,
        pair_cell=pair_cell,
        pair_at=pair_at.reshape(4, -1),
        segment_at=segment_at.reshape(4, -1),
        node_diagonal_at=node_diagonal_at,
    )
    pattern.indices[off_at] = off_indices
    pattern.indices[pattern.stencil_at(laplacian)] = laplacian.indices
    return pattern
