"""Uniform hexahedral tissue mesh and the discretized 3D-1D exchange operator.

A `TissueGrid` builds what depends on it alone once, on first use, and
keeps it for every solve on it (flow, oxygen, each Newton step, each
growth state): its interior faces, the face Laplacian with unit
coefficient, whose sparsity every tissue block shares, where each face's
entries sit in that Laplacian, and the linear solver's `MultigridPlan`.
They are kept on the instance, not in the module, so a new grid starts
afresh.

The Dirac surface measure concentrated on the vessel walls is discretised
by equal-area point sampling of each cylinder's lateral surface on an
(arc length, angle) lattice; each sample carries area 2*pi*R*l/(n_ax*n_ang)
and is charged to the finite volume cell containing it, so per-segment
area sums are exact by construction.

On the samples, C maps cell values to samples (one 1 per sample), Pi
interpolates nodal values with weights w_a = 1 - s/l and w_b = s/l, and
G = [-C, Pi] is the vessel-minus-tissue jump on the wall. Flow and oxygen
both need blocks G^T [diag(alpha) C, diag(beta) Pi] for per-sample alpha
and beta. `SurfaceCoupling` never forms C, Pi or G: it keeps the flat
sample arrays (cell, weight w_b, area, segment by segment) and the CSR
pattern of the coupled (cells, nodes) system, built once per coupling with
the position of every assembled term in it. An assembly is then a few
bincounts: per-cell, per-pair (one per distinct (segment, cell) of the
samples) and per-segment sums of the sample terms, scattered onto those
positions. This is the same algebra as the sparse products, summed in
another order.

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
from .linsolve import MultigridPlan, csr_pattern
from .network import DomainBox, VascularNetwork


class TissueGrid:
    """Cell-centered uniform grid tiling a box; linear index i + nx*(j + ny*k).

    `faces()`, `laplacian`, `stencil` and `multigrid` are built on first use
    and kept.
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

    def locate_all(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cells containing the points (..., 3), clamped to the nearest cell
        when outside. Returns (linear indices, clamped mask).

        A point is clamped when it lies outside the closed box; one on the
        upper face belongs to the last cell. The test is on the point, not
        on its cell coordinate, which extent / spacing may round past n.
        """
        points = np.asarray(points, float)
        rel = (points - self.box.lower) / self.spacing
        ijk = np.clip(np.floor(rel).astype(np.int64), 0, np.array(self.cells_per_axis) - 1)
        nx, ny, _ = self.cells_per_axis
        cells = ijk[..., 0] + nx * (ijk[..., 1] + ny * ijk[..., 2])
        outside = (points < self.box.lower) | (points > self.box.upper)
        return cells, np.any(outside, axis=-1)

    def locate(self, point: np.ndarray) -> tuple[int, bool]:
        """Cell containing `point`; clamps to the nearest cell when outside.

        Returns (linear index, clamped flag).
        """
        cell, clamped = self.locate_all(point)
        return int(cell), bool(clamped)

    def faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Interior faces as flat read-only arrays (lo cell, hi cell, face
        area, cell spacing across the face): x faces, then y, then z, each in
        the order of np.diff along that axis of the [z, y, x] cell array."""
        return self._faces

    @cached_property
    def _faces(self):
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
        lo, hi, area, h = self.faces()
        matrix = edge_laplacian(lo, hi, area / h, self.n_cells)
        for array in (matrix.data, matrix.indices, matrix.indptr):
            _read_only(array)
        return matrix

    @cached_property
    def stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Where the face stencil sits in `laplacian.data`: the position of
        each cell's diagonal, and a (4, faces) array of each face's (lo, lo),
        (lo, hi), (hi, lo) and (hi, hi) entries, faces in `faces()` order."""
        lo, hi, _, _ = self.faces()
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
    def multigrid(self) -> MultigridPlan:
        """The V-cycle's aggregation, level patterns, Galerkin maps and
        coarsest band storage for this grid, shared by every solve on it."""
        return MultigridPlan(self.cells_per_axis, self.laplacian)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
    """Segments in ascending id order, with their end nodes as unknown
    indices of the coupled system (n_cells + position in node order)."""

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
    pair: np.ndarray  # (samples,) pair of each sample
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

    Samples are stored flat, segment by segment in ascending id order;
    `offsets[k]:offsets[k + 1]` are the samples of segment `segments.ids[k]`.
    Each sample has its cell, its interpolation weight w_b = s/l of the
    segment's node_b (w_a = 1 - w_b) and its area. G = [-C, Pi] maps the
    coupled unknowns to the vessel-minus-tissue jump (see the module
    docstring); `jump`, `jump_transpose` and `coupled_matrix` apply it on
    these arrays and `pattern`.
    """

    clamped_samples: int  # samples that fell outside the grid
    grid: TissueGrid
    segments: SegmentTable
    node_order: list[int]  # node ids in unknown order
    node_index: dict[int, int]  # node id -> unknown index
    offsets: np.ndarray
    cells: np.ndarray
    weight: np.ndarray  # w_b = s/l per sample
    area: np.ndarray  # m^2 per sample
    pattern: CoupledPattern

    @cached_property
    def per_segment(self) -> dict[int, SegmentCoupling]:
        """Each segment's cells and sample area by segment id, derived on
        first read. No solver reads it; it is kept for the benchmark."""
        bounds = zip(self.segments.ids, self.offsets[:-1], self.offsets[1:])
        return {
            sid: SegmentCoupling(self.cells[lo:hi], float(self.area[lo]))
            for sid, lo, hi in bounds
        }

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

    def coupled_matrix(self, tissue, graph, alpha=None, beta=None) -> sp.csr_matrix:
        """The coupled matrix on `pattern`: `tissue`, data on the grid's
        Laplacian pattern, as the cell block; `graph`, a (4, segments)
        array, on the segments' 2x2 blocks; plus, given per-sample alpha and
        beta, the exchange G^T [diag(alpha) C, diag(beta) Pi]."""
        pattern, grid = self.pattern, self.grid
        stencil_at = pattern.stencil_at(grid.laplacian)
        positions = [stencil_at, pattern.segment_at.ravel()]
        terms = [tissue, graph.ravel()]
        if alpha is not None:
            w_b = self.weight
            w_a = 1.0 - w_b
            pair, pairs = pattern.pair, pattern.pair_at.shape[1]
            beta_a, beta_b = beta * w_a, beta * w_b
            aa, ab, bb = (
                np.add.reduceat(term, self.offsets[:-1])
                for term in (beta_a * w_a, beta_a * w_b, beta_b * w_b)
            )
            positions += [
                stencil_at[grid.stencil[0]],
                pattern.pair_at.ravel(),
                pattern.segment_at.ravel(),
            ]
            terms += [
                -np.bincount(self.cells, alpha, grid.n_cells),  # -C^T diag(alpha) C
                -np.bincount(pair, beta_a, pairs),  # -C^T diag(beta) Pi
                -np.bincount(pair, beta_b, pairs),
                np.bincount(pair, alpha * w_a, pairs),  # Pi^T diag(alpha) C
                np.bincount(pair, alpha * w_b, pairs),
                aa, ab, ab, bb,  # Pi^T diag(beta) Pi
            ]
        data = np.bincount(
            np.concatenate(positions), np.concatenate(terms), pattern.indices.size
        )
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

    @property
    def pinned(self) -> np.ndarray:
        """Unknown indices of the `dirichlet` nodes, in its order."""
        return np.array([self.node_index[nid] for nid in self.dirichlet], dtype=np.int64)

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
    net: VascularNetwork,
    n_axial: int | None = None,
    n_angular: int = 8,
) -> SurfaceCoupling:
    """Sample every cylinder's lateral surface on a midpoint (s, theta) lattice.

    n_axial defaults per segment to max(4, 2*ceil(l/h)) with h the minimum
    cell spacing, so each cell crossed by a vessel receives samples. Each
    sample point is (x0 + s*o) + offset, located by one batched floor/clip.
    """
    if n_angular < 2 or (n_axial is not None and n_axial < 2):
        raise ValidationError("need at least two samples per direction")
    node_order = sorted(net.nodes)
    node_index = {nid: grid.n_cells + i for i, nid in enumerate(node_order)}
    ids = sorted(net.segments)
    segs = [net.segments[sid] for sid in ids]
    a = np.array([node_index[seg.node_a] for seg in segs], dtype=np.int64)
    b = np.array([node_index[seg.node_b] for seg in segs], dtype=np.int64)
    radius = np.array([seg.radius for seg in segs])
    position = np.array([net.nodes[nid].position for nid in node_order]).reshape(-1, 3)
    x0 = position[a - grid.n_cells]
    delta = position[b - grid.n_cells] - x0
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

    # rings: one per (segment, axial index), centred at x0 + s*o
    ring_seg = np.repeat(np.arange(len(ids)), na)
    first_ring = np.cumsum(na) - na
    ring_s = (np.arange(ring_seg.size) - first_ring[ring_seg] + 0.5) * (length / na)[ring_seg]
    centers = x0[ring_seg] + ring_s[:, None] * orientation[ring_seg]
    thetas = (np.arange(n_angular) + 0.5) * (2.0 * math.pi / n_angular)
    e1, e2 = _frames(orientation)
    ring_offsets = (
        radius[:, None, None] * np.cos(thetas)[None, :, None] * e1[:, None, :]
        + radius[:, None, None] * np.sin(thetas)[None, :, None] * e2[:, None, :]
    )  # (segments, n_angular, 3)
    cells, clamped = grid.locate_all(centers[:, None, :] + ring_offsets[ring_seg])
    cells = cells.ravel()
    s = np.repeat(ring_s, n_angular)

    per_sample = na * n_angular
    offsets = np.concatenate([[0], np.cumsum(per_sample)])
    sample_seg = np.repeat(np.arange(len(ids)), per_sample)
    seg_area = 2.0 * math.pi * radius * length / per_sample
    return SurfaceCoupling(
        clamped_samples=int(np.count_nonzero(clamped)),
        grid=grid,
        segments=SegmentTable(ids, a, b, length, radius),
        node_order=node_order,
        node_index=node_index,
        offsets=offsets,
        cells=cells,
        weight=s / length[sample_seg],
        area=seg_area[sample_seg],
        pattern=_coupled_pattern(grid, len(node_order), a, b, sample_seg, cells),
    )


def _coupled_pattern(grid, n_nodes, a, b, sample_seg, cells) -> CoupledPattern:
    """The pattern of the coupled system over the grid's cells and n_nodes
    nodes, for segments from unknowns a to b whose wall samples lie on
    segments `sample_seg` in cells `cells`."""
    n_cells = grid.n_cells
    key = sample_seg * n_cells + cells
    # neighbouring samples mostly share their cell: sort only the runs
    run = np.flatnonzero(np.diff(key, prepend=-1))
    keys, run_pair = np.unique(key[run], return_inverse=True)
    pair = np.repeat(run_pair.astype(np.int32), np.diff(run, append=key.size))
    pair_seg, pair_cell = np.divmod(keys, n_cells)
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
        pair=pair,
        pair_at=pair_at.reshape(4, -1),
        segment_at=segment_at.reshape(4, -1),
        node_diagonal_at=node_diagonal_at,
    )
    pattern.indices[off_at] = off_indices
    pattern.indices[pattern.stencil_at(laplacian)] = laplacian.indices
    return pattern
