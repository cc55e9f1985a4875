"""Uniform hexahedral tissue mesh and the discretized 3D-1D exchange operator.

The Dirac surface measure concentrated on the vessel walls is discretised
by equal-area point sampling of each cylinder's lateral surface on an
(arc length, angle) lattice; each sample carries area 2*pi*R*l/(n_ax*n_ang)
and is charged to the finite volume cell containing it, so per-segment
area sums are exact by construction.

`SurfaceCoupling` turns the samples into sparse operators: C maps cell
values to samples (one 1 per sample), Pi interpolates nodal values to the
samples with weights w_a = 1 - s/l and w_b = s/l, and G = [-C, Pi] is the
vessel-minus-tissue jump on the wall. Flow and oxygen both build their
exchange blocks from these products, over the node index and the segment
table kept alongside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .network import DomainBox, VascularNetwork


class TissueGrid:
    """Cell-centered uniform grid tiling a box; linear index i + nx*(j + ny*k)."""

    def __init__(self, box: DomainBox, cells_per_axis):
        counts = tuple(int(c) for c in cells_per_axis)
        if len(counts) != 3 or any(c < 2 for c in counts):
            raise ValidationError("need at least 2 cells per axis")
        self.box = box
        self.cells_per_axis = counts
        self.spacing = box.extent / np.array(counts, dtype=float)
        self.cell_volume = float(np.prod(self.spacing))
        self.n_cells = counts[0] * counts[1] * counts[2]

    def ijk_to_linear(self, i: int, j: int, k: int) -> int:
        nx, ny, _ = self.cells_per_axis
        return i + nx * (j + ny * k)

    def linear_to_ijk(self, idx: int) -> tuple[int, int, int]:
        nx, ny, _ = self.cells_per_axis
        return idx % nx, (idx // nx) % ny, idx // (nx * ny)

    def cell_center(self, idx: int) -> np.ndarray:
        ijk = np.array(self.linear_to_ijk(idx), dtype=float)
        return self.box.lower + (ijk + 0.5) * self.spacing

    def locate_all(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cells containing the points (..., 3), clamped to the nearest cell
        when outside. Returns (linear indices, clamped mask)."""
        rel = (np.asarray(points, float) - self.box.lower) / self.spacing
        raw = np.floor(rel).astype(np.int64)
        clipped = np.clip(raw, 0, np.array(self.cells_per_axis) - 1)
        nx, ny, _ = self.cells_per_axis
        cells = clipped[..., 0] + nx * (clipped[..., 1] + ny * clipped[..., 2])
        return cells, np.any(raw != clipped, axis=-1)

    def locate(self, point: np.ndarray) -> tuple[int, bool]:
        """Cell containing `point`; clamps to the nearest cell when outside.

        Returns (linear index, clamped flag).
        """
        cell, clamped = self.locate_all(point)
        return int(cell), bool(clamped)

    def cell_centers(self) -> np.ndarray:
        """(n_cells, 3) array of cell centers in linear-index order."""
        nx, ny, nz = self.cells_per_axis
        xs = self.box.lower[0] + (np.arange(nx) + 0.5) * self.spacing[0]
        ys = self.box.lower[1] + (np.arange(ny) + 0.5) * self.spacing[1]
        zs = self.box.lower[2] + (np.arange(nz) + 0.5) * self.spacing[2]
        K, J, I = np.meshgrid(zs, ys, xs, indexing="ij")
        return np.column_stack([I.ravel(), J.ravel(), K.ravel()])

    def faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Interior faces as flat arrays (lo cell, hi cell, face area, cell
        spacing across the face): x faces, then y, then z, each in the
        order of np.diff along that axis of the [z, y, x] cell array."""
        nx, ny, nz = self.cells_per_axis
        dx, dy, dz = self.spacing
        idx = np.arange(self.n_cells).reshape((nz, ny, nx))
        parts = []
        for axis, area, h in ((2, dy * dz, dx), (1, dx * dz, dy), (0, dx * dy, dz)):
            lo = np.take(idx, range(idx.shape[axis] - 1), axis=axis).ravel()
            hi = np.take(idx, range(1, idx.shape[axis]), axis=axis).ravel()
            parts.append((lo, hi, np.full(lo.size, area), np.full(lo.size, h)))
        return tuple(np.concatenate(column) for column in zip(*parts))


def build_grid(box: DomainBox, cells_per_axis) -> TissueGrid:
    return TissueGrid(box, cells_per_axis)


@dataclass
class SegmentCoupling:
    """Surface samples of one cylindrical segment (views into the flat arrays)."""

    cells: np.ndarray  # (n_samples,) linear cell indices, ring-major order
    s: np.ndarray  # (n_samples,) arc lengths of the sample rings
    sample_area: float  # m^2, identical for every sample of this segment
    n_axial: int
    n_angular: int

    @property
    def total_area(self) -> float:
        return self.sample_area * len(self.cells)


@dataclass
class SegmentTable:
    """Segments in ascending id order, with their end nodes as unknown
    indices of the coupled system (n_cells + position in node order)."""

    ids: list[int]
    a: np.ndarray  # node_a unknown index
    b: np.ndarray  # node_b unknown index
    length: np.ndarray  # m
    radius: np.ndarray  # m


@dataclass
class SurfaceCoupling:
    """The exchange operator on the wall samples of every segment.

    Samples are stored flat, segment by segment in ascending id order;
    `offsets[k]:offsets[k + 1]` are the samples of segment `segments.ids[k]`.
    C (samples x cells) is the sample->cell indicator, Pi (samples x nodes)
    interpolates nodal values to the samples with weights w_a and w_b, and
    G = [-C, Pi] maps the coupled unknowns to the vessel-minus-tissue jump.
    """

    per_segment: dict[int, SegmentCoupling]
    clamped_samples: int  # samples that fell outside the grid
    segments: SegmentTable
    node_order: list[int]  # node ids in unknown order
    node_index: dict[int, int]  # node id -> unknown index
    offsets: np.ndarray
    cells: np.ndarray
    s: np.ndarray
    w_a: np.ndarray
    w_b: np.ndarray
    area: np.ndarray  # m^2 per sample
    C: sp.csr_matrix
    Pi: sp.csr_matrix
    G: sp.csr_matrix

    def total_area(self) -> float:
        return sum(sc.total_area for sc in self.per_segment.values())

    def jump(self, x: np.ndarray) -> np.ndarray:
        """G x, evaluated as Pi x_v - C x_t: the wall value of the nodal
        field is formed first, as project_1d_to_surface forms it."""
        n = self.C.shape[1]
        return self.Pi @ x[n:] - x[:n][self.cells]


def _row_norms(v: np.ndarray) -> np.ndarray:
    # np.linalg.norm per row, the call segment_geometry and the scalar frame
    # make: a batched norm rounds differently and would move samples.
    return np.array([np.linalg.norm(row) for row in v])


def _frames(orientation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, two unit vectors orthogonal to `orientation` and each other."""
    helper = np.where(np.abs(orientation[:, :1]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    e1 = np.cross(orientation, helper)
    e1 /= _row_norms(e1)[:, None]
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
    length = _row_norms(delta)
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
    w_b = s / length[sample_seg]
    w_a = 1.0 - w_b
    m = cells.size
    C = sp.csr_matrix((np.ones(m), cells, np.arange(m + 1)), shape=(m, grid.n_cells))
    Pi = sp.csr_matrix(
        (
            np.column_stack([w_a, w_b]).ravel(),
            np.column_stack([a[sample_seg], b[sample_seg]]).ravel() - grid.n_cells,
            np.arange(0, 2 * m + 1, 2),
        ),
        shape=(m, len(node_order)),
    )
    per_segment = {
        sid: SegmentCoupling(
            cells[lo:hi], s[lo:hi], float(seg_area[k]), int(na[k]), n_angular
        )
        for k, (sid, lo, hi) in enumerate(zip(ids, offsets[:-1], offsets[1:]))
    }
    return SurfaceCoupling(
        per_segment=per_segment,
        clamped_samples=int(np.count_nonzero(clamped)),
        segments=SegmentTable(ids, a, b, length, radius),
        node_order=node_order,
        node_index=node_index,
        offsets=offsets,
        cells=cells,
        s=s,
        w_a=w_a,
        w_b=w_b,
        area=seg_area[sample_seg],
        C=C,
        Pi=Pi,
        G=sp.hstack([-C, Pi], format="csr"),
    )


def project_1d_to_surface(
    net: VascularNetwork, nodal_field: dict[int, float], seg_id: int, s: float
) -> float:
    """Extend the 1D field to the wall ring at arc length s (linear interp)."""
    seg = net.segments[seg_id]
    length, _ = net.segment_geometry(seg_id)
    if not 0.0 <= s <= length * (1.0 + 1e-12):
        raise ValidationError(f"arc length {s} outside segment {seg_id}")
    t = min(max(s / length, 0.0), 1.0)
    return (1.0 - t) * nodal_field[seg.node_a] + t * nodal_field[seg.node_b]
