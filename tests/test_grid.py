import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from microvasc import DomainBox, build_grid, build_surface_coupling
from microvasc.errors import ValidationError

from conftest import (
    UM,
    cell_midpoints,
    cell_ijk,
    dyadic_grids,
    make_single_vessel,
    make_y_junction,
)
from exchange_oracle import locate as oracle_locate, project_1d_to_surface

pytestmark = pytest.mark.blas_threads

class TestTissueGrid:
    def test_spacing_and_volume(self, unit_cube):
        grid = build_grid(unit_cube, (20, 10, 5))
        assert np.allclose(grid.spacing, [0.05e-3, 0.1e-3, 0.2e-3])
        assert grid.cell_volume == pytest.approx(0.05e-3 * 0.1e-3 * 0.2e-3)
        assert grid.n_cells == 1000

    def test_anisotropic_spacing(self):
        box = DomainBox(
            [0.038e-3, 8.8e-7, 8.8e-7], [1.13e-3, 1.05e-3, 1.50e-3]
        )
        grid = build_grid(box, (40, 40, 50))
        assert np.allclose(
            grid.spacing,
            [(1.13e-3 - 0.038e-3) / 40, (1.05e-3 - 8.8e-7) / 40,
             (1.50e-3 - 8.8e-7) / 50],
        )

    def test_cell_center_inverse_of_locate(self, desk_grid):
        rng = np.random.default_rng(7)
        centers = cell_midpoints(desk_grid)
        for idx in rng.integers(0, desk_grid.n_cells, 50):
            cell, clamped = desk_grid.locate(centers[idx])
            assert cell == idx and not clamped

    def test_locate_clamps_outside_points(self, desk_grid):
        cell, clamped = desk_grid.locate([-1.0, 0.5e-3, 0.5e-3])
        assert clamped
        i, _, _ = cell_ijk(desk_grid, cell)
        assert i == 0

    @pytest.mark.parametrize(
        "upper, counts",
        [([1.0, 1.0, 1.0], (2, 2, 2)), ([0.7, 0.3, 0.1], (3, 7, 10))],
    )
    def test_closed_box_faces_are_inside(self, upper, counts):
        # 1/2 divides the unit box exactly; 0.7/3, 0.3/7 and 0.1/10 do not
        box = DomainBox([0.0, 0.0, 0.0], upper)
        grid = build_grid(box, counts)
        for axis in range(3):
            for face, index, outward in ((box.upper, counts[axis] - 1, np.inf),
                                         (box.lower, 0, -np.inf)):
                point = 0.5 * (box.lower + box.upper)
                point[axis] = face[axis]
                cell, clamped = grid.locate(point)
                assert cell_ijk(grid, cell)[axis] == index and not clamped
                point[axis] = np.nextafter(face[axis], outward)
                cell, clamped = grid.locate(point)
                assert cell_ijk(grid, cell)[axis] == index and clamped

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_locate_matches_the_per_point_oracle(self, data):
        """`locate`, on floats, and `locate_columns`, on arrays, give the
        scalar oracle's cell and clamped flag on every point: faces, their
        neighbouring floats, signed zeros and points outside the box."""
        grid = data.draw(dyadic_grids())
        lower, spacing, extent = grid.box.lower, grid.spacing, grid.box.extent

        def coordinate(axis):
            """A face of the grid or one beyond it, a face's neighbouring
            float on either side, a signed zero, or any value in and around
            the box."""
            face = st.integers(-2, grid.cells_per_axis[axis] + 2).map(
                lambda i: float(lower[axis] + i * spacing[axis])
            )
            beside = st.tuples(face, st.sampled_from([-np.inf, np.inf])).map(
                lambda pair: float(np.nextafter(*pair))
            )
            lo, e = float(lower[axis]), float(extent[axis])
            return st.one_of(face, beside, st.sampled_from([0.0, -0.0]),
                             st.floats(lo - 2.0 * e, lo + 3.0 * e))

        n = data.draw(st.integers(1, 16))
        points = np.array([[data.draw(coordinate(axis)) for axis in range(3)] for _ in range(n)])
        cells, clamped = grid.locate_columns(points.T)
        assert cells.shape == clamped.shape == (n,)
        for point, cell, flag in zip(points, cells.tolist(), clamped.tolist()):
            assert oracle_locate(grid, point) == (cell, flag)
            assert grid.locate(point) == (cell, flag)
            assert grid.locate(point.tolist()) == (cell, flag)

    @pytest.mark.parametrize("cells", [(12, 12, 12), (3, 4, 5), (7, 2, 9)])
    def test_cosine_basis_is_the_orthonormal_dct(self, unit_cube, cells):
        grid = build_grid(unit_cube, cells)
        assert len(grid.cosine_basis) == 3
        for basis, n in zip(grid.cosine_basis, cells):
            assert basis.shape == (n, n) and not basis.flags.writeable
            assert np.max(np.abs(basis @ basis.T - np.eye(n))) <= 1e-15 * n
            dct = scipy.fft.dct(np.eye(n), norm="ortho", axis=0)
            assert np.max(np.abs(basis - dct)) <= 1e-15 * n
        assert grid.cosine_basis is grid.cosine_basis  # built once

    def test_too_few_cells_rejected(self, unit_cube):
        with pytest.raises(ValidationError):
            build_grid(unit_cube, (1, 20, 20))


class TestSurfaceCoupling:
    def test_per_segment_area_exact(self, desk_grid):
        net = make_single_vessel(
            radius=5 * UM,
            start=(0.2e-3, 0.5e-3, 0.5e-3),
            end=(0.8e-3, 0.5e-3, 0.5e-3),
        )
        coupling = build_surface_coupling(desk_grid, net)
        length = 0.6e-3
        assert coupling.area[0] * coupling.cells.size == pytest.approx(
            2.0 * math.pi * 5 * UM * length, rel=1e-12
        )

    def test_equal_sample_weights(self, desk_grid):
        net = make_single_vessel(start=(0.2e-3, 0.5e-3, 0.5e-3),
                                 end=(0.8e-3, 0.5e-3, 0.5e-3))
        coupling = build_surface_coupling(desk_grid, net)
        assert coupling.cells.size % 8 == 0  # whole rings of n_angular = 8
        # equal-area lattice: one shared scalar weight
        assert coupling.area[0] > 0.0 and np.all(coupling.area == coupling.area[0])

    def test_axial_resolution_tracks_cell_size(self, desk_grid):
        net = make_single_vessel(start=(0.2e-3, 0.5e-3, 0.5e-3),
                                 end=(0.8e-3, 0.5e-3, 0.5e-3))
        rings = build_surface_coupling(desk_grid, net).cells.size // 8
        # 0.6 mm vessel across 50 um cells: at least 2 rings per cell
        assert rings >= 2 * math.ceil(0.6e-3 / 0.05e-3)

    def test_thin_vessel_samples_single_cell_column(self, desk_grid):
        net = make_single_vessel(
            radius=2 * UM,
            start=(0.2e-3, 0.525e-3, 0.525e-3),
            end=(0.8e-3, 0.525e-3, 0.525e-3),
        )
        _, js, ks = cell_ijk(desk_grid, build_surface_coupling(desk_grid, net).cells)
        # radius far below cell size: all samples stay in one y/z cell row
        assert set(js) == {10} and set(ks) == {10}

    def test_per_segment_is_derived_on_first_read(self, desk_grid):
        net = make_y_junction()
        coupling = build_surface_coupling(desk_grid, net)
        assert "per_segment" not in vars(coupling)
        per_segment = coupling.per_segment
        assert list(per_segment) == coupling.segments.ids
        bounds = zip(coupling.offsets[:-1], coupling.offsets[1:])
        for sc, (lo, hi) in zip(per_segment.values(), bounds):
            assert np.shares_memory(sc.cells, coupling.cells)
            assert np.array_equal(sc.cells, coupling.cells[lo:hi])
            assert np.all(coupling.area[lo:hi] == sc.sample_area)
        assert coupling.per_segment is per_segment

    def test_off_grid_samples_counted_and_clamped(self, unit_cube):
        grid = build_grid(unit_cube, (10, 10, 10))
        net = make_single_vessel(
            start=(-0.2e-3, 0.5e-3, 0.5e-3), end=(0.5e-3, 0.5e-3, 0.5e-3)
        )
        coupling = build_surface_coupling(grid, net)
        assert coupling.clamped_samples > 0

    def test_invalid_sampling_counts(self, desk_grid):
        net = make_single_vessel()
        with pytest.raises(ValidationError):
            build_surface_coupling(desk_grid, net, n_angular=1)
        with pytest.raises(ValidationError):
            build_surface_coupling(desk_grid, net, n_axial=1)

    @settings(max_examples=25, deadline=None)
    @given(
        radius=st.floats(2 * UM, 20 * UM),
        length=st.floats(100 * UM, 600 * UM),
        n_ang=st.integers(4, 12),
    )
    def test_area_sum_invariant(self, radius, length, n_ang):
        box = DomainBox([0.0, 0.0, 0.0], [1.0e-3, 1.0e-3, 1.0e-3])
        grid = build_grid(box, (8, 8, 8))
        net = make_single_vessel(
            radius=radius,
            start=(0.2e-3, 0.5e-3, 0.5e-3),
            end=(0.2e-3 + length, 0.5e-3, 0.5e-3),
        )
        total = float(np.sum(build_surface_coupling(grid, net, n_angular=n_ang).area))
        assert total == pytest.approx(2.0 * math.pi * radius * length, rel=1e-12)


class TestProjections:
    def test_project_linear_interpolation(self):
        net = make_single_vessel()
        field = {0: 8000.0, 1: 4000.0}
        mid = project_1d_to_surface(net, field, 0, 50 * UM)
        assert mid == pytest.approx(6000.0, rel=1e-12)
        quarter = project_1d_to_surface(net, field, 0, 25 * UM)
        assert quarter == pytest.approx(7000.0, rel=1e-12)
