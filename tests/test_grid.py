import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microvasc import DomainBox, build_grid, build_surface_coupling
from microvasc.errors import ValidationError

from conftest import UM, make_single_vessel
from exchange_oracle import project_1d_to_surface


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

    def test_index_round_trip(self, desk_grid):
        for idx in (0, 1, 19, 20, 399, 400, 7999):
            i, j, k = desk_grid.linear_to_ijk(idx)
            assert desk_grid.ijk_to_linear(i, j, k) == idx

    def test_cell_center_inverse_of_locate(self, desk_grid):
        rng = np.random.default_rng(7)
        for idx in rng.integers(0, desk_grid.n_cells, 50):
            cell, clamped = desk_grid.locate(desk_grid.cell_center(int(idx)))
            assert cell == idx and not clamped

    def test_locate_clamps_outside_points(self, desk_grid):
        cell, clamped = desk_grid.locate([-1.0, 0.5e-3, 0.5e-3])
        assert clamped
        i, _, _ = desk_grid.linear_to_ijk(cell)
        assert i == 0

    def test_too_few_cells_rejected(self, unit_cube):
        with pytest.raises(ValidationError):
            build_grid(unit_cube, (1, 20, 20))

    def test_cell_centers_match_indexing(self, desk_grid):
        centers = desk_grid.cell_centers()
        for idx in (0, 137, 4242):
            assert np.allclose(centers[idx], desk_grid.cell_center(idx))


class TestSurfaceCoupling:
    def test_per_segment_area_exact(self, desk_grid):
        net = make_single_vessel(
            radius=5 * UM,
            start=(0.2e-3, 0.5e-3, 0.5e-3),
            end=(0.8e-3, 0.5e-3, 0.5e-3),
        )
        coupling = build_surface_coupling(desk_grid, net)
        sc = coupling.per_segment[0]
        length = 0.6e-3
        assert sc.total_area == pytest.approx(
            2.0 * math.pi * 5 * UM * length, rel=1e-12
        )

    def test_equal_sample_weights(self, desk_grid):
        net = make_single_vessel(start=(0.2e-3, 0.5e-3, 0.5e-3),
                                 end=(0.8e-3, 0.5e-3, 0.5e-3))
        sc = build_surface_coupling(desk_grid, net).per_segment[0]
        assert len(sc.cells) == sc.n_axial * sc.n_angular
        # equal-area lattice: one shared scalar weight
        assert sc.sample_area > 0.0

    def test_axial_resolution_tracks_cell_size(self, desk_grid):
        net = make_single_vessel(start=(0.2e-3, 0.5e-3, 0.5e-3),
                                 end=(0.8e-3, 0.5e-3, 0.5e-3))
        sc = build_surface_coupling(desk_grid, net).per_segment[0]
        # 0.6 mm vessel across 50 um cells: at least 2 rings per cell
        assert sc.n_axial >= 2 * math.ceil(0.6e-3 / 0.05e-3)

    def test_thin_vessel_samples_single_cell_column(self, desk_grid):
        net = make_single_vessel(
            radius=2 * UM,
            start=(0.2e-3, 0.525e-3, 0.525e-3),
            end=(0.8e-3, 0.525e-3, 0.525e-3),
        )
        sc = build_surface_coupling(desk_grid, net).per_segment[0]
        js = {desk_grid.linear_to_ijk(c)[1] for c in sc.cells}
        ks = {desk_grid.linear_to_ijk(c)[2] for c in sc.cells}
        # radius far below cell size: all samples stay in one y/z cell row
        assert js == {10} and ks == {10}

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
        total = build_surface_coupling(grid, net, n_angular=n_ang).total_area()
        assert total == pytest.approx(2.0 * math.pi * radius * length, rel=1e-12)


class TestProjections:
    def test_project_linear_interpolation(self):
        net = make_single_vessel()
        field = {0: 8000.0, 1: 4000.0}
        mid = project_1d_to_surface(net, field, 0, 50 * UM)
        assert mid == pytest.approx(6000.0, rel=1e-12)
        quarter = project_1d_to_surface(net, field, 0, 25 * UM)
        assert quarter == pytest.approx(7000.0, rel=1e-12)
