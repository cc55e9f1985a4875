import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microvasc import (
    DomainBox,
    FlowParameters,
    GrowthEngine,
    GrowthParameters,
    OxygenParameters,
    RheologyParameters,
    RunStatistics,
    VascularNetwork,
    enlarge_domain,
    histogram,
    network_characteristics,
    running_means,
)
from microvasc.errors import ValidationError
from microvasc.export import cell_field_to_vtk, network_to_vtk, write_csv
from microvasc.grid import build_grid

from conftest import UM, make_desk_network, make_starter_network, make_y_junction


def grown_starter_network():
    """The starter tree after two steps each of phases 1 and 2, 12^3 grid."""
    roi = DomainBox([0.0] * 3, [0.5e-3] * 3)
    domain = enlarge_domain(roi, 0.10)
    engine = GrowthEngine(
        make_starter_network(), domain, roi, build_grid(domain, (12, 12, 12)),
        RheologyParameters(), FlowParameters(), OxygenParameters(),
        GrowthParameters(max_iter_p1=2, max_iter_p2=2), np.random.default_rng(0),
    )
    engine.run_phase1()
    engine.run_phase2()
    return engine.net


def characteristics_oracle(net):
    """`network_characteristics` as the per-segment loop it was written as."""
    total_l = total_a = total_v = 0.0
    for sid in net.segments:
        seg = net.segments[sid]
        length, _ = net.segment_geometry(sid)
        total_l += length
        total_a += 2.0 * math.pi * seg.radius * length
        total_v += math.pi * seg.radius**2 * length
    return total_l, total_a, total_v, len(net.segments)


class TestCharacteristics:
    def test_single_segment_closed_form(self):
        net = VascularNetwork()
        net.new_node([0.0, 0.0, 0.0])
        net.new_node([200 * UM, 0.0, 0.0])
        net.new_segment(0, 1, 5 * UM)
        length, area, volume, n = network_characteristics(net)
        assert length == pytest.approx(200 * UM)
        assert area == pytest.approx(2 * math.pi * 5 * UM * 200 * UM, rel=1e-12)
        assert volume == pytest.approx(math.pi * (5 * UM) ** 2 * 200 * UM, rel=1e-12)
        assert n == 1

    def test_additive_over_segments(self):
        net = make_y_junction()
        length, area, volume, n = network_characteristics(net)
        parts = [net.segment_geometry(s)[0] for s in net.segments]
        assert length == pytest.approx(sum(parts), rel=1e-12)
        assert n == 3
        assert area > 0.0 and volume > 0.0

    def test_empty_network(self):
        length, area, volume, n = network_characteristics(VascularNetwork())
        assert (length, area, volume, n) == (0.0, 0.0, 0.0, 0)

    @pytest.mark.blas_threads
    @pytest.mark.parametrize(
        "make", [make_desk_network, make_starter_network, grown_starter_network]
    )
    def test_equals_the_per_segment_loop(self, make):
        net = make()
        assert network_characteristics(net) == characteristics_oracle(net)

    def test_zero_length_segment_rejected(self):
        net = make_y_junction()
        net.new_segment(1, net.new_node(net.nodes[1].position.copy()).id, 2 * UM)
        with pytest.raises(ValidationError, match="segment 3: coincident endpoints"):
            network_characteristics(net)

    @pytest.mark.parametrize(
        "make", [make_desk_network, make_starter_network, grown_starter_network]
    )
    def test_area_bounded_by_length_and_volume(self, make):
        # A = 2 pi sum(r l), L = sum(l), V = pi sum(r^2 l): Cauchy-Schwarz
        # gives A^2 <= 4 pi L V, with equality when all radii are equal
        net = make()
        length, area, volume, n = network_characteristics(net)
        assert n > 0
        assert area**2 <= 4.0 * math.pi * length * volume * (1.0 + 1e-12)


class TestHistogram:
    def test_bins_aligned_to_zero(self):
        edges, counts, mean, std = histogram([2.5, 3.5, 7.5], 2.0)
        assert edges[0] == pytest.approx(2.0)
        assert edges[-1] == pytest.approx(8.0)
        assert counts.sum() == 3

    def test_mean_std_ddof1(self):
        data = [1.0, 2.0, 3.0, 4.0]
        _, _, mean, std = histogram(data, 1.0)
        assert mean == pytest.approx(2.5)
        assert std == pytest.approx(np.std(data, ddof=1))

    def test_single_sample_zero_std(self):
        _, counts, mean, std = histogram([5.0], 1.0)
        assert mean == 5.0 and std == 0.0 and counts.sum() == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            histogram([], 1.0)
        with pytest.raises(ValidationError):
            histogram([1.0], 0.0)

    def test_tiny_negative_sample_counted(self):
        # -5e-324 / 2 rounds to -0.0, which floors to the bin right of it
        edges, counts, _, _ = histogram([-5e-324], 2.0)
        assert counts.sum() == 1 and edges[0] == -2.0

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(st.floats(-100, 100), min_size=1, max_size=60),
        width=st.floats(0.5, 10.0),
    )
    def test_counts_cover_all_samples(self, data, width):
        _, counts, _, _ = histogram(data, width)
        assert counts.sum() == len(data)


class TestRunningMeans:
    def test_prefix_means(self):
        samples = [
            RunStatistics(L=1.0, N_seg=10),
            RunStatistics(L=3.0, N_seg=20),
            RunStatistics(L=5.0, N_seg=30),
        ]
        means = running_means(samples)
        assert means["L"] == pytest.approx([1.0, 2.0, 3.0])
        assert means["N_seg"] == pytest.approx([10.0, 15.0, 20.0])

    def test_requires_samples(self):
        with pytest.raises(ValidationError):
            running_means([])

    def test_as_row_order_matches_quantities(self):
        stats = RunStatistics(L=1, A=2, V=3, N_seg=4, PO2_roi=5,
                              p_t_roi=6, F_tv=7, N_it=8)
        assert stats.as_row() == [1, 2, 3, 4, 5, 6, 7, 8]


class TestExports:
    def test_network_vtk_structure(self):
        text = network_to_vtk(make_y_junction())
        lines = text.splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "DATASET POLYDATA" in text
        assert "POINTS 4 double" in text
        assert "LINES 3 9" in text
        assert "SCALARS radius double 1" in text

    def test_cell_field_vtk_structure(self):
        grid = build_grid(DomainBox([0, 0, 0], [1e-3, 1e-3, 1e-3]), (3, 3, 3))
        text = cell_field_to_vtk(grid, {"po2": np.arange(27.0)})
        assert "DIMENSIONS 3 3 3" in text
        assert "SCALARS po2 double 1" in text
        # values written in linear cell order
        assert text.splitlines()[-1] == "26"

    def test_write_csv_with_preamble(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[1, 3], [2, 4]], ["prov line"])
        content = path.read_text().splitlines()
        assert content[0] == "# prov line"
        assert content[1] == "a,b"
        assert content[2] == "1,2"
