import dataclasses
import json

import numpy as np
import pytest

from microvasc import GrowthEngine, RunConfig, network_characteristics, serialize_dgf
from microvasc.cli import _run_generation, _setup_domain, main
from microvasc.errors import ValidationError
from microvasc.growth import control_volume_averages
from microvasc.units import pa_to_mmhg

from conftest import UM, make_desk_network, make_single_vessel, make_starter_network


def write_inputs(tmp_path, net=None, **overrides):
    net = net or make_single_vessel(
        start=(0.1e-3, 0.5e-3, 0.5e-3), end=(0.9e-3, 0.5e-3, 0.5e-3)
    )
    dgf = tmp_path / "input.dgf"
    dgf.write_text(serialize_dgf(net))
    data = {
        "input_dgf": str(dgf),
        "output_dir": str(tmp_path / "out"),
        "grid_cells": [8, 8, 8],
        "roi_lower": [0.0, 0.0, 0.0],
        "roi_upper": [1.0e-3, 1.0e-3, 1.0e-3],
    }
    data.update(overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    return config, tmp_path / "out"


class TestConfig:
    def test_defaults_round_trip(self):
        config = RunConfig()
        again = RunConfig.from_dict(dataclasses.asdict(config))
        assert again == config
        assert again.digest() == config.digest()

    def test_unknown_key_rejected(self):
        for data in ({"not_a_key": 1}, {"growth": {"gama": 3.0}}, {"oxygen": [1, 2]}):
            with pytest.raises(ValidationError):
                RunConfig.from_dict(data)

    def test_nested_parameter_override(self):
        config = RunConfig.from_dict(
            {"oxygen": {"max_consumption": 4.0}, "master_seed": 7}
        )
        assert config.oxygen.max_consumption == 4.0
        assert config.master_seed == 7
        assert config.digest() != RunConfig().digest()

    @pytest.mark.parametrize(
        "data",
        [
            {"master_seed": -1}, {"repetitions": 0}, {"phases": [4]}, {"phases": [1, 0]},
            {"roi_lower": [0, 0]}, {"grid_cells": [6.7, 6, 6]}, {"domain_enlargement": -0.1},
            {"growth": {"cv_per_axis": 0}}, {"growth": {"cv_per_axis": 2.5}},
            {"growth": {"sigma_r": -0.3}},
            {"growth": {"link_sigma": -1e-5}}, {"growth": {"small_radius_mode_sigma": -1e-7}},
            {"growth": {"radius_sigma_divisor": 0}},
        ],
    )
    def test_bad_run_settings_rejected(self, data):
        with pytest.raises(ValidationError, match=next(iter(data))):
            RunConfig.from_dict(data)

    def test_provenance_lines(self):
        lines = RunConfig(master_seed=3).provenance("0.1.0")
        assert any("seed 3" in line for line in lines)
        assert any("config" in line for line in lines)


class TestCommands:
    def test_solve_writes_artifacts(self, tmp_path, capsys):
        config, out = write_inputs(tmp_path)
        assert main(["solve", "--config", str(config)]) == 0
        for name in ("tissue.vtk", "network.vtk", "nodes.csv", "cells.csv"):
            assert (out / name).exists()
        printed = capsys.readouterr().out
        assert "PO2_roi" in printed and "F_tv" in printed
        assert "clamped  = 0 samples" in printed

    def test_solve_reports_clamped_samples(self, tmp_path, capsys):
        # the grid spans the roi [0, 1 mm] grown by 10%: the vessel pokes out
        net = make_single_vessel(
            start=(0.5e-3, 0.5e-3, 0.5e-3), end=(1.3e-3, 0.5e-3, 0.5e-3)
        )
        config, _ = write_inputs(tmp_path, net=net)
        assert main(["solve", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [l for l in lines if l.startswith("clamped")]
        assert line.endswith(" samples")
        assert int(line.split("=")[1].split()[0]) > 0

    def test_characteristics_report(self, tmp_path, capsys):
        config, _ = write_inputs(tmp_path)
        assert main(["characteristics", "--config", str(config)]) == 0
        printed = capsys.readouterr().out
        assert "N_seg = 1" in printed
        assert "L     = 0.0008" in printed

    def test_export_vtk(self, tmp_path):
        config, out = write_inputs(tmp_path)
        assert main(["export-vtk", "--config", str(config)]) == 0
        assert (out / "network.vtk").read_text().startswith("# vtk DataFile")

    def test_missing_input_is_reported(self, tmp_path, capsys):
        code = main(["characteristics", "--input", str(tmp_path / "nope.dgf")])
        assert code == 1
        report = json.loads(capsys.readouterr().err)
        assert "not found" in report["message"]

    def test_malformed_config_section_is_reported(self, tmp_path, capsys):
        config, _ = write_inputs(tmp_path, growth={"gama": 3.0})
        assert main(["solve", "--config", str(config)]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ValidationError"
        assert "gama" in report["message"]

    def test_singular_system_is_reported(self, tmp_path, capsys):
        # a floating segment, with no Dirichlet node and no wall exchange,
        # leaves the oxygen node block singular
        net = make_desk_network()
        a = net.new_node(np.array([0.5e-3, 0.5e-3, 0.2e-3])).id
        b = net.new_node(np.array([0.6e-3, 0.5e-3, 0.2e-3])).id
        net.new_segment(a, b, 5 * UM)
        config, _ = write_inputs(tmp_path, net=net, oxygen={"wall_permeability": 0})
        assert main(["solve", "--config", str(config)]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "SolverError"
        assert "singular" in report["message"]

    @pytest.mark.parametrize("pressure", [None, 5000.0])
    def test_vertex_without_segment_is_reported(self, tmp_path, capsys, pressure):
        net = make_single_vessel(
            start=(0.1e-3, 0.5e-3, 0.5e-3), end=(0.9e-3, 0.5e-3, 0.5e-3)
        )
        kind = "inner" if pressure is None else "boundary"
        net.new_node(np.array([0.5e-3, 0.2e-3, 0.5e-3]), kind=kind, boundary_pressure=pressure)
        config, _ = write_inputs(tmp_path, net=net)
        assert main(["solve", "--config", str(config)]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "SolverError"
        assert "node 2 has no segment" in report["message"]

    @pytest.mark.parametrize(
        "command, overrides, flags, field",
        [
            ("generate", {}, ["--seed", "-1"], "master_seed"),
            ("stats", {}, ["--repetitions", "0"], "repetitions"),
            ("generate", {"phases": [4]}, [], "phases"),
            ("solve", {"roi_lower": [0, 0]}, [], "roi_lower"),
            ("solve", {"grid_cells": [6.7, 6, 6]}, [], "grid_cells"),
            ("generate", {"domain_enlargement": -0.1}, [], "domain_enlargement"),
            ("generate", {"growth": {"cv_per_axis": 0}}, [], "cv_per_axis"),
            ("generate", {"growth": {"sigma_r": -0.3}}, [], "sigma_r"),
            ("generate", {"growth": {"link_sigma": -1e-5}}, [], "link_sigma"),
            ("generate", {"growth": {"small_radius_mode_sigma": -1e-7}}, [],
             "small_radius_mode_sigma"),
            ("generate", {"growth": {"radius_sigma_divisor": 0}}, [], "radius_sigma_divisor"),
        ],
    )
    def test_bad_run_settings_are_reported(
        self, tmp_path, capsys, command, overrides, flags, field
    ):
        """Checked after the flags override the file, before any output."""
        config, out = write_inputs(tmp_path, **overrides)
        assert main([command, "--config", str(config), *flags]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ValidationError"
        assert field in report["message"]
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path, capsys):
        config, _ = write_inputs(tmp_path)
        other = make_single_vessel(
            start=(0.1e-3, 0.4e-3, 0.5e-3), end=(0.5e-3, 0.4e-3, 0.5e-3)
        )
        alt = tmp_path / "alt.dgf"
        alt.write_text(serialize_dgf(other))
        assert main(["characteristics", "--config", str(config),
                     "--input", str(alt)]) == 0
        assert "L     = 0.0004" in capsys.readouterr().out

    def test_generate_writes_trace_and_stats(self, tmp_path, capsys):
        net = make_starter_network()
        config, out = write_inputs(
            tmp_path,
            net=net,
            roi_lower=[0.0, 0.0, 0.0],
            roi_upper=[0.5e-3, 0.5e-3, 0.5e-3],
            grid_cells=[8, 8, 8],
            master_seed=11,
            growth={"max_iter_p1": 2, "max_iter_p2": 2, "max_iter_p3": 3},
        )
        assert main(["generate", "--config", str(config)]) == 0
        assert (out / "final_network.dgf").exists()
        assert (out / "po2_roi_trace.csv").exists()
        stats_lines = (out / "statistics.csv").read_text().splitlines()
        assert any(line.startswith("L,") for line in stats_lines)
        assert (out / "checkpoints").is_dir()
        assert list((out / "checkpoints").glob("phase1_step*.dgf"))

    def test_generation_statistics_sources(self, tmp_path, monkeypatch):
        """Solver quantities come from the last phase-2 solve; the network
        quantities from the pruned, clipped phase-3 network."""
        config, _ = write_inputs(
            tmp_path,
            net=make_starter_network(),
            roi_lower=[0.0, 0.0, 0.0],
            roi_upper=[0.5e-3, 0.5e-3, 0.5e-3],
            grid_cells=[8, 8, 8],
            growth={"max_iter_p1": 2, "max_iter_p2": 2, "max_iter_p3": 3},
        )
        config = RunConfig.from_file(config)
        solves = []
        solve_state = GrowthEngine.solve_state

        def counted(engine):
            solves.append(len(engine.net.segments))
            return solve_state(engine)

        monkeypatch.setattr(GrowthEngine, "solve_state", counted)
        engine, stats = _run_generation(config, 11, None)
        # one solve per phase-1/2 step: the final network is not re-solved
        solved = [po2_roi for phase, _, po2_roi in engine.steps if phase < 3]
        carried = [po2_roi for phase, _, po2_roi in engine.steps if phase == 3]
        assert len(solves) == len(solved)
        assert stats.PO2_roi == solved[-1]
        # phase 3 solves nothing: its steps carry the last solved PO2_roi
        assert carried and set(carried) == {solved[-1]}
        assert stats.N_it == len(engine.steps)
        roi, _, grid = _setup_domain(config)
        _, pt_avg = control_volume_averages(engine.flow.p_t, grid, roi, 1)
        assert stats.p_t_roi == pa_to_mmhg(pt_avg)
        assert stats.F_tv == engine.flow.f_tv
        final = network_characteristics(engine.net)
        assert (stats.L, stats.A, stats.V, stats.N_seg) == final
        assert all(roi.contains(node.position) for node in engine.net.nodes.values())
        assert solves[-1] != stats.N_seg

    def test_stats_running_means(self, tmp_path):
        net = make_starter_network()
        config, out = write_inputs(
            tmp_path,
            net=net,
            roi_lower=[0.0, 0.0, 0.0],
            roi_upper=[0.5e-3, 0.5e-3, 0.5e-3],
            grid_cells=[8, 8, 8],
            phases=[1],
            growth={"max_iter_p1": 1, "max_iter_p2": 1, "max_iter_p3": 1},
        )
        assert main(["stats", "--config", str(config), "--repetitions", "2"]) == 0
        means = (out / "running_means.csv").read_text().splitlines()
        samples = (out / "samples.csv").read_text().splitlines()
        # preamble + header + one row per repetition
        assert len([l for l in means if not l.startswith("#")]) == 3
        assert len([l for l in samples if not l.startswith("#")]) == 3
