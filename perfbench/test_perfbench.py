"""The benchmark's own tests: its checks bind, its smoke runs are complete
and repeatable, and it refuses to run without the program.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import geometry  # noqa: E402
import workloads  # noqa: E402
from microvasc import (  # noqa: E402
    DomainBox,
    FlowParameters,
    OxygenParameters,
    RheologyParameters,
    VascularNetwork,
    assemble_flow_system,
    assemble_transport_operator,
    build_grid,
    build_surface_coupling,
    classify_arterial_venous,
    cli,
    growth,
    solve_flow,
    solve_oxygen,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT_CUBE = DomainBox([0.0] * 3, [1e-3] * 3)
# per-layer values that are counts of work or outcomes, not times
COUNTS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "ratio", "rel")]
COUNTS.remove("trace.unattributed_frac")


@pytest.fixture(scope="module")
def desk_states():
    net = workloads.make_desk_network()
    grid = build_grid(UNIT_CUBE, (6, 6, 6))
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(net, grid, coupling, RheologyParameters(), FlowParameters())
    flow = solve_flow(system)
    classify_arterial_venous(net, flow)
    operator = assemble_transport_operator(
        net, grid, coupling, flow, FlowParameters(), OxygenParameters()
    )
    return system, flow, solve_oxygen(operator, OxygenParameters())


def test_reference_check_binds():
    reference = {"PO2_roi": 38.0, "N_seg": 120.0}
    assert checks.relative_mismatches(dict(reference), reference) == []
    assert checks.relative_mismatches({"PO2_roi": 38.0 * (1 + 2e-6), "N_seg": 120.0}, reference)
    assert checks.relative_mismatches({"PO2_roi": 38.0, "N_seg": 121.0}, reference)


def test_flow_checks_pass_on_a_solve_and_fail_when_perturbed(desk_states):
    system, flow, _ = desk_states
    failures, residual = checks.check_flow(system, flow)
    assert failures == [] and residual <= checks.RESIDUAL_GATE

    inner = next(n for n in system.node_order if n not in system.dirichlet)
    p_v = dict(flow.p_v)
    p_v[inner] *= 1.0 + 1e-6
    failures, residual = checks.check_flow(system, dataclasses.replace(flow, p_v=p_v))
    assert residual > checks.RESIDUAL_GATE and any("residual" in f for f in failures)

    leak = dataclasses.replace(flow, filtration_3d=flow.filtration_3d * 1.001 + 1e-20)
    assert any("filtration" in f for f in checks.check_flow(system, leak)[0])

    fluxes = dict(flow.boundary_flux)
    first = next(iter(fluxes))
    fluxes[first] *= 1.001
    unbalanced = dataclasses.replace(flow, boundary_flux=fluxes)
    assert any("inflow" in f for f in checks.check_flow(system, unbalanced)[0])


def test_po2_bounds_bind(desk_states):
    _, _, oxy = desk_states
    arterial = OxygenParameters().arterial_po2
    assert checks.check_po2_bounds(oxy, arterial) == []
    for cells in (oxy.po2_t - 1e-3 - oxy.po2_t.min(), oxy.po2_t + arterial):
        assert checks.check_po2_bounds(dataclasses.replace(oxy, po2_t=cells), arterial)
    vessel = {n: v + arterial for n, v in oxy.po2_v.items()}
    assert checks.check_po2_bounds(dataclasses.replace(oxy, po2_v=vessel), arterial)


def _random_net(rng, n_segments):
    net = VascularNetwork()
    for _ in range(n_segments):
        a = net.new_node(rng.uniform(0, 1e-3, 3))
        b = net.new_node(a.position + rng.normal(size=3) * 60e-6)
        net.new_segment(a.id, b.id, float(rng.uniform(2e-6, 8e-6)))
    return net


def test_oracle_agrees_with_library_geometry():
    rng = np.random.default_rng(11)
    net = _random_net(rng, 200)
    table = checks.SegmentTable(net)
    octants = growth.OctantIndex.build(UNIT_CUBE, net)
    hits = 0
    for _ in range(300):
        p0 = rng.uniform(0, 1e-3, 3)
        p1 = p0 + rng.normal(size=3) * 60e-6
        radius = float(rng.uniform(2e-6, 8e-6))
        dist = checks.batch_segment_distance(p0, p1, table.q0, table.q1)
        scalar = [growth.segment_distance(p0, p1, q0, q1) for q0, q1 in zip(table.q0, table.q1)]
        np.testing.assert_allclose(dist, scalar, rtol=1e-12, atol=1e-18)
        answer = growth.collides(net, octants, p0, p1, radius, set())
        assert checks.oracle_collides(table, p0, p1, radius, ()) == answer
        hits += answer
    assert 0 < hits < 300


def test_collision_violations_counts_overlaps():
    net = VascularNetwork()
    for start, end in (((0, 0, 0), (1e-4, 0, 0)), ((5e-5, -5e-5, 1e-6), (5e-5, 5e-5, 1e-6))):
        a = net.new_node(np.array(start, float))
        b = net.new_node(np.array(end, float))
        net.new_segment(a.id, b.id, 3e-6)
    assert checks.collision_violations(net) == 1
    net.nodes[2].position[2] = net.nodes[3].position[2] = 1e-5
    assert checks.collision_violations(net) == 0


def test_geometry_pass_catches_wrong_answers(monkeypatch):
    net = workloads.make_desk_network()
    grid = build_grid(UNIT_CUBE, (6, 6, 6))
    rng = np.random.default_rng(3)
    clean = geometry.geometry_pass(net.copy(), UNIT_CUBE, UNIT_CUBE, grid, rng, 3, probe=lambda: 1.0)
    # engine build, 27 queries, 27 insert attempts, phase 3
    assert clean.failures == [] and clean.attempted == 2 + 2 * 27

    real = growth.collides
    monkeypatch.setattr(growth, "collides", lambda *args: not real(*args))
    wrong = geometry.geometry_pass(net.copy(), UNIT_CUBE, UNIT_CUBE, grid, rng, 3, probe=lambda: 1.0)
    assert len(wrong.failures) >= 27


def test_geometry_pass_counts_raising_calls_as_failed(monkeypatch):
    net = workloads.make_desk_network()
    grid = build_grid(UNIT_CUBE, (6, 6, 6))

    def broken(*args):
        raise KeyError("broken")

    monkeypatch.setattr(growth, "collides", broken)
    monkeypatch.setattr(growth.GrowthEngine, "run_phase3", broken)
    result = geometry.geometry_pass(net, UNIT_CUBE, UNIT_CUBE, grid, np.random.default_rng(3), 3,
                                    probe=lambda: 1.0)
    assert result.attempted == 2 + 2 * 27
    # check_and_insert calls collides, so every call but the engine build raises
    assert sum("raised" in f for f in result.failures) == 2 * 27 + 1
    assert result.query_seconds == []


def _starter_runner(tmp_path):
    from harness import Runner

    workload = workloads.StarterGenerate(1, True, tmp_path)
    workload.setup()
    return Runner(workload, trace=False)


def test_failed_command_is_counted_and_skips_its_geometry_pass(tmp_path, monkeypatch):
    runner = _starter_runner(tmp_path)
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    assert runner.run(0.0) == {"command": 1, "geometry": 1}
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.geometry_seconds == []


def test_raising_check_and_missing_checkpoint_are_counted(tmp_path, monkeypatch):
    runner = _starter_runner(tmp_path)
    monkeypatch.setattr(cli, "main", lambda argv: 0)

    def broken(*args):
        raise KeyError("PO2_roi")

    monkeypatch.setattr(runner.workload, "check", broken)
    runner.run(0.0)
    # the command's check raised; the pass found no checkpoint to read
    assert (runner.attempted, runner.failed) == (2, 2)


def test_answer_checks_fail_on_perturbed_reference(tmp_path, monkeypatch):
    from harness import run_once

    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, True, tmp_path / name)
        workload.setup()
        results = run_once(workload)
        assert workload.check(0, results)[0] == []
        reference = workloads.load_references()
        entry = reference[name]["smoke"][workload.variant(0)]
        key = next(iter(entry))
        entry[key] *= 1.0 + 1e-5
        monkeypatch.setattr(workloads, "load_references", lambda: reference)
        assert workload.check(0, results)[0]
        monkeypatch.undo()


def _bench(root, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True,
        text=True, timeout=170,
    )


def _smoke(workload, trace, seconds=0.01, seed=4):
    done = _bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_metric(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace:
            assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.1
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_counts_repeat_for_a_seed(workload):
    # one round against several: the counts must not depend on how many fit
    first, second = (_smoke(workload, 1, seconds)["metrics"] for seconds in (0.01, 3))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench(tmp_path, "--workload", "desk_solve", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
