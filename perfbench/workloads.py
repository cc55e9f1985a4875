"""The benchmark's three workloads: inputs, CLI commands and answer checks.

Each workload writes its input network and config in set-up, runs one
`microvasc` command per round through `cli.main`, and checks the answer
against references recorded in `reference.json` plus seed-independent
invariants. The desk ladder and starter tree are copies of the test-suite
fixtures, kept here so the benchmark's inputs stay fixed while tests change.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import checks
from lattice import make_lattice
from microvasc import (
    RunConfig,
    VascularNetwork,
    build_grid,
    enlarge_domain,
    parse_dgf,
    serialize_dgf,
)

UM = 1e-6
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Growth seeds with recorded answers. Every run cycles through all of them,
# from --seed on, so each run's median covers the same growth runs.
GROWTH_SEEDS = (0, 1, 2, 3)


def make_desk_network() -> VascularNetwork:
    """Deterministic ~50-segment ladder inside a 1 mm cube (tests/conftest.py)."""
    net = VascularNetwork()
    n = 13
    xs = np.linspace(0.1e-3, 0.9e-3, n)
    art = [net.new_node(np.array([x, 0.30e-3, 0.50e-3])).id for x in xs]
    ven = [net.new_node(np.array([x, 0.70e-3, 0.50e-3])).id for x in xs]
    inlet = net.nodes[art[0]]
    inlet.kind = "boundary"
    inlet.boundary_pressure = 8000.0
    outlet = net.nodes[ven[-1]]
    outlet.kind = "boundary"
    outlet.boundary_pressure = 4000.0
    for i in range(n - 1):
        net.new_segment(art[i], art[i + 1], 15 * UM)
        net.new_segment(ven[i], ven[i + 1], 18 * UM)
    for i in range(n):
        net.new_segment(art[i], ven[i], 3 * UM)
    for i in range(1, n - 1):
        twig = net.new_node(np.array([xs[i], 0.30e-3, 0.54e-3]))
        net.new_segment(art[i], twig.id, 2.5 * UM)
    return net


def make_starter_network() -> VascularNetwork:
    """Four-inlet seed tree for growth runs in a 0.5 mm cube (tests/conftest.py)."""
    net = VascularNetwork()
    c = 0.25e-3
    roots = [
        ((0.0, c, c), (60 * UM, c, c), 9000.0),
        ((0.5e-3, c, c), (0.5e-3 - 60 * UM, c, c), 3000.0),
        ((c, 0.0, c), (c, 60 * UM, c), 8500.0),
        ((c, 0.5e-3, c), (c, 0.5e-3 - 60 * UM, c), 3500.0),
    ]
    for pos, tip_pos, pressure in roots:
        root = net.new_node(
            np.array(pos), kind="boundary", boundary_pressure=pressure, is_root=True
        )
        tip = net.new_node(np.array(tip_pos))
        net.new_segment(root.id, tip.id, 6 * UM)
    return net


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class Workload:
    """One workload: set-up writes the input, each round runs one command."""

    name = ""
    command = ""
    variants = 1  # inputs with recorded answers; --seed picks among them

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.size_key = "smoke" if smoke else "full"
        self.workdir = workdir
        self.out = workdir / "out"
        self.dgf = workdir / "input.dgf"
        self.config_path = workdir / "config.json"

    # subclasses fill these in
    def network(self) -> VascularNetwork:
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError

    def variant(self, round_index: int) -> str:
        return "0"

    def setup(self):
        """Build the input network, write it as DGF, write the config."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.dgf.write_text(serialize_dgf(self.network()))
        config = {"input_dgf": str(self.dgf), "output_dir": str(self.out), **self.config()}
        self.config_path.write_text(json.dumps(config))
        self.run_config = RunConfig.from_dict(config)

    def argv(self, round_index: int) -> list[str]:
        return [self.command, "--config", str(self.config_path)]

    def boxes(self):
        roi = self.run_config.roi_box()
        domain = enlarge_domain(roi, self.run_config.domain_enlargement)
        return roi, domain, build_grid(domain, self.run_config.grid_cells)

    def geometry_network(self, round_index: int) -> VascularNetwork:
        """Network the round's geometry pass runs on: the command's input."""
        return parse_dgf(self.dgf.read_text())

    def reference(self, round_index: int) -> dict:
        return load_references()[self.name][self.size_key][self.variant(round_index)]

    def check(self, round_index: int, results: dict) -> tuple[list[str], float]:
        """Failures of one command's answer, and its worst flow residual."""
        failures, worst = self.check_invariants(results)
        if not failures:
            failures = checks.relative_mismatches(
                self.answer(results), self.reference(round_index)
            )
        return failures, worst

    def check_invariants(self, results: dict) -> tuple[list[str], float]:
        """Seed-independent checks on every flow and oxygen state solved."""
        failures = []
        worst = 0.0
        systems = results["assemble_flow_system"]
        flows = results["solve_flow"]
        oxys = results["solve_oxygen"]
        if not systems or not len(systems) == len(flows) == len(oxys):
            return [f"captured {len(systems)} systems, {len(flows)} flows, "
                    f"{len(oxys)} oxygen states"], worst
        arterial = self.run_config.oxygen.arterial_po2
        for system, flow, oxy in zip(systems, flows, oxys):
            flow_failures, residual = checks.check_flow(system, flow)
            failures += flow_failures + checks.check_po2_bounds(oxy, arterial)
            worst = max(worst, residual)
        return failures, worst

    def answer(self, results: dict) -> dict:
        raise NotImplementedError


class SolveWorkload(Workload):
    command = "solve"

    def check_invariants(self, results):
        failures, worst = super().check_invariants(results)
        if len(results["tissue_averages"]) != 1:
            failures.append("solve did not report roi averages exactly once")
        return failures, worst

    def answer(self, results):
        po2_roi, pt_roi, f_tv = results["tissue_averages"][-1]
        return {"PO2_roi": po2_roi, "p_t_roi": pt_roi, "F_tv": f_tv}


class DeskSolve(SolveWorkload):
    """Desk ladder (~50 segments) on a 20^3 grid over the 1 mm cube."""

    name = "desk_solve"

    def network(self):
        return make_desk_network()

    def config(self):
        cells = 6 if self.smoke else 20
        return {
            "grid_cells": [cells] * 3,
            "roi_lower": [0.0] * 3,
            "roi_upper": [1.0e-3] * 3,
            "domain_enlargement": 0.0,
        }


class Lattice(SolveWorkload):
    """Jittered capillary lattice (~5.6k segments) on a coarse 12^3 grid."""

    name = "lattice"
    variants = 8

    def variant(self, round_index):
        return str(self.seed % self.variants)

    def network(self):
        return make_lattice(int(self.variant(0)), 4 if self.smoke else 13)

    def config(self):
        cells = 5 if self.smoke else 12
        return {"grid_cells": [cells] * 3, "roi_lower": [0.0] * 3, "roi_upper": [0.5e-3] * 3}


class StarterGenerate(Workload):
    """Four-root starter tree grown through phases 1-3, one seed per round."""

    name = "starter_generate"
    command = "generate"
    variants = len(GROWTH_SEEDS)

    def variant(self, round_index):
        return str(GROWTH_SEEDS[(self.seed + round_index) % self.variants])

    def network(self):
        return make_starter_network()

    def config(self):
        cells, iters = (5, 1) if self.smoke else (12, 6)
        return {
            "grid_cells": [cells] * 3,
            "roi_lower": [0.0] * 3,
            "roi_upper": [0.5e-3] * 3,
            "growth": {"max_iter_p1": iters, "max_iter_p2": iters, "max_iter_p3": iters},
        }

    def argv(self, round_index):
        return super().argv(round_index) + ["--seed", self.variant(round_index)]

    def grown_network(self) -> VascularNetwork:
        """The last phase-3 checkpoint: the grown network before clipping.

        Phase 3 is not run on the clipped network: clipping leaves isolated
        two-node pieces, on which `run_phase3` raises KeyError.
        """
        last = sorted((self.out / "checkpoints").glob("phase3_step*.dgf"))[-1]
        return parse_dgf(last.read_text())

    def geometry_network(self, round_index):
        """The network this round's command grew."""
        return self.grown_network()

    def answer(self, results):
        with open(self.out / "statistics.csv", newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        return {key: float(value) for key, value in zip(rows[0], rows[1])}

    def check_invariants(self, results):
        failures, worst = super().check_invariants(results)
        # growth guarantees no two unrelated vessels overlap before clipping
        overlaps = checks.collision_violations(self.grown_network())
        if overlaps:
            failures.append(f"{overlaps} overlapping vessel pairs in the grown network")
        return failures, worst


WORKLOADS = {w.name: w for w in (DeskSolve, Lattice, StarterGenerate)}
