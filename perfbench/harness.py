"""Runs a workload's rounds and turns their timings and spans into metrics.

Imported by run.py once microvasc is importable from the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from calibrate import Probe
from geometry import geometry_pass
from microvasc import cli, growth
from tracing import LAYERS, Capture, Tracer, instrument

PROBE_REFERENCE_S = 0.031  # probe time on an unloaded core of the reference machine
# least time between probes inside a command: on a shared host the speed
# decorrelates within a few seconds, longer than a short command, shorter
# than the longest
PROBE_INTERVAL_S = 1.0


def run_once(workload) -> dict:
    """Run the first round's command untimed; return the captured solver results."""
    capture = Capture()
    with instrument(None, cli, growth, capture), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workload.argv(0))
    if code != 0:
        raise RuntimeError(f"{workload.name}: microvasc {workload.command} exited with {code}")
    return capture.results


class Runner:
    """One workload's timed loop, its correctness bookkeeping and its spans."""

    def __init__(self, workload, trace: bool):
        self.workload = workload
        self.capture = Capture()
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.probe = Probe()
        self.command_ok = {}  # round -> whether its command ran to exit code 0
        self.command_seconds = {"untraced": [], "traced": []}
        self.command_probes = []
        self.command_variants = []
        self.geometry_seconds = []
        self.geometry_probes = []
        self.geometry_variants = []
        self.query_seconds = []
        self.query_probes = []
        self.query_variants = []
        self.first_residual = float("nan")  # worst flow residual of round 0's traced command
        self.op_walls = []  # (run id, wall seconds) of traced operations

    def fail(self, count: int, messages):
        self.failed += count
        for message in messages:
            print(f"perfbench: {self.workload.name} seed {self.workload.seed}: {message}",
                  file=sys.stderr)

    def command(self, k: int, traced: bool):
        tracer = self.tracer if traced else None
        self.capture.clear()
        # every command starts without outputs, so no round reads another's
        shutil.rmtree(self.workload.out, ignore_errors=True)
        argv = self.workload.argv(k)
        code = None
        probes = [] if traced else [self.probe()]
        paused = last = 0.0

        def probe_between_calls():
            """At most once a PROBE_INTERVAL_S, after a captured library
            call returns, probe the machine speed; the probe's time is taken
            out of the command's."""
            nonlocal paused, last
            now = time.perf_counter()
            if now - last >= PROBE_INTERVAL_S:
                probes.append(self.probe())
                last = time.perf_counter()
                paused += last - now

        self.capture.after = None if traced else probe_between_calls
        with instrument(tracer, cli, growth, self.capture), \
                contextlib.redirect_stdout(io.StringIO()):
            start = last = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.run_id = f"r{k}.command"
                    code = tracer.call("cli.main", cli.main, (argv,), {})
            except Exception:
                traceback.print_exc()
            elapsed = time.perf_counter() - start - paused
        self.capture.after = None
        self.attempted += 1
        self.command_ok[k] = code == 0
        self.command_seconds["traced" if traced else "untraced"].append(elapsed)
        if traced:
            self.op_walls.append((tracer.run_id, elapsed))
        else:
            probes.append(self.probe())
            self.command_probes.append(statistics.mean(probes))
            self.command_variants.append(self.workload.variant(k))
        if code != 0:
            self.fail(1, [f"round {k}: microvasc {argv[0]} exited with {code}"])
            return
        try:
            failures, residual = self.workload.check(k, self.capture.results)
        except Exception as exc:
            failures, residual = [f"checking the answer raised {exc!r}"], float("nan")
        self.capture.clear()
        self.fail(1 if failures else 0, [f"round {k}: {m}" for m in failures])
        if traced and k == 0:
            self.first_residual = residual

    def geometry(self, k: int):
        """Round k's geometry pass; skipped when the round's command failed,
        since its network may be missing or another round's."""
        if not self.command_ok[k]:
            return
        try:
            net = self.workload.geometry_network(k)
        except Exception as exc:
            self.attempted += 1
            self.fail(1, [f"round {k}: reading the geometry network raised {exc!r}"])
            return
        roi, domain, grid = self.workload.boxes()
        rng = np.random.default_rng([self.workload.seed % 2**32, k])
        per_axis = 3 if self.workload.smoke else 6
        if self.tracer is not None:
            self.tracer.run_id = f"r{k}.geometry"
        with instrument(self.tracer, cli, growth, self.capture):
            result = geometry_pass(net, roi, domain, grid, rng, per_axis, self.probe)
        self.attempted += result.attempted
        self.fail(len(result.failures), [f"round {k}: {m}" for m in result.failures])
        if result.failures:
            return
        self.geometry_seconds.append(result.seconds)
        self.query_seconds += result.query_seconds
        self.query_probes += result.query_probes
        self.query_variants += [self.workload.variant(k)] * len(result.query_seconds)
        self.geometry_probes.append(statistics.mean(result.probes))
        self.geometry_variants.append(self.workload.variant(k))
        if self.tracer is not None:
            self.op_walls.append((self.tracer.run_id, result.seconds))

    def run(self, seconds: float):
        """Alternate commands and geometry passes, at least one of each,
        until the next one would overrun `seconds`. In a traced run each
        command runs twice, untraced then traced, for the overhead."""
        begin = time.perf_counter()
        last = {}
        done = {"command": 0, "geometry": 0}
        while True:
            kind = "command" if done["command"] <= done["geometry"] else "geometry"
            if all(done.values()) and time.perf_counter() - begin + last[kind] > seconds:
                return done
            start = time.perf_counter()
            k = done[kind]
            if kind == "geometry":
                self.geometry(k)
            else:
                if self.tracer is not None:
                    self.command(k, traced=False)
                self.command(k, traced=self.tracer is not None)
            last[kind] = time.perf_counter() - start
            done[kind] += 1


def median(values) -> float:
    """Median, or NaN when a run has no sample (all its operations failed)."""
    return statistics.median(values) if values else float("nan")


def p50(values) -> float:
    return float(np.percentile(values, 50))


def p95(values) -> float:
    return float(np.percentile(values, 95))


def calibrated(seconds, probes):
    """Times rescaled to the reference machine speed: each divided by the
    probe time measured around it, times the reference probe time."""
    return [PROBE_REFERENCE_S * s / p for s, p in zip(seconds, probes)]


def over_inputs(stat, values, variants) -> float:
    """Median over the run's inputs of `stat` of each input's values, so that
    an input met more often in a run (a growth seed, for one) does not weigh
    more."""
    by_input: dict[str, list[float]] = {}
    for variant, value in zip(variants, values):
        by_input.setdefault(variant, []).append(value)
    return median([stat(v) for v in by_input.values()])


def end_to_end_metrics(runner: Runner, setups, setup_probes) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    commands = runner.command_seconds["untraced"]
    queries_ms = [1e3 * s for s in calibrated(runner.query_seconds, runner.query_probes)]
    raw_ms = [1e3 * s for s in runner.query_seconds]
    print("# uncalibrated " + json.dumps({
        "setup_s": median(setups),
        "command_s": over_inputs(statistics.median, commands, runner.command_variants),
        "geometry_s": over_inputs(
            statistics.median, runner.geometry_seconds, runner.geometry_variants),
        "collide_ms_p50": over_inputs(p50, raw_ms, runner.query_variants),
        "collide_ms_p95": over_inputs(p95, raw_ms, runner.query_variants),
        "probe_s": median(setup_probes + runner.command_probes + runner.geometry_probes),
    }))
    return {
        "setup_s": (median(calibrated(setups, setup_probes)), "s"),
        "command_s": (over_inputs(
            statistics.median, calibrated(commands, runner.command_probes),
            runner.command_variants), "s"),
        "geometry_s": (over_inputs(
            statistics.median, calibrated(runner.geometry_seconds, runner.geometry_probes),
            runner.geometry_variants), "s"),
        "collide_ms_p50": (over_inputs(p50, queries_ms, runner.query_variants), "ms"),
        "collide_ms_p95": (over_inputs(p95, queries_ms, runner.query_variants), "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer_metrics(runner: Runner, done: dict) -> dict:
    """Per-layer times per operation: span totals of the traced commands
    divided by their count, plus those of the geometry passes divided by
    theirs. Counts, sizes and ratios come from round 0 alone (its command
    plus its geometry pass), so they are fixed by the seed, however many
    rounds fit in the run; sizes and ratios are means over its calls."""
    tracer = runner.tracer
    spans = tracer.spans
    first = [s for s in spans if s.run_id.startswith("r0.")]
    weight = {kind: 1.0 / count for kind, count in done.items()}

    def kind_weight(span):
        return weight[span.run_id.rsplit(".", 1)[1]]

    def seconds_per_op(name):
        return sum(s.duration * kind_weight(s) for s in spans if s.name == name)

    def first_values(name, key=None):
        return [1 if key is None else s.attrs[key] for s in first if s.name == name]

    def mean(values):
        return float(sum(values) / len(values)) if values else 0.0

    iterations = sum(s.attrs["iterations"] for s in spans if s.name == "oxygen.solve_oxygen")
    oxygen_solve = sum(s.duration for s in spans if s.name == "oxygen.solve_oxygen")
    own_by_layer: dict[str, float] = {}
    for s, own in zip(spans, tracer.self_times()):
        own_by_layer[s.layer] = own_by_layer.get(s.layer, 0.0) + own * kind_weight(s)
    roots: dict[str, float] = {}
    for s in spans:
        if s.parent is None:
            roots[s.run_id] = roots.get(s.run_id, 0.0) + s.duration
    unattributed = max((abs(wall - roots.get(rid, 0.0)) / wall for rid, wall in runner.op_walls),
                       default=float("nan"))
    coupling = "grid.build_surface_coupling"
    metrics = {
        "grid.coupling_s": (seconds_per_op(coupling), "s"),
        "grid.samples": (sum(first_values(coupling, "samples")), "count"),
        "grid.clamped_samples": (sum(first_values(coupling, "clamped_samples")), "count"),
        "flow.assemble_s": (seconds_per_op("flow.assemble_flow_system"), "s"),
        "flow.solve_s": (seconds_per_op("flow.solve_flow"), "s"),
        "flow.unknowns": (mean(first_values("flow.assemble_flow_system", "unknowns")), "count"),
        "flow.nnz": (mean(first_values("flow.assemble_flow_system", "nnz")), "count"),
        "flow.scaled_residual": (runner.first_residual, "rel"),
        "oxygen.assemble_s": (seconds_per_op("oxygen.assemble_transport_operator"), "s"),
        "oxygen.solve_s": (seconds_per_op("oxygen.solve_oxygen"), "s"),
        "oxygen.iterations": (sum(first_values("oxygen.solve_oxygen", "iterations")), "count"),
        "oxygen.s_per_iter": (oxygen_solve / iterations if iterations else 0.0, "s"),
        "network.parse_s": (seconds_per_op("network.parse_dgf"), "s"),
        "network.serialize_s": (seconds_per_op("network.serialize_dgf"), "s"),
        "network.classify_s": (seconds_per_op("network.classify_arterial_venous"), "s"),
        "growth.solve_state_s": (seconds_per_op("growth.GrowthEngine.solve_state"), "s"),
        "growth.solve_state_calls": (
            sum(first_values("growth.GrowthEngine.solve_state")), "count"),
        "growth.phase1_s": (seconds_per_op("growth.GrowthEngine.run_phase1"), "s"),
        "growth.phase2_s": (seconds_per_op("growth.GrowthEngine.run_phase2"), "s"),
        "growth.phase3_s": (seconds_per_op("growth.GrowthEngine.run_phase3"), "s"),
        "growth.cv_avg_s": (seconds_per_op("growth.control_volume_averages"), "s"),
        "growth.collide_candidates": (
            mean(first_values("growth.OctantIndex.candidates", "candidates")), "count"),
        "growth.collide_hit_ratio": (mean(first_values("growth.collides", "hit")), "ratio"),
        "growth.insert_accept_ratio": (
            mean(first_values("growth.check_and_insert", "accepted")), "ratio"),
        "growth.clip_s": (seconds_per_op("growth.clip_to_box"), "s"),
        "growth.segments": (
            mean(first_values("growth.GrowthEngine.run_phase3", "segments")), "count"),
        "stats.tissue_averages_s": (seconds_per_op("stats.tissue_averages"), "s"),
        "export.vtk_s": (
            seconds_per_op("export.cell_field_to_vtk") + seconds_per_op("export.network_to_vtk"), "s"),
        "export.csv_s": (seconds_per_op("export.write_csv"), "s"),
    }
    for layer in LAYERS + ("bench",):
        metrics[f"self.{layer}_s"] = (own_by_layer.get(layer, 0.0), "s")
    metrics["trace.overhead_s"] = (
        median(runner.command_seconds["traced"]) - median(runner.command_seconds["untraced"]), "s")
    metrics["trace.unattributed_frac"] = (unattributed, "ratio")
    return metrics


def print_layer_table(workload: str, metrics: dict, done: dict):
    rows = [(layer, metrics[f"self.{layer}_s"][0]) for layer in LAYERS + ("bench",)]
    total = sum(own for _, own in rows)
    print(f"# self time per layer, {workload}, one traced command ({done['command']} run) "
          f"plus one geometry pass ({done['geometry']} run): {total:.4f} s")
    for layer, own in rows:
        print(f"#   {layer:8s} {own:10.4f} s {100 * own / total:7.2f} %")
