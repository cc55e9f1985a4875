"""Command-line entry points: solve, generate, stats, export-vtk,
characteristics. All commands read a JSON config file (plus a few common
flag overrides) and write their artifacts into the output directory with a
provenance header."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import MicrovascError
from .export import cell_field_to_vtk, network_to_vtk, write_csv
from .flow import assemble_flow_system, solve_flow
from .grid import build_grid, build_surface_coupling
from .growth import GrowthEngine, control_volume_averages
from .network import enlarge_domain, parse_dgf, read_dgf, serialize_dgf
from .oxygen import assemble_transport_operator, classify_arterial_venous, solve_oxygen
from .stats import (
    QUANTITIES,
    RunStatistics,
    network_characteristics,
    running_means,
    tissue_averages,
)
from .units import pa_to_mmhg


def _load_config(args) -> RunConfig:
    """The config file with the flag overrides applied, validated as a whole."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "input", None):
        overrides["input_dgf"] = args.input
    if getattr(args, "output", None):
        overrides["output_dir"] = args.output
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "repetitions", None) is not None:
        overrides["repetitions"] = args.repetitions
    return dataclasses.replace(config, **overrides)


def _read_input(config: RunConfig) -> str:
    """The input network's DGF text, read once per command: the network is
    made from it and the provenance's digest covers it."""
    if not config.input_dgf:
        raise MicrovascError("no input network given (set input_dgf or --input)")
    path = Path(config.input_dgf)
    if not path.exists():
        raise MicrovascError(f"input not found: {path}")
    return path.read_text()


def _setup_domain(config: RunConfig):
    roi = config.roi_box()
    domain = enlarge_domain(roi, config.domain_enlargement)
    grid = build_grid(domain, config.grid_cells)
    return roi, domain, grid


def _solve_states(net, grid, config):
    coupling = build_surface_coupling(grid, net)
    system = assemble_flow_system(net, grid, coupling, config.rheology, config.flow)
    flow = solve_flow(system)
    boundary_po2 = classify_arterial_venous(net, flow, config.oxygen)
    operator = assemble_transport_operator(
        net, grid, coupling, flow, config.flow, config.oxygen, boundary_po2
    )
    oxy = solve_oxygen(operator, config.oxygen)
    return coupling, flow, oxy


def cmd_solve(args) -> int:
    config = _load_config(args)
    text = _read_input(config)
    net = read_dgf(text)  # read-only: its columns, no node or segment objects
    roi, _, grid = _setup_domain(config)
    coupling, flow, oxy = _solve_states(net, grid, config)
    po2_roi, pt_roi, f_tv = tissue_averages(flow, oxy, grid, roi)

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    prov = config.provenance(__version__, text)
    if config.export_vtk:
        (out / "tissue.vtk").write_text(
            cell_field_to_vtk(grid, {"pressure_pa": flow.p_t, "po2_mmhg": oxy.po2_t})
        )
        (out / "network.vtk").write_text(network_to_vtk(net))
    if config.export_csv:
        write_csv(
            out / "nodes.csv",
            ["node", "x", "y", "z", "p_v_pa", "po2_v_mmhg"],
            [flow.node_order, *net.position.T.tolist(),
             flow.p_nodes.tolist(), oxy.po2_nodes.tolist()],
            prov,
        )
        write_csv(
            out / "cells.csv",
            ["cell", "p_t_pa", "po2_t_mmhg"],
            [range(grid.n_cells), flow.p_t.tolist(), oxy.po2_t.tolist()],
            prov,
        )
    print(f"PO2_roi  = {po2_roi:.4f} mmHg")
    print(f"p_t_roi  = {pt_roi:.4f} mmHg")
    print(f"F_tv     = {f_tv:.6e} ug/s")
    print(f"clamped  = {coupling.clamped_samples} samples")
    return 0


def _run_generation(config: RunConfig, seed: int, out_dir: Path | None,
                    text: str | None = None):
    """Grow one network with `seed` from the input's DGF `text`, read from
    `config.input_dgf` when not given; return the engine and its statistics.

    The statistics describe two different networks. `L`, `A`, `V` and
    `N_seg` measure the final network: pruned and clipped to the roi when
    phase 3 runs. `PO2_roi`, `p_t_roi` and `F_tv` come from the last flow
    and oxygen solve of the run, which is the last phase-2 solve when phase
    2 runs; phase 3 solves nothing, and the final network is not re-solved,
    so a run of phase 3 alone leaves them nan.
    `N_it` counts the steps of all three phases, `engine.steps`.
    """
    net = parse_dgf(_read_input(config) if text is None else text)
    roi, domain, grid = _setup_domain(config)
    rng = np.random.default_rng(seed)
    checkpoint = None
    if out_dir is not None:
        ckpt_dir = out_dir / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)

        def checkpoint(phase, step, snapshot, po2_roi):
            stem = ckpt_dir / f"phase{phase}_step{step:03d}"
            stem.with_suffix(".dgf").write_text(serialize_dgf(snapshot))
            stem.with_suffix(".json").write_text(
                json.dumps({"phase": phase, "step": step, "po2_roi": po2_roi})
            )

    engine = GrowthEngine(
        net, domain, roi, grid, config.rheology, config.flow, config.oxygen,
        config.growth, rng, checkpoint,
    )
    if 1 in config.phases:
        engine.run_phase1()
    if 2 in config.phases:
        engine.run_phase2()
    if 3 in config.phases:
        engine.run_phase3()

    stats = RunStatistics()
    stats.L, stats.A, stats.V, stats.N_seg = network_characteristics(engine.net)
    if engine.flow is not None and engine.oxygen is not None:
        stats.PO2_roi = engine.po2_roi
        _, pt_avg = control_volume_averages(engine.flow.p_t, grid, roi, 1)
        stats.p_t_roi = pa_to_mmhg(pt_avg)
        stats.F_tv = engine.flow.f_tv
    stats.N_it = len(engine.steps)
    return engine, stats


def cmd_generate(args) -> int:
    config = _load_config(args)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = _read_input(config)
    engine, stats = _run_generation(config, config.master_seed, out, text)
    prov = config.provenance(__version__, text)

    (out / "final_network.dgf").write_text(serialize_dgf(engine.net))
    if config.export_vtk:
        (out / "final_network.vtk").write_text(network_to_vtk(engine.net))
    # one row per phase-1/2 step, each a solve; phase 3 solves nothing
    solves = [step for step in engine.steps if step[0] < 3]
    write_csv(out / "po2_roi_trace.csv", ["phase", "step", "po2_roi_mmhg"],
              [[step[i] for step in solves] for i in range(3)], prov)
    write_csv(out / "statistics.csv", list(QUANTITIES), [[v] for v in stats.as_row()], prov)
    print(
        f"phases done: N_seg={stats.N_seg} L={stats.L:.4g} m "
        f"PO2_roi={stats.PO2_roi:.3f} mmHg N_it={stats.N_it}"
    )
    return 0


def cmd_stats(args) -> int:
    config = _load_config(args)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = _read_input(config)
    prov = config.provenance(__version__, text)
    samples = []
    for n in range(config.repetitions):
        _, stats = _run_generation(config, config.master_seed + n, None, text)
        samples.append(stats)
        print(f"run {n}: " + " ".join(f"{v:.5g}" for v in stats.as_row()))
    means = running_means(samples)
    write_csv(out / "running_means.csv", ["i", *QUANTITIES],
              [range(1, len(samples) + 1), *(means[q] for q in QUANTITIES)], prov)
    write_csv(
        out / "samples.csv",
        list(QUANTITIES),
        [[getattr(s, q) for s in samples] for q in QUANTITIES],
        prov,
    )
    return 0


def cmd_export_vtk(args) -> int:
    config = _load_config(args)
    net = read_dgf(_read_input(config))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "network.vtk").write_text(network_to_vtk(net))
    print(f"wrote {out / 'network.vtk'}")
    return 0


def cmd_characteristics(args) -> int:
    config = _load_config(args)
    text = _read_input(config)
    length, area, volume, n_seg = network_characteristics(read_dgf(text))
    print(f"L     = {length:.6g} m")
    print(f"A     = {area:.6g} m^2")
    print(f"V     = {volume:.6g} m^3")
    print(f"N_seg = {n_seg}")
    if getattr(args, "output", None):
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(
            out / "characteristics.csv",
            ["L_m", "A_m2", "V_m3", "N_seg"],
            [[length], [area], [volume], [n_seg]],
            config.provenance(__version__, text),
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microvasc",
        description="3D-1D coupled microvascular flow, oxygen transport, "
        "and surrogate network generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--input", help="input DGF network")
        p.add_argument("--output", help="output directory")
        p.add_argument("--seed", type=int, help="master seed")

    p = sub.add_parser("solve", help="flow + oxygen solve on a fixed network")
    common(p)
    p.set_defaults(func=cmd_solve)
    p = sub.add_parser("generate", help="run growth phases P1-P3")
    common(p)
    p.set_defaults(func=cmd_generate)
    p = sub.add_parser("stats", help="repeated seeded runs with running means")
    common(p)
    p.add_argument("--repetitions", type=int, help="number of runs")
    p.set_defaults(func=cmd_stats)
    p = sub.add_parser("export-vtk", help="write a network VTK polyline file")
    common(p)
    p.set_defaults(func=cmd_export_vtk)
    p = sub.add_parser("characteristics", help="Table-1 style report for a DGF")
    common(p)
    p.set_defaults(func=cmd_characteristics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MicrovascError as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
