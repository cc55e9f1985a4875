"""microvasc benchmark: end-to-end and per-layer numbers on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_solve --seed 1 --seconds 30 --trace 0

Each run sets up its workload, then alternates in-process `microvasc`
commands through `cli.main` (`solve` or `generate`) and geometry passes
(see geometry.py), at least one of each, until the next would overrun
`--seconds`. Every answer is checked; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, measured
untraced. With `--trace 1` each command also runs with spans around the
library's public calls, and the metrics are the per-layer ones; the spans
go to `.perfbench/traces/` when the run ends. See README.md. `--smoke` shrinks every input
so a run takes a few seconds. The program is imported from `src/` of the
checkout; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNTIME = ROOT / ".perfbench"
SETUP_REPEATS = 5
# listed here because workloads.py can only be imported after bootstrap()
WORKLOAD_NAMES = ("desk_solve", "lattice", "starter_generate")


def bootstrap():
    """Cap BLAS threads at the CPUs this process may use, then import
    microvasc from the checkout's `src/` and nowhere else."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import microvasc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import microvasc from {src}: {exc}")
    if Path(microvasc.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: microvasc imported from {microvasc.__file__}, not {src}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit (used to time set-up in a fresh process)")
    return parser.parse_args(argv)


def time_setups(args, probe) -> tuple[list[float], list[float]]:
    """Wall time of fresh set-ups: interpreter start, imports, input build,
    DGF and config writing, each in its own process; with the machine-speed
    probe time around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples, probes = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        probes.append(0.5 * (before + probe()))
    return samples, probes


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    from harness import Runner, end_to_end_metrics, per_layer_metrics, print_layer_table
    from workloads import WORKLOADS

    RUNTIME.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNTIME))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        if args.setup_only:
            workload.setup()
            return 0
        runner = Runner(workload, trace=bool(args.trace))
        if not args.trace:
            setups, setup_probes = time_setups(args, runner.probe)
        workload.setup()
        done = runner.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed {args.seed}: "
          f"{len(runner.command_seconds['untraced'])} untraced commands, "
          f"{len(runner.geometry_seconds)} geometry passes, "
          f"{len(runner.query_seconds)} collide queries")
    if args.trace:
        metrics = per_layer_metrics(runner, done)
        print_layer_table(args.workload, metrics, done)
        traces = RUNTIME / "traces"
        traces.mkdir(exist_ok=True)
        suffix = "-smoke" if args.smoke else ""
        runner.tracer.write(traces / f"{args.workload}-seed{args.seed}{suffix}.jsonl")
    else:
        metrics = end_to_end_metrics(runner, setups, setup_probes)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
