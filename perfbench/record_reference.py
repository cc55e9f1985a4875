"""Record the reference answers in reference.json from the current program.

    python3 perfbench/record_reference.py

Runs every workload variant once (full and smoke sizes), checks the
seed-independent invariants, and writes the answers the benchmark later
compares against at a relative tolerance of 1e-6. Re-record only when a
change is meant to alter microvasc's answers, and say so with the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def record(workload_cls, smoke: bool, workdir: Path) -> dict:
    from harness import run_once

    answers = {}
    for seed in range(workload_cls.variants):
        workload = workload_cls(seed, smoke, workdir / f"{workload_cls.name}-{seed}")
        workload.setup()
        results = run_once(workload)
        failures, _ = workload.check_invariants(results)
        if failures:
            sys.exit(f"{workload.name} variant {seed}: {failures}")
        answers[workload.variant(0)] = workload.answer(results)
        print(workload.name, "smoke" if smoke else "full", workload.variant(0),
              answers[workload.variant(0)], flush=True)
    return answers


def main():
    run.bootstrap()
    from workloads import REFERENCE_FILE, WORKLOADS

    reference = {}
    run.RUNTIME.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNTIME) as tmp:
        for name, cls in WORKLOADS.items():
            reference[name] = {
                size: record(cls, size == "smoke", Path(tmp)) for size in ("full", "smoke")
            }
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
