"""The benchmark's hooks into the program, checked in the suite rather than
first in the benchmark's own smoke runs: every attribute that
`perfbench/tracing.py` patches exists on its owner, and `solve` still
calls the solver functions through the names the benchmark captures."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from microvasc import cli, growth, serialize_dgf

from conftest import make_desk_network

PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", PATH)
tracing = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # for its dataclasses
_spec.loader.exec_module(tracing)

# each patch list with the owner `tracing.instrument` patches it on
PATCHED = [
    (cli, tracing.CLI_CALLS),
    (growth, tracing.GROWTH_CALLS),
    (growth.GrowthEngine, tracing.ENGINE_METHODS),
    (growth.OctantIndex, tracing.INDEX_METHODS),
]


def test_every_patched_attribute_exists_on_its_owner():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, calls in PATCHED
        for attr, _, _ in calls
        if attr not in owner.__dict__
    ]
    assert missing == []
    originals = [(owner, attr, owner.__dict__[attr]) for owner, calls in PATCHED
                 for attr, _, _ in calls]
    with tracing.instrument(tracing.Tracer(), cli, growth, tracing.Capture()):
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_solve_calls_the_captured_names(tmp_path):
    """One `solve` makes one call of each captured function. The DGF is
    read as a table inside `cli`: there is no `network.parse_dgf` span."""
    dgf, config = tmp_path / "input.dgf", tmp_path / "config.json"
    dgf.write_text(serialize_dgf(make_desk_network()))
    config.write_text(json.dumps({
        "input_dgf": str(dgf), "output_dir": str(tmp_path / "out"), "grid_cells": [8, 8, 8],
        "roi_lower": [0.0] * 3, "roi_upper": [1.0e-3] * 3, "domain_enlargement": 0.0,
    }))
    tracer, capture = tracing.Tracer(), tracing.Capture()
    with tracing.instrument(tracer, cli, growth, capture), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", "--config", str(config)]) == 0
    assert {name: len(results) for name, results in capture.results.items()} == {
        "assemble_flow_system": 1, "solve_flow": 1, "solve_oxygen": 1, "tissue_averages": 1}
    names = {span.name for span in tracer.spans}
    assert {"grid.build_surface_coupling", "flow.solve_flow", "oxygen.solve_oxygen",
            "network.classify_arterial_venous", "export.network_to_vtk"} <= names
    assert "network.parse_dgf" not in names
