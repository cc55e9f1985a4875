"""Spans recorded from outside the program, around microvasc's public calls.

`Tracer` keeps spans in memory (name, start, end, parent, run id and a few
counts) and writes them once, as JSON lines, when the benchmark ends.
`instrument` replaces the public functions of each module in the namespaces
where they are called (`microvasc.cli`, `microvasc.growth`, `GrowthEngine`
and `OctantIndex` methods) with wrappers and restores them on exit. The
first component of a span name is its layer, which is the microvasc module
the wrapped function belongs to; `bench` marks the benchmark's own work.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "network", "grid", "flow", "oxygen", "growth", "stats", "export")


@dataclass
class Span:
    name: str
    run_id: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, attrs_fn=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, self.run_id, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if attrs_fn is not None:
            # reading counts off the result is benchmark work: give it its
            # own span so it is not charged to the caller's layer
            record = Span("bench.attrs", self.run_id, parent, time.perf_counter())
            span.attrs = attrs_fn(result, *args, **kwargs)
            record.end = time.perf_counter()
            self.spans.append(record)
        return result

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children.

        Calls nest strictly in one thread, so children never overlap.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "run_id": s.run_id, "parent": s.parent,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


# -- counts read off returned values ----------------------------------------


def _coupling_attrs(coupling, *args, **kwargs):
    return {
        "samples": sum(sc.cells.size for sc in coupling.per_segment.values()),
        "clamped_samples": coupling.clamped_samples,
    }


def _flow_system_attrs(system, *args, **kwargs):
    return {"unknowns": system.n_unknowns, "nnz": system.matrix.nnz}


def _oxygen_attrs(state, *args, **kwargs):
    return {"iterations": state.iterations}


def _candidates_attrs(candidates, *args, **kwargs):
    return {"candidates": len(candidates)}


def _collides_attrs(hit, *args, **kwargs):
    return {"hit": bool(hit)}


def _insert_attrs(segment, *args, **kwargs):
    return {"accepted": segment is not None}


def _phase3_attrs(net, *args, **kwargs):
    return {"segments": len(net.segments)}


# (module attribute, span name, attrs reader) per namespace
CLI_CALLS = [
    ("parse_dgf", "network.parse_dgf", None),
    ("serialize_dgf", "network.serialize_dgf", None),
    ("classify_arterial_venous", "network.classify_arterial_venous", None),
    ("build_grid", "grid.build_grid", None),
    ("build_surface_coupling", "grid.build_surface_coupling", _coupling_attrs),
    ("assemble_flow_system", "flow.assemble_flow_system", _flow_system_attrs),
    ("solve_flow", "flow.solve_flow", None),
    ("assemble_transport_operator", "oxygen.assemble_transport_operator", None),
    ("solve_oxygen", "oxygen.solve_oxygen", _oxygen_attrs),
    ("tissue_averages", "stats.tissue_averages", None),
    ("network_characteristics", "stats.network_characteristics", None),
    ("cell_field_to_vtk", "export.cell_field_to_vtk", None),
    ("network_to_vtk", "export.network_to_vtk", None),
    ("write_csv", "export.write_csv", None),
]
GROWTH_CALLS = [
    ("build_surface_coupling", "grid.build_surface_coupling", _coupling_attrs),
    ("assemble_flow_system", "flow.assemble_flow_system", _flow_system_attrs),
    ("solve_flow", "flow.solve_flow", None),
    ("classify_arterial_venous", "network.classify_arterial_venous", None),
    ("assemble_transport_operator", "oxygen.assemble_transport_operator", None),
    ("solve_oxygen", "oxygen.solve_oxygen", _oxygen_attrs),
    ("control_volume_averages", "growth.control_volume_averages", None),
    ("collides", "growth.collides", _collides_attrs),
    ("check_and_insert", "growth.check_and_insert", _insert_attrs),
    ("clip_to_box", "growth.clip_to_box", None),
]
ENGINE_METHODS = [
    ("__init__", "growth.GrowthEngine.__init__", None),
    ("solve_state", "growth.GrowthEngine.solve_state", None),
    ("run_phase1", "growth.GrowthEngine.run_phase1", None),
    ("run_phase2", "growth.GrowthEngine.run_phase2", None),
    ("run_phase3", "growth.GrowthEngine.run_phase3", _phase3_attrs),
]
INDEX_METHODS = [
    ("candidates", "growth.OctantIndex.candidates", _candidates_attrs),
]


def _traced(tracer, name, fn, attrs_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs_fn)

    return wrapper


def _captured(fn, capture, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        capture.results[name].append(result)
        if capture.after is not None:
            capture.after()
        return result

    return wrapper


@contextlib.contextmanager
def patched(targets):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Capture:
    """Results of the solver calls of one operation, for the checks.

    Installed whether or not tracing is on: it only appends each return
    value to a list, so the untraced timing stays that of the program.
    `after`, when set, is called after each captured call returns.
    """

    def __init__(self):
        names = ("assemble_flow_system", "solve_flow", "solve_oxygen", "tissue_averages")
        self.results: dict[str, list] = {name: [] for name in names}
        self.after = None

    def clear(self):
        for sink in self.results.values():
            sink.clear()


def instrument(tracer, cli_module, growth_module, capture: Capture):
    """Context manager patching the program's calls: the solver results go
    to `capture` always, spans to `tracer` when one is given."""
    targets = []
    for owner, calls in (
        (cli_module, CLI_CALLS),
        (growth_module, GROWTH_CALLS),
        (growth_module.GrowthEngine, ENGINE_METHODS),
        (growth_module.OctantIndex, INDEX_METHODS),
    ):
        for attr, name, attrs_fn in calls:
            original = fn = owner.__dict__[attr]
            if tracer is not None:
                fn = _traced(tracer, name, fn, attrs_fn)
            if attr in capture.results:
                fn = _captured(fn, capture, attr)
            if fn is not original:
                targets.append((owner, attr, fn))
    return patched(targets)
