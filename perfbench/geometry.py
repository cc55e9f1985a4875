"""One geometry pass: seeded collision queries, insert attempts, phase 3.

The pass builds a `GrowthEngine` on the network (which builds its octant
index), asks `growth.collides` about one candidate vessel per cell of a
regular stratification of the region of interest, makes as many
`growth.check_and_insert` attempts from random existing nodes (the write
path), then runs `GrowthEngine.run_phase3` (prune, link, clip; no solves).
Only the library calls are timed; drawing candidates and the brute-force
oracle that checks every answer run between them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import checks
from microvasc import FlowParameters, GrowthParameters, OxygenParameters, RheologyParameters
from microvasc import growth

UM = 1e-6


@dataclass
class GeometryResult:
    seconds: float = 0.0
    query_seconds: list[float] = field(default_factory=list)
    query_probes: list[float] = field(default_factory=list)  # probe time around each query
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


RAISED = object()  # what a timed call returns when the library raised
PROBE_EVERY = 24  # queries between machine-speed probes


def _candidate(rng, start):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return start + direction * rng.uniform(20 * UM, 60 * UM)


def geometry_pass(net, roi, domain, grid, rng, per_axis: int, probe) -> GeometryResult:
    """Every library call is one operation; one that raises, or whose answer
    differs from the oracle's, is a failure.

    `probe()` times a fixed unit of work. It runs before the pass, every
    PROBE_EVERY queries, and after the queries, the inserts and phase 3,
    never inside a library call. Each query is calibrated by the probes
    around its block. The query right after an in-block probe is left out
    of `query_seconds`, since the probe may have evicted its caches; it is
    still timed into `seconds` and checked.
    """
    result = GeometryResult()
    result.probes.append(probe())

    def timed(what, fn, *args):
        result.attempted += 1
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:
            value = RAISED
            result.failures.append(f"{what} raised {exc!r}")
        elapsed = time.perf_counter() - start
        result.seconds += elapsed
        return value, elapsed

    table = checks.SegmentTable(net)
    engine, _ = timed(
        "GrowthEngine", growth.GrowthEngine, net, domain, roi, grid, RheologyParameters(),
        FlowParameters(), OxygenParameters(), GrowthParameters(),
        np.random.default_rng(int(rng.integers(2**32))),
    )
    if engine is RAISED:
        return result

    block = []  # query times since the last probe

    def close_block():
        result.probes.append(probe())
        around = 0.5 * (result.probes[-2] + result.probes[-1])
        result.query_seconds += block
        result.query_probes += [around] * len(block)
        block.clear()

    cell = roi.extent / per_axis
    strata = np.stack(np.meshgrid(*[np.arange(per_axis)] * 3, indexing="ij"), -1).reshape(-1, 3)
    for q, ijk in enumerate(strata):
        after_probe = q > 0 and q % PROBE_EVERY == 0
        if after_probe:
            close_block()
        p0 = roi.lower + (ijk + rng.uniform(size=3)) * cell
        p1 = _candidate(rng, p0)
        radius = rng.uniform(2 * UM, 5 * UM)
        hit, elapsed = timed("collides", growth.collides, net, engine.octants, p0, p1, radius, set())
        if hit is RAISED:
            continue
        if not after_probe:
            block.append(elapsed)
        if hit != checks.oracle_collides(table, p0, p1, radius, ()):
            result.failures.append(f"collides answered {hit} at {p0.tolist()}")
    close_block()

    node_ids = np.array(sorted(net.nodes))
    for _ in range(len(strata)):
        tip = int(rng.choice(node_ids))
        p0 = net.nodes[tip].position.copy()
        p1 = _candidate(rng, p0)
        radius = rng.uniform(2 * UM, 4 * UM)
        expected = not checks.oracle_collides(table, p0, p1, radius, (tip,))
        seg, _ = timed("check_and_insert", growth.check_and_insert,
                       net, engine.octants, tip, p1, radius)
        if seg is RAISED:
            continue
        if (seg is not None) != expected:
            result.failures.append(f"check_and_insert from node {tip}: accepted={seg is not None}")
        if seg is not None:
            table.append(p0, p1, radius, seg.node_a, seg.node_b)
    result.probes.append(probe())

    clipped, _ = timed("run_phase3", engine.run_phase3)
    if clipped is not RAISED:
        try:
            clipped.validate()
        except Exception as exc:
            result.failures.append(f"phase 3 left an invalid network: {exc!r}")
    result.probes.append(probe())
    return result
