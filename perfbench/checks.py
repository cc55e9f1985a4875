"""Correctness checks for the benchmark's operations.

Every check returns a list of failure messages; an empty list means the
answer passed. The geometry oracle is a vectorised brute force over all
segments, independent of the octant index it checks.
"""

from __future__ import annotations

import numpy as np

REFERENCE_RTOL = 1.0e-6
# Row-scaled residual max_i |(Ax-b)_i| / (sum_j |A_ij x_j| + |b_i|). Every
# row, physics and Dirichlet alike, is measured against its own magnitude,
# so a bad solve fails it; today's solves reach ~1e-15.
RESIDUAL_GATE = 1.0e-10
# Criterion 3: 3D- and 1D-side filtration agree relative to the total
# exchange magnitude; boundary inflows balance relative to their magnitude.
FILTRATION_RTOL = 1.0e-12
BOUNDARY_FLUX_RTOL = 1.0e-8
PO2_SLACK = 1.0e-9  # mmHg, as in criterion 6
EPS = 1.0e-30


def relative_mismatches(values: dict, reference: dict) -> list[str]:
    out = []
    for key, ref in reference.items():
        got = values.get(key)
        if got is None:
            out.append(f"{key} missing, reference {ref!r}")
        elif not abs(got - ref) <= REFERENCE_RTOL * abs(ref):
            out.append(f"{key} = {got!r}, reference {ref!r}")
    return out


def scaled_residual(matrix, x: np.ndarray, rhs: np.ndarray) -> float:
    residual = np.abs(matrix @ x - rhs)
    scale = abs(matrix) @ np.abs(x) + np.abs(rhs)
    return float(np.max(residual / np.where(scale > 0.0, scale, 1.0)))


def check_flow(system, flow) -> tuple[list[str], float]:
    """Residual gate plus criterion-3 mass balance; returns (failures, residual)."""
    failures = []
    x = np.concatenate([flow.p_t, [flow.p_v[nid] for nid in system.node_order]])
    res = scaled_residual(system.matrix, x, system.rhs)
    if not res <= RESIDUAL_GATE:
        failures.append(f"row-scaled flow residual {res:.3e} above {RESIDUAL_GATE:.0e}")
    exchange = sum(
        float(np.sum(np.abs(jp))) * system.coupling.per_segment[sid].sample_area
        for sid, jp in flow.sample_jp.items()
    )
    if not abs(flow.filtration_3d - flow.filtration_1d) <= FILTRATION_RTOL * exchange:
        failures.append(
            f"filtration 3D {flow.filtration_3d:.6e} vs 1D {flow.filtration_1d:.6e}"
        )
    fluxes = list(flow.boundary_flux.values())
    if not abs(sum(fluxes)) <= BOUNDARY_FLUX_RTOL * sum(abs(f) for f in fluxes):
        failures.append(f"boundary inflow imbalance {sum(fluxes):.3e} m^3/s")
    return failures, res


def check_po2_bounds(oxy, arterial_po2: float) -> list[str]:
    hi = arterial_po2 + PO2_SLACK
    failures = []
    if not (oxy.po2_t.min() >= 0.0 and oxy.po2_t.max() <= hi):
        failures.append(
            f"tissue PO2 in [{oxy.po2_t.min():.6g}, {oxy.po2_t.max():.6g}] mmHg"
        )
    vessel = np.array(list(oxy.po2_v.values()))
    if not (vessel.min() >= -PO2_SLACK and vessel.max() <= hi):
        failures.append(f"vessel PO2 in [{vessel.min():.6g}, {vessel.max():.6g}] mmHg")
    return failures


# -- geometry oracle --------------------------------------------------------


class SegmentTable:
    """Segment endpoints, radii and node ids as arrays, for brute-force scans."""

    def __init__(self, net):
        sids = sorted(net.segments)
        segs = [net.segments[s] for s in sids]
        self.q0 = np.array([net.nodes[s.node_a].position for s in segs]).reshape(-1, 3)
        self.q1 = np.array([net.nodes[s.node_b].position for s in segs]).reshape(-1, 3)
        self.radius = np.array([s.radius for s in segs])
        self.nodes = np.array([(s.node_a, s.node_b) for s in segs], dtype=np.int64).reshape(-1, 2)

    def append(self, p0, p1, radius: float, node_a: int, node_b: int):
        self.q0 = np.vstack([self.q0, p0])
        self.q1 = np.vstack([self.q1, p1])
        self.radius = np.append(self.radius, radius)
        self.nodes = np.vstack([self.nodes, [node_a, node_b]])


def batch_segment_distance(p0, p1, q0, q1) -> np.ndarray:
    """Distances from segment p0-p1 to each segment q0[i]-q1[i].

    Follows the clamping branches of `growth.segment_distance` for segments
    of nonzero length.
    """
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = float(d1 @ d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = r @ d1
    b = d2 @ d1
    denom = a * e - b * b
    s = np.where(denom > 0.0, np.clip((b * f - c * e) / np.where(denom > 0.0, denom, 1.0), 0.0, 1.0), 0.0)
    t = (b * s + f) / np.maximum(e, EPS)
    low = t < 0.0
    high = t > 1.0
    s = np.where(low, np.clip(-c / a, 0.0, 1.0), s)
    s = np.where(high, np.clip((b - c) / a, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)
    diff = (p0 + s[:, None] * d1) - (q0 + t[:, None] * d2)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def oracle_collides(table: SegmentTable, p0, p1, radius: float, attached) -> bool:
    """Brute-force `growth.collides`: any segment not incident to an attached
    node lies closer than the sum of radii."""
    if table.radius.size == 0:
        return False
    exempt = np.isin(table.nodes, list(attached)).any(axis=1)
    dist = batch_segment_distance(np.asarray(p0, float), np.asarray(p1, float), table.q0, table.q1)
    return bool(np.any(~exempt & (dist < radius + table.radius)))


def collision_violations(net) -> int:
    """Pairs of segments sharing no node that overlap (dist < R_a + R_b)."""
    table = SegmentTable(net)
    count = 0
    for i in range(table.radius.size - 1):
        rest = slice(i + 1, None)
        shared = np.isin(table.nodes[rest], table.nodes[i]).any(axis=1)
        dist = batch_segment_distance(table.q0[i], table.q1[i], table.q0[rest], table.q1[rest])
        count += int(np.sum(~shared & (dist < table.radius[i] + table.radius[rest])))
    return count
