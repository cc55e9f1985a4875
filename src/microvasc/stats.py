"""Quantities of interest, histograms, and running means over seeded runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .growth import control_volume_averages
from .network import DomainBox, NetworkTable, VascularNetwork
from .units import pa_to_mmhg

QUANTITIES = ("L", "A", "V", "N_seg", "PO2_roi", "p_t_roi", "F_tv", "N_it")


@dataclass
class RunStatistics:
    L: float = 0.0  # total length, m
    A: float = 0.0  # total lateral surface area, m^2
    V: float = 0.0  # total volume, m^3
    N_seg: int = 0
    # the solver quantities stay nan when a run solves nothing (phase 3 alone)
    PO2_roi: float = math.nan  # mmHg
    p_t_roi: float = math.nan  # mmHg
    F_tv: float = math.nan  # ug/s
    N_it: int = 0

    def as_row(self) -> list[float]:
        return [getattr(self, f.name) for f in fields(self)]


def network_characteristics(net: VascularNetwork | NetworkTable):
    """Total length, lateral area, volume, and segment count of a network or
    its table."""
    table = net.table()
    delta = table.position[table.ends[:, 1]] - table.position[table.ends[:, 0]]
    length = np.sqrt(np.vecdot(delta, delta))  # np.linalg.norm's rounding, row by row
    if np.any(length == 0.0):
        raise ValidationError(
            f"segment {table.segment_ids[np.argmin(length)]}: coincident endpoints")
    r = table.radius
    terms = np.stack([length, 2.0 * math.pi * r * length, math.pi * r**2 * length])
    # summed one segment after the other, as a loop adds; np.sum adds pairwise
    totals = np.cumsum(terms, axis=1)[:, -1] if r.size else np.zeros(3)
    return (*totals.tolist(), r.size)


def histogram(values, bin_width: float):
    """Zero-aligned histogram plus sample mean and standard deviation.

    Returns (bin_edges, counts, mean, std); std uses the n-1 denominator.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValidationError("cannot histogram an empty list")
    if bin_width <= 0.0:
        raise ValidationError("bin width must be positive")
    first = math.floor(data.min() / bin_width)
    if first * bin_width > data.min():  # the quotient rounded up, e.g. to -0.0
        first -= 1
    last = math.floor(data.max() / bin_width) + 1
    edges = np.arange(first, last + 1) * bin_width
    counts, _ = np.histogram(data, bins=edges)
    mean = float(np.mean(data))
    std = float(np.std(data, ddof=1)) if data.size > 1 else 0.0
    return edges, counts, mean, std


def tissue_averages(flow, oxy, grid, roi: DomainBox):
    """Volume-weighted roi averages (PO2_roi, p_t_roi in mmHg, F_tv in ug/s)."""
    _, po2_roi = control_volume_averages(oxy.po2_t, grid, roi, 1)
    _, pt_roi_pa = control_volume_averages(flow.p_t, grid, roi, 1)
    return po2_roi, pa_to_mmhg(pt_roi_pa), flow.f_tv


def running_means(samples: list[RunStatistics]) -> dict[str, list[float]]:
    """Prefix means q_{m_i} = (1/i) sum_{n<=i} q_n per quantity."""
    if not samples:
        raise ValidationError("running means need at least one sample")
    out: dict[str, list[float]] = {}
    for name in QUANTITIES:
        series = np.array([getattr(s, name) for s in samples], dtype=float)
        out[name] = list(np.cumsum(series) / np.arange(1, len(series) + 1))
    return out
