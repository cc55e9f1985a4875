"""Constitutive laws: in-vivo blood viscosity and hydraulic conductance.

Each law is written with numpy ufuncs, so one call serves a scalar or a
whole segment table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class RheologyParameters:
    plasma_viscosity: float = 1.0e-3  # Pa*s
    hematocrit: float = 0.45  # discharge hematocrit, dimensionless

    def __post_init__(self):
        if self.plasma_viscosity <= 0.0:
            raise ValidationError("plasma viscosity must be positive")
        if not 0.0 <= self.hematocrit < 1.0:
            raise ValidationError("hematocrit must lie in [0, 1)")


def apparent_viscosity_45(d):
    """Relative apparent viscosity at 45% hematocrit as a function of the
    dimensionless diameter d (physical diameter / 1 um)."""
    return 6.0 * np.exp(-0.085 * d) + 3.2 - 2.44 * np.exp(-0.06 * d**0.645)


def _shape_coefficient(d):
    w = 1.0 / (1.0 + 1.0e-11 * d**12)
    return (0.8 + np.exp(-0.075 * d)) * (-1.0 + w) + w


def in_vivo_viscosity(diameter_um, params: RheologyParameters):
    """Blood viscosity [Pa*s] for a vessel of dimensionless diameter d.

    Empirical in-vivo law: the relative viscosity at reference hematocrit
    is rescaled by the hematocrit-dependent factor ((1-H)^C - 1) /
    ((1-0.45)^C - 1), with a wall-layer correction (d/(d-1.1))^2 that
    diverges as d -> 1.1.
    """
    d = np.asarray(diameter_um, float)
    if np.any(d <= 1.1):
        raise ValidationError(
            f"viscosity law is singular for d <= 1.1 (got d = {np.min(d)})"
        )
    mu45 = apparent_viscosity_45(d)
    c = _shape_coefficient(d)
    wall = (d / (d - 1.1)) ** 2
    h = params.hematocrit
    ratio = ((1.0 - h) ** c - 1.0) / ((1.0 - 0.45) ** c - 1.0)
    return params.plasma_viscosity * (1.0 + (mu45 - 1.0) * ratio * wall) * wall


def vessel_conductance(radius, length, viscosity):
    """Poiseuille conductance pi R^4 / (8 mu l) in m^3/(Pa*s)."""
    if np.any(radius <= 0.0) or np.any(length <= 0.0) or np.any(viscosity <= 0.0):
        raise ValidationError("conductance inputs must be positive")
    return np.pi * radius**4 / (8.0 * viscosity * length)


def segment_viscosity(radius, params: RheologyParameters):
    """Viscosity of a segment of the given radius [m]."""
    return in_vivo_viscosity(2.0 * radius / 1.0e-6, params)
