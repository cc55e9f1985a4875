"""Literature default parameter values frozen as a contract."""

import math

from microvasc import (
    FlowParameters,
    GrowthParameters,
    OxygenParameters,
    RheologyParameters,
    RunConfig,
)
from microvasc.units import PA_PER_MMHG, pa_to_mmhg


def test_flow_defaults():
    p = FlowParameters()
    assert p.tissue_permeability == 1.0e-18
    assert p.interstitial_viscosity == 1.30e-3
    assert p.wall_conductivity == 1.0e-12
    assert p.reflection == 0.1
    assert p.oncotic_vessel == 3733.0
    assert p.oncotic_tissue == 666.0


def test_oxygen_defaults():
    p = OxygenParameters()
    assert p.diffusion_vessel == 5.0e-5
    assert p.diffusion_tissue == 1.35e-7
    assert p.wall_permeability == 3.5e-5
    assert p.max_consumption == 3.0
    assert p.po2_half == 1.0
    assert p.arterial_po2 == 75.0
    assert p.venous_po2 == 38.0


def test_rheology_defaults():
    p = RheologyParameters()
    assert p.plasma_viscosity == 1.0e-3
    assert p.hematocrit == 0.45


def test_growth_defaults():
    p = GrowthParameters()
    assert p.gamma == 3.0
    assert p.lambda_g == 1.0
    assert p.mu_r == 2.4
    assert p.sigma_r == 0.3
    assert p.p_th == 0.6
    assert p.large_radius == 4.5e-6
    assert p.small_radius_mode_mu == 2.75e-6
    assert p.small_radius_mode_sigma == 0.25e-6
    assert p.min_radius == 2.0e-6
    assert p.link_mu == 60.0 * 1e-6
    assert p.link_sigma == 10.0 * 1e-6
    assert p.cone_angle == 2.0 * math.pi / 3.0
    assert p.po2_stop == 36.5
    assert p.radius_sigma_divisor == 32.0


def test_roi_defaults():
    config = RunConfig()
    assert config.roi_lower == (0.038e-3, 8.8e-7, 8.8e-7)
    assert config.roi_upper == (1.13e-3, 1.05e-3, 1.50e-3)
    assert config.domain_enlargement == 0.10


def test_pressure_unit_conversion():
    assert PA_PER_MMHG == 133.322
    assert pa_to_mmhg(133.322) == 1.0
    assert pa_to_mmhg(37.5 * PA_PER_MMHG) == 37.5
