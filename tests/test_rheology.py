import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from microvasc import RheologyParameters, in_vivo_viscosity, vessel_conductance
from microvasc.errors import ValidationError
from microvasc.rheology import apparent_viscosity_45, segment_viscosity

UM = 1e-6

# Frozen against an independent transcription of the empirical law
# (plasma viscosity 1e-3 Pa s, discharge hematocrit 0.45).
VISCOSITY_ORACLE = {
    4.0: 1.76964819787124271e-02,
    6.0: 1.00115605367647933e-02,
    10.0: 5.87243767417889879e-03,
    12.0: 4.96141613948585924e-03,
    25.0: 2.77552400939220026e-03,
    100.0: 2.53153912484580185e-03,
    300.0: 3.00991436788465832e-03,
}


class TestViscosityLaw:
    @pytest.mark.parametrize("d_um,expected", sorted(VISCOSITY_ORACLE.items()))
    def test_frozen_values(self, d_um, expected):
        mu = in_vivo_viscosity(d_um, RheologyParameters())
        assert mu == pytest.approx(expected, rel=1e-12)

    def test_reference_hematocrit_curve(self):
        # limits of the fitted reference curve
        assert apparent_viscosity_45(1e9) == pytest.approx(3.2, rel=1e-6)
        small = apparent_viscosity_45(3.0)
        assert small > apparent_viscosity_45(30.0)

    def test_plasma_scaling(self):
        base = in_vivo_viscosity(10.0, RheologyParameters())
        doubled = in_vivo_viscosity(
            10.0, RheologyParameters(plasma_viscosity=2e-3)
        )
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_diameter_at_or_below_cutoff_rejected(self):
        for d in (1.1, 1.0, 0.0, -3.0):
            with pytest.raises(ValidationError):
                in_vivo_viscosity(d, RheologyParameters())

    def test_capillary_viscosity_exceeds_arteriole(self):
        params = RheologyParameters()
        assert in_vivo_viscosity(5.0, params) > in_vivo_viscosity(50.0, params)

    @given(st.floats(2.0, 500.0))
    def test_positive_and_above_plasma(self, d_um):
        params = RheologyParameters()
        mu = in_vivo_viscosity(d_um, params)
        assert mu > params.plasma_viscosity

    def test_one_call_over_an_array(self):
        # flow assembly evaluates the law once over the whole segment table
        params = RheologyParameters()
        d_um, expected = (np.array(v) for v in zip(*sorted(VISCOSITY_ORACLE.items())))
        np.testing.assert_allclose(in_vivo_viscosity(d_um, params), expected, rtol=1e-12)
        with pytest.raises(ValidationError):
            in_vivo_viscosity(np.array([10.0, 1.1, 25.0]), params)

    def test_segment_viscosity_uses_diameter_in_um(self):
        params = RheologyParameters()
        assert segment_viscosity(5 * UM, params) == pytest.approx(
            in_vivo_viscosity(10.0, params), rel=1e-15
        )


class TestConductance:
    def test_frozen_poiseuille_value(self):
        mu = VISCOSITY_ORACLE[10.0]
        g = vessel_conductance(5 * UM, 100 * UM, mu)
        assert g == pytest.approx(4.1794726428666673e-16, rel=1e-12)

    def test_fourth_power_scaling(self):
        g1 = vessel_conductance(4 * UM, 100 * UM, 1e-3)
        g2 = vessel_conductance(8 * UM, 100 * UM, 1e-3)
        assert g2 / g1 == pytest.approx(16.0, rel=1e-12)

    def test_analytic_form(self):
        r, l, mu = 7 * UM, 250 * UM, 3e-3
        assert vessel_conductance(r, l, mu) == pytest.approx(
            math.pi * r**4 / (8.0 * mu * l), rel=1e-15
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            vessel_conductance(0.0, 100 * UM, 1e-3)
        with pytest.raises(ValidationError):
            vessel_conductance(5 * UM, 0.0, 1e-3)
        with pytest.raises(ValidationError):
            vessel_conductance(5 * UM, 100 * UM, 0.0)
        with pytest.raises(ValidationError):
            vessel_conductance(np.array([5, 0]) * UM, np.array([100, 100]) * UM, 1e-3)

    @given(
        st.floats(1 * UM, 50 * UM),
        st.floats(10 * UM, 1e-3),
        st.floats(1e-3, 1e-2),
    )
    def test_monotone_in_radius_and_length(self, r, l, mu):
        g = vessel_conductance(r, l, mu)
        assert g > 0.0
        assert vessel_conductance(2.0 * r, l, mu) > g
        assert vessel_conductance(r, 2.0 * l, mu) < g
