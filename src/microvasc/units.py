"""Unit conversion constants.

Internally everything is SI (m, Pa, s). Oxygen partial pressures are the
exception: they stay in mmHg throughout, since all transport coefficients
acting on them are expressed per mmHg. Pressures in mmHg appear only at the
configuration / reporting boundary.
"""

PA_PER_MMHG = 133.322

UM = 1.0e-6  # meters per micrometer

WATER_DENSITY = 1000.0  # kg/m^3, used to convert volumetric flux to mass flux

MICROGRAM_PER_KG = 1.0e9


def pa_to_mmhg(p: float) -> float:
    return p / PA_PER_MMHG
