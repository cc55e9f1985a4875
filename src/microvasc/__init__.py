"""3D-1D coupled blood flow / oxygen transport on embedded vascular graphs
and stochastic generation of surrogate microvascular networks."""

__version__ = "0.1.0"

from .network import (  # noqa: F401
    DomainBox,
    NetworkNode,
    Segment,
    VascularNetwork,
    classify_arterial_venous,
    enlarge_domain,
    parse_dgf,
    serialize_dgf,
)
from .rheology import RheologyParameters, in_vivo_viscosity, vessel_conductance  # noqa: F401
from .grid import (  # noqa: F401
    SurfaceCoupling,
    TissueGrid,
    build_grid,
    build_surface_coupling,
    project_1d_to_surface,
)
from .flow import FlowParameters, FlowState, assemble_flow_system, solve_flow, starling_flux  # noqa: F401
from .oxygen import (  # noqa: F401
    OxygenParameters,
    OxygenState,
    assemble_transport_operator,
    kedem_katchalsky_flux,
    michaelis_menten,
    solve_oxygen,
)
from .growth import (  # noqa: F401
    GrowthEngine,
    GrowthParameters,
    OctantIndex,
    bifurcation_angles,
    bifurcation_decision,
    bifurcation_probability,
    build_bifurcation_directions,
    check_and_insert,
    clip_to_box,
    collides,
    control_volume_averages,
    growth_direction,
    murray_branch_radii,
    sample_length,
    sample_length_ratio,
    segment_distance,
)
from .stats import (  # noqa: F401
    RunStatistics,
    histogram,
    network_characteristics,
    running_means,
    tissue_averages,
)
from .config import RunConfig  # noqa: F401
