"""Exact entropy solutions of 1-D convex balance laws and their fractional
total-variation diagnostics, with an independent finite-volume oracle."""

from .errors import ConfigError, NumericsError
from .flux import (
    Decay,
    Degeneracy,
    Flux,
    convexity_defect,
    degeneracy_constant,
    flux_from_config,
    power_law_flux,
    user_flux,
)
from .source import SourceProfile, parse_alpha
from .fanprofile import (
    FanContext,
    fan_profile,
    fan_profile_rootfind,
    slope_time_integral,
    slope_time_integral_numeric,
)
from .waves import (
    ConstantRegion,
    FanRegion,
    Packet,
    PiecewiseProfile,
    fan_edges,
    flux_difference_drift,
    make_packet,
    packet_profile,
    riemann_shock,
    speed_bound,
)
from .families import (
    PowerLawFamily,
    ShockCell,
    ShockCellFamily,
    cell_profile,
    edge_travel_minus,
    edge_travel_plus,
    family_profile,
    initial_shock_position,
    power_law_family,
    shock_cell_family,
    solve_cell_states,
    state_functional,
)
from .variation import (
    SampledFunction,
    VariationReport,
    family_variation_lower_bounds,
    fractional_variation,
    load_profile_csv,
    p_variation,
    p_variation_reference,
    sample_profile,
    smoothing_upper_bound,
)
from .godunov import MeshRun, godunov_solve, l1_distance
from .triangular import (
    TriangularSetup,
    alternating_initial_data,
    continuity_defect,
    flow_positions,
    transported_variation_sums,
    u_values,
    u_variation_lower_bounds,
)
from .keyfitz_kranzer import (
    KKSetup,
    build_initial_data,
    bv_grid_norm,
    direction_at,
    direction_at_time,
    jump_sum_lower_bound,
    modulus_at,
)

__version__ = "0.1.0"
