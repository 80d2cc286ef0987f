"""Transient matter-wave dynamics of a beam released by a moving mirror.

Exact closed-form wavefunctions (sudden release and finite mirror
velocity), fringe/visibility analysis on the universal Cornu curves,
and independent numerical oracles for validation.
"""

from .analysis import (
    AnalysisError,
    DensityProfile,
    FringeStats,
    ScanPoint,
    WidthScalingResult,
    cornu_theta,
    enhancement_scan,
    fringe_scale,
    fringe_width_scaling,
    main_fringe,
    profile,
    universal_enhanced,
    universal_ordinary,
    ENHANCED_PEAK,
    ORDINARY_PEAK,
)
from .oracle import (
    ComparisonReport,
    OracleConfig,
    OracleConfigError,
    OracleNumericalError,
    QuadratureResult,
    compare,
    default_config,
    evolve_grid,
    evolve_quadrature,
)
from .physics import (
    HBAR,
    RB87_MASS,
    SPECIES_MASSES,
    MirrorKind,
    MirrorLaw,
    PhysicalContext,
    Scenario,
    UnknownUnitError,
    from_si,
    to_si,
)
from .specialfn import (
    SpecialFunctionOverflow,
    faddeeva,
    fresnel,
)
from .waves import (
    CriticalPoints,
    WaveComponents,
    classical_density,
    critical_points,
    initial_state,
    moshinsky_m,
    psi_moving,
    psi_near_limit,
    psi_sudden,
    stream_regions,
)

__version__ = "0.1.0"
