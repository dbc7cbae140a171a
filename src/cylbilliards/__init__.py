"""Cylindric billiards on the flat torus: simulation and hyperbolicity analysis.

Scatterers are tubular neighborhoods of translated subtori. The package
builds and validates such tables, decides transitivity of their base-space
systems, runs the event-driven flow and its linearization, computes neutral
spaces and sufficiency verdicts exactly, monitors the infinitesimal Lyapunov
function, and runs statistical sufficiency surveys.
"""

__version__ = "0.1.0"

from .errors import (
    BaseDimTooSmall,
    BudgetExceeded,
    CylBilliardsError,
    DependentBasis,
    DimensionMismatch,
    EmptySequence,
    NotNeutralError,
    OutwardVelocity,
    RadiusTooLarge,
    SingularityEncountered,
    SingularSegment,
    StartsInsideScatterer,
    TableFormatError,
    TangentialEvent,
    UnknownCylinderIndex,
)
from .geometry import (
    BilliardTable,
    Cylinder,
    LatticeSubspace,
    TransitivityReport,
    axis_distance,
    build_cylinder,
    build_table,
    hard_sphere_subspaces,
    orthocomplement,
    transitivity_report,
    validate_table,
)
from .flow import (
    CollisionEvent,
    OrbitSegment,
    PhasePoint,
    SingularFlag,
    cylinder_distance,
    evolve,
    evolve_batch,
    next_collision,
    phase_point,
    random_phase_point,
    reflect,
)
from .tangent import (
    CollisionOperators,
    LyapunovReport,
    NormalSamples,
    NormalVector,
    TangentVector,
    collision_derivative,
    collision_operators,
    evolve_normal,
    evolve_tangent,
    free_flight_derivative,
    lyapunov_spectrum,
    normal_vector,
    time_reverse,
)
from .hyperbolicity import (
    NeutralSpaceResult,
    RichnessReport,
    SpanDecomposition,
    SufficiencyVerdict,
    SurveyResult,
    SurveyRow,
    advance_functionals,
    neutral_space_advance,
    neutral_space_numeric,
    richness_report,
    span_decomposition,
    sufficiency,
    survey_sufficiency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
