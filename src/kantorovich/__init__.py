"""Kantorovich distances and the probability monad at desk scale.

Finitely supported probability measures over user-defined bounded
(pseudo)metric spaces, with exact optimal couplings, barycenters, the
Dirac/flatten monad structure, pseudometric quotients and liftings, and a
seeded law-checking harness that verifies the structural facts the
library relies on.
"""

from .ground import (
    Chebyshev,
    Discrete,
    Euclidean,
    GroundMetric,
    GroundSpace,
    Manhattan,
    MaxMetric,
    MetricAxiomError,
    PullbackMetric,
    TableMetric,
    ZeroMetric,
    coordinate_projection,
    metric_from_spec,
    quotient,
    validate_pseudometric,
)
from .laws import LAW_RUNNERS, LawReport, run_law_suite
from .measures import (
    FiniteMeasure,
    PartitionError,
    SubProbabilityMeasure,
    condition,
    decompose,
    dirac,
    integrate,
    measure_deviation,
    measure_from_json,
    measure_to_json,
    measures_equal,
    mix,
    pushforward,
    restrict,
    second_order_from_json,
    tensor,
)
from .monad import (
    ConvexSpace,
    barycenter,
    flatten,
    lifted_pseudometric,
    reweight_series_check,
    second_order_distance,
)
from .points import Point, as_point, points_equal
from .transport import (
    Coupling,
    TransportResult,
    brute_force_distance,
    cost_matrix,
    independent_coupling,
    kantorovich,
    lipschitz_gap,
    mass_transport_bound_check,
    partition_coupling,
    solve_transport,
)

__version__ = "0.1.0"
