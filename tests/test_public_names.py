"""The package's public names, pinned: adding or removing an export is a
visible change to this list."""

from types import ModuleType

import kantorovich

PUBLIC_NAMES = """
    Chebyshev ConvexSpace Coupling Discrete Euclidean FiniteMeasure GroundMetric
    GroundSpace LAW_RUNNERS LawReport Manhattan MaxMetric MetricAxiomError
    PartitionError Point PullbackMetric SubProbabilityMeasure TableMetric
    TransportResult ZeroMetric as_point barycenter condition coordinate_projection
    cost_matrix decompose dirac flatten independent_coupling integrate kantorovich
    lifted_pseudometric lipschitz_gap mass_transport_bound_check measure_deviation
    measure_from_json measure_to_json measures_equal metric_from_spec mix
    partition_coupling points_equal pushforward quotient restrict reweight_series_check
    run_law_suite second_order_distance second_order_from_json solve_transport tensor
    validate_pseudometric
""".split()


def test_public_names_are_pinned():
    # submodules join dir() once anything imports them, so which ones show
    # depends on the tests that ran before; they are left out
    names = [
        name
        for name in dir(kantorovich)
        if not name.startswith("_") and not isinstance(getattr(kantorovich, name), ModuleType)
    ]
    assert names == PUBLIC_NAMES
