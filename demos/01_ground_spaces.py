"""Ground spaces: metrics, pseudometrics, and their algebra.

A ground space is a finite point set with a bounded (pseudo)metric.
Points are coordinate tuples or string labels; metrics come from a small
set of built-ins plus three combinators: truncation caps, pullbacks along
maps, and pointwise maxima.
"""

import numpy as np

from kantorovich import (
    Chebyshev,
    Discrete,
    Euclidean,
    GroundSpace,
    MaxMetric,
    PullbackMetric,
    TableMetric,
    coordinate_projection,
    metric_from_spec,
    quotient,
    validate_pseudometric,
)

# --- built-in metrics on coordinate points ---------------------------------

euclid = Euclidean()
print("euclidean (0,0)-(3,4):", euclid((0, 0), (3, 4)))

# a cap truncates distances at min(d, cap); the axioms survive truncation
capped = Euclidean(cap=2.0)
print("capped at 2:", capped((0, 0), (3, 4)))

# --- labels and explicit tables ---------------------------------------------

table = TableMetric(["a", "b", "c"], [[0, 2.5, 1.0], [2.5, 0, 2.0], [1.0, 2.0, 0]])
print("table a-b:", table("a", "b"))

# --- pullbacks produce pseudometrics ----------------------------------------

# distance of first coordinates only: points sharing x1 collapse to distance 0
first_axis = PullbackMetric(coordinate_projection([0]), Euclidean())
print("first-axis (0,5)-(0,-3):", first_axis((0, 5), (0, -3)))

# the pointwise max of the two axis pseudometrics is the chebyshev metric
second_axis = PullbackMetric(coordinate_projection([1]), Euclidean())
both = MaxMetric([first_axis, second_axis])
x, y = (0.2, 0.9), (0.5, 0.1)
print("max of axis distances:", both(x, y), " chebyshev:", Chebyshev()(x, y))

# --- axiom validation --------------------------------------------------------

rng = np.random.default_rng(0)
pts = [tuple(p) for p in rng.random((12, 2))]
validate_pseudometric(pts, both)  # raises MetricAxiomError on any violation
print("axioms hold for the combined pseudometric on", len(pts), "points")

# --- quotient by zero-distance classes --------------------------------------

space = GroundSpace([(0, 1), (0, 2), (1, 0), (1, 7)], first_axis)
qspace, project = quotient(space, first_axis)
print("quotient classes:", qspace.points)
print("projection of (0,2):", project((0, 2)))
print("class distance:", qspace.metric(*qspace.points))

# --- metrics from JSON specs -------------------------------------------------

spec = {"kind": "max", "of": [{"kind": "discrete"}, {"kind": "zero"}], "cap": 0.75}
m = metric_from_spec(spec)
print("spec-built metric on labels:", m("u", "v"))
print("space diameter:", GroundSpace(pts, Euclidean()).diameter())
