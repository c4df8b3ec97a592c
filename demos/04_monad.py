"""Barycenters, measures of measures, and the monad laws.

The Dirac embedding and the flattening of a measure of measures make the
measure construction a monad; on convex coordinate spaces the barycenter
map evaluates it. The distance lifts to measures of measures by using the
first-order distance as the ground cost.
"""

import numpy as np

from kantorovich import (
    ConvexSpace,
    Euclidean,
    FiniteMeasure,
    GroundSpace,
    barycenter,
    dirac,
    flatten,
    kantorovich,
    second_order_distance,
)
from kantorovich.laws import (
    random_second_order,
    run_algebra_laws,
    run_barycenter_nonexpansion,
    run_monad_laws,
)

plane = ConvexSpace(2)

# --- barycenters are weighted averages -----------------------------------------

mu = FiniteMeasure([(0.0, 0.0), (4.0, 2.0)], [0.5, 0.5])
print("barycenter:", barycenter(plane, mu))
print("barycenter of a Dirac is its point:", barycenter(plane, dirac((0.3, 0.7))))

# --- flattening a measure of measures -------------------------------------------

M = FiniteMeasure([mu, dirac((0.0, 0.0))], [0.5, 0.5])  # a measure of measures
print("flattened:", flatten(M))
print("flatten of a Dirac-at-a-measure echoes it:", flatten(dirac(mu)))

# --- the second-order distance ---------------------------------------------------

line = GroundSpace([(0.0,), (1.0,), (2.0,)], Euclidean())
N = FiniteMeasure([dirac((1.0,)), dirac((2.0,))], [0.5, 0.5])
outer = second_order_distance(line, dirac(dirac((0.0,))), N).cost
inner = kantorovich(line, dirac((0.0,)), flatten(N)).cost
print("distance from a doubly-Dirac measure:", outer, "= distance to the mixture:", inner)

# flattening never increases distance
rng = np.random.default_rng(5)
space = GroundSpace([tuple(p) for p in rng.random((8, 2))], Euclidean())
A = random_second_order(rng, space.points)
B = random_second_order(rng, space.points)
print(
    "flatten non-expansion:",
    kantorovich(space, flatten(A), flatten(B)).cost,
    "<=",
    second_order_distance(space, A, B).cost,
)

# --- the laws, checked mechanically ----------------------------------------------

checks = ((run_monad_laws, 50), (run_algebra_laws, 30), (run_barycenter_nonexpansion, 30))
for run, samples in checks:
    for report in run(rng, samples):
        print(f"{report.law:32s} max deviation {report.max_deviation:.2e} pass={report.passed}")
