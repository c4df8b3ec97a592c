"""Lifting pseudometrics to measures through the quotient.

A pseudometric that cannot tell certain points apart induces a genuine
metric on its zero-distance classes. Pushing measures onto the classes
and measuring there gives the lifted pseudometric, which agrees with
costing the pseudometric directly and commutes with pullbacks.
"""

import numpy as np

from kantorovich import (
    Euclidean,
    FiniteMeasure,
    GroundSpace,
    PullbackMetric,
    coordinate_projection,
    dirac,
    kantorovich,
    lifted_pseudometric,
    pushforward,
    quotient,
    reweight_series_check,
)

# the pseudometric that only sees the first coordinate
first_axis = PullbackMetric(coordinate_projection([0]), Euclidean())

pts = [(0.0, 5.0), (0.0, -3.0), (1.0, 0.0), (1.0, 9.0), (2.5, 2.0)]
space = GroundSpace(pts, first_axis)

qspace, project = quotient(space, first_axis)
print("classes:", qspace.points)

# measures that differ only in invisible coordinates are at distance 0
print("collapsed Diracs:", lifted_pseudometric(space, first_axis, dirac(pts[0]), dirac(pts[1])))

# the lift through the quotient equals costing the pseudometric directly
rng = np.random.default_rng(3)
w = rng.random(3) + 0.1
mu = FiniteMeasure(pts[:3], w / w.sum())
w2 = rng.random(3) + 0.1
eta = FiniteMeasure(pts[2:], w2 / w2.sum())
via_quotient = lifted_pseudometric(space, first_axis, mu, eta)
direct = kantorovich(space, mu, eta).cost
print(f"via quotient {via_quotient:.12f} = direct {direct:.12f}")

# pullbacks commute with lifting: lift rho = p o (f x f) on the source,
# or push forward along f and lift p on the target
target_pts = [tuple(p) for p in rng.random((4, 2))]
assignment = {p: target_pts[i % 4] for i, p in enumerate(space.points)}
f = assignment.__getitem__
p = PullbackMetric(coordinate_projection([1]), Euclidean())
rho = PullbackMetric(f, p)
lhs = lifted_pseudometric(GroundSpace(space.points, rho), rho, mu, eta)
rhs = lifted_pseudometric(GroundSpace(target_pts, p), p, pushforward(f, mu), pushforward(f, eta))
print(f"pullback commutation {lhs:.12f} = {rhs:.12f}")

# the convex reweighting identity behind absorbing small weights
points = [(0.0, 0.0, 1.0), (1.0, 2.0, 0.0), (0.5, 0.5, 0.5)]
lam = [0.6, 0.25, 0.15]
eps = [0.5, 0.9, 0.75]
print("reweighting identity holds:", reweight_series_check(points, lam, m=0, eps=eps))
