"""Optimal couplings and the distance they induce on measures.

The distance between two measures is the cheapest way to transport one
onto the other, priced by the ground metric. The solver is an exact
network simplex; two independent brute-force oracles confirm it.
"""

import numpy as np

from kantorovich import (
    Euclidean,
    FiniteMeasure,
    GroundSpace,
    brute_force_distance,
    cost_matrix,
    dirac,
    independent_coupling,
    kantorovich,
    lipschitz_gap,
    mass_transport_bound_check,
    partition_coupling,
)

line = GroundSpace([(float(k),) for k in range(5)], Euclidean())

# --- distances between simple measures ---------------------------------------

print("Diracs sit at the ground distance:", kantorovich(line, dirac((0.0,)), dirac((3.0,))).cost)

mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
eta = dirac((1.0,))
result = kantorovich(line, mu, eta)
print("move half the mass across a unit gap:", result.cost)
print("optimal plan:\n", result.coupling.gamma)

# --- the solver against its oracles -------------------------------------------

rng = np.random.default_rng(11)
pts = [tuple(p) for p in rng.random((8, 2))]
plane = GroundSpace(pts, Euclidean())
a = FiniteMeasure(pts[:4], [0.1, 0.2, 0.3, 0.4])
b = FiniteMeasure(pts[4:], [0.25] * 4)
exact = kantorovich(plane, a, b)
oracle = brute_force_distance(plane, a, b)
print(f"simplex {exact.cost:.12f} vs {oracle.solver} {oracle.cost:.12f}")

# any feasible coupling is an upper bound for the optimum
C = cost_matrix(plane, a.support, b.support)
print("independent coupling costs more:", independent_coupling(a, b).cost_against(C))

# --- the explicit partition coupling ------------------------------------------

mu0 = FiniteMeasure([(0.0,), (10.0,)], [0.5, 0.5])
mu1 = FiniteMeasure([(0.1,), (10.1,)], [0.5, 0.5])
clusters = GroundSpace(mu0.support + mu1.support, Euclidean())
coup = partition_coupling(mu0, mu1, [lambda p: p[0] < 5, lambda p: p[0] >= 5])
C2 = cost_matrix(clusters, mu0.support, mu1.support)
print("partition coupling keeps mass inside clusters, cost:", coup.cost_against(C2))

# --- Lipschitz observables cannot out-run the distance -------------------------

gap, bound = lipschitz_gap(line, mu, eta, lambda p: p[0], L=1.0)
print(f"observable gap {gap} <= bound {bound}")

# --- close measures spread mass over neighborhoods -----------------------------

ok = mass_transport_bound_check(
    line, dirac((0.0,)), dirac((0.4,)), K=lambda p: p[0] == 0.0, eps=1.0, delta=0.8
)
print("neighborhood mass bound holds:", ok)
