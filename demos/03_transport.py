"""Optimal couplings and the distance they induce on measures.

The distance between two measures is the cheapest way to transport one
onto the other, priced by the ground metric. The solver is an exact
network simplex, and the dual potentials it returns certify each plan.
"""

import numpy as np

from kantorovich import (
    Euclidean,
    FiniteMeasure,
    GroundSpace,
    cost_matrix,
    dirac,
    independent_coupling,
    kantorovich,
    lipschitz_gap,
    mass_transport_bound_check,
    partition_coupling,
    solve_transport,
)

line = GroundSpace([(float(k),) for k in range(5)], Euclidean())

# --- distances between simple measures ---------------------------------------

print("Diracs sit at the ground distance:", kantorovich(line, dirac((0.0,)), dirac((3.0,))).cost)

mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
eta = dirac((1.0,))
result = kantorovich(line, mu, eta)
print("move half the mass across a unit gap:", result.cost)
print("optimal plan:\n", result.coupling.gamma)

# --- the solver certifies its plan -------------------------------------------

rng = np.random.default_rng(11)
pts = [tuple(p) for p in rng.random((8, 2))]
plane = GroundSpace(pts, Euclidean())
a = FiniteMeasure(pts[:4], [0.1, 0.2, 0.3, 0.4])
b = FiniteMeasure(pts[4:], [0.25] * 4)
C = cost_matrix(plane, a.support, b.support)
cost, gamma, u, v = solve_transport(C, a.weights, b.weights)
# potentials with no negative reduced cost c_ij - u_i - v_j make a·u + b·v a
# lower bound on every plan's cost, so a plan that meets it is optimal
print(f"plan cost {cost:.12f} vs dual value {a.weights @ u + b.weights @ v:.12f}")
print("least reduced cost:", (C - u[:, None] - v).min())

# any feasible coupling is an upper bound for the optimum
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
