"""Kantorovich distances that share no code with the simplex.

Closed forms read only the support and weights of two measures, with numpy
alone, and hold at every support size:

- under the unit discrete metric, W = 1 - sum_x min(mu(x), eta(x)), the
  total variation;
- for points on a line, W = sum_k |F(x_k) - G(x_k)| (x_{k+1} - x_k) over
  the merged sorted support, where F and G are the distribution functions
  (Rachev & Rueschendorf, *Mass Transportation Problems*, 1998);
- under the path metric of a weighted tree, W = sum_e l_e |mu(T_e) - eta(T_e)|,
  where T_e is the side of edge e away from the root (Evans & Matsen, "The
  phylogenetic Kantorovich-Rubinstein metric for environmental sequence
  samples", 2012).

Atoms are matched by exact value, so the measures should carry points that
are equal exactly when they are identical, such as integer grid points.

Two brute-force oracles take a cost matrix and return ``(cost, gamma)``:
:func:`permutation_oracle` enumerates the n! plans of uniform weights on
n atoms a side (n <= 8 is 40,320 plans), and
:func:`vertex_enumeration_oracle` every spanning-tree basis of K_{m,n}
for any weights (m, n <= 4 is at most 4,096 trees).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np


def discrete_distance(mu, eta) -> float:
    """Kantorovich distance of ``mu`` and ``eta`` under the discrete metric."""
    a = dict(zip(mu.support, mu.weights.tolist()))
    b = dict(zip(eta.support, eta.weights.tolist()))
    return 1.0 - sum(min(w, b[x]) for x, w in a.items() if x in b)


def line_distance(mu, eta) -> float:
    """Kantorovich distance of two measures on 1-D points under ``|x - y|``."""
    x = np.array([p[0] for p in mu.support], dtype=float)
    y = np.array([p[0] for p in eta.support], dtype=float)
    grid = np.unique(np.concatenate([x, y]))
    F = np.zeros(len(grid))
    G = np.zeros(len(grid))
    F[np.searchsorted(grid, x)] = mu.weights
    G[np.searchsorted(grid, y)] = eta.weights
    return float(np.sum(np.abs(np.cumsum(F) - np.cumsum(G))[:-1] * np.diff(grid)))


def tree_distance(nodes, parent, length, mu, eta) -> float:
    """Kantorovich distance of ``mu`` and ``eta`` under the path metric of a
    tree on the labels ``nodes``. Node 0 is the root; node ``k > 0`` hangs
    from node ``parent[k] < k`` by an edge of length ``length[k]``."""
    index = {p: k for k, p in enumerate(nodes)}
    excess = np.zeros(len(nodes))
    np.add.at(excess, [index[p] for p in mu.support], mu.weights)
    np.subtract.at(excess, [index[p] for p in eta.support], eta.weights)
    # children come after their parents, so one backward pass leaves each
    # node with the excess of its whole subtree
    for k in range(len(nodes) - 1, 0, -1):
        excess[parent[k]] += excess[k]
    return float(sum(length[k] * abs(excess[k]) for k in range(1, len(nodes))))


@lru_cache(maxsize=16)
def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=int)


def permutation_oracle(C: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum over the permutation plans of the n×n cost matrix ``C`` with
    uniform weights 1/n on both sides.

    Valid because the vertices of the uniform transportation polytope are
    the permutation matrices divided by n (Birkhoff).
    """
    n = C.shape[0]
    perms = _all_permutations(n)
    costs = C[np.arange(n)[None, :], perms].sum(axis=1) / n
    k = int(costs.argmin())
    gamma = np.zeros((n, n))
    gamma[np.arange(n), perms[k]] = 1.0 / n
    return float(costs[k]), gamma


@lru_cache(maxsize=16)
def spanning_tree_bases(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All spanning trees of K_{m,n} as precomputed linear flow solvers.

    Returns ``(arc_index, solver)`` where ``arc_index[t]`` lists the
    row-major arc indices of tree ``t`` and ``solver[t]`` maps the stacked
    weight vector ``(a, b)`` to the tree's unique basic flows.

    Arc ``(i, j)`` is the column of the node-arc incidence matrix with ones
    at row node ``i`` and column node ``m + j``; the last row is dropped, as
    the rows of row nodes and of column nodes sum to the same vector. The
    matrix is totally unimodular, so each square block of ``m + n - 1``
    arcs has determinant 0, or ±1 exactly when the arcs form a spanning
    tree. The inverse of a tree's block is then an integer matrix, rounded
    to drop the error of inverting; with a zero column for the dropped node
    it maps balanced weights ``(a, b)`` to the tree's flows.
    """
    arcs = np.arange(m * n)
    incidence = np.zeros((m + n, m * n))
    incidence[arcs // n, arcs] = incidence[m + arcs % n, arcs] = 1.0
    subsets = np.array(list(itertools.combinations(range(m * n), m + n - 1)), dtype=int)
    blocks = incidence[:-1, subsets].transpose(1, 0, 2)
    trees = np.abs(np.linalg.det(blocks)) > 0.5
    solver = np.zeros((int(trees.sum()), m + n - 1, m + n))
    solver[:, :, :-1] = np.rint(np.linalg.inv(blocks[trees]))
    return subsets[trees], solver


def vertex_enumeration_oracle(
    C: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact minimum over all basic feasible solutions of the polytope of
    plans with marginals ``a`` and ``b``."""
    m, n = C.shape
    arc_idx, solvers = spanning_tree_bases(m, n)
    rhs = np.concatenate([a, b])
    flows = solvers @ rhs
    feasible = (flows >= -1e-12).all(axis=1)
    if not feasible.any():
        raise RuntimeError("no feasible spanning-tree basis found")
    arc_costs = C.ravel()[arc_idx]
    costs = np.where(feasible, (flows * arc_costs).sum(axis=1), np.inf)
    t = int(costs.argmin())
    gamma = np.zeros(m * n)
    gamma[arc_idx[t]] = np.maximum(flows[t], 0.0)
    gamma = gamma.reshape(m, n)
    return float((gamma * C).sum()), gamma
