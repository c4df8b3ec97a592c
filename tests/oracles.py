"""Closed-form Kantorovich distances that share no code with the simplex.

Each reads only the support and weights of two measures, with numpy alone,
and holds at every support size:

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
"""

from __future__ import annotations

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
