"""Closed-form Kantorovich distances that share no code with the simplex.

Each reads only the support and weights of two measures, with numpy alone,
and holds at every support size:

- under the unit discrete metric, W = 1 - sum_x min(mu(x), eta(x)), the
  total variation;
- for points on a line, W = sum_k |F(x_k) - G(x_k)| (x_{k+1} - x_k) over
  the merged sorted support, where F and G are the distribution functions
  (Rachev & Rueschendorf, *Mass Transportation Problems*, 1998).

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
