"""Kantorovich distance between finitely supported measures.

The distance is the minimum of ``sum γ_ij d(x_i, y_j)`` over all couplings
γ with the two measures as marginals. For finite supports the feasible set
is a transportation polytope, so the infimum is attained at a vertex and
an exact network simplex finds it. Two independent brute-force oracles
(permutation enumeration and vertex enumeration over spanning-tree bases)
are provided for cross-checking.

Solver state is confined to each invocation; concurrent calls on shared
immutable inputs are safe.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import Callable, Optional, Sequence

import numpy as np

from .ground import GroundSpace
from .measures import FiniteMeasure, PartitionError, integrate, measure_to_json
from .points import Point, distinct_points, point_to_json

#: Absolute tolerance on costs and marginal sums.
COST_TOL = 1e-9

#: Coupling entries below this are serialized as exact zeros.
EMIT_ZERO_BELOW = 1e-15


def _support_entry_to_json(entry):
    # rows and cols hold points at first order, measures at second order
    if isinstance(entry, FiniteMeasure):
        return measure_to_json(entry)
    return point_to_json(entry)


@dataclass(frozen=True)
class Coupling:
    """Joint measure on a product of two supports with prescribed marginals."""

    rows: tuple
    cols: tuple
    gamma: np.ndarray

    def row_marginal(self) -> np.ndarray:
        return self.gamma.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.gamma.sum(axis=0)

    def cost_against(self, cost_matrix: np.ndarray) -> float:
        return float((self.gamma * cost_matrix).sum())

    def check_marginals(self, mu: FiniteMeasure, eta: FiniteMeasure, tol: float = COST_TOL) -> bool:
        return (
            np.abs(self.row_marginal() - mu.weights).max() <= tol
            and np.abs(self.col_marginal() - eta.weights).max() <= tol
            and float(self.gamma.min()) >= -tol
        )

    def to_measure(self) -> FiniteMeasure:
        """The coupling as a measure on pair points (zero cells dropped)."""
        atoms, weights = [], []
        for i, x in enumerate(self.rows):
            for j, y in enumerate(self.cols):
                w = float(self.gamma[i, j])
                if w > 0.0:
                    atoms.append((x, y))
                    weights.append(w)
        return FiniteMeasure(atoms, weights)

    def to_json(self, cost: float | None = None) -> dict:
        g = np.where(np.abs(self.gamma) < EMIT_ZERO_BELOW, 0.0, self.gamma)
        out = {
            "rows": [_support_entry_to_json(p) for p in self.rows],
            "cols": [_support_entry_to_json(p) for p in self.cols],
            "gamma": [[float(v) for v in row] for row in g],
        }
        if cost is not None:
            out["cost"] = float(cost)
        return out


@dataclass(frozen=True)
class TransportResult:
    """Optimal cost plus an attaining coupling and the solver that found it."""

    cost: float
    coupling: Coupling
    solver: str

    def to_json(self) -> dict:
        return self.coupling.to_json(cost=self.cost)


def cost_matrix(space: GroundSpace, xs: Sequence[Point], ys: Sequence[Point]) -> np.ndarray:
    return space.metric.pairwise(xs, ys)


# ---------------------------------------------------------------------------
# network simplex on the bipartite transportation graph
# ---------------------------------------------------------------------------


def _northwest_basis(a: np.ndarray, b: np.ndarray) -> tuple[list[tuple[int, int]], list[float]]:
    """Northwest-corner starting basis: m + n - 1 arcs forming a staircase."""
    m, n = len(a), len(b)
    ra = a.tolist()
    rb = b.tolist()
    arcs: list[tuple[int, int]] = []
    flows: list[float] = []
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        arcs.append((i, j))
        flows.append(t)
        ra[i] -= t
        rb[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if j == n - 1 or (i < m - 1 and ra[i] <= rb[j]):
            i += 1
        else:
            j += 1
    return arcs, flows


def _tree_duals(arcs, C: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node potentials with u[0] = 0, satisfying u_i + v_j = c_ij on basis arcs."""
    adj_row: list[list[int]] = [[] for _ in range(m)]
    adj_col: list[list[int]] = [[] for _ in range(n)]
    for i, j in arcs:
        adj_row[i].append(j)
        adj_col[j].append(i)
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack = [(True, 0)]
    while stack:
        is_row, k = stack.pop()
        if is_row:
            for j in adj_row[k]:
                if np.isnan(v[j]):
                    v[j] = C[k, j] - u[k]
                    stack.append((False, j))
        else:
            for i in adj_col[k]:
                if np.isnan(u[i]):
                    u[i] = C[i, k] - v[k]
                    stack.append((True, i))
    if np.isnan(u).any() or np.isnan(v).any():
        raise RuntimeError("basis does not span the transportation graph")
    return u, v


def _tree_path(arcs, m: int, start_row: int, goal_col: int) -> list[tuple[int, int]]:
    """Arcs of the unique basis-tree path from a row node to a column node."""
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for i, j in arcs:
        r, c = i, m + j
        adj.setdefault(r, []).append((c, (i, j)))
        adj.setdefault(c, []).append((r, (i, j)))
    start, goal = start_row, m + goal_col
    parent: dict[int, tuple[int, tuple[int, int]]] = {start: (start, (-1, -1))}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for nxt, arc in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = (node, arc)
                queue.append(nxt)
    path: list[tuple[int, int]] = []
    node = goal
    while node != start:
        prev, arc = parent[node]
        path.append(arc)
        node = prev
    path.reverse()
    return path


def solve_transport(
    C: np.ndarray, a: np.ndarray, b: np.ndarray, max_iter: int | None = None
) -> tuple[float, np.ndarray]:
    """Exact minimum-cost transportation plan between weight vectors.

    Runs the primal network simplex on the bipartite graph with a
    northwest-corner start. Bland's rule (smallest row-major arc index)
    picks both the entering arc and the leaving arc among ties, which
    rules out cycling under degeneracy. Returns ``(cost, gamma)``.
    """
    C = np.asarray(C, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = C.shape
    if len(a) != m or len(b) != n:
        raise ValueError("cost matrix shape does not match the weight vectors")
    if m == 0 or n == 0:
        raise ValueError("weight vectors must be nonempty")
    c_max = float(np.abs(C).max())
    if not isfinite(c_max):
        raise ValueError("costs must be finite, got a non-finite entry")
    a_sum, b_sum = float(a.sum()), float(b.sum())
    if not (isfinite(a_sum) and isfinite(b_sum)):
        raise ValueError("weights must be finite, got a non-finite entry")
    if a.min() < 0 or b.min() < 0:
        raise ValueError("weights must be nonnegative, got a negative entry")
    if abs(a_sum - b_sum) > COST_TOL:
        raise ValueError("weight vectors must carry equal total mass")

    arcs, flows = _northwest_basis(a, b)
    basis = dict(zip(arcs, flows))
    rc_tol = 1e-11 * max(1.0, c_max)
    if max_iter is None:
        max_iter = 200 * (m * n + 10)

    for _ in range(max_iter):
        if m == 1 or n == 1:
            # the basis holds every arc: nothing to price
            break
        u, v = _tree_duals(basis.keys(), C, m, n)
        rc = (C - u[:, None] - v[None, :]).ravel()
        for i, j in basis:
            rc[i * n + j] = 0.0
        candidates = np.flatnonzero(rc < -rc_tol)
        if candidates.size == 0:
            break
        i0, j0 = divmod(int(candidates[0]), n)

        path = _tree_path(basis.keys(), m, i0, j0)
        # cycle = entering arc (+θ) followed by the path back; signs alternate,
        # so path arcs at even positions from the entering side receive -θ
        minus = path[0::2]
        plus = path[1::2]
        theta = min(basis[arc] for arc in minus)
        leaving = min(
            (arc for arc in minus if basis[arc] <= theta), key=lambda ij: ij[0] * n + ij[1]
        )
        for arc in minus:
            basis[arc] -= theta
        for arc in plus:
            basis[arc] += theta
        del basis[leaving]
        basis[(i0, j0)] = theta
    else:
        raise RuntimeError("network simplex failed to terminate")
    gamma = np.zeros((m, n))
    for (i, j), f in basis.items():
        gamma[i, j] = max(f, 0.0)
    return float((gamma * C).sum()), gamma


def kantorovich(space: GroundSpace, mu: FiniteMeasure, eta: FiniteMeasure) -> TransportResult:
    """Minimum expected ground distance over all couplings of two measures.

    The minimum exists because the coupling polytope is nonempty (the
    product coupling is feasible) and compact; the returned coupling
    attains it. Cost is recomputed from the coupling, so the reported
    value and the plan always agree.
    """
    C = cost_matrix(space, mu.support, eta.support)
    cost, gamma = solve_transport(C, mu.weights, eta.weights)
    return TransportResult(cost, Coupling(mu.support, eta.support, gamma), "network-simplex")


def independent_coupling(mu: FiniteMeasure, eta: FiniteMeasure) -> Coupling:
    """Product coupling ``γ_ij = μ_i η_j``; always feasible."""
    return Coupling(mu.support, eta.support, np.outer(mu.weights, eta.weights))


# ---------------------------------------------------------------------------
# explicit partition coupling
# ---------------------------------------------------------------------------


def partition_coupling(
    space: GroundSpace,
    mu0: FiniteMeasure,
    mu: FiniteMeasure,
    cells: Sequence[Callable[[Point], bool]],
) -> Coupling:
    """Feasible coupling built from a partition into cells.

    Block ``(i, i)`` gets mass ``min(mu0(V_i), mu(V_i))`` as a normalized
    product measure; leftover row and column mass is routed off-diagonal
    by the northwest-corner rule over block indices. Atoms matched by no
    cell fall into the implicit complement block with index 0.
    """

    def assign(p: Point) -> int:
        hits = [i for i, cell in enumerate(cells) if cell(p)]
        if len(hits) > 1:
            raise PartitionError(f"atom {p!r} matched by cells {hits[0]} and {hits[1]}")
        return hits[0] + 1 if hits else 0

    nblocks = len(cells) + 1
    rows_in: list[list[int]] = [[] for _ in range(nblocks)]
    cols_in: list[list[int]] = [[] for _ in range(nblocks)]
    for i, p in enumerate(mu0.support):
        rows_in[assign(p)].append(i)
    for j, q in enumerate(mu.support):
        cols_in[assign(q)].append(j)
    a = np.array([float(mu0.weights[idx].sum()) for idx in rows_in])
    b = np.array([float(mu.weights[idx].sum()) for idx in cols_in])

    diag = np.minimum(a, b)
    block_mass: dict[tuple[int, int], float] = {
        (k, k): float(diag[k]) for k in range(nblocks) if diag[k] > 0.0
    }
    r = a - diag
    c = b - diag
    tiny = 1e-15
    i = j = 0
    while i < nblocks and j < nblocks:
        if r[i] <= tiny:
            i += 1
            continue
        if c[j] <= tiny:
            j += 1
            continue
        q = min(r[i], c[j])
        block_mass[(i, j)] = block_mass.get((i, j), 0.0) + float(q)
        r[i] -= q
        c[j] -= q

    gamma = np.zeros((len(mu0), len(mu)))
    for (bi, bj), q in block_mass.items():
        ridx, cidx = rows_in[bi], cols_in[bj]
        if not ridx or not cidx or q <= 0.0:
            continue
        wr = mu0.weights[ridx] / a[bi]
        wc = mu.weights[cidx] / b[bj]
        gamma[np.ix_(ridx, cidx)] += q * np.outer(wr, wc)
    return Coupling(mu0.support, mu.support, gamma)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=int)


def _permutation_oracle(C: np.ndarray) -> tuple[float, np.ndarray]:
    """Uniform equal-size case: minimize over permutation couplings.

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
def _spanning_tree_bases(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All spanning trees of K_{m,n} as precomputed linear flow solvers.

    Returns ``(arc_index, solver)`` where ``arc_index[t]`` lists the
    row-major arc indices of tree ``t`` and ``solver[t]`` maps the stacked
    weight vector ``(a, b)`` to the tree's unique basic flows.
    """
    arcs_all = [(i, j) for i in range(m) for j in range(n)]
    nodes = m + n
    narcs = nodes - 1
    tree_arc_idx: list[list[int]] = []
    solvers: list[np.ndarray] = []
    for subset in itertools.combinations(range(len(arcs_all)), narcs):
        parent = list(range(nodes))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for k in subset:
            i, j = arcs_all[k]
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue
        # m + n - 1 acyclic arcs on m + n nodes: a spanning tree.
        # Leaf elimination expresses each arc flow as a linear map of (a, b).
        incident: list[list[int]] = [[] for _ in range(nodes)]
        for pos, k in enumerate(subset):
            i, j = arcs_all[k]
            incident[i].append(pos)
            incident[m + j].append(pos)
        arc_nodes = [(arcs_all[k][0], m + arcs_all[k][1]) for k in subset]
        residual = np.eye(nodes)
        degree = [len(incident[v]) for v in range(nodes)]
        solver = np.zeros((narcs, nodes))
        removed_arc = [False] * narcs
        removed_node = [False] * nodes
        leaves = deque(v for v in range(nodes) if degree[v] == 1)
        while leaves:
            v = leaves.popleft()
            if removed_node[v] or degree[v] == 0:
                continue
            pos = next(p for p in incident[v] if not removed_arc[p])
            solver[pos] = residual[v]
            x, y = arc_nodes[pos]
            other = y if x == v else x
            # the arc drains the leaf's remaining quantity from both endpoints
            residual[other] -= residual[v]
            removed_arc[pos] = True
            removed_node[v] = True
            degree[v] = 0
            degree[other] -= 1
            if degree[other] == 1:
                leaves.append(other)
        tree_arc_idx.append(list(subset))
        solvers.append(solver)
    return np.array(tree_arc_idx, dtype=int), np.stack(solvers)


def _vertex_enumeration_oracle(
    C: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact minimum over all basic feasible solutions of the polytope."""
    m, n = C.shape
    arc_idx, solvers = _spanning_tree_bases(m, n)
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


def brute_force_distance(
    space: GroundSpace, mu: FiniteMeasure, eta: FiniteMeasure
) -> TransportResult:
    """Independent oracle for the coupling minimum.

    Uses permutation enumeration for uniform equal-size supports and
    spanning-tree vertex enumeration when both supports have at most 4
    atoms; raises for instances outside both regimes.
    """
    C = cost_matrix(space, mu.support, eta.support)
    m, n = C.shape
    uniform = (
        m == n
        and np.abs(mu.weights - 1.0 / m).max() <= 1e-12
        and np.abs(eta.weights - 1.0 / n).max() <= 1e-12
    )
    if uniform:
        cost, gamma = _permutation_oracle(C)
        solver = "brute-permutation"
    elif m <= 4 and n <= 4:
        cost, gamma = _vertex_enumeration_oracle(C, mu.weights, eta.weights)
        solver = "vertex-enumeration"
    else:
        raise ValueError(
            "brute force needs uniform equal-size supports or supports of at most 4 atoms"
        )
    return TransportResult(cost, Coupling(mu.support, eta.support, gamma), solver)


# ---------------------------------------------------------------------------
# consequences of the coupling formulation
# ---------------------------------------------------------------------------


def lipschitz_gap(
    space: GroundSpace,
    mu: FiniteMeasure,
    eta: FiniteMeasure,
    f: Callable[[Point], float],
    L: float,
) -> tuple[float, float]:
    """Integral gap of a Lipschitz observable against its transport bound.

    Verifies that ``f`` is ``L``-Lipschitz on all pairs of the joint
    support, then returns ``(gap, bound)`` with
    ``gap = |∫f dμ − ∫f dη|`` and ``bound = L · distance(μ, η)``; the gap
    never exceeds the bound.
    """
    pts = list(mu.support) + [p for p in eta.support if mu.index_of(p) is None]
    fx = np.array([float(f(p)) for p in pts])
    bad = np.abs(fx[:, None] - fx[None, :]) > L * space.metric.pairwise(pts, pts) + 1e-12
    # row-major over i < j: the order of itertools.combinations(pts, 2)
    hits = np.argwhere(np.triu(bad, 1))
    if len(hits):
        x, y = (pts[k] for k in hits[0])
        raise ValueError(f"observable violates the declared Lipschitz constant on {x!r}, {y!r}")
    gap = abs(integrate(mu, f) - integrate(eta, f))
    bound = L * kantorovich(space, mu, eta).cost
    return gap, bound


def mass_transport_bound_check(
    space: GroundSpace,
    mu: FiniteMeasure,
    eta: FiniteMeasure,
    K: Callable[[Point], bool],
    eps: float,
    delta: float,
) -> Optional[bool]:
    """Check the mass-transport neighborhood bound.

    When ``distance(μ, η) ≤ εδ/2`` and ``μ(K) ≥ 1 − ε/2``, the second
    measure must put mass at least ``1 − ε`` on the closed
    δ-neighborhood of ``K``. Returns ``None`` when the hypotheses fail,
    otherwise the truth of the conclusion. ``K`` is read as a subset of
    the space's points together with both supports.
    """
    d_hat = kantorovich(space, mu, eta).cost
    mu_K = float(sum(w for p, w in mu.items() if K(p)))
    if d_hat > eps * delta / 2.0 + 1e-12 or mu_K < 1.0 - eps / 2.0 - 1e-12:
        return None
    K_set = distinct_points(p for p in (*space.points, *mu.support, *eta.support) if K(p))
    if K_set:
        dist_to_K = space.metric.pairwise(list(eta.support), K_set).min(axis=1)
    else:
        dist_to_K = np.full(len(eta), np.inf)
    eta_O = float(eta.weights[dist_to_K <= delta + 1e-12].sum())
    return bool(eta_O >= 1.0 - eps - 1e-12)
