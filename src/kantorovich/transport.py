"""Kantorovich distance between finitely supported measures.

The distance is the minimum of ``sum γ_ij d(x_i, y_j)`` over all couplings
γ with the two measures as marginals. For finite supports the feasible set
is a transportation polytope, so the infimum is attained at a vertex, whose
basis is a spanning tree of K_{m,n}. An exact network simplex walks such
trees from a northwest-corner start, the rule that also routes the
off-diagonal mass of :func:`partition_coupling`. Two brute-force oracles,
permutation enumeration and vertex enumeration over all spanning trees,
are provided for cross-checking.

Solver state is confined to each invocation; concurrent calls on shared
immutable inputs are safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite
from typing import Callable, Optional, Sequence

import numpy as np

from .ground import GroundSpace
from .measures import FiniteMeasure, atom_to_json, cell_of, integrate
from .points import Point, distinct_points

#: Absolute tolerance on costs and marginal sums.
COST_TOL = 1e-9

#: Coupling entries below this are serialized as exact zeros.
EMIT_ZERO_BELOW = 1e-15

#: The simplex gives up after ``PIVOTS_PER_ARC * (m*n + 10)`` pivots.
PIVOTS_PER_ARC = 200

#: Largest support the permutation oracle enumerates (8! permutations).
MAX_PERMUTATION_ATOMS = 8

#: Problems of at most this many cells price each pivot by a Python scan
#: over the rows, larger ones by one numpy mask. Per pricing round, on the
#: rounds of random Euclidean solves (2-vCPU x86-64, Python 3.11, numpy
#: 2.4), the scan took 3.5 against 7.0 us at 3x3, 4.7 against 6.9 at 5x5,
#: 6.7 against 7.3 at 7x7, 7.4 against 7.2 at 8x8, and 11.3 against 7.6 at
#: 12x12. Tall problems favour the mask earlier (32x2: 13.9 against 7.9).
SCAN_PRICING_CELLS = 64


@dataclass(frozen=True)
class Coupling:
    """Joint measure on a product of two supports with prescribed marginals."""

    rows: tuple
    cols: tuple
    gamma: np.ndarray

    def cost_against(self, cost_matrix: np.ndarray) -> float:
        return float((self.gamma * cost_matrix).sum())

    def check_marginals(self, mu: FiniteMeasure, eta: FiniteMeasure) -> bool:
        return (
            np.abs(self.gamma.sum(axis=1) - mu.weights).max() <= COST_TOL
            and np.abs(self.gamma.sum(axis=0) - eta.weights).max() <= COST_TOL
            and float(self.gamma.min()) >= -COST_TOL
        )


@dataclass(frozen=True)
class TransportResult:
    """Optimal cost plus an attaining coupling and the solver that found it."""

    cost: float
    coupling: Coupling
    solver: str

    def to_json(self) -> dict:
        c = self.coupling
        g = np.where(np.abs(c.gamma) < EMIT_ZERO_BELOW, 0.0, c.gamma)
        return {
            "rows": [atom_to_json(p) for p in c.rows],
            "cols": [atom_to_json(p) for p in c.cols],
            "gamma": [[float(v) for v in row] for row in g],
            "cost": float(self.cost),
        }


def cost_matrix(space: GroundSpace, xs: Sequence[Point], ys: Sequence[Point]) -> np.ndarray:
    return space.metric.pairwise(xs, ys)


# ---------------------------------------------------------------------------
# network simplex on the bipartite transportation graph
# ---------------------------------------------------------------------------


def _northwest_basis(ra: list[float], rb: list[float]) -> dict[tuple[int, int], float]:
    """Northwest-corner starting basis: m + n - 1 arcs forming a staircase,
    each with its flow. Uses up the row and column masses ``ra`` and ``rb``."""
    m, n = len(ra), len(rb)
    basis: dict[tuple[int, int], float] = {}
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        basis[(i, j)] = t
        ra[i] -= t
        rb[j] -= t
        if i == m - 1 and j == n - 1:
            return basis
        if j == n - 1 or (i < m - 1 and ra[i] <= rb[j]):
            i += 1
        else:
            j += 1


def _tree_duals(arcs, C: np.ndarray, m: int, n: int):
    """Node potentials with u[0] = 0, satisfying u_i + v_j = c_ij on basis
    arcs, and each node's parent and depth in the basis tree rooted at row
    0, from one traversal. Rows are nodes ``0..m-1``, columns ``m..m+n-1``.
    """
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in arcs:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = np.full(m + n, np.nan)
    pot[0] = 0.0
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    stack = [0]
    visited = 1
    while stack:
        k = stack.pop()
        for node in adj[k]:
            if np.isnan(pot[node]):
                pot[node] = (C[k, node - m] if k < m else C[node, k - m]) - pot[k]
                parent[node], depth[node] = k, depth[k] + 1
                stack.append(node)
                visited += 1
    if visited < m + n:
        raise RuntimeError("basis does not span the transportation graph")
    return pot[:m], pot[m:], parent, depth


def _first_eligible_scan(rows: list, u: list, v: list, below: float):
    """First arc ``(i, j)`` in row-major order whose reduced cost
    ``(c_ij - u_i) - v_j`` is below ``below``, or ``None``; a Python scan
    that stops at the hit."""
    for i, (row, ui) in enumerate(zip(rows, u)):
        for j, (c, vj) in enumerate(zip(row, v)):
            if (c - ui) - vj < below:
                return i, j
    return None


def _first_eligible_mask(C: np.ndarray, u: np.ndarray, v: np.ndarray, below: float):
    """The arc :func:`_first_eligible_scan` finds, from one numpy mask."""
    eligible = (C - u[:, None] - v[None, :] < below).ravel()
    k = int(eligible.argmax())
    return divmod(k, C.shape[1]) if eligible[k] else None


def solve_transport(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact minimum-cost transportation plan between weight vectors.

    Runs the primal network simplex on the bipartite graph with a
    northwest-corner start. Bland's rule (smallest row-major arc index)
    picks both the entering arc and the leaving arc among ties, which
    rules out cycling under degeneracy. Returns ``(cost, gamma)``.

    Pricing finds the first arc in row-major order whose reduced cost
    ``(c_ij - u_i) - v_j`` is below ``-1e-11 * max(1, max |c|)``. Problems
    of at most ``SCAN_PRICING_CELLS`` cells scan the rows of the cost
    matrix as Python floats and stop at that arc; larger ones take it as
    the first hit of one numpy mask over the whole matrix. Both evaluate
    the same float expression, so both pick the same arc. Neither skips
    the basis arcs: their reduced costs are zero up to the rounding of
    potentials within ``(m + n) * max |c|``, far inside the threshold.
    """
    C = np.asarray(C, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {C.shape}")
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"weight vectors must be 1-D, got shapes {a.shape} and {b.shape}")
    m, n = C.shape
    if len(a) != m or len(b) != n:
        raise ValueError("cost matrix shape does not match the weight vectors")
    if m == 0 or n == 0:
        raise ValueError("weight vectors must be nonempty")
    # the checks read Python floats: on a few cells, numpy's per-call cost
    # outweighs its loop
    rows = C.tolist()
    if not all(map(isfinite, itertools.chain.from_iterable(rows))):
        raise ValueError("costs must be finite, got a non-finite entry")
    c_max = max(map(abs, itertools.chain.from_iterable(rows)))
    ra, rb = a.tolist(), b.tolist()
    a_sum, b_sum = sum(ra), sum(rb)
    if not (isfinite(a_sum) and isfinite(b_sum)):
        raise ValueError("weights must be finite, got a non-finite entry")
    # the sums are finite, so no weight is NaN
    if min(ra) < 0 or min(rb) < 0:
        raise ValueError("weights must be nonnegative, got a negative entry")
    if abs(a_sum - b_sum) > COST_TOL:
        raise ValueError("weight vectors must carry equal total mass")

    basis = _northwest_basis(ra, rb)
    rc_tol = 1e-11 * max(1.0, c_max)
    scan = m * n <= SCAN_PRICING_CELLS

    for _ in range(PIVOTS_PER_ARC * (m * n + 10)):
        if m == 1 or n == 1:
            # the basis holds every arc: nothing to price
            break
        u, v, parent, depth = _tree_duals(basis, C, m, n)
        if scan:
            entering = _first_eligible_scan(rows, u.tolist(), v.tolist(), -rc_tol)
        else:
            entering = _first_eligible_mask(C, u, v, -rc_tol)
        if entering is None:
            break
        i0, j0 = entering

        # the cycle is the entering arc (+θ) and the tree path between its
        # ends, climbed from the deeper end until the two meet. Signs
        # alternate from each end, so the arc from a row up to its parent
        # gets -θ on row i0's side, and from a column up on column j0's side.
        minus, plus = [], []
        x, y = i0, m + j0
        while x != y:
            from_i0 = depth[x] >= depth[y]
            k = x if from_i0 else y
            p = parent[k]
            arc = (k, p - m) if k < m else (p, k - m)
            (minus if (k < m) == from_i0 else plus).append(arc)
            if from_i0:
                x = p
            else:
                y = p
        # least flow, ties to the smallest row-major index: (i, j) tuples
        # compare in row-major order
        theta, leaving = min((basis[arc], arc) for arc in minus)
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
    mu0: FiniteMeasure, mu: FiniteMeasure, cells: Sequence[Callable[[Point], bool]]
) -> Coupling:
    """Feasible coupling of ``mu0`` and ``mu`` built from a partition into cells.

    Block ``(i, i)`` gets mass ``min(mu0(V_i), mu(V_i))`` as a normalized
    product measure; leftover row and column mass is routed off-diagonal
    by the northwest-corner rule over block indices, and routed masses of
    at most 1e-15 (rounding residues) are dropped. Atoms matched by no
    cell fall into the implicit complement block with index 0.
    """

    def assign(p: Point) -> int:
        k = cell_of(p, cells)
        return 0 if k is None else k + 1

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
    block_mass = {(k, k): float(diag[k]) for k in range(nblocks) if diag[k] > 0.0}
    leftover = _northwest_basis((a - diag).tolist(), (b - diag).tolist())
    block_mass.update((arc, q) for arc, q in leftover.items() if q > 1e-15)

    gamma = np.zeros((len(mu0), len(mu)))
    for (bi, bj), q in block_mass.items():
        ridx, cidx = rows_in[bi], cols_in[bj]
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

    Uses permutation enumeration for uniform equal-size supports of at
    most 8 atoms and spanning-tree vertex enumeration when both supports
    have at most 4 atoms; raises for instances outside both regimes.
    """
    C = cost_matrix(space, mu.support, eta.support)
    m, n = C.shape
    uniform = (
        m == n
        and np.abs(mu.weights - 1.0 / m).max() <= 1e-12
        and np.abs(eta.weights - 1.0 / n).max() <= 1e-12
    )
    if uniform and m <= MAX_PERMUTATION_ATOMS:
        cost, gamma = _permutation_oracle(C)
        solver = "brute-permutation"
    elif m <= 4 and n <= 4:
        cost, gamma = _vertex_enumeration_oracle(C, mu.weights, eta.weights)
        solver = "vertex-enumeration"
    else:
        raise ValueError(
            f"brute force needs uniform equal-size supports of at most {MAX_PERMUTATION_ATOMS}"
            " atoms or supports of at most 4 atoms"
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
    if not 0.0 <= L < inf:
        raise ValueError(f"L must be finite and nonnegative, got {L!r}")
    pts = distinct_points([*mu.support, *eta.support])
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
    for name, value in (("eps", eps), ("delta", delta)):
        if not isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
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
