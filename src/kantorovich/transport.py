"""Kantorovich distance between finitely supported measures.

The distance is the minimum of ``sum γ_ij d(x_i, y_j)`` over all couplings
γ with the two measures as marginals. For finite supports the feasible set
is a transportation polytope, so the infimum is attained at a vertex, whose
basis is a spanning tree of K_{m,n}. A problem with a side of at most two
atoms is solved in closed form: one atom ships everything, and two rows
are a continuous knapsack, filled greedily. Larger problems take an
exact network simplex that walks spanning trees from a northwest-corner
start, the rule that also routes the off-diagonal mass of
:func:`partition_coupling`. :func:`kantorovich`, and the outer solve of
the second-order distance, leave the mass both measures put on an atom in
place, solve the rest, and certify the assembled plan with dual
potentials.

Solver state is confined to each invocation; concurrent calls on shared
immutable inputs are safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf, isfinite
from operator import mul, sub
from typing import Callable, Optional, Sequence

import numpy as np

from .ground import GroundSpace
from .measures import FiniteMeasure, atom_to_json, cell_of, integrate
from .points import Point, distinct_points

#: Absolute tolerance on costs and marginal sums.
COST_TOL = 1e-9

#: Pricing threshold relative to ``max(1, max |c|)``: the simplex stops when
#: no reduced cost is below its negative, and a plan certified by dual
#: potentials may cost at most this much more than their dual value.
REDUCED_COST_TOL = 1e-11

#: Coupling entries below this are serialized as exact zeros.
EMIT_ZERO_BELOW = 1e-15

#: The simplex gives up after ``PIVOTS_PER_ARC * (m*n + 10)`` pivots.
PIVOTS_PER_ARC = 200


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


def _tree_duals(adj: list[list[int]], rows: list, m: int, n: int):
    """Node potentials with u[0] = 0, satisfying u_i + v_j = c_ij on basis
    arcs, and each node's parent and depth in the basis tree rooted at row
    0, from one traversal. Rows are nodes ``0..m-1``, columns ``m..m+n-1``;
    ``adj`` lists each node's tree neighbours, which the pivot loop keeps
    between pivots, and ``rows`` is the cost matrix as Python lists.
    """
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
                pot[node] = (rows[k][node - m] if k < m else rows[node][k - m]) - pot[k]
                parent[node], depth[node] = k, depth[k] + 1
                stack.append(node)
                visited += 1
    if visited < m + n:
        raise RuntimeError("basis does not span the transportation graph")
    return pot[:m], pot[m:], parent, depth


def _first_eligible_mask(C: np.ndarray, u: np.ndarray, v: np.ndarray, below: float):
    """First arc ``(i, j)`` in row-major order whose reduced cost
    ``(c_ij - u_i) - v_j`` is below ``below``, or ``None``: the first hit
    of one numpy mask over the whole matrix."""
    eligible = (C - u[:, None] - v[None, :] < below).ravel()
    k = int(eligible.argmax())
    return divmod(k, C.shape[1]) if eligible[k] else None


def _fill_first_row(c0: list, c1: list, a0: float, b: list):
    """Optimal plan and potentials of a two-row problem with row costs
    ``c0`` and ``c1``, first-row mass ``a0`` and column masses ``b``.

    Moving a unit of column j's mass from row 1 to row 0 changes the cost
    by c0_j - c1_j, so the problem is a continuous knapsack (Dantzig,
    1957): row 0 fills the columns in the order of (c0_j - c1_j, j) until
    its mass runs out at a split column k, and row 1 takes the rest.
    Returns ``(g0, g1, u1, v)``, the two rows of the plan, the second row's
    potential and the column potentials, with u = (0, c1_k - c0_k),
    v_j = c0_j up to and including k and v_j = c1_j - u1 after it: the
    reduced costs are differences of the sorted keys, so none is negative.
    """
    order = sorted(range(len(b)), key=lambda j: c0[j] - c1[j])
    g0, g1 = [0.0] * len(b), list(b)
    rest = a0
    for filled, k in enumerate(order, 1):
        g0[k] = x = min(rest, b[k])
        g1[k] = b[k] - x
        rest -= x
        if rest == 0.0:
            break
    u1 = c1[k] - c0[k]
    v = [c - u1 for c in c1]
    for j in order[:filled]:
        v[j] = c0[j]
    return g0, g1, u1, v


def _narrow_plan(C: np.ndarray, rows: list, ra: list, rb: list):
    """``(gamma, u, v)`` of a problem with a side of at most two atoms,
    without pivots; ``rows`` is ``C.tolist()``."""
    m, n = C.shape
    if m == 1 or n == 1:
        # every arc is basic: the northwest start is the plan, and the
        # potentials follow from the costs
        flows = list(_northwest_basis(ra, rb).values())
        return np.array(flows).reshape(m, n), C[:, 0] - C[0, 0], C[0].copy()
    if m == 2:
        g0, g1, u1, v = _fill_first_row(rows[0], rows[1], ra[0], rb)
        return np.array([g0, g1]), np.array([0.0, u1]), np.array(v)
    # two columns: solve the transpose, then shift the potentials so that
    # u[0] = 0
    g0, g1, v1, u = _fill_first_row([r[0] for r in rows], [r[1] for r in rows], rb[0], ra)
    u0 = u[0]
    return np.array([g0, g1]).T.copy(), np.array(u) - u0, np.array([u0, v1 + u0])


def _solver_name(shape: tuple[int, int]) -> str:
    """How :func:`solve_transport` solves a problem of this shape."""
    return "closed-form" if min(shape) <= 2 else "network-simplex"


def solve_transport(
    C: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimum-cost transportation plan between weight vectors.

    Returns ``(cost, gamma, u, v)``, where ``u`` and ``v`` are row and
    column potentials that certify the plan: ``u[0] = 0``, ``u_i + v_j =
    c_ij`` on every cell that carries flow, no reduced cost ``c_ij - u_i -
    v_j`` is below minus the pricing threshold, and ``a·u + b·v`` is the
    plan's cost up to rounding.

    A problem with a side of at most two atoms is solved in closed form,
    with no pivot. With one row (or column) the plan ships every column's
    mass from it, and u_i = c_i0 - c_00, v_j = c_0j. With two rows the
    columns are sorted by (c_0j - c_1j, j) and row 0 fills them greedily
    up to a split column k (:func:`_fill_first_row`); u = (0, c_1k - c_0k),
    v_j = c_0j for the columns up to and including k and c_1j - u_1 after
    it. With two columns the same holds for the transpose, shifted so that
    u[0] = 0.

    Larger problems run the primal network simplex on the bipartite graph
    with a northwest-corner start, and ``u`` and ``v`` are the potentials
    of its final basis tree. Bland's rule (smallest row-major arc index)
    picks both the entering arc and the leaving arc among ties, which
    rules out cycling under degeneracy.

    Pricing takes the entering arc as the first arc in row-major order
    whose reduced cost ``(c_ij - u_i) - v_j`` is below the threshold
    ``-REDUCED_COST_TOL * max(1, max |c|)``, from one numpy mask over the
    whole matrix (:func:`_first_eligible_mask`). The mask does not skip
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
    ra, rb = a.tolist(), b.tolist()
    a_sum, b_sum = sum(ra), sum(rb)
    if not (isfinite(a_sum) and isfinite(b_sum)):
        raise ValueError("weights must be finite, got a non-finite entry")
    # the sums are finite, so no weight is NaN
    if min(ra) < 0 or min(rb) < 0:
        raise ValueError("weights must be nonnegative, got a negative entry")
    if abs(a_sum - b_sum) > COST_TOL:
        raise ValueError("weight vectors must carry equal total mass")

    if _solver_name(C.shape) == "closed-form":
        gamma, u, v = _narrow_plan(C, rows, ra, rb)
        return float((gamma * C).sum()), gamma, u, v

    basis = _northwest_basis(ra, rb)
    rc_tol = REDUCED_COST_TOL * max(1.0, max(map(abs, itertools.chain.from_iterable(rows))))
    # each node's tree neighbours in the basis dict's order, kept in step
    # with it: a pivot deletes the leaving arc and appends the entering one
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)

    for _ in range(PIVOTS_PER_ARC * (m * n + 10)):
        u, v, parent, depth = _tree_duals(adj, rows, m, n)
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
        i1, j1 = leaving
        adj[i1].remove(m + j1)
        adj[m + j1].remove(i1)
        adj[i0].append(m + j0)
        adj[m + j0].append(i0)
    else:
        raise RuntimeError("network simplex failed to terminate")
    gamma = np.zeros((m, n))
    for (i, j), f in basis.items():
        gamma[i, j] = max(f, 0.0)
    return float((gamma * C).sum()), gamma, u, v


def kantorovich(space: GroundSpace, mu: FiniteMeasure, eta: FiniteMeasure) -> TransportResult:
    """Minimum expected ground distance over all couplings of two measures.

    The minimum exists because the coupling polytope is nonempty (the
    product coupling is feasible) and compact; the returned coupling
    attains it. The reported cost is ``sum(gamma * C)`` of the returned
    coupling, summed once, so the value and the plan always agree.

    Mass that both measures put on one atom stays in place: for a
    pseudometric the distance depends only on ``mu - eta``, so the shared
    mass ``min(mu(x), eta(x))`` of an atom ``x`` in both supports (equal as
    atoms merge within one measure, found by looking each atom of ``mu`` up
    in the index ``eta`` holds) need not move, and the simplex solves only
    the rows and columns left with mass. The assembled plan is certified
    in O(mn) by the residual solve's dual potentials, extended to the whole
    problem (:func:`_plan_around_shared_mass`). When the certificate fails
    (a ground cost can break the triangle inequality), when a cost is not
    finite, and when no side or only one is left with mass to move (equal
    measures, or rounding), the whole problem is solved with no atom held
    in place, and a non-finite cost raises there. A measure of at most two
    atoms takes the whole problem to the closed form of
    :func:`solve_transport`, exact for any finite cost, with no cut and no
    certificate.
    """
    return _transport(cost_matrix(space, mu.support, eta.support), mu, eta)


def _transport(C: np.ndarray, mu: FiniteMeasure, eta: FiniteMeasure) -> TransportResult:
    """:func:`kantorovich` from the cost matrix ``C`` of the two supports;
    also the outer solve of the second-order distance."""
    solver = _solver_name(C.shape)
    cut = _plan_around_shared_mass(C, mu, eta) if solver == "network-simplex" else None
    cost, gamma = cut or solve_transport(C, mu.weights, eta.weights)[:2]
    return TransportResult(cost, Coupling(mu.support, eta.support, gamma), solver)


def _plan_around_shared_mass(
    C: np.ndarray, mu: FiniteMeasure, eta: FiniteMeasure
) -> Optional[tuple[float, np.ndarray]]:
    """``(cost, gamma)`` of a certified optimal plan that keeps each shared
    atom's common mass on its diagonal cell and solves the rest, or
    ``None`` when the supports share no atom, when a cost is not finite,
    when no side or only one is left with mass to move, or when the
    certificate fails. Each atom of ``mu``, canonical already, is looked up
    as it is in ``eta``'s own index, so atoms are shared as they merge in a
    measure; a column that two rows equal goes to the later row. The
    bookkeeping runs on Python floats, cheaper than numpy calls on a few
    cells."""
    find = eta._index.find_canonical
    shared = {j: i for i, x in enumerate(mu.support) if (j := find(x)) is not None}
    if not shared:
        return None
    rows = C.tolist()
    entries = [*itertools.chain.from_iterable(rows)]
    if not all(map(isfinite, entries)):
        return None  # the full solve reports a non-finite cost
    a, b = mu.weights.tolist(), eta.weights.tolist()
    kept = [(i, j, min(a[i], b[j])) for j, i in shared.items()]
    for i, j, t in kept:
        a[i] -= t
        b[j] -= t
    R = [i for i, w in enumerate(a) if w > 0.0]
    S = [j for j, w in enumerate(b) if w > 0.0]
    if not R or not S:
        return None
    # the rows R by the columns S, as np.ix_(R, S) would index them
    cut = np.array(R)[:, None], S
    _, residual, _, v_S = solve_transport(C[cut], [a[i] for i in R], [b[j] for j in S])
    gamma = np.zeros(C.shape)
    for i, j, t in kept:
        gamma[i, j] = t
    gamma[cut] = residual
    u, v = _potentials_around(rows, S, v_S.tolist())
    cost = float((gamma * C).sum())
    gap = cost - (sum(map(mul, mu.weights.tolist(), u)) + sum(map(mul, eta.weights.tolist(), v)))
    if not gap <= REDUCED_COST_TOL * max(1.0, max(map(abs, entries))):
        return None
    return cost, gamma


def _potentials_around(rows: list, S: list, v_S: list) -> tuple[list, list]:
    """Dual potentials of the whole problem with cost rows ``rows``, from the
    potentials ``v_S`` of the residual's columns ``S``: u_i = min over j in
    S of (c_ij - v_j), then v_j = min over i of (c_ij - u_i), so that no
    reduced cost is negative."""
    u = [min(map(sub, [r[j] for j in S], v_S)) for r in rows]
    v = [min(map(sub, col, u)) for col in zip(*rows)]
    return u, v


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
    for p, v in zip(pts, fx.tolist()):
        if not isfinite(v):
            raise ValueError(f"observable must be finite, got {v!r} at {p!r}")
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
