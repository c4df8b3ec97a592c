"""The network simplex against a frozen copy of its earlier pivot loop.

``reference_solve`` is the loop as it stood when the spanning tree was
traversed twice per pivot (once for the potentials, once for the entering
cycle). The potentials along a tree path and the cycle of an entering arc
do not depend on how the tree is traversed, so the current solver must
return the same cost and the same ``gamma`` bytes on every instance, after
as many pricing rounds. Pivot counts are the exact regression signal of the
solver, so their totals are pinned as well. This holds on the instances
whose sides both have at least three atoms; narrower ones are solved in
closed form, without pivots, and must match the reference loop's cost
within ``COST_TOL`` with a feasible plan. On every instance the potentials
the solver returns must certify its plan.
"""

from collections import deque

import numpy as np

from kantorovich import transport
from kantorovich.transport import COST_TOL, REDUCED_COST_TOL, _northwest_basis, solve_transport


def _reference_tree_duals(arcs, C, m, n):
    adj_row = [[] for _ in range(m)]
    adj_col = [[] for _ in range(n)]
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
    return u, v


def _reference_tree_path(arcs, m, start_row, goal_col):
    adj = {}
    for i, j in arcs:
        r, c = i, m + j
        adj.setdefault(r, []).append((c, (i, j)))
        adj.setdefault(c, []).append((r, (i, j)))
    start, goal = start_row, m + goal_col
    parent = {start: (start, (-1, -1))}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for nxt, arc in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = (node, arc)
                queue.append(nxt)
    path = []
    node = goal
    while node != start:
        prev, arc = parent[node]
        path.append(arc)
        node = prev
    path.reverse()
    return path


def reference_solve(C, a, b):
    """The frozen loop: cost, gamma, and the number of pricing rounds (the
    pivots plus the round that finds no entering arc)."""
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    basis = _northwest_basis(np.asarray(a, float).tolist(), np.asarray(b, float).tolist())
    rc_tol = 1e-11 * max(1.0, float(np.abs(C).max()))
    rounds = 0
    while m > 1 and n > 1:
        rounds += 1
        u, v = _reference_tree_duals(basis.keys(), C, m, n)
        rc = (C - u[:, None] - v[None, :]).ravel()
        for i, j in basis:
            rc[i * n + j] = 0.0
        candidates = np.flatnonzero(rc < -rc_tol)
        if candidates.size == 0:
            break
        i0, j0 = divmod(int(candidates[0]), n)
        path = _reference_tree_path(basis.keys(), m, i0, j0)
        minus, plus = path[0::2], path[1::2]
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
    gamma = np.zeros((m, n))
    for (i, j), f in basis.items():
        gamma[i, j] = max(f, 0.0)
    return float((gamma * C).sum()), gamma, rounds


def assert_same_as_reference(C, a, b):
    """Same cost, same gamma bytes, and as many pricing rounds as the
    reference loop; the live solver's rounds are its
    ``_first_eligible_mask`` calls. Returns the number of rounds."""
    calls = 0
    first_eligible = transport._first_eligible_mask

    def counted(*args):
        nonlocal calls
        calls += 1
        return first_eligible(*args)

    transport._first_eligible_mask = counted
    try:
        cost, gamma, _, _ = solve_transport(C, a, b)
    finally:
        transport._first_eligible_mask = first_eligible
    ref_cost, ref_gamma, rounds = reference_solve(C, a, b)
    assert cost == ref_cost
    assert gamma.tobytes() == ref_gamma.tobytes()
    assert calls == rounds
    return rounds


def assert_certified(C, a, b, cost, gamma, u, v):
    """``u_i + v_j <= c_ij + rc_tol`` everywhere, with equality on every cell
    that carries flow, ``u[0] == 0``, and no duality gap: the plan is
    optimal."""
    rc_tol = REDUCED_COST_TOL * max(1.0, float(np.abs(C).max()))
    reduced = C - u[:, None] - v[None, :]
    assert reduced.min() >= -rc_tol
    assert np.abs(reduced[gamma > 0]).max() <= rc_tol
    assert abs(cost - (a @ u + b @ v)) <= COST_TOL
    assert u[0] == 0.0


def _wide(instances):
    """The instances the pivot loop solves: both sides of three or more atoms."""
    return [(C, a, b) for C, a, b in instances if min(C.shape) >= 3]


def _narrow(instances):
    """The instances solved in closed form: a side of one or two atoms."""
    return [(C, a, b) for C, a, b in instances if min(C.shape) <= 2]


def _small_instances():
    rng = np.random.default_rng(2024)
    for k in range(3000):
        m, n = (int(x) for x in rng.integers(1, 7, 2))
        if k % 2:
            # integer costs and weights: ties in costs and degenerate flows
            C = rng.integers(0, 4, (m, n)).astype(float)
            a, b = rng.integers(1, 4, m).astype(float), rng.integers(1, 4, n).astype(float)
            a, b = a / a.sum(), b / b.sum()
        else:
            C = rng.random((m, n))
            a, b = rng.random(m) + 0.1, rng.random(n) + 0.1
            a, b = a / a.sum(), b / b.sum()
        if abs(a.sum() - b.sum()) > 1e-9:
            continue
        yield C, a, b


def _grid_instances():
    # uniform weights on distinct points of a 16x16 integer grid under
    # Manhattan: tied costs and zero-step pivots
    rng = np.random.default_rng(16)
    grid = np.array([(i, j) for i in range(16) for j in range(16)], dtype=float)
    for n in (16, 24, 32):
        x = grid[rng.choice(len(grid), n, replace=False)]
        y = grid[rng.choice(len(grid), n, replace=False)]
        C = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2)
        w = np.full(n, 1.0 / n)
        yield C, w, w


def test_small_random_and_tied_instances_match_the_reference():
    rounds = sum(assert_same_as_reference(C, a, b) for C, a, b in _wide(_small_instances()))
    # pinned: a change to the pivot sequence must be recorded here
    assert rounds == 11950


def test_degenerate_grid_instances_match_the_reference():
    rounds = [assert_same_as_reference(C, a, b) for C, a, b in _grid_instances()]
    # pinned: a change to the pivot sequence must be recorded here
    assert rounds == [180, 656, 907]


def _square_instances():
    # 3x3 to 8x8, random costs and weights, and tied integer ones
    rng = np.random.default_rng(38)
    for k in range(60):
        m, n = (int(x) for x in rng.integers(3, 9, 2))
        if k % 2:
            C = rng.integers(0, 4, (m, n)).astype(float)
            a, b = rng.integers(1, 4, m).astype(float), rng.integers(1, 4, n).astype(float)
        else:
            C = rng.random((m, n))
            a, b = rng.random(m) + 0.1, rng.random(n) + 0.1
        yield C, a / a.sum(), b / b.sum()


def test_the_kept_adjacency_is_a_spanning_tree_at_every_pricing_round(monkeypatch):
    # the pivot loop keeps the tree's adjacency as state across pivots; at
    # every round it must list m + n - 1 distinct row-column arcs, each at
    # both of its ends, that connect every node
    calls = 0
    tree_duals = transport._tree_duals

    def checked(adj, rows, m, n):
        nonlocal calls
        calls += 1
        from_rows = sorted((i, k - m) for i in range(m) for k in adj[i])
        from_cols = sorted((i, k - m) for k in range(m, m + n) for i in adj[k])
        assert from_rows == from_cols
        assert all(0 <= j < n for _, j in from_rows) and all(0 <= i < m for i, _ in from_cols)
        assert len(set(from_rows)) == len(from_rows) == m + n - 1
        reached, stack = {0}, [0]
        while stack:
            for node in adj[stack.pop()]:
                if node not in reached:
                    reached.add(node)
                    stack.append(node)
        assert len(reached) == m + n
        return tree_duals(adj, rows, m, n)

    monkeypatch.setattr(transport, "_tree_duals", checked)
    instances = [*_grid_instances(), *_square_instances()]
    for C, a, b in instances:
        solve_transport(C, a, b)
    assert calls > 2 * len(instances)


def _thin_instances():
    rng = np.random.default_rng(3)
    for k in range(1, 41):
        C = rng.random((1, k)) * 10.0
        w = rng.random(k) + 0.1
        yield C, np.array([1.0]), w / w.sum()
        yield C.T, w / w.sum(), np.array([1.0])


def test_potentials_certify_the_returned_plan():
    instances = [*_small_instances(), *_grid_instances(), *_thin_instances()]
    for C, a, b in instances:
        assert_certified(C, a, b, *solve_transport(C, a, b))


def _pricing_instances():
    # square shapes from 6x6 to 12x12, and two thin ones that the closed
    # form solves; random and tied integer costs, each also scaled by 1e6
    # and 1e-6, since the pricing threshold scales with the largest cost
    rng = np.random.default_rng(77)
    for m, n in [(k, k) for k in range(6, 13)] + [(2, 40), (40, 2)]:
        for tied in (False, True):
            if tied:
                C = rng.integers(0, 4, (m, n)).astype(float)
                a, b = rng.integers(1, 4, m).astype(float), rng.integers(1, 4, n).astype(float)
            else:
                C = rng.random((m, n))
                a, b = rng.random(m) + 0.1, rng.random(n) + 0.1
            for scale in (1.0, 1e6, 1e-6):
                yield C * scale, a / a.sum(), b / b.sum()


def test_pricing_instances_match_the_reference():
    # the mask prices every pivot: the small instances above cover 3x3 to
    # 6x6, these 6x6 to 12x12 at three scales of the threshold
    rounds = sum(assert_same_as_reference(C, a, b) for C, a, b in _wide(_pricing_instances()))
    # pinned: a change to the pivot sequence must be recorded here
    assert rounds == 2202


def test_narrow_instances_match_the_reference_cost_with_a_certified_plan():
    # a non-unique optimum may take another vertex than Bland's pivots, so
    # the closed form matches the reference loop's cost, not its bytes
    instances = [*_narrow(_small_instances()), *_thin_instances(), *_narrow(_pricing_instances())]
    for C, a, b in instances:
        cost, gamma, u, v = solve_transport(C, a, b)
        assert abs(cost - reference_solve(C, a, b)[0]) <= COST_TOL
        assert np.abs(gamma.sum(axis=1) - a).max() <= COST_TOL
        assert np.abs(gamma.sum(axis=0) - b).max() <= COST_TOL
        assert gamma.min() >= 0.0
        assert_certified(C, a, b, cost, gamma, u, v)
