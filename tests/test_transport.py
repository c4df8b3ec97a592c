import itertools
import sys

import numpy as np
import pytest
from oracles import permutation_oracle, spanning_tree_bases, vertex_enumeration_oracle

from kantorovich import points, run_law_suite, transport
from kantorovich.ground import (
    Chebyshev,
    Discrete,
    Euclidean,
    GroundMetric,
    GroundSpace,
    Manhattan,
    MaxMetric,
    PullbackMetric,
    TableMetric,
    ZeroMetric,
)
from kantorovich.measures import FiniteMeasure, PartitionError, cell_of, dirac, measures_equal
from kantorovich.monad import second_order_distance
from kantorovich.transport import (
    Coupling,
    cost_matrix,
    independent_coupling,
    kantorovich,
    lipschitz_gap,
    mass_transport_bound_check,
    partition_coupling,
    solve_transport,
)

COST_TOL = 1e-9


def line_space(*xs):
    return GroundSpace([(float(x),) for x in xs], Euclidean())


def random_measure(rng, pts, kmax=5):
    k = int(rng.integers(1, min(kmax, len(pts)) + 1))
    idx = rng.choice(len(pts), size=k, replace=False)
    w = rng.random(k) + 0.1
    return FiniteMeasure([pts[i] for i in idx], w / w.sum())


def test_dirac_pair_is_ground_distance():
    space = GroundSpace([(0, 0), (3, 4)], Euclidean())
    r = kantorovich(space, dirac((0, 0)), dirac((3, 4)))
    assert r.cost == pytest.approx(5.0, abs=1e-12)
    assert r.solver == "closed-form"


def test_the_solver_name_follows_the_shape_of_the_whole_problem():
    space = line_space(*range(8))
    pts = space.points
    two, three = FiniteMeasure(pts[:2], [0.5, 0.5]), FiniteMeasure(pts[2:5], [0.25, 0.25, 0.5])
    five = FiniteMeasure(pts[3:], [0.2] * 5)
    assert kantorovich(space, two, five).solver == "closed-form"
    assert kantorovich(space, five, two).solver == "closed-form"
    # three atoms a side, two of them shared: the residual cut is narrow,
    # the whole problem is not
    assert kantorovich(space, three, FiniteMeasure(pts[3:6], [0.5, 0.25, 0.25])).solver == (
        "network-simplex"
    )
    M, N = dirac(two), FiniteMeasure([two, three, five], [0.25, 0.25, 0.5])
    assert second_order_distance(space, M, N).solver == "closed-form"
    assert second_order_distance(space, N, N).solver == "network-simplex"


def test_identical_measures_at_zero_distance():
    space = line_space(0, 1, 2)
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.25, 0.75])
    r = kantorovich(space, mu, mu)
    assert r.cost == 0.0
    assert r.coupling.check_marginals(mu, mu)


def test_half_mass_move():
    # the vertex-enumeration oracle agrees: the polytope has the one vertex
    space = line_space(0, 1)
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    eta = dirac((1.0,))
    assert kantorovich(space, mu, eta).cost == pytest.approx(0.5, abs=COST_TOL)
    C = cost_matrix(space, mu.support, eta.support)
    oracle_cost, _ = vertex_enumeration_oracle(C, mu.weights, eta.weights)
    assert oracle_cost == pytest.approx(0.5, abs=COST_TOL)


def test_uniform_shift_both_permutations_cost_one():
    space = line_space(0, 1, 2)
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    eta = FiniteMeasure([(1.0,), (2.0,)], [0.5, 0.5])
    assert kantorovich(space, mu, eta).cost == pytest.approx(1.0, abs=COST_TOL)
    oracle_cost, _ = permutation_oracle(cost_matrix(space, mu.support, eta.support))
    assert oracle_cost == pytest.approx(1.0, abs=COST_TOL)


def test_attainment_cost_recomputable(monkeypatch):
    # the reported cost is the plan's cost to the bit under every built-in
    # metric: summed once, by the solve of the whole problem or by the
    # shared-mass cut
    solves = _recorded_solves(monkeypatch)
    rng = np.random.default_rng(5)
    pts = [tuple(p) for p in rng.random((8, 2)).tolist()]
    metrics = [
        Euclidean(),
        Manhattan(cap=1.0),
        Chebyshev(),
        Discrete(),
        TableMetric(pts, Euclidean().pairwise(pts, pts)),
        PullbackMetric(lambda p: p[:1], Manhattan()),
        MaxMetric([Euclidean(), Discrete()]),
        ZeroMetric(),
    ]
    cases = [
        ("narrow", pts[:2], pts[2:7]),
        ("shared", pts[:5], pts[3:8]),  # two atoms in both supports
        ("disjoint", pts[:4], pts[4:8]),
    ]

    def measure(support):
        w = rng.random(len(support)) + 0.1
        return FiniteMeasure(support, w / w.sum())

    for metric in metrics:
        space = GroundSpace(pts, metric)
        for case, xs, ys in cases:
            where = (metric.kind, case)
            del solves[:]
            mu, eta = measure(xs), measure(ys)
            r = kantorovich(space, mu, eta)
            C = cost_matrix(space, mu.support, eta.support)
            assert r.cost == r.coupling.cost_against(C), where
            assert r.coupling.check_marginals(mu, eta), where
            # one solve: the residual of a certified cut, or the whole
            # problem, whose cost is the one reported
            [(shape, cost)] = solves
            if case == "shared":
                assert shape != C.shape, where
            else:
                assert (shape, cost) == (C.shape, r.cost), where


def test_independent_coupling():
    assert independent_coupling(dirac("a"), dirac("b")).gamma.tolist() == [[1.0]]
    u = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    assert np.allclose(independent_coupling(u, u).gamma, 0.25)
    rng = np.random.default_rng(1)
    pts = [tuple(p) for p in rng.random((8, 2))]
    mu, eta = random_measure(rng, pts), random_measure(rng, pts)
    c = independent_coupling(mu, eta)
    assert c.check_marginals(mu, eta)


def test_optimality_certificate_under_feasible_couplings():
    rng = np.random.default_rng(9)
    for _ in range(20):
        pts = [tuple(p) for p in rng.random((8, 2))]
        space = GroundSpace(pts, Euclidean())
        mu, eta = random_measure(rng, pts), random_measure(rng, pts)
        C = cost_matrix(space, mu.support, eta.support)
        best = kantorovich(space, mu, eta).cost
        assert best <= independent_coupling(mu, eta).cost_against(C) + COST_TOL
        cut = float(rng.random())
        cells = [lambda p: p[0] < cut, lambda p: p[0] >= cut]
        part = partition_coupling(mu, eta, cells)
        assert best <= part.cost_against(C) + COST_TOL


def test_partition_coupling_identical_measures():
    rng = np.random.default_rng(3)
    pts = [tuple(p) for p in rng.random((8, 2))]
    space = GroundSpace(pts, Euclidean())
    mu = random_measure(rng, pts, 6)
    cells = [lambda p: p[0] < 0.5, lambda p: p[0] >= 0.5]
    coup = partition_coupling(mu, mu, cells)
    assert coup.check_marginals(mu, mu)
    # residuals vanish, so every cell's mass stays on its diagonal block and
    # the cost is at most the largest within-cell diameter
    C = cost_matrix(space, mu.support, eta_support := mu.support)
    worst = 0.0
    for cell in cells:
        inside = [p for p in mu.support if cell(p)]
        if len(inside) > 1:
            worst = max(worst, float(space.metric.pairwise(inside, inside).max()))
    assert coup.cost_against(C) <= worst + COST_TOL


def test_partition_coupling_single_cell_is_independent():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.25, 0.75])
    eta = FiniteMeasure([(0.5,), (2.0,)], [0.5, 0.5])
    coup = partition_coupling(mu, eta, [lambda p: True])
    assert np.allclose(coup.gamma, independent_coupling(mu, eta).gamma)


def test_partition_coupling_two_clusters():
    # hand evaluation of the two diagonal product blocks
    space = line_space(0, 0.1, 10, 10.1)
    mu0 = FiniteMeasure([(0.0,), (10.0,)], [0.5, 0.5])
    mu = FiniteMeasure([(0.1,), (10.1,)], [0.5, 0.5])
    cells = [lambda p: p[0] < 5, lambda p: p[0] >= 5]
    coup = partition_coupling(mu0, mu, cells)
    assert coup.check_marginals(mu0, mu)
    C = cost_matrix(space, mu0.support, mu.support)
    assert coup.cost_against(C) == pytest.approx(0.1, abs=COST_TOL)
    # all mass on the diagonal blocks
    assert coup.gamma[0, 0] == pytest.approx(0.5, abs=COST_TOL)
    assert coup.gamma[1, 1] == pytest.approx(0.5, abs=COST_TOL)


def test_partition_coupling_diagonal_mass_and_feasibility():
    rng = np.random.default_rng(17)
    for _ in range(30):
        pts = [tuple(p) for p in rng.random((10, 2))]
        mu0, mu = random_measure(rng, pts, 6), random_measure(rng, pts, 6)
        cuts = sorted(rng.random(2))
        cells = [
            lambda p, c=cuts[0]: p[0] < c,
            lambda p, a=cuts[0], b=cuts[1]: a <= p[0] < b,
            lambda p, c=cuts[1]: p[0] >= c,
        ]
        coup = partition_coupling(mu0, mu, cells)
        assert coup.check_marginals(mu0, mu)
        for cell in cells:
            rows = [i for i, p in enumerate(mu0.support) if cell(p)]
            cols = [j for j, q in enumerate(mu.support) if cell(q)]
            block = float(coup.gamma[np.ix_(rows, cols)].sum()) if rows and cols else 0.0
            a = float(mu0.weights[rows].sum()) if rows else 0.0
            b = float(mu.weights[cols].sum()) if cols else 0.0
            assert block == pytest.approx(min(a, b), abs=COST_TOL)


def _frozen_partition_gamma(mu0, mu, cells):
    """``partition_coupling``'s gamma as built before it routed leftover
    block masses through ``_northwest_basis``: its own northwest-corner loop
    skipped rows and columns whose leftover was at most 1e-15. Returns the
    gamma and the leftovers, rows then columns."""
    def assign(p):
        k = cell_of(p, cells)
        return 0 if k is None else k + 1

    nblocks = len(cells) + 1
    rows_in = [[] for _ in range(nblocks)]
    cols_in = [[] for _ in range(nblocks)]
    for i, p in enumerate(mu0.support):
        rows_in[assign(p)].append(i)
    for j, q in enumerate(mu.support):
        cols_in[assign(q)].append(j)
    a = np.array([float(mu0.weights[idx].sum()) for idx in rows_in])
    b = np.array([float(mu.weights[idx].sum()) for idx in cols_in])
    diag = np.minimum(a, b)
    block_mass = {(k, k): float(diag[k]) for k in range(nblocks) if diag[k] > 0.0}
    r = a - diag
    c = b - diag
    leftovers = r.tolist() + c.tolist()
    i = j = 0
    while i < nblocks and j < nblocks:
        if r[i] <= 1e-15:
            i += 1
            continue
        if c[j] <= 1e-15:
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
    return gamma, leftovers


def test_partition_coupling_matches_the_frozen_leftover_loop():
    # Independent measures leave leftovers far apart: gamma is the loop's, byte
    # for byte. A reversed copy of mu0 with a few mass moves leaves rounding
    # residues, and near-equal leftovers whose difference is one: the basis
    # routes such a residue (at most 1e-15) to the next block where the loop
    # skipped it, which moves entries of gamma by less than the residue.
    rng = np.random.default_rng(29)
    leftovers = []
    for k in range(400):
        pts = [(float(x),) for x in rng.random(int(rng.integers(4, 13)))]
        cuts = np.sort(rng.random(int(rng.integers(1, 5))))
        # points below the first cut fall into the complement block
        cells = [lambda p, lo=lo, hi=hi: lo <= p[0] < hi for lo, hi in zip(cuts, [*cuts[1:], 1.0])]
        w = rng.random(len(pts))
        mu0 = FiniteMeasure(pts, w / w.sum())
        v = mu0.weights[::-1].copy() if k % 2 else rng.random(len(pts))
        for _ in range(int(rng.integers(0, 4)) if k % 2 else 0):
            i, j = rng.choice(len(v), 2, replace=False)
            t = rng.random() * v[i]
            v[i] -= t
            v[j] += t
        mu = FiniteMeasure(pts[::-1], v / v.sum())
        live = partition_coupling(mu0, mu, cells).gamma
        frozen, left = _frozen_partition_gamma(mu0, mu, cells)
        leftovers.append(left)
        if k % 2 == 0:
            assert live.tobytes() == frozen.tobytes()
        assert np.abs(live - frozen).max() <= 1e-15
    assert sum(any(0.0 < x <= 1e-15 for x in left) for left in leftovers) >= 20
    assert sum(any(x > 1e-15 for x in left) for left in leftovers) >= 200


def test_partition_coupling_rejects_overlap():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    with pytest.raises(PartitionError, match=r"^atom \(0\.0,\) matched by cells 0 and 1$"):
        partition_coupling(mu, mu, [lambda p: True, lambda p: p[0] < 1])


def test_partition_coupling_empty_cell_allowed():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    coup = partition_coupling(mu, mu, [lambda p: p[0] > 5, lambda p: p[0] <= 5])
    assert coup.check_marginals(mu, mu)


def test_permutation_oracle_stops_at_eight_atoms():
    # 8 atoms enumerate 40,320 permutations; each atom more is n times that
    space = line_space(*range(18))
    mu, eta = (FiniteMeasure(space.points[k : k + 8], [1 / 8] * 8) for k in (0, 10))
    oracle_cost, _ = permutation_oracle(cost_matrix(space, mu.support, eta.support))
    assert oracle_cost == pytest.approx(10.0, abs=COST_TOL)


def _highs_cost(linprog, C, a, b, method="highs", options=None) -> float:
    m, n = C.shape
    rows = np.kron(np.eye(m), np.ones(n))
    cols = np.kron(np.ones(m), np.eye(n))
    res = linprog(C.ravel(), A_eq=np.vstack([rows, cols]), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method=method, options=options)
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("m, n", list(itertools.product(range(1, 5), repeat=2)))
def test_spanning_tree_bases_are_the_trees_of_the_complete_bipartite_graph(m, n):
    arc_index, solver = spanning_tree_bases(m, n)
    # Scoza's count of the spanning trees of K_{m,n}
    assert arc_index.shape == (m ** (n - 1) * n ** (m - 1), m + n - 1)
    assert solver.shape == (len(arc_index), m + n - 1, m + n)
    for arcs in arc_index.tolist():
        reached = {0}
        for _ in range(m + n):
            for i, j in (divmod(k, n) for k in arcs):
                if i in reached or m + j in reached:
                    reached |= {i, m + j}
        assert len(reached) == m + n, arcs
    # each solver gives flows whose node sums are the balanced weights
    incidence = np.zeros((m + n, m * n))
    for k in range(m * n):
        i, j = divmod(k, n)
        incidence[i, k] = incidence[m + j, k] = 1.0
    rng = np.random.default_rng(10 * m + n)
    a, b = rng.random(m), rng.random(n)
    ab = np.concatenate([a / a.sum(), b / b.sum()])
    for arcs, flow_of in zip(arc_index, solver):
        assert np.abs(incidence[:, arcs] @ (flow_of @ ab) - ab).max() <= 1e-12


def test_vertex_enumeration_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(41)
    grid = [(float(x), float(y)) for x in range(3) for y in range(3)]
    for k in range(60):
        if k % 2:
            # tied integer costs and weights in sixths: degenerate vertices
            pts = [grid[i] for i in rng.permutation(9)[:8]]
            space = GroundSpace(pts, Manhattan())
            wa, wb = rng.integers(1, 4, 4), rng.integers(1, 4, 4)
        else:
            pts = [tuple(p) for p in rng.random((8, 2))]
            space = GroundSpace(pts, Euclidean())
            wa, wb = rng.random(4) + 0.1, rng.random(4) + 0.1
        mu, eta = FiniteMeasure(pts[:4], wa / wa.sum()), FiniteMeasure(pts[4:], wb / wb.sum())
        C = cost_matrix(space, mu.support, eta.support)
        cost, gamma = vertex_enumeration_oracle(C, mu.weights, eta.weights)
        assert abs(cost - _highs_cost(linprog, C, mu.weights, eta.weights)) <= COST_TOL
        assert Coupling(mu.support, eta.support, gamma).check_marginals(mu, eta)


def test_simplex_matches_highs():
    # a third oracle, beyond the 4-atom and 8-atom reach of brute force
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(31)
    shapes = [
        (5, 5), (5, 9), (12, 12), (17, 8), (25, 25), (15, 40), (40, 15), (40, 40),
        (2, 60), (60, 2), (2, 2),
    ]
    for m, n in shapes:
        for tied in (False, True):
            if tied:
                C = rng.integers(0, 4, (m, n)).astype(float)
                a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
            else:
                C = rng.random((m, n))
                a, b = rng.random(m) + 0.1, rng.random(n) + 0.1
                a, b = a / a.sum(), b / b.sum()
            cost = solve_transport(C, a, b)[0]
            assert abs(cost - _highs_cost(linprog, C, a, b)) <= COST_TOL, (m, n, tied)
    # tied integer costs with uniform weights: the most degenerate pivots
    C = rng.integers(0, 4, (60, 60)).astype(float)
    a = b = np.full(60, 1.0 / 60)
    assert abs(solve_transport(C, a, b)[0] - _highs_cost(linprog, C, a, b)) <= COST_TOL


def test_oracle_equivalence_batch():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        pts = [tuple(p) for p in rng.random((2 * n, 2))]
        space = GroundSpace(pts, Manhattan())
        mu = FiniteMeasure(pts[:n], np.full(n, 1.0 / n))
        eta = FiniteMeasure(pts[n:], np.full(n, 1.0 / n))
        oracle_cost, _ = permutation_oracle(cost_matrix(space, mu.support, eta.support))
        assert kantorovich(space, mu, eta).cost == pytest.approx(oracle_cost, abs=COST_TOL)


def test_shared_mass_cut_matches_vertex_enumeration(monkeypatch):
    # two supports of 3 or 4 of 5 planar points share an atom, and random
    # weights leave mass to move on both sides: kantorovich keeps the shared
    # mass in place and solves only the residual, the oracle the whole problem
    solves = _recorded_solves(monkeypatch)
    rng = np.random.default_rng(43)
    pts = [tuple(p) for p in rng.random((5, 2)).tolist()]

    def draw(size):
        w = rng.random(size) + 0.1
        return FiniteMeasure([pts[i] for i in rng.permutation(5)[:size]], w / w.sum())

    metrics = [
        Euclidean(),
        Chebyshev(),
        Manhattan(cap=0.6),
        PullbackMetric(lambda p: (p[0] + 2.0 * p[1],), Euclidean()),
    ]
    for metric in metrics:
        space = GroundSpace(pts, metric)
        for k in range(40):
            mu, eta = draw(3 + k % 2), draw(3 + k // 2 % 2)
            where = (metric.kind, k)
            del solves[:]
            cost = kantorovich(space, mu, eta).cost
            # one solve, of the certified residual alone
            [(shape, _)] = solves
            C = cost_matrix(space, mu.support, eta.support)
            assert shape != C.shape, where
            oracle_cost, _ = vertex_enumeration_oracle(C, mu.weights, eta.weights)
            assert abs(cost - oracle_cost) <= COST_TOL, where


def test_solver_handles_degenerate_ties():
    # identical weights everywhere force degenerate pivots
    pts = [(float(i),) for i in range(6)]
    space = GroundSpace(pts, Euclidean())
    mu = FiniteMeasure(pts[:3], [1 / 3] * 3)
    eta = FiniteMeasure(pts[3:], [1 / 3] * 3)
    r = kantorovich(space, mu, eta)
    assert r.cost == pytest.approx(3.0, abs=COST_TOL)  # matching 0-3, 1-4, 2-5


def test_solve_transport_validates_shapes():
    with pytest.raises(ValueError, match="shape"):
        solve_transport(np.zeros((2, 2)), np.array([1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="mass"):
        solve_transport(np.zeros((1, 1)), np.array([1.0]), np.array([0.5]))


def test_solve_transport_rejects_non_finite_costs_and_bad_weights():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    half = np.array([0.5, 0.5])
    for bad in (np.nan, np.inf):
        Cb = C.copy()
        Cb[0, 1] = bad
        with pytest.raises(ValueError, match="costs must be finite"):
            solve_transport(Cb, half, half)
        with pytest.raises(ValueError, match="weights must be finite"):
            solve_transport(C, np.array([bad, 0.5]), half)
    # these sum to 1 like the other side; the parent solver returned a plan
    # with row sums [1, 0]
    with pytest.raises(ValueError, match="nonnegative"):
        solve_transport(C, np.array([1.5, -0.5]), half)
    with pytest.raises(ValueError, match="nonempty"):
        solve_transport(np.zeros((0, 0)), np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("n", [3, 12])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_transport_rejects_a_non_finite_entry_anywhere(monkeypatch, n, bad):
    # Python's max skips a NaN after the first entry, so finiteness needs
    # its own check. A NaN cost that got through would never let the tree
    # traversal finish, so the solve must stop before its starting basis.
    def unreachable(ra, rb):
        raise AssertionError("a non-finite entry reached the simplex")

    monkeypatch.setattr(transport, "_northwest_basis", unreachable)
    C = np.arange(n * n, dtype=float).reshape(n, n)
    w = np.full(n, 1.0 / n)
    for k in (0, n * n // 2, n * n - 1):
        Cb = C.copy()
        Cb.flat[k] = bad
        with pytest.raises(ValueError, match="^costs must be finite, got a non-finite entry$"):
            solve_transport(Cb, w, w)
    for k in (0, n // 2, n - 1):
        wb = w.copy()
        wb[k] = bad
        for a, b in ((wb, w), (w, wb)):
            with pytest.raises(ValueError, match="^weights must be finite, got a non-finite entry$"):
                solve_transport(C, a, b)


def test_one_row_or_column_returns_the_product_coupling_without_pricing(monkeypatch):
    calls = 0
    original = transport._first_eligible_mask

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(transport, "_first_eligible_mask", counting)
    rng = np.random.default_rng(7)
    for k in (1, 2, 5):
        for trial in range(4):
            w = np.array([0.25, 0.5, 0.125, 0.125, 0.5, 0.25][:k]) if trial == 0 else rng.random(k) + 0.1
            w = w / w.sum()
            one = np.array([1.0])
            for C, a, b in ((rng.random((1, k)), one, w), (rng.random((k, 1)), w, one)):
                cost, gamma, _, _ = solve_transport(C, a, b)
                product = np.outer(a, b)
                if trial == 0:
                    assert gamma.tobytes() == product.tobytes()
                else:
                    assert np.abs(gamma - product).max() <= 1e-15
                assert cost == float((gamma * C).sum())
    assert calls == 0
    # with three rows and three columns there is something to price
    third = np.full(3, 1.0 / 3)
    solve_transport(1.0 - np.eye(3)[::-1], third, third)
    assert calls >= 1


def test_lipschitz_gap_names_the_first_violating_pair():
    # every pair in the scan order of itertools.combinations; the first that
    # breaks the bound is the one named
    rng = np.random.default_rng(5)
    for _ in range(40):
        pts = [(float(x),) for x in rng.integers(0, 20, size=6)]
        space = GroundSpace(list(dict.fromkeys(pts)), Euclidean())  # each point once
        mu, eta = random_measure(rng, pts), random_measure(rng, pts)
        slope = {p: float(rng.choice([0.0, 0.5, 2.0])) for p in pts}
        f = lambda p: slope[p] * p[0]  # noqa: E731
        joint = list(mu.support) + [p for p in eta.support if mu.index_of(p) is None]
        first = next(
            ((x, y) for x, y in itertools.combinations(joint, 2)
             if abs(f(x) - f(y)) > space.metric(x, y) + 1e-12),
            None,
        )
        if first is None:
            gap, bound = lipschitz_gap(space, mu, eta, f, L=1.0)
            assert gap <= bound + COST_TOL
        else:
            with pytest.raises(ValueError) as exc:
                lipschitz_gap(space, mu, eta, f, L=1.0)
            assert str(exc.value).endswith(f"on {first[0]!r}, {first[1]!r}")


def test_lipschitz_gap():
    space = line_space(0, 1)
    mu, eta = dirac((0.0,)), dirac((1.0,))
    gap, bound = lipschitz_gap(space, mu, eta, lambda p: p[0], L=1.0)
    assert gap == pytest.approx(1.0) and bound == pytest.approx(1.0)
    gap, _ = lipschitz_gap(space, mu, eta, lambda p: 3.0, L=1.0)
    assert gap == 0.0
    with pytest.raises(ValueError, match="Lipschitz"):
        lipschitz_gap(space, mu, eta, lambda p: 5.0 * p[0], L=1.0)


def test_lipschitz_gap_rejects_a_non_finite_observable():
    # NaN passed the pairwise test and came back as the gap; inf warned in
    # the subtraction
    space = line_space(0, 1)
    mu, eta = dirac((0.0,)), dirac((1.0,))
    with pytest.raises(ValueError, match=r"^observable must be finite, got nan at \(0\.0,\)$"):
        lipschitz_gap(space, mu, eta, lambda p: np.nan, L=1.0)
    with pytest.raises(ValueError, match=r"^observable must be finite, got inf at \(1\.0,\)$"):
        lipschitz_gap(space, mu, eta, lambda p: np.inf if p[0] else 0.0, L=1.0)


def test_lipschitz_gap_random_observables():
    rng = np.random.default_rng(31)
    for _ in range(25):
        pts = [tuple(p) for p in rng.random((8, 2))]
        space = GroundSpace(pts, Euclidean())
        mu, eta = random_measure(rng, pts), random_measure(rng, pts)
        anchor = np.asarray(pts[int(rng.integers(8))])
        f = lambda p, a=anchor: float(np.linalg.norm(np.asarray(p) - a))  # noqa: E731
        gap, bound = lipschitz_gap(space, mu, eta, f, L=1.0)
        assert gap <= bound + COST_TOL


def test_mass_transport_bound_examples():
    space = line_space(0, 1)
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    assert mass_transport_bound_check(space, mu, mu, lambda p: True, 0.5, 0.1) is True

    # hand-evaluated borderline instance
    space2 = line_space(0, 0.4)
    out = mass_transport_bound_check(
        space2, dirac((0.0,)), dirac((0.4,)), lambda p: p[0] == 0.0, eps=1.0, delta=0.8
    )
    assert out is True

    # hypotheses fail: distance far above eps*delta/2
    na = mass_transport_bound_check(
        space2, dirac((0.0,)), dirac((0.4,)), lambda p: p[0] == 0.0, eps=0.1, delta=0.1
    )
    assert na is None


def test_mass_transport_bound_with_an_empty_k():
    # no point is in K, so every distance to K is infinite and eta puts no
    # mass near it; with eps = 3 the conclusion 0 >= 1 - eps still holds
    space = line_space(0, 1)
    mu = dirac((0.0,))
    assert mass_transport_bound_check(space, mu, mu, lambda p: False, eps=3.0, delta=0.5) is True


def test_mass_transport_bound_rejects_non_finite_parameters():
    # a NaN made both hypothesis comparisons false and read as a failed theorem
    space = line_space(0)
    mu = dirac((0.0,))
    for eps, delta, name in ((np.nan, 0.5, "eps"), (0.5, np.nan, "delta"), (np.inf, 0.5, "eps")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            mass_transport_bound_check(space, mu, mu, lambda p: True, eps=eps, delta=delta)
    assert mass_transport_bound_check(space, mu, mu, lambda p: True, eps=0.5, delta=0.5) is True


def test_lipschitz_gap_rejects_a_non_finite_or_negative_constant():
    # with L = NaN every Lipschitz comparison was false and the bound came out NaN
    space = line_space(0, 1)
    mu, eta = dirac((0.0,)), dirac((1.0,))
    for L in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="^L must be finite and nonnegative"):
            lipschitz_gap(space, mu, eta, lambda p: 5.0 * p[0], L=L)
    assert lipschitz_gap(space, mu, eta, lambda p: 3.0, L=0.0) == (0.0, 0.0)


def test_solve_transport_rejects_a_cost_matrix_that_is_not_2d():
    for C in (np.array([0.5]), np.array(0.5), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError, match="cost matrix must be 2-D"):
            solve_transport(C, [1.0], [1.0])


def test_solve_transport_rejects_weights_that_are_not_1d():
    # both ended in a TypeError that named nothing: a list compared with 0,
    # and len() of a 0-d array
    with pytest.raises(ValueError, match=r"weight vectors must be 1-D, got shapes \(2, 1\) and \(2,\)"):
        solve_transport(np.zeros((2, 2)), [[0.5], [0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"weight vectors must be 1-D, got shapes \(\) and \(1,\)"):
        solve_transport(np.zeros((1, 1)), 1.0, [1.0])


class _BrokenTriangle(GroundMetric):
    """d(a, b) = d(b, c) = 1 and d(a, c) = 5: the detour through b is
    shorter than the direct route, so this is not a pseudometric. A fourth
    label x is 5 from each of the others."""

    kind = "broken-triangle"
    _d = {
        frozenset("ab"): 1.0,
        frozenset("bc"): 1.0,
        frozenset("ac"): 5.0,
        **{frozenset(p + "x"): 5.0 for p in "abc"},
    }

    def _raw(self, x, y):
        return 0.0 if x == y else self._d[frozenset((x, y))]


def _recorded_solves(monkeypatch):
    """The shape and cost of each ``solve_transport`` call, in call order."""
    solves = []
    solve = transport.solve_transport

    def recorded(C, a, b):
        out = solve(C, a, b)
        solves.append((C.shape, out[0]))
        return out

    monkeypatch.setattr(transport, "solve_transport", recorded)
    return solves


def test_a_failed_certificate_falls_back_to_the_full_solve(monkeypatch):
    solves = _recorded_solves(monkeypatch)
    space = GroundSpace(["a", "b", "c", "x"], _BrokenTriangle())
    mu = FiniteMeasure(["a", "b", "x"], [0.25, 0.25, 0.5])
    eta = FiniteMeasure(["b", "c", "x"], [0.25, 0.25, 0.5])
    r = kantorovich(space, mu, eta)
    # the mass on b and x stays, and the residual sends a to c at 5: a plan
    # of 1.25 whose certificate fails, so the whole problem is solved again
    assert solves == [((1, 1), 1.25), ((3, 3), 0.5)]
    assert r.cost == 0.5
    assert (r.coupling.rows, r.coupling.cols) == (("a", "b", "x"), ("b", "c", "x"))
    # a to b, b to c, and x stays
    assert r.coupling.gamma.tolist() == [[0.25, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.5]]


def test_a_second_order_pair_keeps_the_mass_of_its_shared_inner_measures(monkeypatch):
    # M and N hold the inner measures a, b and c, so the outer solve keeps
    # their common mass in place
    rng = np.random.default_rng(3)
    space = GroundSpace([tuple(p) for p in rng.random((12, 2))], Euclidean())
    a, b, c, d, e = (random_measure(rng, space.points, 4) for _ in range(5))
    M = FiniteMeasure([a, b, c, d], [0.4, 0.1, 0.1, 0.4])
    N = FiniteMeasure([a, b, c, e], [0.1, 0.3, 0.2, 0.4])
    assert M.support[:3] == N.support[:3] == (a, b, c)
    D = np.array([[kantorovich(space, m, n).cost for n in N.support] for m in M.support])
    solves = _recorded_solves(monkeypatch)
    r = second_order_distance(space, M, N)
    # rows a and d and columns b, c and e are left with mass
    assert solves[-1][0] == (2, 3)
    assert r.coupling.check_marginals(M, N)
    assert r.coupling.gamma[[0, 1, 2], [0, 1, 2]].tolist() == [0.1, 0.1, 0.1]
    assert abs(r.cost - solve_transport(D, M.weights, N.weights)[0]) <= 1e-12
    linprog = pytest.importorskip("scipy.optimize").linprog
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    assert abs(r.cost - _highs_cost(linprog, D, M.weights, N.weights, "highs-ds", tight)) <= 1e-12


# five planar points of a ground space; (1e-13, 0) equals the first within
# COORD_TOL, so the space cannot hold it too
_NEAR = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (3.0, 1.0), (1.0, 2.0)]
_NEAR_TABLE = np.linalg.norm(np.array(_NEAR)[:, None] - np.array(_NEAR)[None], axis=-1)


@pytest.mark.parametrize(
    "metric",
    [Euclidean(), Manhattan(), Discrete(), TableMetric(_NEAR, _NEAR_TABLE)],
    ids=lambda metric: metric.kind,
)
def test_points_equal_within_the_tolerance_share_their_mass(monkeypatch, metric):
    # (0, 0) and (1e-13, 0) are one atom, as they would be in one measure:
    # the common mass 0.25 stays on their cell, and rows 0-2 and columns 1-2
    # are left with mass
    space = GroundSpace(_NEAR, metric)
    mu = FiniteMeasure(_NEAR[:3], [0.5, 0.25, 0.25])
    eta = FiniteMeasure([(1e-13, 0.0), *_NEAR[3:]], [0.25, 0.5, 0.25])
    solves = _recorded_solves(monkeypatch)
    r = kantorovich(space, mu, eta)
    [(shape, _)] = solves
    assert shape == (3, 2)
    assert r.coupling.gamma[0, 0] == 0.25
    assert r.coupling.check_marginals(mu, eta)
    C = cost_matrix(space, mu.support, eta.support)
    assert abs(r.cost - solve_transport(C, mu.weights, eta.weights)[0]) <= COST_TOL
    linprog = pytest.importorskip("scipy.optimize").linprog
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    assert abs(r.cost - _highs_cost(linprog, C, mu.weights, eta.weights, "highs-ds", tight)) <= COST_TOL


def test_a_column_that_two_rows_equal_is_shared_once(monkeypatch):
    # the tolerance is not transitive: 0 and 1.6e-12 are two atoms of mu, and
    # both equal 0.8e-12 in eta. The later row keeps that column's common
    # mass 0.3, and rows 0, 2 and all three columns are left with mass
    space = line_space(0.0, 1.6e-12, 1.0, 2.0, 3.0)
    mu = FiniteMeasure([(0.0,), (1.6e-12,), (1.0,)], [0.3, 0.3, 0.4])
    eta = FiniteMeasure([(0.8e-12,), (2.0,), (3.0,)], [0.5, 0.25, 0.25])
    assert (eta.index_of(mu.support[0]), eta.index_of(mu.support[1])) == (0, 0)
    solves = _recorded_solves(monkeypatch)
    r = kantorovich(space, mu, eta)
    [(shape, _)] = solves
    assert shape == (2, 3)
    assert r.coupling.gamma[1, 0] == 0.3
    assert r.coupling.check_marginals(mu, eta)
    C = cost_matrix(space, mu.support, eta.support)
    assert abs(r.cost - solve_transport(C, mu.weights, eta.weights)[0]) <= COST_TOL


def test_the_cut_looks_up_the_atoms_of_mu_without_canonicalising_them(monkeypatch):
    # mu's atoms are canonical already, so the cut's lookups in eta's index
    # make no as_point call; (1e-13, 0) is another float than (0, 0) but
    # lies within COORD_TOL of it, so their common mass is still shared
    space = GroundSpace(_NEAR, Euclidean())
    mu = FiniteMeasure(_NEAR[:3], [0.5, 0.25, 0.25])
    eta = FiniteMeasure([(1e-13, 0.0), *_NEAR[3:]], [0.25, 0.5, 0.25])
    assert mu.support[0] != eta.support[0]
    C = cost_matrix(space, mu.support, eta.support)
    calls = 0
    original = points.as_point

    def counting(p):
        nonlocal calls
        calls += 1
        return original(p)

    monkeypatch.setattr(points, "as_point", counting)
    cost, gamma = transport._plan_around_shared_mass(C, mu, eta)
    assert calls == 0
    assert gamma[0, 0] == 0.25
    assert abs(cost - solve_transport(C, mu.weights, eta.weights)[0]) <= COST_TOL
    # the public lookup canonicalises its query, so the count is not vacuous
    assert eta.index_of(mu.support[0]) == 0 and calls == 1


@pytest.mark.parametrize("metric", [Euclidean(), Manhattan(cap=0.5)], ids=lambda metric: metric.kind)
def test_the_cut_potentials_are_the_numpy_minima_bit_for_bit(monkeypatch, metric):
    # the cut's certificate potentials are Python floats, and numpy's
    # minima over the same cells are their reference, bit for bit; random
    # pairs up to 32x32 are drawn from an 8x8 grid, so that they share atoms
    seen = []
    original = transport._potentials_around

    def recorded(rows, S, v_S):
        u, v = original(rows, S, v_S)
        seen.append((np.array(rows), S, np.array(v_S), u, v))
        return u, v

    monkeypatch.setattr(transport, "_potentials_around", recorded)
    rng = np.random.default_rng(17)
    grid = [(i / 8, j / 8) for i in range(8) for j in range(8)]
    space = GroundSpace(grid, metric)
    for m, n in [(3, 3), (3, 5), (5, 4), (8, 8), (12, 20), (24, 16), (32, 32)] * 4:
        mu, eta = (
            FiniteMeasure([grid[k] for k in rng.choice(64, size, replace=False)], rng.dirichlet(np.ones(size)))
            for size in (m, n)
        )
        kantorovich(space, mu, eta)
    # small pairs may share no atom and take no cut; the 32x32 ones always do
    assert len(seen) >= 12 and max(C.shape for C, *_ in seen) == (32, 32)
    for C, S, v_S, u, v in seen:
        u_np = (C[:, S] - v_S).min(axis=1)
        assert np.array(u).tobytes() == u_np.tobytes()
        assert np.array(v).tobytes() == (C - u_np[:, None]).min(axis=0).tobytes()


def test_two_atoms_a_side_take_the_closed_form_whole_under_a_broken_triangle(monkeypatch):
    # the closed form is exact for any finite cost, so there is no cut and
    # nothing to certify: one solve of the whole problem
    solves = _recorded_solves(monkeypatch)
    space = GroundSpace(["a", "b", "c"], _BrokenTriangle())
    mu = FiniteMeasure(["a", "b"], [0.5, 0.5])
    eta = FiniteMeasure(["b", "c"], [0.5, 0.5])
    r = kantorovich(space, mu, eta)
    assert solves == [((2, 2), 1.0)]
    assert r.cost == 1.0
    assert (r.coupling.rows, r.coupling.cols) == (("a", "b"), ("b", "c"))
    assert r.coupling.gamma.tolist() == [[0.5, 0.0], [0.0, 0.5]]  # a to b, b to c


class _FarDetour(_BrokenTriangle):
    """``_BrokenTriangle`` with d(b, c) set to a non-finite value."""

    def __init__(self, far):
        super().__init__()
        self._d = {**self._d, frozenset("bc"): far}


@pytest.mark.parametrize("far", [float("inf"), float("nan")])
def test_a_non_finite_cost_outside_the_residual_cut_still_raises(far):
    # b and x are shared, so only a -> c is left to solve, a finite 1x1 cut;
    # the cost of b -> c lies outside it and must still be rejected
    space = GroundSpace(["a", "b", "c", "x"], _FarDetour(far))
    mu = FiniteMeasure(["a", "b", "x"], [0.25, 0.25, 0.5])
    eta = FiniteMeasure(["b", "c", "x"], [0.25, 0.25, 0.5])
    with pytest.raises(ValueError, match="costs must be finite"):
        kantorovich(space, mu, eta)


@pytest.mark.parametrize("far", [float("inf"), float("nan")])
def test_a_non_finite_cost_in_a_two_atom_problem_raises(far):
    # the closed form solves the whole 2x2 problem, and rejects b -> c
    space = GroundSpace(["a", "b", "c"], _FarDetour(far))
    mu = FiniteMeasure(["a", "b"], [0.5, 0.5])
    eta = FiniteMeasure(["b", "c"], [0.5, 0.5])
    with pytest.raises(ValueError, match="costs must be finite"):
        kantorovich(space, mu, eta)


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (2, 2), (2, 5), (5, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_closed_form_rejects_a_non_finite_cost(shape, bad):
    m, n = shape
    C = np.arange(m * n, dtype=float).reshape(m, n)
    a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    for k in range(m * n):
        Cb = C.copy()
        Cb.flat[k] = bad
        with pytest.raises(ValueError, match="^costs must be finite, got a non-finite entry$"):
            solve_transport(Cb, a, b)


def _grid_pair(rng, n):
    # distinct points of a 16x16 integer grid with uniform weights, as in
    # the benchmark's degenerate workload; the supports often overlap
    grid = [(float(i), float(j)) for i in range(16) for j in range(16)]
    x, y = ([grid[k] for k in rng.choice(len(grid), n, replace=False)] for _ in range(2))
    w = np.full(n, 1.0 / n)
    return FiniteMeasure(x, w), FiniteMeasure(y, w)


def _count_solves(monkeypatch):
    """Per ``_transport`` call, first- or second-order, the shape of the cost
    matrix and the shapes of the ``solve_transport`` calls it made, in call
    order. A second-order outer solve starts after its inner ones end."""
    calls = []
    solve, original = transport.solve_transport, transport._transport

    def counted_solve(C, a, b):
        calls[-1][1].append(C.shape)
        return solve(C, a, b)

    def counted_transport(C, mu, eta):
        calls.append((C.shape, []))
        return original(C, mu, eta)

    monkeypatch.setattr(transport, "solve_transport", counted_solve)
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "kantorovich" and mod.__dict__.get("_transport") is original:
            monkeypatch.setattr(mod, "_transport", counted_transport)
    return calls


def test_built_in_metrics_never_fall_back_and_match_the_full_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    rng = np.random.default_rng(5)
    metrics = [
        Manhattan(),
        Euclidean(),
        Manhattan(cap=3.0),
        Discrete(),
        PullbackMetric(lambda p: p[:1], Euclidean()),
    ]
    for n in (16, 24, 32):
        for metric in metrics:
            mu, eta = _grid_pair(rng, n)
            space = GroundSpace(list(dict.fromkeys([*mu.support, *eta.support])), metric)
            got = transport.kantorovich(space, mu, eta)
            C = cost_matrix(space, mu.support, eta.support)
            assert abs(got.cost - solve_transport(C, mu.weights, eta.weights)[0]) <= 1e-12
            assert got.coupling.check_marginals(mu, eta)
    run_law_suite(42, 20)
    # one solve per call, and some of them on a cut-out of the cost matrix
    assert all(len(solves) == 1 for _, solves in calls)
    assert sum(solves[0] != shape for shape, solves in calls) > len(calls) // 4
