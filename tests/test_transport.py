import itertools

import numpy as np
import pytest

from kantorovich import transport
from kantorovich.ground import Discrete, Euclidean, GroundSpace, Manhattan
from kantorovich.measures import FiniteMeasure, PartitionError, dirac, measures_equal
from kantorovich.transport import (
    brute_force_distance,
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
    assert r.solver == "network-simplex"


def test_identical_measures_at_zero_distance():
    space = line_space(0, 1, 2)
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.25, 0.75])
    r = kantorovich(space, mu, mu)
    assert r.cost == 0.0
    assert r.coupling.check_marginals(mu, mu)


def test_half_mass_move():
    # derived by brute force over the coupling polytope vertices
    space = line_space(0, 1)
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    eta = dirac((1.0,))
    assert kantorovich(space, mu, eta).cost == pytest.approx(0.5, abs=COST_TOL)
    assert brute_force_distance(space, mu, eta).cost == pytest.approx(0.5, abs=COST_TOL)


def test_uniform_shift_both_permutations_cost_one():
    space = line_space(0, 1, 2)
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    eta = FiniteMeasure([(1.0,), (2.0,)], [0.5, 0.5])
    assert kantorovich(space, mu, eta).cost == pytest.approx(1.0, abs=COST_TOL)
    oracle = brute_force_distance(space, mu, eta)
    assert oracle.solver == "brute-permutation"
    assert oracle.cost == pytest.approx(1.0, abs=COST_TOL)


def test_attainment_cost_recomputable():
    rng = np.random.default_rng(5)
    pts = [tuple(p) for p in rng.random((9, 2))]
    space = GroundSpace(pts, Euclidean())
    mu, eta = random_measure(rng, pts), random_measure(rng, pts)
    r = kantorovich(space, mu, eta)
    C = cost_matrix(space, mu.support, eta.support)
    assert r.coupling.cost_against(C) == pytest.approx(r.cost, abs=COST_TOL)
    assert r.coupling.check_marginals(mu, eta)


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
        part = partition_coupling(space, mu, eta, cells)
        assert best <= part.cost_against(C) + COST_TOL


def test_partition_coupling_identical_measures():
    rng = np.random.default_rng(3)
    pts = [tuple(p) for p in rng.random((8, 2))]
    space = GroundSpace(pts, Euclidean())
    mu = random_measure(rng, pts, 6)
    cells = [lambda p: p[0] < 0.5, lambda p: p[0] >= 0.5]
    coup = partition_coupling(space, mu, mu, cells)
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
    space = line_space(0, 0.5, 1, 2)
    coup = partition_coupling(space, mu, eta, [lambda p: True])
    assert np.allclose(coup.gamma, independent_coupling(mu, eta).gamma)


def test_partition_coupling_two_clusters():
    # hand evaluation of the two diagonal product blocks
    space = line_space(0, 0.1, 10, 10.1)
    mu0 = FiniteMeasure([(0.0,), (10.0,)], [0.5, 0.5])
    mu = FiniteMeasure([(0.1,), (10.1,)], [0.5, 0.5])
    cells = [lambda p: p[0] < 5, lambda p: p[0] >= 5]
    coup = partition_coupling(space, mu0, mu, cells)
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
        space = GroundSpace(pts, Euclidean())
        mu0, mu = random_measure(rng, pts, 6), random_measure(rng, pts, 6)
        cuts = sorted(rng.random(2))
        cells = [
            lambda p, c=cuts[0]: p[0] < c,
            lambda p, a=cuts[0], b=cuts[1]: a <= p[0] < b,
            lambda p, c=cuts[1]: p[0] >= c,
        ]
        coup = partition_coupling(space, mu0, mu, cells)
        assert coup.check_marginals(mu0, mu)
        for cell in cells:
            rows = [i for i, p in enumerate(mu0.support) if cell(p)]
            cols = [j for j, q in enumerate(mu.support) if cell(q)]
            block = float(coup.gamma[np.ix_(rows, cols)].sum()) if rows and cols else 0.0
            a = float(mu0.weights[rows].sum()) if rows else 0.0
            b = float(mu.weights[cols].sum()) if cols else 0.0
            assert block == pytest.approx(min(a, b), abs=COST_TOL)


def test_partition_coupling_rejects_overlap():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    space = line_space(0, 1)
    with pytest.raises(PartitionError):
        partition_coupling(space, mu, mu, [lambda p: True, lambda p: p[0] < 1])


def test_partition_coupling_empty_cell_allowed():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    space = line_space(0, 1)
    coup = partition_coupling(space, mu, mu, [lambda p: p[0] > 5, lambda p: p[0] <= 5])
    assert coup.check_marginals(mu, mu)


def test_brute_force_regime_errors():
    space = line_space(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    pts = space.points
    mu = FiniteMeasure(pts[:5], [0.1, 0.2, 0.3, 0.2, 0.2])
    eta = FiniteMeasure(pts[5:], [0.2] * 5)
    with pytest.raises(ValueError, match="brute force"):
        brute_force_distance(space, mu, eta)


def test_oracle_equivalence_batch():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        pts = [tuple(p) for p in rng.random((2 * n, 2))]
        space = GroundSpace(pts, Manhattan())
        mu = FiniteMeasure(pts[:n], np.full(n, 1.0 / n))
        eta = FiniteMeasure(pts[n:], np.full(n, 1.0 / n))
        assert kantorovich(space, mu, eta).cost == pytest.approx(
            brute_force_distance(space, mu, eta).cost, abs=COST_TOL
        )


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


def test_one_row_or_column_returns_the_product_coupling_without_pricing(monkeypatch):
    calls = 0
    original = transport._tree_duals

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(transport, "_tree_duals", counting)
    rng = np.random.default_rng(7)
    for k in (1, 2, 5):
        for trial in range(4):
            w = np.array([0.25, 0.5, 0.125, 0.125, 0.5, 0.25][:k]) if trial == 0 else rng.random(k) + 0.1
            w = w / w.sum()
            one = np.array([1.0])
            for C, a, b in ((rng.random((1, k)), one, w), (rng.random((k, 1)), w, one)):
                cost, gamma = solve_transport(C, a, b)
                product = np.outer(a, b)
                if trial == 0:
                    assert gamma.tobytes() == product.tobytes()
                else:
                    assert np.abs(gamma - product).max() <= 1e-15
                assert cost == float((gamma * C).sum())
    assert calls == 0
    # with two rows and two columns there is something to price
    solve_transport(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert calls >= 1


def test_lipschitz_gap_names_the_first_violating_pair():
    # every pair in the scan order of itertools.combinations; the first that
    # breaks the bound is the one named
    rng = np.random.default_rng(5)
    for _ in range(40):
        pts = [(float(x),) for x in rng.integers(0, 20, size=6)]
        space = GroundSpace(pts, Euclidean())
        mu, eta = random_measure(rng, pts), random_measure(rng, pts)
        slope = {p: float(rng.choice([0.0, 0.5, 2.0])) for p in pts}
        f = lambda p: slope[p] * p[0]  # noqa: E731
        joint = list(mu.support) + [p for p in eta.support if mu.index_of(p) is None]
        first = next(
            ((x, y) for x, y in itertools.combinations(joint, 2)
             if abs(f(x) - f(y)) > space.distance(x, y) + 1e-12),
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
