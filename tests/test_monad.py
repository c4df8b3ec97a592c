import numpy as np
import pytest

from kantorovich.ground import Euclidean, GroundSpace, PullbackMetric, coordinate_projection
from kantorovich.laws import (
    algebra_deviations,
    random_measure,
    random_second_order,
    random_space,
    run_algebra_laws,
    run_monad_laws,
)
from kantorovich.measures import (
    FiniteMeasure,
    dirac,
    measure_to_json,
    measures_equal,
    mix,
    pushforward,
    second_order_from_json,
)
from kantorovich.monad import (
    ConvexSpace,
    barycenter,
    flatten,
    lifted_pseudometric,
    reweight_series_check,
    second_order_distance,
)
from kantorovich.transport import kantorovich

TOL = 1e-9


def test_barycenter_examples():
    cs = ConvexSpace(2)
    assert barycenter(cs, dirac((0.5, 0.25))) == (0.5, 0.25)
    assert barycenter(cs, FiniteMeasure([(0, 0), (4, 2)], [0.5, 0.5])) == (2.0, 1.0)
    line = ConvexSpace(1)
    m = FiniteMeasure([(0.0,), (1.0,), (2.0,)], [1 / 3] * 3)
    assert barycenter(line, m)[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        barycenter(cs, dirac("a"))


def test_barycenter_respects_membership():
    ball = ConvexSpace(2, contains=lambda p: p[0] ** 2 + p[1] ** 2 <= 1.0 + 1e-9)
    assert barycenter(ball, FiniteMeasure([(1, 0), (-1, 0)], [0.5, 0.5])) == (0.0, 0.0)
    with pytest.raises(ValueError, match="outside"):
        barycenter(ball, dirac((2.0, 0.0)))
    with pytest.raises(ValueError, match=r"^point \(0\.0, 1\.0, 2\.0\) has dimension 3, space has 2$"):
        barycenter(ConvexSpace(2), dirac((0.0, 1.0, 2.0)))
    # both atoms are members, their midpoint is not
    ends = ConvexSpace(1, contains=lambda p: p[0] <= 0.0 or p[0] >= 1.0)
    with pytest.raises(ValueError, match="membership predicate is not convex"):
        barycenter(ends, FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5]))


def test_barycenter_affine_in_the_measure():
    rng = np.random.default_rng(2)
    cs = ConvexSpace(3)
    pts = [tuple(p) for p in rng.random((6, 3))]
    for _ in range(25):
        mu, eta = random_measure(rng, pts), random_measure(rng, pts)
        t = float(rng.random())
        direct = np.asarray(barycenter(cs, mix([(t, mu), (1 - t, eta)])))
        split = t * np.asarray(barycenter(cs, mu)) + (1 - t) * np.asarray(barycenter(cs, eta))
        assert np.abs(direct - split).max() <= 1e-12


def test_unit_and_flatten():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    M = dirac(mu)
    assert len(M) == 1 and M.weights[0] == 1.0
    assert measures_equal(flatten(M), mu)
    assert measures_equal(flatten(dirac(dirac("a"))), dirac("a"))
    two = FiniteMeasure([dirac((0.0,)), dirac((1.0,))], [0.5, 0.5])
    assert measures_equal(flatten(two), mu)
    # hand mixture
    M3 = FiniteMeasure([mu, dirac((0.0,))], [0.5, 0.5])
    out = flatten(M3)
    assert out.weight_of((0.0,)) == pytest.approx(0.75)
    assert out.weight_of((1.0,)) == pytest.approx(0.25)


def test_second_order_atoms_merge_by_measure_equality():
    mu_a = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    mu_b = FiniteMeasure([(1.0,), (0.0,)], [0.5, 0.5])  # same measure, reordered
    M = FiniteMeasure([mu_a, mu_b], [0.5, 0.5])
    assert len(M) == 1 and M.weights[0] == 1.0


def test_second_order_distance_examples():
    space = GroundSpace([(0.0,), (1.0,), (2.0,)], Euclidean())
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    eta = dirac((2.0,))
    d_inner = kantorovich(space, mu, eta).cost
    assert second_order_distance(space, dirac(mu), dirac(eta)).cost == pytest.approx(
        d_inner, abs=TOL
    )
    M = FiniteMeasure([dirac((1.0,)), dirac((2.0,))], [0.5, 0.5])
    assert second_order_distance(space, M, M).cost == pytest.approx(0.0, abs=TOL)
    # evaluated by brute force over couplings: both sides are 1.5
    lhs = second_order_distance(space, dirac(dirac((0.0,))), M).cost
    assert lhs == pytest.approx(1.5, abs=TOL)
    assert kantorovich(space, dirac((0.0,)), flatten(M)).cost == pytest.approx(1.5, abs=TOL)


def test_flatten_nonexpanding_and_dirac_equality():
    rng = np.random.default_rng(8)
    for _ in range(20):
        space = random_space(rng, 7)
        M = random_second_order(rng, space.points)
        N = random_second_order(rng, space.points)
        outer = second_order_distance(space, M, N).cost
        assert kantorovich(space, flatten(M), flatten(N)).cost <= outer + TOL
        x = space.points[int(rng.integers(len(space.points)))]
        lhs = second_order_distance(space, dirac(dirac(x)), M).cost
        rhs = kantorovich(space, dirac(x), flatten(M)).cost
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_monad_laws_hand_instance():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    M1 = FiniteMeasure([mu, dirac((0.0,))], [0.5, 0.5])
    M2 = dirac(dirac((1.0,)))
    sample = [(0.5, M1), (0.5, M2)]
    # both composite flattens give {0: 3/8, 1: 5/8}
    lhs = flatten(mix(sample))
    rhs = flatten(FiniteMeasure([flatten(M1), flatten(M2)], [0.5, 0.5]))
    expected = FiniteMeasure([(0.0,), (1.0,)], [3 / 8, 5 / 8])
    assert measures_equal(lhs, expected) and measures_equal(rhs, expected)


def test_monad_laws_random():
    for report in run_monad_laws(np.random.default_rng(21), 40):
        assert report.passed, report


def test_algebra_laws():
    cs = ConvexSpace(2)
    mu = FiniteMeasure([(0.0, 0.0), (2.0, 2.0)], [0.5, 0.5])
    M = FiniteMeasure([dirac((0.0, 0.0)), mu], [0.5, 0.5])
    # hand evaluation of both sides: (0.5, 0.5)
    assert barycenter(cs, flatten(M)) == (0.5, 0.5)
    mapped = FiniteMeasure([barycenter(cs, m) for m, _ in M.items()], M.weights)
    assert barycenter(cs, mapped) == (0.5, 0.5)

    f = lambda p: (2 * p[0] + 1,)  # noqa: E731
    sample = (M, lambda p: (2 * p[0] + 1.0, 0.5 * p[1]), 2)
    assert max(algebra_deviations(cs, sample)) <= TOL
    for report in run_algebra_laws(np.random.default_rng(3), 30):
        assert report.passed, report
    line = ConvexSpace(1)
    rng = np.random.default_rng(4)
    pts = [(float(x),) for x in rng.random(6)]
    for _ in range(30):
        mu = random_measure(rng, pts)
        lhs = barycenter(line, pushforward(f, mu))
        rhs = f(barycenter(line, mu))
        assert abs(lhs[0] - rhs[0]) <= TOL


def test_algebra_deviations_measure_a_non_affine_map():
    # x -> x^2 over the uniform measure on {0, 1}: the barycenter of the
    # image is 1/2, the image of the barycenter 1/4
    M = dirac(FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5]))
    unit, orders, morphism = algebra_deviations(ConvexSpace(1), (M, lambda p: (p[0] ** 2,), 1))
    assert (unit, orders, morphism) == (0.0, 0.0, 0.25)


def test_lifted_pseudometric_examples():
    # p a genuine metric: quotient is the identity, value matches direct cost
    space = GroundSpace([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], Euclidean())
    rng = np.random.default_rng(6)
    mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
    assert lifted_pseudometric(space, Euclidean(), mu, eta) == pytest.approx(
        kantorovich(space, mu, eta).cost, abs=TOL
    )
    # collapsing pseudometric sends same-first-coordinate Diracs to distance 0
    p = PullbackMetric(coordinate_projection([0]), Euclidean())
    space2 = GroundSpace([(0.0, 5.0), (0.0, -3.0)], p)
    assert lifted_pseudometric(space2, p, dirac((0.0, 5.0)), dirac((0.0, -3.0))) == 0.0


def test_reweight_identity():
    # all mass at the absorbing index
    assert reweight_series_check([(1.0, 2.0)], [1.0], 0, [0.5])
    # two points, epsilon 1/2: hand expansion of both sides
    assert reweight_series_check([(0.0,), (1.0,)], [0.5, 0.5], 0, [1.0, 0.5])
    with pytest.raises(ValueError, match="infeasible"):
        reweight_series_check([(0.0,), (1.0,)], [0.5, 0.5], 0, [1.0, 0.1])
    with pytest.raises(ValueError, match="positive weight"):
        reweight_series_check([(0.0,), (1.0,)], [1.0, 0.0], 1, [1.0, 1.0])
    with pytest.raises(ValueError, match="epsilons"):
        reweight_series_check([(0.0,), (1.0,)], [0.5, 0.5], 0, [1.0, 1.5])


def test_second_order_json_round_trip():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    M = FiniteMeasure([mu, dirac((2.0,))], [0.25, 0.75])
    back = second_order_from_json(measure_to_json(M))
    assert len(back) == len(M)
    assert measures_equal(flatten(back), flatten(M))
    with pytest.raises(ValueError, match="atoms"):
        second_order_from_json({"measure": {}})


def test_reweight_identity_rejects_lists_of_unequal_length():
    pts = [(0.0,), (1.0,)]
    for lam, eps in (([0.5, 0.5, 0.0], [1.0, 1.0]), ([0.5, 0.5], [1.0])):
        with pytest.raises(ValueError, match="^points, weights, and epsilons must have equal length$"):
            reweight_series_check(pts, lam, 0, eps)


def test_reweight_identity_rejects_non_finite_entries():
    # NaN passed every range check and the check returned False
    pts = [(0.0,), (1.0,)]
    with pytest.raises(ValueError, match="^eps must be finite"):
        reweight_series_check(pts, [0.5, 0.5], 0, [np.nan, 1.0])
    with pytest.raises(ValueError, match="^lam must be finite"):
        reweight_series_check(pts, [np.nan, 0.5], 1, [1.0, 1.0])
    with pytest.raises(ValueError, match="^eps must be finite"):
        reweight_series_check(pts, [0.5, 0.5], 0, [1.0, np.inf])


def test_second_order_distance_rejects_measures_of_points():
    space = GroundSpace([(0.0,), (1.0,)], Euclidean())
    with pytest.raises(TypeError, match="^M must be a measure of measures"):
        second_order_distance(space, dirac((0.0,)), dirac(dirac((1.0,))))
    with pytest.raises(TypeError, match="^N must be a measure of measures"):
        second_order_distance(space, dirac(dirac((0.0,))), dirac((1.0,)))


def test_convex_space_dimension_must_be_an_integer():
    for dim in (2.5, True, "2", np.nan):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            ConvexSpace(dim)
    assert ConvexSpace(2.0).dim == ConvexSpace(np.int64(2)).dim == 2
    with pytest.raises(ValueError, match="at least 1"):
        ConvexSpace(0)
