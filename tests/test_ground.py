import numpy as np
import pytest

from kantorovich.ground import (
    Chebyshev,
    Discrete,
    Euclidean,
    GroundMetric,
    GroundSpace,
    Manhattan,
    MaxMetric,
    MetricAxiomError,
    PullbackMetric,
    QuotientMetric,
    TableMetric,
    ZeroMetric,
    coordinate_projection,
    max_combine,
    metric_from_spec,
    pullback,
    quotient,
    validate_pseudometric,
)

GEOM_TOL = 1e-12


def test_euclidean_pythagorean():
    assert Euclidean()((0, 0), (3, 4)) == pytest.approx(5.0, abs=GEOM_TOL)


def test_discrete_identity():
    d = Discrete()
    assert d("a", "a") == 0.0
    assert d("a", "b") == 1.0
    assert d((0.0, 1.0), (0.0, 1.0)) == 0.0


def test_table_readback_and_unknown_label():
    t = TableMetric(["a", "b"], [[0.0, 2.5], [2.5, 0.0]])
    assert t("a", "b") == 2.5
    with pytest.raises(ValueError, match="unknown label"):
        t("a", "c")


def test_table_axioms_validated():
    with pytest.raises(MetricAxiomError):
        TableMetric(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(MetricAxiomError):
        TableMetric(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle


def test_table_rejects_non_finite_entries():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(MetricAxiomError, match="finite"):
            TableMetric(["a", "b"], [[0.0, bad], [bad, 0.0]])


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Euclidean()((0, 0), (1, 2, 3))


def test_cap_truncates():
    d = Euclidean(cap=2.0)
    assert d((0,), (10,)) == 2.0
    assert d((0,), (1,)) == 1.0


def test_max_with_zero_and_idempotence():
    d = Discrete()
    combined = max_combine(d, ZeroMetric())
    assert combined("x", "y") == 1.0
    same = max_combine(d, d)
    assert same("x", "y") == d("x", "y")


def test_max_of_axis_distances_is_chebyshev():
    # pointwise comparison over a random sample of pairs
    p1 = pullback(coordinate_projection([0]), Euclidean())
    p2 = pullback(coordinate_projection([1]), Euclidean())
    combined = max_combine(p1, p2)
    cheb = Chebyshev()
    rng = np.random.default_rng(7)
    for x, y in zip(rng.random((50, 2)), rng.random((50, 2))):
        assert combined(tuple(x), tuple(y)) == pytest.approx(cheb(tuple(x), tuple(y)), abs=GEOM_TOL)


def test_max_combine_rejects_incompatible_tables():
    t1 = TableMetric(["a", "b"], [[0, 1], [1, 0]])
    t2 = TableMetric(["a", "c"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="incompatible"):
        max_combine(t1, t2)


def test_max_combine_commutative_associative():
    rng = np.random.default_rng(3)
    a, b, c = Euclidean(), Manhattan(), Discrete()
    for x, y in zip(rng.random((20, 2)), rng.random((20, 2))):
        x, y = tuple(x), tuple(y)
        assert max_combine(a, b)(x, y) == max_combine(b, a)(x, y)
        assert max_combine(max_combine(a, b), c)(x, y) == pytest.approx(
            max_combine(a, max_combine(b, c))(x, y), abs=GEOM_TOL
        )


def test_pullback_special_cases():
    p = Euclidean()
    const = PullbackMetric(lambda _: (0.0,), p)
    assert const((1, 2), (5, 9)) == 0.0
    ident = pullback(lambda q: q, p)
    rng = np.random.default_rng(11)
    for x, y in zip(rng.random((20, 2)), rng.random((20, 2))):
        assert ident(tuple(x), tuple(y)) == p(tuple(x), tuple(y))
    first = pullback(coordinate_projection([0]), Euclidean())
    assert first((0, 5), (0, 9)) == 0.0


def test_axiom_checks_on_constructed_metrics():
    rng = np.random.default_rng(0)
    pts = [tuple(p) for p in rng.random((12, 2))]
    metrics = [
        Euclidean(),
        Manhattan(),
        Chebyshev(),
        Discrete(),
        Euclidean(cap=0.4),
        max_combine(Euclidean(), Manhattan()),
        pullback(coordinate_projection([1]), Euclidean()),
    ]
    for m in metrics:
        validate_pseudometric(pts, m)  # must not raise


def test_axiom_check_sampled_above_threshold():
    rng = np.random.default_rng(1)
    pts = [tuple(p) for p in rng.random((80, 2))]
    validate_pseudometric(pts, Manhattan(), samples=500)

    class Broken(GroundMetric):
        def _raw(self, x, y):
            return (x[0] - y[0]) ** 2  # squared distance breaks the triangle

    with pytest.raises(MetricAxiomError):
        validate_pseudometric([(0.0,), (5.0,), (10.0,)], Broken())


def test_quotient_discrete_is_identity():
    space = GroundSpace(["a", "b", "c"], Discrete())
    q, proj = quotient(space, Discrete())
    assert q.points == space.points
    assert all(proj(p) == p for p in space.points)


def test_quotient_total_collapse():
    space = GroundSpace([(0.0,), (1.0,), (2.0,)], ZeroMetric())
    q, proj = quotient(space, ZeroMetric())
    assert len(q) == 1
    assert proj((2.0,)) == (0.0,)


def test_quotient_first_coordinate():
    p = pullback(coordinate_projection([0]), Euclidean())
    space = GroundSpace([(0, 1), (0, 2), (1, 0)], p)
    q, proj = quotient(space, p)
    assert q.points == ((0.0, 1.0), (1.0, 0.0))
    assert q.distance(q.points[0], q.points[1]) == pytest.approx(1.0, abs=GEOM_TOL)
    assert proj((0, 2)) == (0.0, 1.0)
    # quotient metric is a genuine metric: distinct classes at positive distance
    for i, a in enumerate(q.points):
        for j, b in enumerate(q.points):
            if i != j:
                assert q.distance(a, b) > GEOM_TOL


def test_quotient_rejects_non_pseudometric():
    class Lopsided(GroundMetric):
        def _raw(self, x, y):
            return abs(x[0] - y[0]) + (0.5 if x < y else 0.0)

    space = GroundSpace([(0.0,), (1.0,)], Euclidean())
    with pytest.raises(MetricAxiomError):
        quotient(space, Lopsided())


def test_quotient_evaluates_the_pseudometric_once(monkeypatch):
    p = pullback(coordinate_projection([0]), Euclidean())
    calls = 0
    original = PullbackMetric.pairwise

    def counting(self, xs, ys):
        nonlocal calls
        calls += 1
        return original(self, xs, ys)

    monkeypatch.setattr(PullbackMetric, "pairwise", counting)
    space = GroundSpace([(0, 1), (0, 2), (1, 0), (2, 2)], Euclidean())
    q, _ = quotient(space, p)
    assert calls == 1 and q.points == ((0.0, 1.0), (1.0, 0.0), (2.0, 2.0))

    class Squared(GroundMetric):
        def _raw(self, x, y):
            return (x[0] - y[0]) ** 2  # squared distance breaks the triangle

    with pytest.raises(MetricAxiomError, match="triangle"):
        quotient(GroundSpace([(0.0,), (5.0,), (10.0,)], Euclidean()), Squared())


def test_ground_space_invariants():
    with pytest.raises(ValueError, match="unique"):
        GroundSpace(["a", "a"], Discrete())
    with pytest.raises(ValueError, match="dimension"):
        GroundSpace([(0.0,), (0.0, 1.0)], Euclidean())
    space = GroundSpace([(0, 0), (3, 4), (1, 1)], Euclidean())
    assert space.diameter() == pytest.approx(5.0, abs=GEOM_TOL)
    assert (3.0, 4.0) in space and (9.0, 9.0) not in space


def test_ground_space_rejects_non_finite_coordinates():
    for bad in [(float("nan"),), (float("inf"),), ("a", (float("-inf"),))]:
        with pytest.raises(ValueError, match="coordinates must be finite"):
            GroundSpace([(0.0,), bad] if len(bad) == 1 else [("a", (0.0,)), bad], Euclidean())
    space = GroundSpace([(0.0,), (1.0,)], Euclidean())
    assert (float("nan"),) not in space
    assert (1.0 + 5e-13,) in space


def test_lookups_find_the_earliest_point_within_tolerance():
    # (0.75e-12,) is within tolerance of both (0,) and (1.5e-12,); the
    # earliest wins, as in a scan
    t = TableMetric([(0.0,), (1.5e-12,)], [[0.0, 1.0], [1.0, 0.0]])
    assert t.pairwise([(0.75e-12,)], [(1.5e-12,)])[0, 0] == 1.0
    space = GroundSpace([(0.0,), (1.5e-12,), (3.0,)], Discrete())
    _, proj = quotient(space, Discrete())
    assert proj((0.75e-12,)) == (0.0,) and proj((2e-12,)) == (1.5e-12,)


def test_metric_from_spec_forms():
    assert metric_from_spec("euclidean")((0, 0), (3, 4)) == 5.0
    t = metric_from_spec({"kind": "table", "points": ["a", "b"], "d": [[0, 2.5], [2.5, 0]]})
    assert t("a", "b") == 2.5
    pb = metric_from_spec({"kind": "pullback", "coords": [0], "inner": {"kind": "euclidean"}})
    assert pb((0, 5), (0, -3)) == 0.0
    mx = metric_from_spec(
        '{"kind": "max", "of": [{"kind": "discrete"}, {"kind": "zero"}], "cap": 0.5}'
    )
    assert mx("a", "b") == 0.5
    with pytest.raises(ValueError):
        metric_from_spec({"kind": "nope"})
    with pytest.raises(ValueError):
        metric_from_spec("not json at all {{{")


COORD_PTS = [(0.0, 0.0), (0.25, 1.0), (3.0, 4.0), (0.25, -2.0)]
LABEL_PTS = ["a", "b", "c"]
PRODUCT_PTS = [((0.0,), "a"), ((1.0,), "b"), ((1.0,), "a")]
LABEL_TABLE = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]


def _builtin_metrics(cap):
    """Every built-in metric kind, with the point lists it is defined on."""
    first = coordinate_projection([0])
    coord_table = TableMetric(COORD_PTS, Euclidean().pairwise(COORD_PTS, COORD_PTS), cap=cap)
    label_table = TableMetric(LABEL_PTS, LABEL_TABLE, cap=cap)
    product_table = TableMetric(PRODUCT_PTS, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], cap=cap)
    to_plane = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}.__getitem__
    yield COORD_PTS, [
        Euclidean(cap=cap),
        Manhattan(cap=cap),
        Chebyshev(cap=cap),
        Discrete(cap=cap),
        ZeroMetric(cap=cap),
        coord_table,
        PullbackMetric(first, Manhattan(), cap=cap),
        MaxMetric([Euclidean(), Discrete(), PullbackMetric(first, Chebyshev())], cap=cap),
        QuotientMetric(PullbackMetric(first, Euclidean()), cap=cap),
    ]
    yield LABEL_PTS, [
        Discrete(cap=cap),
        ZeroMetric(cap=cap),
        label_table,
        PullbackMetric(to_plane, Euclidean(), cap=cap),
        MaxMetric([Discrete(), TableMetric(LABEL_PTS, LABEL_TABLE)], cap=cap),
        QuotientMetric(label_table, cap=cap),
    ]
    yield PRODUCT_PTS, [
        Discrete(cap=cap),
        ZeroMetric(cap=cap),
        product_table,
        PullbackMetric(lambda p: p[0], Euclidean(), cap=cap),
        MaxMetric([Discrete(), product_table], cap=cap),
        QuotientMetric(PullbackMetric(lambda p: p[1], Discrete()), cap=cap),
    ]


@pytest.mark.parametrize("cap", [None, 0.5])
def test_pairwise_entries_equal_scalar_calls_exactly(cap):
    kinds = set()
    for pts, metrics in _builtin_metrics(cap):
        xs = pts
        for m in metrics:
            kinds.add(m.kind)
            for ys in (pts[::-1][:2], xs):  # the second shares the list object
                d = m.pairwise(xs, ys)
                assert d.shape == (len(xs), len(ys))
                for i, x in enumerate(xs):
                    for j, y in enumerate(ys):
                        assert d[i, j] == m(x, y), (m, x, y)
            assert m.pairwise([], xs).shape == (0, len(xs))
            assert m.pairwise(xs, []).shape == (len(xs), 0)
    assert kinds == {
        "euclidean", "manhattan", "chebyshev", "discrete", "zero", "table", "pullback", "max", "quotient-of"
    }


def test_pairwise_canonicalizes_other_point_forms():
    raw, canonical = [(0, 0), np.array([3, 4]), [3, 4.5]], [(0.0, 0.0), (3.0, 4.0), (3.0, 4.5)]
    for m in [
        Euclidean(cap=4.0),
        Discrete(),
        TableMetric(canonical, Chebyshev().pairwise(canonical, canonical)),
        PullbackMetric(lambda p: p[1:], Manhattan()),
    ]:
        assert m.pairwise(raw, raw[:2]).tolist() == m.pairwise(canonical, canonical[:2]).tolist()
    with pytest.raises(ValueError, match="requires coordinate points"):
        Euclidean().pairwise(["a"], [(0.0,)])
    with pytest.raises(ValueError, match="requires coordinate points"):
        Manhattan()("a", "b")


def test_metric_defining_only_raw_works_everywhere():
    class FirstCoordinate(GroundMetric):
        def _raw(self, x, y):
            return abs(x[0] - y[0])

    m = FirstCoordinate(cap=2.5)
    assert m((0, 7), (1, 9)) == 1.0
    assert m((0,), (10,)) == 2.5
    pts = [(0.0, 1.0), (0.0, 2.0), (1.0, 0.0), (4.0, 4.0)]
    d = m.pairwise(pts, pts)
    assert d.tolist() == [[m(x, y) for y in pts] for x in pts]
    validate_pseudometric(pts, m)
    q, proj = quotient(GroundSpace(pts, m), m)
    assert q.points == ((0.0, 1.0), (1.0, 0.0), (4.0, 4.0))
    assert proj((0.0, 2.0)) == (0.0, 1.0)
    assert q.distance((0.0, 1.0), (4.0, 4.0)) == 2.5
