import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorovich import ground
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
    TableMetric,
    ZeroMetric,
    coordinate_projection,
    metric_from_spec,
    quotient,
    validate_pseudometric,
)
from kantorovich.points import CELL, COORD_TOL, points_equal
from kantorovich.measures import FiniteMeasure, dirac
from kantorovich.transport import kantorovich

GEOM_TOL = 1e-12


def test_euclidean_pythagorean():
    assert Euclidean()((0, 0), (3, 4)) == pytest.approx(5.0, abs=GEOM_TOL)


def test_discrete_identity():
    d = Discrete()
    assert d("a", "a") == 0.0
    assert d("a", "b") == 1.0
    assert d((0.0, 1.0), (0.0, 1.0)) == 0.0


def test_discrete_pairwise_matches_the_points_equal_grid():
    # near duplicates at tol/2 and 1.5 tol, on both sides of a cell edge of
    # the point index, labels and product points
    tol, edge = COORD_TOL, 0.5 * CELL
    pts = [
        (0.3, 0.7), (0.3 + tol / 2, 0.7), (0.3 - tol / 2, 0.7 + tol / 2),
        (0.3 + 1.5 * tol, 0.7), (0.3, 0.7 - 1.5 * tol),
        (edge,), (edge - tol / 2,), (edge + tol / 2,), (edge - 1.5 * tol,), (edge + 1.5 * tol,),
        "a", "b", "a",
        ((0.3, 0.7), "a"), ((0.3 + tol / 2, 0.7), "a"), ((0.3, 0.7), "b"),
        ((edge,), (1.0,)), ((edge + tol / 2,), (1.0 - tol / 2,)),
    ]
    grid = [[0.0 if points_equal(x, y) else 1.0 for y in pts] for x in pts]
    d = Discrete().pairwise(pts, pts)
    assert d.tolist() == grid
    # the grid has matches, across the cell edge too
    assert d[0, 1] == d[5, 6] == d[5, 7] == d[10, 12] == d[13, 14] == d[16, 17] == 0.0
    xs, ys = pts[:12], pts[5:]
    assert Discrete(cap=0.5).pairwise(xs, ys).tolist() == [
        [0.0 if points_equal(x, y) else 0.5 for y in ys] for x in xs
    ]
    assert Discrete().pairwise([], pts).shape == (0, len(pts))


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


def test_table_points_are_distinct_under_point_identity():
    # points_equal calls these one point, and a measure merges them, so a
    # table may not give them distance 1
    with pytest.raises(ValueError, match=r"table points must be distinct, got \(0.0,\) and \(1e-13,\)"):
        TableMetric([(0.0,), (1e-13,)], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="got 'a' and 'a'"):
        TableMetric(["a", "b", "a"], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert TableMetric(["a", "b"], [[0, 1], [1, 0]])("a", "b") == 1.0


def test_table_rejects_non_finite_entries():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(MetricAxiomError, match="finite"):
            TableMetric(["a", "b"], [[0.0, bad], [bad, 0.0]])


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Euclidean()((0, 0), (1, 2, 3))


@pytest.mark.parametrize("metric", [Euclidean(), Manhattan(), Chebyshev()], ids=lambda m: m.kind)
def test_norm_metrics_name_a_ragged_point_list(metric):
    # numpy raised "setting an array element with a sequence..."
    message = f"^{re.escape(f'{metric.kind} metric requires points of one dimension, got (0.0,) and (0.0, 1.0)')}$"
    # a canonical list as it is, and one canonicalized first
    for xs, ys in [([(0.0,), (0.0, 1.0)], [(0.0,)]), ([(0.0,)], [(0,), (0, 1)])]:
        with pytest.raises(ValueError, match=message):
            metric.pairwise(xs, ys)
    # a measure may hold atoms of two dimensions, and kantorovich does not
    # check its support against the space
    mu = FiniteMeasure([(0.0,), (0.0, 1.0)], [0.5, 0.5])
    with pytest.raises(ValueError, match=message):
        kantorovich(GroundSpace([(0.0,), (1.0,)], metric), mu, dirac((1.0,)))


def test_cap_must_be_positive_and_not_nan():
    # cap <= 0 let NaN through: Euclidean(cap=nan) gave NaN distances
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="cap must be a positive real"):
            Euclidean(cap=bad)
    unbounded = Euclidean(cap=float("inf"))
    pts = [(0.0, 0.0), (3.0, 4.0)]
    assert unbounded((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert GroundSpace(pts, unbounded).diameter() == 5.0


def test_cap_truncates():
    d = Euclidean(cap=2.0)
    assert d((0,), (10,)) == 2.0
    assert d((0,), (1,)) == 1.0


def test_max_with_zero_and_idempotence():
    d = Discrete()
    combined = MaxMetric([d, ZeroMetric()])
    assert combined("x", "y") == 1.0
    same = MaxMetric([d, d])
    assert same("x", "y") == d("x", "y")


def test_max_combine_needs_a_pseudometric():
    with pytest.raises(ValueError, match="^max combination needs at least one pseudometric$"):
        MaxMetric([])


def test_max_of_axis_distances_is_chebyshev():
    # pointwise comparison over a random sample of pairs
    p1 = PullbackMetric(coordinate_projection([0]), Euclidean())
    p2 = PullbackMetric(coordinate_projection([1]), Euclidean())
    combined = MaxMetric([p1, p2])
    cheb = Chebyshev()
    rng = np.random.default_rng(7)
    for x, y in zip(rng.random((50, 2)), rng.random((50, 2))):
        assert combined(tuple(x), tuple(y)) == pytest.approx(cheb(tuple(x), tuple(y)), abs=GEOM_TOL)


def test_max_combine_rejects_incompatible_tables():
    t1 = TableMetric(["a", "b"], [[0, 1], [1, 0]])
    t2 = TableMetric(["a", "c"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="incompatible"):
        MaxMetric([t1, t2])


def test_max_combine_compares_table_points_under_point_identity():
    # each table answers lookups for the other's points, so the sets agree
    t1 = TableMetric([(0.0,), (1.0,)], [[0, 1], [1, 0]])
    t2 = TableMetric([(1e-13,), (1.0,)], [[0, 2], [2, 0]])
    combined = MaxMetric([t1, t2])
    assert combined((0.0,), (1.0,)) == combined((1e-13,), (1.0,)) == 2.0
    # one point set covering the other is not enough: both directions count
    t3 = TableMetric([(0.0,), (1.0,), (2.0,)], np.abs(np.subtract.outer([0, 1, 2], [0, 1, 2])))
    for parts in ([t1, t3], [t3, t1]):
        with pytest.raises(ValueError, match="incompatible"):
            MaxMetric(parts)


def test_max_combine_commutative_associative():
    rng = np.random.default_rng(3)
    a, b, c = Euclidean(), Manhattan(), Discrete()
    for x, y in zip(rng.random((20, 2)), rng.random((20, 2))):
        x, y = tuple(x), tuple(y)
        assert MaxMetric([a, b])(x, y) == MaxMetric([b, a])(x, y)
        assert MaxMetric([MaxMetric([a, b]), c])(x, y) == pytest.approx(
            MaxMetric([a, MaxMetric([b, c])])(x, y), abs=GEOM_TOL
        )


def test_pullback_special_cases():
    p = Euclidean()
    const = PullbackMetric(lambda _: (0.0,), p)
    assert const((1, 2), (5, 9)) == 0.0
    ident = PullbackMetric(lambda q: q, p)
    rng = np.random.default_rng(11)
    for x, y in zip(rng.random((20, 2)), rng.random((20, 2))):
        assert ident(tuple(x), tuple(y)) == p(tuple(x), tuple(y))
    first = PullbackMetric(coordinate_projection([0]), Euclidean())
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
        MaxMetric([Euclidean(), Manhattan()]),
        PullbackMetric(coordinate_projection([1]), Euclidean()),
    ]
    for m in metrics:
        validate_pseudometric(pts, m)  # must not raise


def test_axiom_check_sampled_above_threshold():
    # 80 points were once above a 64-point threshold and only sampled;
    # every pair and triple is checked now
    rng = np.random.default_rng(1)
    pts = [tuple(p) for p in rng.random((80, 2))]
    validate_pseudometric(pts, Manhattan())

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
    p = PullbackMetric(coordinate_projection([0]), Euclidean())
    space = GroundSpace([(0, 1), (0, 2), (1, 0)], p)
    q, proj = quotient(space, p)
    assert q.points == ((0.0, 1.0), (1.0, 0.0))
    assert q.metric(q.points[0], q.points[1]) == pytest.approx(1.0, abs=GEOM_TOL)
    assert proj((0, 2)) == (0.0, 1.0)
    # a point within tolerance of (0, 2), but not equal to it, maps as it does
    assert proj((0, 2 + 5e-13)) == (0.0, 1.0)
    # quotient metric is a genuine metric: distinct classes at positive distance
    for i, a in enumerate(q.points):
        for j, b in enumerate(q.points):
            if i != j:
                assert q.metric(a, b) > GEOM_TOL


def test_quotient_projection_rejects_a_point_outside_the_space():
    space = GroundSpace([(0.0,), (1.0,)], Euclidean())
    _, proj = quotient(space, Euclidean())
    with pytest.raises(ValueError, match=r"^point \(5\.0,\) does not belong to the quotient domain$"):
        proj((5.0,))


def test_quotient_rejects_non_pseudometric():
    class Lopsided(GroundMetric):
        def _raw(self, x, y):
            return abs(x[0] - y[0]) + (0.5 if x < y else 0.0)

    space = GroundSpace([(0.0,), (1.0,)], Euclidean())
    with pytest.raises(MetricAxiomError):
        quotient(space, Lopsided())


def test_quotient_evaluates_the_pseudometric_once(monkeypatch):
    p = PullbackMetric(coordinate_projection([0]), Euclidean())
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



def _ref_pair_faults(d, pts, tol=GEOM_TOL):
    """The message of the first violation of the finiteness, sign,
    self-distance and symmetry checks, read entry by entry, or None."""
    rows, n = d.tolist(), len(pts)
    if not np.isfinite(d).all():
        return "distances must be finite, got a non-finite entry"
    for i in range(n):
        for j in range(n):
            if rows[i][j] < -tol:
                return f"negative distance for {pts[i]!r}, {pts[j]!r}"
    for i in range(n):
        if abs(rows[i][i]) > tol:
            return f"nonzero self-distance at {pts[i]!r}"
    for i in range(n):
        for j in range(n):
            if abs(rows[i][j] - rows[j][i]) > tol:
                return f"asymmetric distance for {pts[i]!r}, {pts[j]!r}"
    return None


def ref_axiom_check(d, pts, tol=GEOM_TOL):
    """The message of the first axiom violation in ``d``, the distance matrix
    of ``pts``, from a plain loop over every pair and then every triple
    (middle point k, then ends i, j in row-major order), or None."""
    fault = _ref_pair_faults(d, pts, tol)
    if fault is not None:
        return fault
    rows, n = d.tolist(), len(pts)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j] + tol:
                    return f"triangle inequality violated on {pts[i]!r}, {pts[k]!r}, {pts[j]!r}"
    return None


class _Rule(GroundMetric):
    """A user metric defined entrywise by ``rule(x, y)``."""

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def _raw(self, x, y):
        return self.rule(x, y)


def _checks(pts, metric):
    """Both pseudometric checks of ``metric`` on ``pts``."""
    return lambda: validate_pseudometric(pts, metric), lambda: quotient(GroundSpace(pts, metric), metric)


def test_every_triple_is_checked_above_64_points():
    # |x - y| on 0..99 but one long edge: 196 triples break the triangle,
    # and the 1,000 triples once sampled above 64 points missed them all
    pts = [(float(x),) for x in range(100)]
    long_edge = _Rule(lambda x, y: 99.5 if {x[0], y[0]} == {0.0, 99.0} else abs(x[0] - y[0]))
    for check in _checks(pts, long_edge):
        with pytest.raises(MetricAxiomError) as info:
            check()
        assert str(info.value) == "triangle inequality violated on (0.0,), (1.0,), (99.0,)"


AXIOM_CASES = [
    Euclidean(),
    PullbackMetric(lambda p: p[:1], Manhattan()),
    _Rule(lambda x, y: -abs(x[0] - y[0])),
    _Rule(lambda x, y: abs(x[0] - y[0]) + (0.5 if x < y and x[1] > 0.9 else 0.0)),
    _Rule(lambda x, y: 0.0 if x != y or x[0] < 0.95 else 0.25),
    _Rule(lambda x, y: (x[0] - y[0]) ** 2),
]


@pytest.mark.parametrize("metric", AXIOM_CASES)
def test_axiom_check_reads_one_matrix_and_matches_the_triple_loop(monkeypatch, metric):
    # the same verdict and the same first violation as a loop over every
    # pair and triple, from one pairwise matrix
    pts = [tuple(p) for p in np.random.default_rng(5).random((100, 2)).tolist()]
    expected = ref_axiom_check(metric.pairwise(pts, pts), pts)
    calls = 0
    original = type(metric).pairwise

    def counting(self, xs, ys):
        nonlocal calls
        calls += 1
        return original(self, xs, ys)

    monkeypatch.setattr(type(metric), "pairwise", counting)
    for check in _checks(pts, metric):
        calls = 0
        if expected is None:
            check()
        else:
            with pytest.raises(MetricAxiomError) as info:
                check()
            assert str(info.value) == expected
        assert calls == 1
    if expected is None:
        assert quotient(GroundSpace(pts, metric), metric)[0].metric is metric


def test_axiom_check_rejects_non_finite_distances():
    # every comparison with NaN is false, so a check built from comparisons
    # alone passes it
    pts = [tuple(p) for p in np.random.default_rng(6).random((100, 2)).tolist()]
    nan_metric = _Rule(lambda x, y: 0.0 if x == y else float("nan"))
    for check in _checks(pts, nan_metric):
        with pytest.raises(MetricAxiomError, match="finite"):
            check()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_axiom_check_names_injected_pair_faults(data):
    # a metric on 1 to 6 points of a line with one to three faults injected:
    # a negative entry, a nonzero self-distance or an asymmetric pair
    n = data.draw(st.integers(1, 6))
    x = np.array(data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    pts = [f"p{i}" for i in range(n)]
    kinds = ["negative", "self", "asymmetric"] if n > 1 else ["self"]
    faults = data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    sizes = st.sampled_from([0.5, 1.0, 2.0, 1e6]) | st.floats(1e-9, 10.0)
    for kind in faults:
        size = data.draw(sizes) * GEOM_TOL
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=n > 1))
        if kind == "negative":
            d[i, j] = -size
            if data.draw(st.booleans()):
                d[j, i] = -size
        elif kind == "self":
            d[i, i] = size
        else:
            d[i, j] += size
    expected = ref_axiom_check(d, pts)
    if len(faults) == 1 and size > GEOM_TOL:
        prefix = {"negative": "negative", "self": "nonzero self", "asymmetric": "asymmetric"}
        assert expected is not None and expected.startswith(prefix[kind])
    try:
        ground._validate_matrix_axioms(d, pts)
    except MetricAxiomError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_ground_space_invariants():
    with pytest.raises(ValueError, match="unique"):
        GroundSpace(["a", "a"], Discrete())
    with pytest.raises(ValueError, match="dimension"):
        GroundSpace([(0.0,), (0.0, 1.0)], Euclidean())
    space = GroundSpace([(0, 0), (3, 4), (1, 1)], Euclidean())
    assert space.diameter() == pytest.approx(5.0, abs=GEOM_TOL)
    assert (3.0, 4.0) in space and (9.0, 9.0) not in space
    assert list(space) == [(0.0, 0.0), (3.0, 4.0), (1.0, 1.0)]
    assert repr(space) == "<GroundSpace 3 points, metric='euclidean'>"


def test_ground_space_needs_a_point():
    with pytest.raises(ValueError, match="^a ground space needs at least one point$"):
        GroundSpace([], Euclidean())


def test_ground_space_rejects_points_equal_within_tolerance():
    # every measure merges (0.0,) and (1e-13,) into one atom
    repeat = r"^ground space points must be unique, got "
    with pytest.raises(ValueError, match=repeat + r"\(0\.0,\) and \(1e-13,\)$"):
        GroundSpace([(0.0,), (1e-13,)], Euclidean())
    pair = r"\('a', \(1\.0,\)\) and \('a', \(1\.0000000000005,\)\)$"
    with pytest.raises(ValueError, match=repeat + pair):
        GroundSpace([("a", (1.0,)), ("b", (1.0,)), ("a", (1.0 + 5e-13,))], Discrete())
    space = GroundSpace([(0.0,), (2e-12,)], Euclidean())
    assert len(space) == 2 and (1e-13,) in space


def test_ground_space_rejects_non_finite_coordinates():
    for bad in [(float("nan"),), (float("inf"),), ("a", (float("-inf"),))]:
        with pytest.raises(ValueError, match="coordinates must be finite"):
            GroundSpace([(0.0,), bad] if len(bad) == 1 else [("a", (0.0,)), bad], Euclidean())
    space = GroundSpace([(0.0,), (1.0,)], Euclidean())
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


def test_every_spec_kind_loads_to_the_metric_built_directly():
    # each row: a spec, the metric built directly, and points it is defined on
    table = {"points": LABEL_PTS, "d": LABEL_TABLE}
    rows = [
        ({"kind": "euclidean"}, Euclidean(), COORD_PTS),
        ({"kind": "manhattan"}, Manhattan(), COORD_PTS),
        ({"kind": "chebyshev"}, Chebyshev(), COORD_PTS),
        ({"kind": "discrete"}, Discrete(), LABEL_PTS),
        ({"kind": "zero"}, ZeroMetric(), COORD_PTS),
        ({"kind": "table", **table}, TableMetric(LABEL_PTS, LABEL_TABLE), LABEL_PTS),
        (
            {"kind": "pullback", "coords": [1], "inner": {"kind": "manhattan"}},
            PullbackMetric(coordinate_projection([1]), Manhattan()),
            COORD_PTS,
        ),
        (
            {"kind": "max", "of": ["euclidean", {"kind": "chebyshev", "cap": 2.0}]},
            MaxMetric([Euclidean(), Chebyshev(cap=2.0)]),
            COORD_PTS,
        ),
        ({"kind": "table", **table, "cap": 1.25}, TableMetric(LABEL_PTS, LABEL_TABLE, cap=1.25), LABEL_PTS),
    ]
    assert {spec["kind"] for spec, _, _ in rows} == set(ground._SPEC_KINDS)
    for spec, metric, pts in rows:
        forms = [spec, json.dumps(spec)]
        if spec.keys() == {"kind"}:
            forms.append(spec["kind"])
        for form in forms:
            loaded = metric_from_spec(form)
            assert type(loaded) is type(metric) and loaded.cap == metric.cap
            assert loaded.pairwise(pts, pts).tobytes() == metric.pairwise(pts, pts).tobytes(), form


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
    ]
    yield LABEL_PTS, [
        Discrete(cap=cap),
        ZeroMetric(cap=cap),
        label_table,
        PullbackMetric(to_plane, Euclidean(), cap=cap),
        MaxMetric([Discrete(), TableMetric(LABEL_PTS, LABEL_TABLE)], cap=cap),
    ]
    yield PRODUCT_PTS, [
        Discrete(cap=cap),
        ZeroMetric(cap=cap),
        product_table,
        PullbackMetric(lambda p: p[0], Euclidean(), cap=cap),
        MaxMetric([Discrete(), product_table], cap=cap),
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
        "euclidean", "manhattan", "chebyshev", "discrete", "zero", "table", "pullback", "max"
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


def test_every_metric_rejects_malformed_points():
    # the zero metric reads no coordinate, yet it refuses what is no point
    assert ZeroMetric().pairwise([0, "a"], [[1, 2]]).shape == (2, 1)
    table = TableMetric([(0.0,), (1.0,)], [[0.0, 1.0], [1.0, 0.0]])
    for m in [
        ZeroMetric(),
        MaxMetric([ZeroMetric()]),
        Euclidean(),
        Discrete(),
        table,
        PullbackMetric(lambda p: p, Manhattan()),
    ]:
        with pytest.raises(TypeError, match="a boolean is not a point"):
            m.pairwise([True], [object()])
        with pytest.raises(TypeError, match="cannot interpret"):
            m.pairwise([object()], [None])
        with pytest.raises(TypeError, match="a boolean is not a point"):
            m((0.0,), True)


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
    assert q.metric((0.0, 1.0), (4.0, 4.0)) == 2.5


def _k_loop_axioms(d, pts, tol=GEOM_TOL):
    """The axiom check with the triangle inequality read one middle point at
    a time; the message of the first violation, or None."""
    fault = _ref_pair_faults(d, pts, tol)
    if fault is not None:
        return fault
    for k in range(d.shape[0]):
        bad = d > d[:, [k]] + d[[k], :] + tol
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return f"triangle inequality violated on {pts[i]!r}, {pts[k]!r}, {pts[j]!r}"
    return None


def _axiom_outcome(d, pts):
    try:
        ground._validate_matrix_axioms(d, pts)
    except MetricAxiomError as exc:
        return str(exc)
    return None


def _perturbed_tables(rng, n):
    """Tables whose triangle bounds are tight, each with a pair (i, j) whose
    distance the caller moves by a multiple of the tolerance, to land on
    both sides of it. On dyadic points of a line every point in between is
    a witness; in a star (distance 2, or 1 to the hub) only the hub is, at
    every position."""
    x = rng.integers(0, 4 * n, n) / 4.0
    yield np.abs(x[:, None] - x[None, :]), *rng.choice(n, 2, replace=False)
    for hub in range(n if n > 2 else 0):
        star = 2.0 - np.eye(n) * 2.0
        star[hub, :] = star[:, hub] = 1.0
        star[hub, hub] = 0.0
        yield star, *rng.choice([k for k in range(n) if k != hub], 2, replace=False)


@pytest.mark.parametrize("block", [None, 1, 100, 1000])
def test_blocked_triangle_check_rejects_what_the_k_loop_rejects(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(ground, "TRIANGLE_BLOCK", block)
    rng = np.random.default_rng(8)
    sizes = [2, 3, 5, 8, 13] * 8 + ([70] if block is None else [])
    outcomes = set()
    for n in sizes:
        pts = [(float(p),) for p in range(n)]
        for d, i, j in _perturbed_tables(rng, n):
            d[i, j] += rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 4.0]) * GEOM_TOL
            d[j, i] = d[i, j]
            expected = _k_loop_axioms(d, pts)
            assert _axiom_outcome(d, pts) == expected, (n, i, j)
            outcomes.add(expected and expected.split(" on ")[0])
    assert outcomes == {None, "triangle inequality violated"}
    if block is None:
        # 70 points are more than one block of middle points
        assert 70 > ground.TRIANGLE_BLOCK // 70**2
