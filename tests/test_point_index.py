"""The hashed point index against the quadratic scans it replaced.

The ``ref_*`` functions are the scans as they stood before the index: every
new atom compared with every kept one. The index must return exactly what
they return, including which atom wins when several are within tolerance.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kantorovich import points, transport
from kantorovich.ground import Euclidean, GroundSpace
from kantorovich.measures import (
    FiniteMeasure,
    _merged_atoms,
    measure_deviation,
    measures_equal,
    mix,
)
from kantorovich.monad import flatten
from kantorovich.points import CELL, COORD_TOL, PointIndex, as_point, distinct_points, points_equal
from kantorovich.transport import cost_matrix, kantorovich


def ref_merged_atoms(atoms, weights):
    pts = [as_point(a) for a in atoms]
    w = np.asarray(list(weights), dtype=float)
    order, acc = [], {}
    for p, wi in zip(pts, w):
        if wi == 0.0:
            continue
        if p in acc:
            acc[p] += wi
        else:
            acc[p] = wi
            order.append(p)
    support, merged = [], []
    for p in order:
        for i, q in enumerate(support):
            if points_equal(p, q):
                merged[i] += acc[p]
                break
        else:
            support.append(p)
            merged.append(acc[p])
    return support, np.asarray(merged, dtype=float)


def ref_numpy_merged_atoms(atoms, weights):
    # the index-based merge as it stood with its weights validated and held in
    # numpy; the one-pass version over Python floats must match it byte for byte
    pts = [as_point(a) for a in atoms]
    w = np.asarray(list(weights), dtype=float)
    if len(pts) != len(w):
        raise ValueError(f"{len(pts)} atoms but {len(w)} weights")
    if not np.isfinite(w).all():
        raise ValueError("non-finite weight")
    if (w < 0).any():
        raise ValueError("negative weight")
    index = PointIndex()
    first, totals, slots = {}, [], []
    for p, wi in zip(pts, w):
        if wi == 0.0:
            continue
        k = first.get(p)
        if k is None:
            first[p] = len(totals)
            totals.append(wi)
            slots.append(index.find_or_add(p))
        else:
            totals[k] += wi
    merged = [0.0] * len(index.points)
    for i, t in zip(slots, totals):
        merged[i] += t
    return index, np.asarray(merged, dtype=float)


def ref_measures_equal(mu, eta, tol=1e-9):
    if mu is eta:
        return True
    if len(mu) != len(eta):
        return False
    used = [False] * len(eta)
    for p, w in mu.items():
        for j, (q, v) in enumerate(eta.items()):
            if not used[j] and points_equal(p, q):
                if abs(float(w) - float(v)) > tol:
                    return False
                used[j] = True
                break
        else:
            return False
    return True


def ref_measure_deviation(mu, eta):
    dev = 0.0
    used = [False] * len(eta)
    for p, w in mu.items():
        for j, (q, v) in enumerate(eta.items()):
            if not used[j] and points_equal(p, q):
                dev = max(dev, abs(float(w) - float(v)))
                used[j] = True
                break
        else:
            dev = max(dev, float(w))
    for j, (_, v) in enumerate(eta.items()):
        if not used[j]:
            dev = max(dev, float(v))
    return dev


def ref_dedup(pts):
    out = []
    for p in pts:
        if all(not points_equal(p, q) for q in out):
            out.append(p)
    return out


# coordinates near a few anchors: integers, cell edges (cells are centred on
# multiples of CELL, so their edges sit at odd multiples of CELL / 2), values
# so large that scaling them to cells overflows, and arbitrary floats; each
# moved by exactly nothing or by a fraction or multiple of the tolerance
EDGES = [CELL / 2, -CELL / 2, 7.5 * CELL]
ANCHORS = [0.0, 1.0, -3.0, 0.3, 2.0**40, 1.5e302, *EDGES]
OFFSETS = [0.0, COORD_TOL / 2, -COORD_TOL / 2, 0.9 * COORD_TOL, -0.9 * COORD_TOL,
           2 * COORD_TOL, -2 * COORD_TOL, 1.5 * COORD_TOL]
label = st.sampled_from(["a", "b", "c"])


@st.composite
def point_lists(draw, min_size=1, max_size=30):
    # one shape and two or three anchors per list, so exact repeats, near
    # duplicates and points on both sides of a cell edge are common
    anchors = draw(
        st.lists(
            st.one_of(st.sampled_from(EDGES), st.sampled_from(ANCHORS), st.floats(-10, 10)),
            min_size=2,
            max_size=3,
        )
    )
    coordinate = st.builds(lambda a, o: a + o, st.sampled_from(anchors), st.sampled_from(OFFSETS))

    def coordinate_points(dim):
        return st.tuples(*[coordinate] * dim)

    family = draw(
        st.sampled_from(
            [
                coordinate_points(1),
                coordinate_points(2),
                coordinate_points(3),
                label,
                st.tuples(st.one_of(label, coordinate_points(1)), coordinate_points(2)),
            ]
        )
    )
    pool = draw(st.lists(family, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size))


weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))


@st.composite
def merge_cases(draw):
    """Atoms, their weights, and the positions that cut them into parts."""
    pts = draw(point_lists())
    w = draw(st.lists(weight, min_size=len(pts), max_size=len(pts)))
    return pts, w, sorted(draw(st.lists(st.integers(0, len(pts)), max_size=3)))


def ref_shared_atoms(mu, eta):
    # the cut's rule as a scan: each atom of mu takes the earliest atom of
    # eta it equals, and a later row takes over an earlier row's column
    shared = {}
    for i, x in enumerate(mu.support):
        j = next((j for j, y in enumerate(eta.support) if points_equal(x, y)), None)
        if j is not None:
            shared[j] = i
    return shared


def _same_measure(a, b):
    return a.support == b.support and a.weights.tobytes() == b.weights.tobytes()


# two atoms within COORD_TOL on either side of the cell edge at CELL / 2
_BELOW, _ABOVE = CELL / 2 - 0.4 * COORD_TOL, CELL / 2 + 0.4 * COORD_TOL


@settings(max_examples=150, deadline=None)
@given(merge_cases())
@example(([(_BELOW,), (2.0,), (_ABOVE,)], [0.3, 0.3, 0.4], [1]))
@example((["a", "b", "a", "c"], [0.1, 0.2, 0.3, 0.4], [2]))
@example(([("a", (_BELOW, 1.0)), ("b", (0.0, 0.0)), ("a", (_ABOVE, 1.0))], [0.5, 0.2, 0.3], [1, 2]))
def test_merged_atoms_match_the_quadratic_scan(case):
    pts, w, cuts = case
    index, merged = _merged_atoms(pts, w)
    support, expected = ref_merged_atoms(pts, w)
    assert index.points == support
    assert merged.tobytes() == expected.tobytes()
    # the paths that hand on the bucket keys an index keeps: each part of
    # positive weight is a measure, and mix, flatten and the cut's lookups
    # must give what fresh keys give
    bounds = [0, *cuts, len(pts)]
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        total = sum(w[lo:hi])
        if total > 0.0:
            parts.append(FiniteMeasure(pts[lo:hi], [x / total for x in w[lo:hi]]))
    if not parts:
        return
    t = 1.0 / len(parts)
    fresh = FiniteMeasure(
        [p for mu in parts for p in mu.support], [t * x for mu in parts for x in mu.weights.tolist()]
    )
    assert _same_measure(mix([(t, mu) for mu in parts]), fresh)
    M = FiniteMeasure(parts, [t] * len(parts))
    inner = [(mu, float(s)) for mu, s in M.items()]
    fresh = FiniteMeasure(
        [p for mu, _ in inner for p in mu.support], [s * x for mu, s in inner for x in mu.weights.tolist()]
    )
    assert _same_measure(flatten(M), fresh)
    for mu in parts:
        for eta in parts:
            assert transport._shared_atoms(mu, eta) == ref_shared_atoms(mu, eta)


def test_merged_atoms_are_float64_when_empty():
    # with no atom kept, the weights are an empty float64 array, of the
    # dtype every other merge returns
    for pts, w in (([], []), ([(0.0,), (1.0,)], [0.0, 0.0])):
        index, merged = _merged_atoms(pts, w)
        assert index.points == [] and merged.dtype == np.float64 and merged.shape == (0,)


def _outcome(merge, pts, w):
    try:
        index, merged = merge(pts, w)
    except ValueError as exc:
        return "error", str(exc)
    return index.points, merged.tobytes()


# weights as the callers pass them: numpy arrays, lists of np.float64 (mix),
# Python floats and ints; zeros, and invalid entries that must raise the
# same error as before
bad_weight = st.sampled_from([math.nan, math.inf, -math.inf, -0.5, -0.0])
weight_entry = st.one_of(weight, st.integers(0, 3), bad_weight)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_merge_matches_the_numpy_validated_merge(data):
    pts = data.draw(point_lists())
    if data.draw(st.booleans()):
        # a non-finite coordinate, which raises before any weight error
        at = data.draw(st.integers(0, len(pts)))
        pts = pts[:at] + [(math.nan,)] + pts[at:]
    w = data.draw(
        st.lists(
            st.one_of(weight, bad_weight) if data.draw(st.booleans()) else weight_entry,
            min_size=len(pts),
            max_size=len(pts),
        )
    )
    for passed in (w, np.array(w, dtype=float), [np.float64(x) for x in w]):
        assert _outcome(_merged_atoms, pts, passed) == _outcome(ref_numpy_merged_atoms, pts, passed)


@settings(max_examples=150, deadline=None)
@given(point_lists())
def test_distinct_points_match_the_quadratic_scan(pts):
    assert distinct_points(pts) == ref_dedup(pts)


@settings(max_examples=150, deadline=None)
@given(point_lists(max_size=20))
def test_index_matches_are_the_scan_matches(pts):
    index = PointIndex(pts)
    for p in pts:
        assert index.matches(p) == [i for i, q in enumerate(pts) if points_equal(p, q)]


def _measure(pts, w):
    w = np.asarray(w, dtype=float) + 0.01
    return FiniteMeasure(pts, w / w.sum())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_measure_comparisons_match_the_quadratic_scan(data):
    pool = data.draw(point_lists(max_size=8))
    pts = [data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)) for _ in range(2)]
    ws = [data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.5]), min_size=len(p), max_size=len(p))) for p in pts]
    mu, eta = (_measure(p, w) for p, w in zip(pts, ws))
    mu_reversed = FiniteMeasure(mu.support[::-1], mu.weights[::-1])
    for a, b in [(mu, eta), (eta, mu), (mu, mu_reversed), (mu_reversed, mu), (mu, mu)]:
        assert measures_equal(a, b) == ref_measures_equal(a, b)
        assert measure_deviation(a, b) == ref_measure_deviation(a, b)


def test_merging_distinct_points_makes_linearly_many_comparisons(monkeypatch):
    calls = 0
    original = points._points_equal

    def counting(p, q):
        nonlocal calls
        calls += 1
        return original(p, q)

    monkeypatch.setattr(points, "_points_equal", counting)
    n = 2000
    rng = np.random.default_rng(3)
    pts = [tuple(row) for row in rng.random((n, 3)).tolist()]
    # every point also appears moved by half the tolerance, so each of the
    # n near duplicates needs one comparison to merge
    near = [(x + COORD_TOL / 2, y, z) for x, y, z in pts]
    index, w = _merged_atoms(pts + near, np.full(2 * n, 1.0 / (2 * n)))
    assert len(index.points) == n
    # the index compares through _points_equal, so the count is not vacuous
    assert 1 <= calls <= 2 * n  # the scan it replaced makes about n * n / 2


def _count_calls(monkeypatch, module, name) -> list:
    """The argument tuples of every call of ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _grid_measures():
    space = GroundSpace([(float(i), float(j)) for i in range(3) for j in range(3)], Euclidean())
    mu = FiniteMeasure(space.points[:5], [0.1, 0.2, 0.3, 0.2, 0.2])
    eta = FiniteMeasure(space.points[3:], [0.25, 0.25, 0.2, 0.1, 0.1, 0.1])
    return space, mu, eta


def test_a_cost_matrix_of_two_supports_makes_no_validation_pass(monkeypatch):
    # a support is canonical by construction, so no coordinate is checked again
    space, mu, eta = _grid_measures()
    checked = _count_calls(monkeypatch, points, "isfinite")
    canonicalized = _count_calls(monkeypatch, points, "as_point")
    C = cost_matrix(space, mu.support, eta.support)
    assert (checked, canonicalized) == ([], [])
    # the same points in plain lists are checked, so the count is not vacuous
    assert (cost_matrix(space, list(mu.support), list(eta.support)) == C).all()
    assert checked


def test_a_support_takes_the_memory_of_a_plain_tuple():
    # a coupling keeps both supports, so a support may weigh no more than a tuple
    space, mu, eta = _grid_measures()
    coupling = kantorovich(space, mu, eta).coupling
    for pts in (mu.support, space.points, coupling.rows, coupling.cols):
        assert sys.getsizeof(pts) == sys.getsizeof(tuple(pts))


def test_flatten_reuses_the_bucket_keys_its_parts_hold(monkeypatch):
    # every atom of a part is indexed already, near duplicates across the
    # parts included, so merging them derives no bucket key
    a = FiniteMeasure([(_BELOW,), (1.0,), (2.0,)], [0.2, 0.3, 0.5])
    b = FiniteMeasure([(_ABOVE,), (2.0,), "x"], [0.5, 0.25, 0.25])
    M = FiniteMeasure([a, b], [0.5, 0.5])
    cells = _count_calls(monkeypatch, points, "_cells")
    flat = flatten(M)
    assert cells == []
    assert flat.support == ((_BELOW,), (1.0,), (2.0,), "x")
    # the constructor derives the keys of the same atoms, so the count is not vacuous
    atoms = [*a.support, *b.support]
    assert _same_measure(FiniteMeasure(atoms, [0.1, 0.15, 0.25, 0.25, 0.125, 0.125]), flat)
    assert cells


def test_a_lookup_reads_only_the_bucket_of_its_own_cell(monkeypatch):
    # a and the query are near the cell edge at CELL / 2, on one side of it;
    # b is across the edge and too far from it to be filed under a's cell
    a = (CELL / 2 - 0.5 * COORD_TOL,)
    b = (CELL / 2 + 3 * COORD_TOL,)
    q = (CELL / 2 - 1.5 * COORD_TOL,)
    index = PointIndex([a, b])
    calls = 0
    original = points._points_equal

    def counting(p, r):
        nonlocal calls
        calls += 1
        return original(p, r)

    monkeypatch.setattr(points, "_points_equal", counting)
    assert index.matches(q) == [0]
    assert calls == 1  # a scan of b's bucket too would make 2


def test_huge_finite_coordinates_still_index():
    # finite coordinates too large to scale into cells
    big = (1.5e302, 1.0)
    assert PointIndex([big]).find((1.5e302, 1.0 + COORD_TOL / 2)) == 0


def test_lookups_canonicalize_the_query():
    index = PointIndex([(0.0, 1.0)])
    assert index.find([0, 1]) == 0
    assert index.find(np.array([0.0, 1.0])) == 0
    assert index.matches((0, 1.0 + COORD_TOL / 2)) == [0]
    with pytest.raises(ValueError, match="a point cannot be empty"):
        index.find([])
    with pytest.raises(TypeError, match="a boolean is not a point"):
        index.find(True)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_the_constructor_canonicalizes_and_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match=r"^coordinates must be finite, got "):
        PointIndex([(bad,)])
    assert PointIndex([(0, 1), [2, 3.0]]).points == [(0.0, 1.0), (2.0, 3.0)]


def test_distinct_points_canonicalize_their_input():
    assert distinct_points([(0, 1), (0.0, 1.0)]) == [(0.0, 1.0)]
    assert distinct_points(p for p in [(0, 1), (0.0, 1.0 + COORD_TOL / 2)]) == [(0.0, 1.0)]
    with pytest.raises(ValueError, match=r"^coordinates must be finite, got \(nan,\)$"):
        distinct_points([(0.0,), (math.nan,)])
