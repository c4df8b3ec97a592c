import re

import numpy as np
import pytest

from kantorovich.ground import (
    Chebyshev,
    Discrete,
    Euclidean,
    GroundSpace,
    Manhattan,
    MaxMetric,
    PullbackMetric,
    TableMetric,
    ZeroMetric,
    coordinate_projection,
)
from kantorovich.measures import FiniteMeasure, dirac
from kantorovich.monad import ConvexSpace, reweight_series_check
from kantorovich.points import (
    PointIndex,
    as_point,
    as_points,
    coordinates,
    distinct_points,
    is_coordinate,
    point_to_json,
    points_equal,
)


def test_canonical_forms():
    assert as_point("a") == "a"
    assert as_point(3) == (3.0,)
    assert as_point([1, 2]) == (1.0, 2.0)
    assert as_point(np.array([0.5, 0.25])) == (0.5, 0.25)
    assert as_point([[0], [1]]) == ((0.0,), (1.0,))


def test_pair_points_stay_distinct_from_coordinates():
    pair = as_point([[0.0], [1.0]])
    coord = as_point([0.0, 1.0])
    assert not points_equal(pair, coord)
    assert is_coordinate(coord) and not is_coordinate(pair)


def test_tolerant_equality():
    assert points_equal((0.0, 1.0), (0.0, 1.0 + 1e-13))
    assert not points_equal((0.0, 1.0), (0.0, 1.0 + 1e-6))
    assert points_equal("a", "a") and not points_equal("a", "b")
    assert not points_equal("a", (1.0,))


def test_points_equal_canonicalizes_its_arguments():
    # integer coordinates used to raise "object of type 'int' has no len()"
    assert points_equal((0, 1), (0, 1))
    assert points_equal([0, 1], (0.0, 1.0 + 1e-13))
    assert points_equal(np.array([2.0]), 2) and not points_equal(2, 3)
    assert points_equal([[0], "a"], ((0.0,), "a"))


def test_json_round_trip():
    for p in ["a", (1.0, 2.0), ((0.0,), "b")]:
        assert as_point(point_to_json(p)) == p


def test_rejects_non_points():
    with pytest.raises(TypeError):
        as_point(True)
    with pytest.raises(TypeError):
        as_point({"x": 1})
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(ValueError):
        coordinates("a")


def test_zero_dimensional_arrays_are_numbers():
    # a 0-d array's .tolist() is a scalar, which used to miss the number branch
    assert as_point(np.array(5.0)) == (5.0,)
    assert as_point(np.array(2)) == (2.0,)
    with pytest.raises(TypeError, match="a boolean is not a point"):
        as_point(np.array(True))


def test_canonical_coordinate_point_returned_as_is():
    p = (0.5, 1.0)
    assert as_point(p) is p
    q = as_point((np.float64(1.0),))
    assert q == (1.0,) and all(type(e) is float for e in q)
    assert as_point((1, 2.5)) == (1.0, 2.5)


def test_canonical_point_list_returned_as_is():
    pts = [(0.5, 1.0), (2.0, 3.0)]
    assert as_points(pts) is pts
    assert as_points(tuple(pts)) == tuple(pts)
    assert as_points([(0, 1), "a", [[0], [1]]]) == [(0.0, 1.0), "a", ((0.0,), (1.0,))]
    # a one-shot iterable is read once, and a numpy array row by row
    assert as_points(p for p in pts) == pts
    assert as_points(np.array(pts)) == pts
    with pytest.raises(TypeError, match="a boolean is not a point"):
        as_points([(0.0,), True])


# entries that take a list of points, each fed the list ``pts``
POINT_LIST_ENTRIES = {
    "as_points": as_points,
    "distinct_points": distinct_points,
    "PointIndex": PointIndex,
    "FiniteMeasure": lambda pts: FiniteMeasure(pts, [0.5, 0.5]),
    "GroundSpace": lambda pts: GroundSpace(pts, Discrete()),
    "TableMetric": lambda pts: TableMetric(pts, [[0.0, 1.0], [1.0, 0.0]]),
}


@pytest.mark.parametrize("entry", POINT_LIST_ENTRIES)
def test_a_string_is_one_label_not_a_list_of_points(entry):
    # "ab" was read as the labels "a" and "b"
    make = POINT_LIST_ENTRIES[entry]
    with pytest.raises(TypeError, match="^expected a list of points, got the string 'ab'$"):
        make("ab")
    # a list of the two labels, or of the one label "ab", is fine
    make(["a", "b"])
    assert as_points(["ab"]) == ["ab"]


_SPACE = GroundSpace([(0.0,), (1.0,)], Discrete())
_METRICS = [
    Euclidean(),
    Manhattan(),
    Chebyshev(),
    Discrete(),
    TableMetric([(0.0,), (1.0,)], [[0.0, 1.0], [1.0, 0.0]]),
    PullbackMetric(coordinate_projection([0]), Euclidean()),
    MaxMetric([Euclidean(), Discrete()]),
    ZeroMetric(),
]
# every public entry that takes a point, each fed the point ``x``
POINT_ENTRIES = {
    "as_point": as_point,
    "dirac": dirac,
    "FiniteMeasure, weight 0": lambda x: FiniteMeasure([(0.0,), x], [1.0, 0.0]),
    "FiniteMeasure, weight 1": lambda x: FiniteMeasure([x], [1.0]),
    "GroundSpace": lambda x: GroundSpace([x], Discrete()),
    "x in space": lambda x: x in _SPACE,
    "PointIndex.find": PointIndex([(0.0,)]).find,
    "PointIndex.matches": PointIndex([(0.0,)]).matches,
    "points_equal": lambda x: points_equal(x, x),
    **{f"{type(m).__name__}.pairwise": lambda x, m=m: m.pairwise([x], [x]) for m in _METRICS},
    **{f"{type(m).__name__}.__call__": lambda x, m=m: m(x, x) for m in _METRICS},
    "coordinates": coordinates,
    "coordinate_projection": coordinate_projection([0]),
    "ConvexSpace.combine, which barycenter calls": lambda x: ConvexSpace(1).combine([x], [1.0]),
    "reweight_series_check": lambda x: reweight_series_check([x, x], [0.5, 0.5], 0, [1.0, 1.0]),
}
# each point and the coordinate point its error names; the last two take
# the list and array branches of as_point, not its fast path for tuples
NON_FINITE = [
    ((np.nan,), "(nan,)"),
    ((0.0, np.inf), "(0.0, inf)"),
    (("a", (-np.inf,)), "(-inf,)"),
    ([0, np.nan], "(0.0, nan)"),
    (np.array([np.inf]), "(inf,)"),
]


@pytest.mark.parametrize("entry", POINT_ENTRIES)
@pytest.mark.parametrize("point, named", NON_FINITE, ids=[n for _, n in NON_FINITE])
def test_every_point_entry_rejects_non_finite_coordinates(entry, point, named):
    # as_point is the one gate: d(x, x) was 1.0 under Discrete, Euclidean
    # returned nan, and lookups matched nothing
    with pytest.raises(ValueError, match=f"^{re.escape(f'coordinates must be finite, got {named}')}$"):
        POINT_ENTRIES[entry](point)
