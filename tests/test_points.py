import numpy as np
import pytest

from kantorovich.points import (
    as_point,
    as_points,
    coordinates,
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
