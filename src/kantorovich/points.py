"""Point representation shared by ground spaces and measures.

A point is one of three shapes:

* a label: a plain ``str``, used with explicit distance tables,
* a coordinate point: a tuple of floats,
* a product point: a tuple whose entries are themselves points, as
  produced by tensor products and couplings.

All public constructors canonicalize their inputs through :func:`as_point`,
so the rest of the library can assume points are already in one of these
shapes. Coordinate comparison is tolerant (``COORD_TOL``) because
pushforwards of float coordinates produce near-duplicates.
"""

from __future__ import annotations

from typing import Any, Union

import numpy as np

Point = Union[str, tuple]

#: Absolute per-coordinate tolerance for treating two coordinate points as
#: the same point.
COORD_TOL = 1e-12

_NUMBER_TYPES = (int, float, np.integer, np.floating)


def as_point(obj: Any) -> Point:
    """Canonicalize ``obj`` into a point.

    Strings stay labels, numbers become 1-dimensional coordinate points,
    sequences of numbers become coordinate tuples, and any other sequence
    becomes a product point with each entry canonicalized recursively.
    A canonical coordinate point is returned as it is.
    """
    if type(obj) is tuple and obj and all(type(e) is float for e in obj):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, bool):
        raise TypeError("a boolean is not a point")
    if isinstance(obj, _NUMBER_TYPES):
        return (float(obj),)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            raise ValueError("a point cannot be empty")
        if all(isinstance(e, _NUMBER_TYPES) and not isinstance(e, bool) for e in obj):
            return tuple(float(e) for e in obj)
        return tuple(as_point(e) for e in obj)
    raise TypeError(f"cannot interpret {obj!r} as a point")


def is_coordinate(p: Point) -> bool:
    """True for canonical coordinate points (tuples of floats)."""
    return isinstance(p, tuple) and all(isinstance(e, float) for e in p)


def coordinates(p: Point) -> np.ndarray:
    """Coordinate vector of a coordinate point."""
    q = as_point(p)
    if not is_coordinate(q):
        raise ValueError(f"{p!r} is not a coordinate point")
    return np.asarray(q, dtype=float)


def points_equal(p: Point, q: Point, tol: float = COORD_TOL) -> bool:
    """Point identity: label equality, or coordinates within ``tol``.

    Product points compare entrywise. Points of different shapes are
    never equal.
    """
    if isinstance(p, str) or isinstance(q, str):
        return p == q
    if len(p) != len(q):
        return False
    p_coord = is_coordinate(p)
    if p_coord != is_coordinate(q):
        return False
    if p_coord:
        return all(abs(a - b) <= tol for a, b in zip(p, q))
    return all(points_equal(a, b, tol) for a, b in zip(p, q))


def point_to_json(p: Point):
    """JSON form: labels as strings, coordinates as lists, products nested."""
    if isinstance(p, str):
        return p
    if is_coordinate(p):
        return list(p)
    return [point_to_json(e) for e in p]


def point_from_json(obj: Any) -> Point:
    return as_point(obj)
