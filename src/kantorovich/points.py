"""Point representation shared by ground spaces and measures.

A point is one of three shapes:

* a label: a plain ``str``, used with explicit distance tables,
* a coordinate point: a tuple of floats,
* a product point: a tuple whose entries are themselves points, as
  produced by tensor products and couplings.

Points are canonicalized and validated in this module alone: by
:func:`as_point`, by :func:`as_points` for a list, and by
:class:`PointIndex`, :func:`distinct_points` and :func:`points_equal`,
so the rest of the library can assume points are already in one of these
shapes. A coordinate that is NaN or infinite is at no distance from
anything, so a point that has one is not a point: canonicalization raises
``ValueError("coordinates must be finite, got <point>")``. Coordinate
comparison is tolerant (``COORD_TOL``) because
pushforwards of float coordinates produce near-duplicates.
:class:`PointIndex` finds tolerant matches through hash buckets instead of
a scan over every stored point: a point near a cell edge is filed under
each neighbouring cell too, so a lookup reads one bucket.

A point is checked once and then handed on in its canonical form. The
points an index holds come back from :meth:`PointIndex.frozen` as a
:class:`PointTuple`, which only this module builds, and :func:`as_points`
returns one as it is, without a pass over its coordinates: a measure's
support and a space's points are such tuples. :func:`_cells` remembers
the bucket keys of the points it keyed last, so a point that is looked up
again and again is keyed once, and no caller hands keys on. The memo is a
bounded ``functools.lru_cache``, which is thread-safe: concurrent lookups
may key a point twice, never wrongly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product
from math import floor, isfinite
from typing import Any, Hashable, Iterable, Sequence, Union

import numpy as np

Point = Union[str, tuple]

#: Absolute per-coordinate tolerance for treating two coordinate points as
#: the same point.
COORD_TOL = 1e-12

_NUMBER_TYPES = (int, float, np.integer, np.floating)
_TUPLE = frozenset((tuple,))
_FLOAT = frozenset((float,))


def as_point(obj: Any) -> Point:
    """Canonicalize ``obj`` into a point.

    Strings stay labels, numbers become 1-dimensional coordinate points,
    sequences of numbers become coordinate tuples, and any other sequence
    becomes a product point with each entry canonicalized recursively.
    A canonical coordinate point is returned as it is. A coordinate that is
    NaN or infinite raises ``ValueError``.
    """
    if type(obj) is tuple and obj and _FLOAT.issuperset(map(type, obj)) and all(map(isfinite, obj)):
        return obj
    # a tuple of floats that is not finite reaches _finite below
    if isinstance(obj, str):
        return obj
    if isinstance(obj, bool):
        raise TypeError("a boolean is not a point")
    if isinstance(obj, _NUMBER_TYPES):
        return _finite((float(obj),))
    if isinstance(obj, np.ndarray):
        # a 0-d array's list form is a number
        return as_point(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            raise ValueError("a point cannot be empty")
        if all(isinstance(e, _NUMBER_TYPES) and not isinstance(e, bool) for e in obj):
            return _finite(tuple(float(e) for e in obj))
        return tuple(as_point(e) for e in obj)
    raise TypeError(f"cannot interpret {obj!r} as a point")


def _finite(p: tuple) -> tuple:
    """The coordinate point ``p`` if all its coordinates are finite."""
    if all(map(isfinite, p)):
        return p
    raise ValueError(f"coordinates must be finite, got {p!r}")


class PointTuple(tuple):
    """A tuple of canonical points, which :meth:`PointIndex.frozen` alone
    builds; :func:`as_points` returns it as it is. It adds no field, so it
    takes the memory of a plain tuple."""

    __slots__ = ()


def as_points(pts: Iterable) -> Sequence[Point]:
    """``pts`` itself when it is a :class:`PointTuple`, or a list or tuple
    of nonempty tuples of finite floats, of exactly those types, which
    :func:`as_point` returns as they are; else the list of its entries
    through :func:`as_point`. A string raises ``TypeError``: a label is one
    point, not a list."""
    if type(pts) is PointTuple:
        return pts
    if (
        type(pts) in (list, tuple)
        and _TUPLE.issuperset(map(type, pts))
        and all(pts)
        and _FLOAT.issuperset(map(type, chain.from_iterable(pts)))
        and all(map(isfinite, chain.from_iterable(pts)))
    ):
        return pts
    if isinstance(pts, str):
        raise TypeError(f"expected a list of points, got the string {pts!r}")
    return [as_point(p) for p in pts]


def is_coordinate(p: Point) -> bool:
    """True for canonical coordinate points (tuples of floats). A canonical
    point's entries are all floats or all points, so the first decides."""
    return not isinstance(p, str) and isinstance(p[0], float)


def coordinates(p: Point) -> np.ndarray:
    """Coordinate vector of a coordinate point."""
    q = as_point(p)
    if not is_coordinate(q):
        raise ValueError(f"{p!r} is not a coordinate point")
    return np.asarray(q, dtype=float)


def points_equal(p, q) -> bool:
    """Point identity of ``as_point(p)`` and ``as_point(q)``: label
    equality, or coordinates within ``COORD_TOL``.

    Product points compare entrywise. Points of different shapes are
    never equal.
    """
    return _points_equal(as_point(p), as_point(q))


def _points_equal(p: Point, q: Point) -> bool:
    if isinstance(p, str) or isinstance(q, str):
        return p == q
    if len(p) != len(q):
        return False
    p_coord = is_coordinate(p)
    if p_coord != is_coordinate(q):
        return False
    if p_coord:
        return all(abs(a - b) <= COORD_TOL for a, b in zip(p, q))
    return all(map(_points_equal, p, q))


def point_to_json(p: Point):
    """JSON form: labels as strings, coordinates as lists, products nested."""
    if isinstance(p, str):
        return p
    if is_coordinate(p):
        return list(p)
    return [point_to_json(e) for e in p]


def json_number(value) -> float:
    """``value`` as a float if it is a number; a boolean, a string or any
    other JSON value raises a ValueError."""
    if isinstance(value, bool) or not isinstance(value, _NUMBER_TYPES):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


#: Width of the hash cells of :class:`PointIndex`: a power of two, so that
#: scaling a coordinate to cell units is exact, and far wider than
#: ``COORD_TOL``, so that few coordinates lie near a cell edge. Cells are
#: centred on the multiples of ``CELL``, so integers and short binary
#: fractions sit in the middle of theirs.
CELL = 2.0**-24
_SCALE = 1.0 / CELL
#: A coordinate within ``2 * COORD_TOL`` of a cell edge is also filed under
#: the neighbouring cell; in cell units, that is an offset beyond
#: ``_NEAR_EDGE`` from the centre.
_NEAR_EDGE = 0.5 - 2 * COORD_TOL * _SCALE


@lru_cache(maxsize=256)
def _cells(p: Point) -> tuple:
    """Keys of every bucket that may hold a point within ``COORD_TOL`` of
    the canonical ``p``, the key of ``p``'s own bucket first.

    A coordinate point's own key is its coordinates rounded to multiples of
    ``CELL``; a coordinate within ``2 * COORD_TOL`` of a cell edge adds the
    neighbouring cell across that edge. A label is its own key, and a
    product point's keys are the products of its entries' keys.

    The keys of the 256 points keyed last are remembered. The memo finds a
    point by ``==``, under which only 0.0 and -0.0 are equal and different
    floats, and the two have the same keys.
    """
    if isinstance(p, str):
        return (p,)
    if not isinstance(p[0], float):
        return tuple(product(*map(_cells, p)))
    key = []
    edges = None
    for x in p:
        y = x * _SCALE
        try:
            k = floor(y)
        except OverflowError:
            # floats this large are far more than COORD_TOL apart
            key.append(x)
            continue
        f = y - k  # exact, in [0, 1)
        if f >= 0.5:
            k += 1
            f -= 1.0
        if not -_NEAR_EDGE <= f <= _NEAR_EDGE:
            if edges is None:
                edges = {}
            edges[len(key)] = k - 1 if f < 0 else k + 1
        key.append(k)
    if edges is None:
        return (tuple(key),)
    return tuple(product(*[(k, edges[i]) if i in edges else (k,) for i, k in enumerate(key)]))


class PointIndex:
    """Points in insertion order, with tolerant lookup through hash buckets.

    Each point is filed under every key of :func:`_cells`, so all the stored
    points within ``COORD_TOL`` of a query share the bucket of the query's
    own key: two equal points in neighbouring cells both lie within
    ``COORD_TOL`` of their shared edge. A lookup reads that one bucket and
    returns what a scan over the stored points with :func:`points_equal`
    would return, in the same order. The constructor, :meth:`matches` and
    :meth:`find` canonicalize their points once, so a value that is not a
    point, a non-finite coordinate included, raises as :func:`as_point`
    does; :meth:`find_or_add` takes canonical points and does not check
    them. A lookup compares canonical points as they
    are, and one that returns a single position stops at its first match.
    """

    __slots__ = ("points", "_buckets")

    def __init__(self, points: Iterable[Point] | None = None):
        self.points: list[Point] = []
        self._buckets: dict[Hashable, list[int]] = {}
        for p in () if points is None else as_points(points):
            self._insert(p, _cells(p))

    def frozen(self) -> PointTuple:
        """The stored points, as a :class:`PointTuple`."""
        return PointTuple(self.points)

    def _insert(self, p: Point, cells: tuple) -> int:
        i = len(self.points)
        self.points.append(p)
        buckets = self._buckets
        for key in cells:
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [i]
            else:
                bucket.append(i)
        return i

    def matches(self, p) -> list[int]:
        """Positions of every stored point equal to ``as_point(p)``, ascending."""
        return self._matching(as_point(p))

    def _matching(self, p: Point) -> list[int]:
        """Positions of every stored point equal to the canonical ``p``."""
        pts = self.points
        return [i for i in self._buckets.get(_cells(p)[0], ()) if _points_equal(p, pts[i])]

    def find(self, p) -> int | None:
        """Position of the earliest stored point equal to ``as_point(p)``, if any."""
        return self._first(as_point(p))

    def find_or_add(self, p: Point) -> int:
        """Position of the earliest stored point equal to ``p``, which must
        be canonical and is not checked; stores ``p`` first when there is none."""
        i = self._first(p)
        return self._insert(p, _cells(p)) if i is None else i

    def _first(self, p: Point) -> int | None:
        """The first position whose point equals the canonical ``p``."""
        pts = self.points
        for i in self._buckets.get(_cells(p)[0], ()):
            if _points_equal(p, pts[i]):
                return i
        return None


def distinct_points(points: Iterable[Point]) -> list[Point]:
    """The points of ``as_points(points)`` that equal no earlier kept one."""
    index = PointIndex()
    for p in as_points(points):
        index.find_or_add(p)
    return index.points
