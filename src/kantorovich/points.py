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
:class:`PointIndex` finds tolerant matches through hash buckets instead of
a scan over every stored point.
"""

from __future__ import annotations

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
    A canonical coordinate point is returned as it is.
    """
    if type(obj) is tuple and obj and _FLOAT.issuperset(map(type, obj)):
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


def canonical_coordinates(pts: Sequence) -> bool:
    """True when every entry of ``pts`` is a nonempty tuple of floats, of
    exactly those types: a coordinate point that :func:`as_point` returns
    as it is."""
    return (
        _TUPLE.issuperset(map(type, pts))
        and all(pts)
        and _FLOAT.issuperset(map(type, chain.from_iterable(pts)))
    )


def is_coordinate(p: Point) -> bool:
    """True for canonical coordinate points (tuples of floats)."""
    return isinstance(p, tuple) and all(isinstance(e, float) for e in p)


def coordinates(p: Point) -> np.ndarray:
    """Coordinate vector of a coordinate point."""
    q = as_point(p)
    if not is_coordinate(q):
        raise ValueError(f"{p!r} is not a coordinate point")
    return np.asarray(q, dtype=float)


def is_finite(p: Point) -> bool:
    """False when a coordinate of ``p``, at any depth, is NaN or infinite."""
    if isinstance(p, str):
        return True
    if isinstance(p[0], float):
        return all(map(isfinite, p))
    return all(map(is_finite, p))


def points_equal(p: Point, q: Point) -> bool:
    """Point identity: label equality, or coordinates within ``COORD_TOL``.

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
        return all(abs(a - b) <= COORD_TOL for a, b in zip(p, q))
    return all(points_equal(a, b) for a, b in zip(p, q))


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
#: A coordinate within ``2 * COORD_TOL`` of a cell edge also looks in the
#: neighbouring cell; in cell units, that is an offset beyond ``_NEAR_EDGE``
#: from the centre.
_NEAR_EDGE = 0.5 - 2 * COORD_TOL * _SCALE


def _cells(p: Point) -> tuple[Hashable, tuple]:
    """Bucket key of ``p`` and the keys of the other buckets that may hold a
    point within ``COORD_TOL`` of it (none unless ``p`` is near a cell edge).

    A coordinate point's key is its coordinates rounded to multiples of
    ``CELL``; a label is its own key; a product point's key is the tuple of
    its entries' keys. Raises ``ValueError`` on a non-finite coordinate.
    """
    if isinstance(p, str):
        return p, ()
    if isinstance(p[0], float):
        key = []
        try:
            for x in p:
                y = x * _SCALE
                k = floor(y)
                f = y - k  # exact, in [0, 1)
                if f >= 0.5:
                    k += 1
                    f -= 1.0
                if not -_NEAR_EDGE <= f <= _NEAR_EDGE:
                    break
                key.append(k)
            else:
                return tuple(key), ()
        except (ValueError, OverflowError):
            pass
        return _edge_cells(p)
    parts = [_cells(e) for e in p]
    key = tuple(k for k, _ in parts)
    if not any(alts for _, alts in parts):
        return key, ()
    keys = list(product(*[(k, *alts) for k, alts in parts]))
    return key, tuple(keys[1:])


def _edge_cells(p: tuple) -> tuple[tuple, tuple]:
    """:func:`_cells` of a coordinate point with a coordinate near a cell
    edge, non-finite, or so large that scaling it overflows."""
    options = []
    for x in p:
        if not isfinite(x):
            raise ValueError(f"coordinates must be finite, got {p!r}")
        y = x * _SCALE
        if not isfinite(y):
            # floats this large are far more than COORD_TOL apart
            options.append((x,))
            continue
        k = floor(y)
        f = y - k
        if f >= 0.5:
            k += 1
            f -= 1.0
        options.append((k, k - 1) if f < -_NEAR_EDGE else (k, k + 1) if f > _NEAR_EDGE else (k,))
    keys = list(product(*options))
    return keys[0], tuple(keys[1:])


class PointIndex:
    """Points in insertion order, with tolerant lookup through hash buckets.

    A lookup returns what a scan over the stored points with
    :func:`points_equal` would return, in the same order; the buckets only
    narrow down the candidates. Points with a non-finite coordinate are
    rejected on insertion and match nothing on lookup.
    """

    __slots__ = ("points", "_buckets")

    def __init__(self, points: Iterable[Point] = ()):
        self.points: list[Point] = []
        self._buckets: dict[Hashable, list[int]] = {}
        for p in points:
            self._insert(p, _cells(p)[0])

    def _insert(self, p: Point, key: Hashable) -> int:
        i = len(self.points)
        self.points.append(p)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [i]
        else:
            bucket.append(i)
        return i

    def _matches(self, p: Point, key: Hashable, alts: tuple) -> list[int]:
        pts, buckets = self.points, self._buckets
        bucket = buckets.get(key)
        hits = [i for i in bucket if points_equal(p, pts[i])] if bucket else []
        if alts:
            for k in alts:
                hits += [i for i in buckets.get(k, ()) if points_equal(p, pts[i])]
            hits.sort()
        return hits

    def matches(self, p: Point) -> list[int]:
        """Positions of every stored point equal to ``p``, ascending."""
        try:
            key, alts = _cells(p)
        except ValueError:
            return []
        return self._matches(p, key, alts)

    def find(self, p: Point) -> int | None:
        """Position of the earliest stored point equal to ``p``, if any."""
        hits = self.matches(p)
        return hits[0] if hits else None

    def find_or_add(self, p: Point) -> int:
        """Position of the earliest stored point equal to ``p``; stores ``p``
        first when there is none."""
        key, alts = _cells(p)
        if not alts and key not in self._buckets:
            i = len(self.points)
            self.points.append(p)
            self._buckets[key] = [i]
            return i
        hits = self._matches(p, key, alts)
        return hits[0] if hits else self._insert(p, key)


def distinct_points(points: Iterable[Point]) -> list[Point]:
    """The points that equal no earlier kept point, in input order."""
    index = PointIndex()
    for p in points:
        index.find_or_add(p)
    return index.points
