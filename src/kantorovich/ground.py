"""Bounded (pseudo)metric structure on finite point sets.

Provides the base metrics (euclidean, manhattan, chebyshev, discrete,
explicit table) and the pseudometric algebra used throughout: pullbacks
along maps, pointwise max combinations, optional truncation caps, and the
quotient of a space by the zero-distance classes of a pseudometric.
"""

from __future__ import annotations

import json
from numbers import Real
from typing import Callable, Iterable, Sequence

import numpy as np

from .points import (
    Point,
    PointIndex,
    as_point,
    as_points,
    is_coordinate,
    json_number,
)

#: Geometry tolerance for axiom checks and zero-distance identification.
GEOMETRY_TOL = 1e-12

#: Entries of the largest intermediate array of the triangle check (128 KiB
#: of floats): it compares the table with the paths through as many middle
#: points at once as fit, and through at least one.
TRIANGLE_BLOCK = 1 << 14


class MetricAxiomError(ValueError):
    """A pair or triple of points violates the pseudometric axioms."""


def _coord_array(pts: Sequence[Point], what: str) -> np.ndarray:
    """Array of a coordinate point list; canonicalizes only if needed. Errors name ``what``."""
    canon = as_points(pts)
    # a list that is canonical as it is holds only coordinate points
    if canon is not pts:
        bad = [p for p in canon if not is_coordinate(p)]
        if bad:
            raise ValueError(f"{what} requires coordinate points, got {bad[0]!r}")
    try:
        return np.array(canon, dtype=float)
    except ValueError:  # numpy's error on a ragged list
        other = next(p for p in canon if len(p) != len(canon[0]))
        raise ValueError(
            f"{what} requires points of one dimension, got {canon[0]!r} and {other!r}"
        ) from None


class GroundMetric:
    """Base class for ground (pseudo)metrics.

    Built-in metrics implement ``pairwise``; a scalar call is its 1x1 case.
    ``_raw`` is the per-entry extension point for user metrics. The optional
    ``cap`` truncates the distance at ``min(d, cap)``, which preserves all
    pseudometric axioms. Instances are immutable and thread-safe.
    """

    kind = "abstract"

    def __init__(self, cap: float | None = None):
        if cap is not None:
            cap = float(cap)
            if not cap > 0:
                raise ValueError(f"cap must be a positive real, got {cap!r}")
        self.cap = cap

    def _raw(self, x: Point, y: Point) -> float:
        raise NotImplementedError

    def _capped(self, d):
        return d if self.cap is None else np.minimum(d, self.cap)

    def __call__(self, x, y) -> float:
        return float(self.pairwise([x], [y])[0, 0])

    def pairwise(self, xs: Sequence[Point], ys: Sequence[Point]) -> np.ndarray:
        """Distance matrix between two point lists, canonicalized as needed."""
        xs, ys = as_points(xs), as_points(ys)
        d = np.array([[self._raw(x, y) for y in ys] for x in xs], dtype=float)
        return self._capped(d.reshape(len(xs), len(ys)))

    def __repr__(self):
        cap = f", cap={self.cap}" if self.cap is not None else ""
        return f"<{type(self).__name__} kind={self.kind!r}{cap}>"


class _NormMetric(GroundMetric):
    """Coordinate metric induced by a norm."""

    def _norm_matrix(self, diff: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def pairwise(self, xs, ys):
        if len(xs) == 0 or len(ys) == 0:
            return np.zeros((len(xs), len(ys)))
        a = _coord_array(xs, f"{self.kind} metric")
        b = a if ys is xs else _coord_array(ys, f"{self.kind} metric")
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        return self._capped(self._norm_matrix(a[:, None, :] - b[None, :, :]))


class Euclidean(_NormMetric):
    kind = "euclidean"

    def _norm_matrix(self, diff):
        return np.sqrt((diff * diff).sum(axis=-1))


class Manhattan(_NormMetric):
    kind = "manhattan"

    def _norm_matrix(self, diff):
        return np.abs(diff).sum(axis=-1)


class Chebyshev(_NormMetric):
    kind = "chebyshev"

    def _norm_matrix(self, diff):
        return np.abs(diff).max(axis=-1)


class Discrete(GroundMetric):
    """Unit discrete metric: 0 on identical points, 1 otherwise."""

    kind = "discrete"

    def pairwise(self, xs, ys):
        xs, ys = as_points(xs), as_points(ys)
        index = PointIndex(ys)
        same = np.zeros((len(xs), len(ys)), dtype=bool)
        for i, x in enumerate(xs):
            same[i, index.matches(x)] = True
        return self._capped(np.where(same, 0.0, 1.0))


def _distinct_index(pts: Sequence[Point], what: str) -> PointIndex:
    """The index of ``pts``; a point that equals an earlier one raises
    ``ValueError(what + ", got <earlier> and <point>")``."""
    index = PointIndex()
    for p in pts:
        n = len(index.points)
        i = index.find_or_add(p)
        if i != n:
            raise ValueError(f"{what}, got {index.points[i]!r} and {p!r}")
    return index


class TableMetric(GroundMetric):
    """Explicit distance table over a fixed point list.

    The points must be distinct under :func:`points_equal`, and the table
    must satisfy the pseudometric axioms on every pair and triple; both
    are checked at construction, at any size.
    """

    kind = "table"

    def __init__(self, points: Iterable, table, cap: float | None = None):
        super().__init__(cap)
        self.points = tuple(as_points(points))
        self.table = np.asarray(table, dtype=float)
        k = len(self.points)
        if self.table.shape != (k, k):
            raise ValueError(f"distance table must be {k}x{k}, got {self.table.shape}")
        self._near = _distinct_index(self.points, "table points must be distinct")
        _validate_matrix_axioms(self.table, self.points)

    def _lookup(self, p: Point) -> int:
        i = self._near.find(p)
        if i is None:
            raise ValueError(f"unknown label {p!r} for table metric")
        return i

    def pairwise(self, xs, ys):
        i, j = ([self._lookup(p) for p in pts] for pts in (xs, ys))
        return self._capped(self.table[np.ix_(i, j)])


class PullbackMetric(GroundMetric):
    """Pseudometric ``(x, y) -> inner(f(x), f(y))``.

    Always a pseudometric when ``inner`` is one; distinct points with the
    same image get distance 0.
    """

    kind = "pullback"

    def __init__(self, f: Callable[[Point], Point], inner: GroundMetric, cap: float | None = None):
        super().__init__(cap)
        self.f = f
        self.inner = inner

    def _images(self, pts: Sequence[Point]) -> list[Point]:
        f = self.f
        return as_points([f(p) for p in as_points(pts)])

    def pairwise(self, xs, ys):
        fx = self._images(xs)
        fy = fx if ys is xs else self._images(ys)
        return self._capped(self.inner.pairwise(fx, fy))


class MaxMetric(GroundMetric):
    """Pointwise maximum of pseudometrics on a common point set."""

    kind = "max"

    def __init__(self, parts: Sequence[GroundMetric], cap: float | None = None):
        super().__init__(cap)
        parts = tuple(parts)
        if not parts:
            raise ValueError("max combination needs at least one pseudometric")
        # point sets compare under point identity, as table lookups do
        tables = [p for p in parts if isinstance(p, TableMetric)]
        for t in tables[1:]:
            if any(tables[0]._near.find(p) is None for p in t.points) or any(
                t._near.find(p) is None for p in tables[0].points
            ):
                raise ValueError("incompatible point sets in max combination")
        self.parts = parts

    def pairwise(self, xs, ys):
        stacked = np.stack([p.pairwise(xs, ys) for p in self.parts])
        return self._capped(stacked.max(axis=0))


class ZeroMetric(GroundMetric):
    """The zero pseudometric; the unit of max combination."""

    kind = "zero"

    def pairwise(self, xs, ys):
        return np.zeros((len(as_points(xs)), len(as_points(ys))))


def coordinate_projection(indices: Sequence[int]) -> Callable[[Point], Point]:
    """Map selecting the given coordinate indices of a coordinate point."""
    indices = list(indices)
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, Real) or not float(i).is_integer():
            raise ValueError(f"projection indices must be integers, got {indices!r}")
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise ValueError("projection needs at least one coordinate index")
    # the fewest coordinates every index fits: i < len for i >= 0, -i <= len else
    need = max(max(idx) + 1, -min(idx))

    def project(p):
        q = as_point(p)
        if not is_coordinate(q):
            raise ValueError(f"cannot project non-coordinate point {p!r}")
        if len(q) < need:
            raise ValueError(f"projection indices {idx} out of range for {q!r}")
        return tuple([q[i] for i in idx])

    return project


class GroundSpace:
    """A finite point set with a bounded (pseudo)metric.

    The points must be distinct under :func:`points_equal`, as the atoms
    of a measure are. Immutable after construction, with no cache: the
    diameter is computed on each call. All evaluation is pure, so instances
    are safe for concurrent use.
    """

    def __init__(self, points: Iterable, metric: GroundMetric):
        pts = tuple(as_points(points))
        if not pts:
            raise ValueError("a ground space needs at least one point")
        dims = {len(p) for p in pts if is_coordinate(p)}
        if len(dims) > 1:
            raise ValueError(f"coordinate points must share one dimension, got {sorted(dims)}")
        self._index = _distinct_index(pts, "ground space points must be unique")
        self.points = pts
        self.metric = metric

    def diameter(self) -> float:
        """Largest pairwise distance; finite because the point list is."""
        return float(self.metric.pairwise(self.points, self.points).max())

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return self._index.find(p) is not None

    def __repr__(self):
        return f"<GroundSpace {len(self.points)} points, metric={self.metric.kind!r}>"


def _validate_matrix_axioms(d: np.ndarray, pts: Sequence[Point]) -> None:
    """Check ``d``, the distance matrix of ``pts``, for the pseudometric
    axioms on every pair and triple, within ``GEOMETRY_TOL``.

    Checks finiteness, sign, self-distance, symmetry and then the triangle
    inequality. :class:`MetricAxiomError` names the points of the first
    violation: the first pair in row-major order, or for a triangle the
    smallest middle point, then its first pair of ends in row-major order.
    """
    tol = GEOMETRY_TOL
    if not np.isfinite(d).all():
        raise MetricAxiomError("distances must be finite, got a non-finite entry")
    if (bad := d < -tol).any():
        i, j = np.argwhere(bad)[0]
        raise MetricAxiomError(f"negative distance for {pts[i]!r}, {pts[j]!r}")
    if (bad := np.abs(np.diag(d)) > tol).any():
        (i,) = np.argwhere(bad)[0]
        raise MetricAxiomError(f"nonzero self-distance at {pts[i]!r}")
    if (bad := np.abs(d - d.T) > tol).any():
        i, j = np.argwhere(bad)[0]
        raise MetricAxiomError(f"asymmetric distance for {pts[i]!r}, {pts[j]!r}")
    # d[i, j] > d[i, k] + d[k, j] + tol, for a block of middle points k at a time
    n = d.shape[0]
    step = max(1, TRIANGLE_BLOCK // max(1, n * n))
    for k in range(0, n, step):
        via = d[:, k : k + step].T[:, :, None] + d[k : k + step, None, :]
        via += tol
        if (bad := d > via).any():
            m, i, j = np.argwhere(bad)[0]
            raise MetricAxiomError(
                f"triangle inequality violated on {pts[i]!r}, {pts[k + m]!r}, {pts[j]!r}"
            )


def validate_pseudometric(points: Sequence, metric: GroundMetric) -> None:
    """Check the pseudometric axioms of ``metric`` on every pair and triple
    of ``points``, read from one ``pairwise`` matrix.

    Raises :class:`MetricAxiomError` naming the points of the first
    violation, as :func:`_validate_matrix_axioms` orders them. The triangle
    check takes time cubic in the number of points.
    """
    pts = as_points(points)
    if pts:
        _validate_matrix_axioms(metric.pairwise(pts, pts), pts)


def quotient(space: GroundSpace, p: GroundMetric) -> tuple[GroundSpace, Callable[[Point], Point]]:
    """Quotient a space by the zero-distance classes of a pseudometric.

    Returns the quotient space, whose points are class representatives
    (the first member of each class in input order) carrying ``p``, a
    metric on them, together with the projection map onto representatives.
    The projection finds a point through the space's own index, under point
    identity: a point maps as the earliest space point it equals.
    ``p`` is first checked against the pseudometric axioms on every pair
    and triple of the space, as :func:`validate_pseudometric` does, on the
    one matrix read here.
    """
    pts = space.points
    d = p.pairwise(pts, pts)
    _validate_matrix_axioms(d, pts)
    reps: list[int] = []
    rep_of: list[int] = []
    for i, row in enumerate(d.tolist()):
        r = next((r for r in reps if row[r] <= GEOMETRY_TOL), i)
        if r == i:
            reps.append(i)
        rep_of.append(r)

    def projection(x) -> Point:
        i = space._index.find(x)
        if i is None:
            raise ValueError(f"point {x!r} does not belong to the quotient domain")
        return pts[rep_of[i]]

    return GroundSpace([pts[r] for r in reps], p), projection


def metric_from_spec(spec) -> GroundMetric:
    """Build a metric from its JSON description.

    Accepts a dict (parsed JSON), a JSON string, or a bare kind name such
    as ``"euclidean"``, read as ``{"kind": name}``. A kind reads ``cap`` and
    the fields of its ``_SPEC_KINDS`` row. Table entries are validated
    against the pseudometric axioms on load.
    """
    if isinstance(spec, str):
        name = spec.strip()
        try:
            spec = {"kind": name} if name in _SPEC_KINDS else json.loads(name)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid metric spec {spec!r}: {exc}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"metric spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind is None:
        raise ValueError("metric spec is missing 'kind'")
    if not isinstance(kind, str):
        raise ValueError(f"metric spec 'kind' must be a string, got {kind!r}")
    if kind not in _SPEC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    cls, readers = _SPEC_KINDS[kind]
    for field in spec:
        if field not in ("kind", "cap", *readers):
            raise ValueError(f"metric spec {field!r}: a {kind} metric spec has no such field")
    if not readers.keys() <= spec.keys():
        raise ValueError(f"{kind} metric spec needs " + " and ".join(map(repr, readers)))
    cap = None if spec.get("cap") is None else _spec_field(spec, "cap", json_number)
    return cls(*(_spec_field(spec, field, read) for field, read in readers.items()), cap=cap)


def _spec_field(spec: dict, name: str, convert: Callable):
    """``convert(spec[name])``; a wrong JSON type or value raises a ValueError
    naming the field."""
    try:
        return convert(spec[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"metric spec '{name}': {exc}") from None


def _list_of(read: Callable) -> Callable:
    """Reader of a nonempty JSON list that reads each entry with ``read``: a
    string or an object would be read as its characters or keys."""

    def read_list(value) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError(f"expected a nonempty list, got {value!r}")
        return [read(v) for v in value]

    return read_list


#: Each metric kind a spec may name: its class, and a reader for each field
#: the class takes besides ``cap``, in argument order.
_SPEC_KINDS = {
    cls.kind: (cls, readers)
    for cls, readers in [
        (Euclidean, {}),
        (Manhattan, {}),
        (Chebyshev, {}),
        (Discrete, {}),
        (ZeroMetric, {}),
        (
            TableMetric,
            {"points": _list_of(as_point), "d": lambda d: np.array(_list_of(_list_of(json_number))(d))},
        ),
        (PullbackMetric, {"coords": coordinate_projection, "inner": metric_from_spec}),
        (MaxMetric, {"of": _list_of(metric_from_spec)}),
    ]
}
