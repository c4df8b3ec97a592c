"""Bounded (pseudo)metric structure on finite point sets.

Provides the base metrics (euclidean, manhattan, chebyshev, discrete,
explicit table) and the pseudometric algebra used throughout: pullbacks
along maps, pointwise max combinations, optional truncation caps, and the
quotient of a space by the zero-distance classes of a pseudometric.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .points import Point, PointIndex, as_point, is_coordinate, is_finite, points_equal

#: Geometry tolerance for axiom checks and zero-distance identification.
GEOMETRY_TOL = 1e-12

#: Up to this many points, pseudometric axioms are checked on the full
#: distance matrix; above it, on sampled triples.
EXHAUSTIVE_POINTS = 64


class MetricAxiomError(ValueError):
    """A sampled pair or triple violates the pseudometric axioms."""


def _coord_arrays(xs: Sequence[Point], ys: Sequence[Point], kind: str):
    """Arrays of two nonempty coordinate point lists; canonicalizes only if needed."""
    arrays = []
    for pts in (xs, ys):
        if not all(map(is_coordinate, pts)):
            pts = [as_point(p) for p in pts]
            bad = [p for p in pts if not is_coordinate(p)]
            if bad:
                raise ValueError(f"{kind} metric requires coordinate points, got {bad[0]!r}")
        arrays.append(np.array(pts, dtype=float))
    a, b = arrays
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return a, b


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
            if cap <= 0:
                raise ValueError("cap must be a positive real")
        self.cap = cap

    def _raw(self, x: Point, y: Point) -> float:
        raise NotImplementedError

    def _capped(self, d):
        return d if self.cap is None else np.minimum(d, self.cap)

    def __call__(self, x, y) -> float:
        return float(self.pairwise([as_point(x)], [as_point(y)])[0, 0])

    def distance(self, x, y) -> float:
        return self(x, y)

    def pairwise(self, xs: Sequence[Point], ys: Sequence[Point]) -> np.ndarray:
        """Distance matrix between two point lists, canonicalized as needed."""
        xs, ys = [as_point(x) for x in xs], [as_point(y) for y in ys]
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
        a, b = _coord_arrays(xs, ys, self.kind)
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
        xs, ys = [as_point(x) for x in xs], [as_point(y) for y in ys]
        same = np.array([[points_equal(x, y) for y in ys] for x in xs], dtype=bool)
        return self._capped(np.where(same.reshape(len(xs), len(ys)), 0.0, 1.0))


class TableMetric(GroundMetric):
    """Explicit distance table over a fixed point list.

    The table itself must satisfy all pseudometric axioms; this is
    validated at construction (exhaustively up to 64 points, by seeded
    sampling above that).
    """

    kind = "table"

    def __init__(self, points: Iterable, table, cap: float | None = None):
        super().__init__(cap)
        self.points = tuple(as_point(p) for p in points)
        self.table = np.asarray(table, dtype=float)
        k = len(self.points)
        if self.table.shape != (k, k):
            raise ValueError(f"distance table must be {k}x{k}, got {self.table.shape}")
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != k:
            raise ValueError("table points must be distinct")
        self._near = PointIndex(self.points)
        _validate_matrix_axioms(self.table)

    def _lookup(self, p: Point) -> int:
        i = self._index.get(p)
        if i is None:
            i = self._near.find(p)
            if i is None:
                raise ValueError(f"unknown label {p!r} for table metric")
        return i

    def pairwise(self, xs, ys):
        i, j = ([self._lookup(as_point(p)) for p in pts] for pts in (xs, ys))
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

    def pairwise(self, xs, ys):
        fx = [as_point(self.f(as_point(x))) for x in xs]
        fy = fx if ys is xs else [as_point(self.f(as_point(y))) for y in ys]
        return self._capped(self.inner.pairwise(fx, fy))


class MaxMetric(GroundMetric):
    """Pointwise maximum of pseudometrics on a common point set."""

    kind = "max"

    def __init__(self, parts: Sequence[GroundMetric], cap: float | None = None):
        super().__init__(cap)
        parts = tuple(parts)
        if not parts:
            raise ValueError("max combination needs at least one pseudometric")
        tables = [p for p in parts if isinstance(p, TableMetric)]
        for t in tables[1:]:
            if set(t.points) != set(tables[0].points):
                raise ValueError("incompatible point sets in max combination")
        self.parts = parts

    def pairwise(self, xs, ys):
        stacked = np.stack([p.pairwise(xs, ys) for p in self.parts])
        return self._capped(stacked.max(axis=0))


class QuotientMetric(GroundMetric):
    """The metric a pseudometric induces on its zero-distance classes.

    Evaluates the original pseudometric on class representatives, where it
    is a genuine metric.
    """

    kind = "quotient-of"

    def __init__(self, pseudometric: GroundMetric, cap: float | None = None):
        super().__init__(cap)
        self.pseudometric = pseudometric

    def pairwise(self, xs, ys):
        return self._capped(self.pseudometric.pairwise(xs, ys))


class ZeroMetric(GroundMetric):
    """The zero pseudometric; the unit of max combination."""

    kind = "zero"

    def pairwise(self, xs, ys):
        return np.zeros((len(xs), len(ys)))


def max_combine(p1: GroundMetric, p2: GroundMetric) -> GroundMetric:
    """Pointwise maximum of two pseudometrics on the same point set."""
    return MaxMetric([p1, p2])


def pullback(f: Callable[[Point], Point], p: GroundMetric) -> GroundMetric:
    """Pull a pseudometric back along a point map."""
    return PullbackMetric(f, p)


def coordinate_projection(indices: Sequence[int]) -> Callable[[Point], Point]:
    """Map selecting the given coordinate indices of a coordinate point."""
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise ValueError("projection needs at least one coordinate index")

    def project(p):
        q = as_point(p)
        if not is_coordinate(q):
            raise ValueError(f"cannot project non-coordinate point {p!r}")
        if any(i >= len(q) or i < -len(q) for i in idx):
            raise ValueError(f"projection indices {idx} out of range for {q!r}")
        return tuple(q[i] for i in idx)

    return project


class GroundSpace:
    """A finite point set with a bounded (pseudo)metric.

    Immutable after construction; all evaluation is pure, so instances are
    safe for concurrent use.
    """

    def __init__(self, points: Iterable, metric: GroundMetric):
        pts = tuple(as_point(p) for p in points)
        if not pts:
            raise ValueError("a ground space needs at least one point")
        labels: set[str] = set()
        dims: set[int] = set()
        bad = None
        for p in pts:
            if isinstance(p, str):
                if p in labels:
                    raise ValueError("labels within one ground space must be unique")
                labels.add(p)
                continue
            if isinstance(p[0], float):
                dims.add(len(p))
            if bad is None and not is_finite(p):
                bad = p
        if len(dims) > 1:
            raise ValueError(f"coordinate points must share one dimension, got {sorted(dims)}")
        if bad is not None:
            raise ValueError(f"coordinates must be finite, got {bad!r}")
        self.points = pts
        self.metric = metric
        self._diameter: float | None = None

    @cached_property
    def _index(self) -> PointIndex:
        return PointIndex(self.points)

    def distance(self, x, y) -> float:
        return self.metric(x, y)

    def diameter(self) -> float:
        """Largest pairwise distance; finite because the point list is."""
        if self._diameter is None:
            d = self.metric.pairwise(self.points, self.points)
            self._diameter = float(d.max())
        return self._diameter

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return self._index.find(as_point(p)) is not None

    def __repr__(self):
        return f"<GroundSpace {len(self.points)} points, metric={self.metric.kind!r}>"


def distance(space: GroundSpace, x, y) -> float:
    """Evaluate the space's metric on a pair of points."""
    return space.distance(x, y)


def _validate_matrix_axioms(d: np.ndarray, tol: float = GEOMETRY_TOL) -> None:
    """Check a full distance matrix for the pseudometric axioms."""
    if not np.isfinite(d).all():
        raise MetricAxiomError("distances must be finite, got a non-finite entry")
    if (d < -tol).any():
        raise MetricAxiomError("negative distance in table")
    if (np.abs(np.diag(d)) > tol).any():
        raise MetricAxiomError("nonzero self-distance in table")
    if (np.abs(d - d.T) > tol).any():
        raise MetricAxiomError("asymmetric distance table")
    n = d.shape[0]
    for k in range(n):
        if (d > d[:, [k]] + d[[k], :] + tol).any():
            raise MetricAxiomError("triangle inequality violated in table")


def validate_pseudometric(
    points: Sequence,
    metric: GroundMetric,
    *,
    seed: int = 0,
    samples: int = 1000,
    max_exhaustive: int = EXHAUSTIVE_POINTS,
    tol: float = GEOMETRY_TOL,
) -> None:
    """Check the pseudometric axioms of ``metric`` on ``points``.

    Exhaustive over all pairs and triples up to ``max_exhaustive`` points;
    above that, a seeded random sample of ``samples`` triples is used.
    Raises :class:`MetricAxiomError` on the first violation found.
    """
    pts = [as_point(p) for p in points]
    n = len(pts)
    if n == 0:
        return
    if n <= max_exhaustive:
        _validate_matrix_axioms(metric.pairwise(pts, pts), tol)
        return
    rng = np.random.default_rng(seed)
    triples = rng.integers(0, n, size=(samples, 3))
    for i, j, k in triples:
        x, y, z = pts[i], pts[j], pts[k]
        dxy, dyx = metric(x, y), metric(y, x)
        if dxy < -tol:
            raise MetricAxiomError(f"negative distance for {x!r}, {y!r}")
        if abs(dxy - dyx) > tol:
            raise MetricAxiomError(f"asymmetric distance for {x!r}, {y!r}")
        if abs(metric(x, x)) > tol:
            raise MetricAxiomError(f"nonzero self-distance at {x!r}")
        if metric(x, z) > dxy + metric(y, z) + tol:
            raise MetricAxiomError(f"triangle inequality violated on {x!r}, {y!r}, {z!r}")


def quotient(
    space: GroundSpace, p: GroundMetric, *, tol: float = GEOMETRY_TOL
) -> tuple[GroundSpace, Callable[[Point], Point]]:
    """Quotient a space by the zero-distance classes of a pseudometric.

    Returns the quotient space, whose points are class representatives
    (the first member of each class in input order) carrying the induced
    metric, together with the projection map onto representatives.
    ``p`` is validated against the pseudometric axioms first.
    """
    pts = space.points
    d = p.pairwise(pts, pts)
    if len(pts) <= EXHAUSTIVE_POINTS:
        # the check validate_pseudometric makes, on the matrix at hand
        _validate_matrix_axioms(d, tol)
    else:
        validate_pseudometric(pts, p, tol=tol)
    reps: list[int] = []
    mapping: dict[Point, Point] = {}
    for i, pt in enumerate(pts):
        r = next((r for r in reps if d[i, r] <= tol), i)
        if r == i:
            reps.append(i)
        mapping[pt] = pts[r]

    def projection(x) -> Point:
        q = as_point(x)
        hit = mapping.get(q)
        if hit is not None:
            return hit
        # the earliest point equal to q is also the first of its exact value,
        # so it is a key of mapping
        i = space._index.find(q)
        if i is None:
            raise ValueError(f"point {x!r} does not belong to the quotient domain")
        return mapping[pts[i]]

    return GroundSpace([pts[r] for r in reps], QuotientMetric(p)), projection


_SIMPLE_KINDS = {
    "euclidean": Euclidean,
    "manhattan": Manhattan,
    "chebyshev": Chebyshev,
    "discrete": Discrete,
    "zero": ZeroMetric,
}


def metric_from_spec(spec) -> GroundMetric:
    """Build a metric from its JSON description.

    Accepts a dict (parsed JSON), a JSON string, or a bare kind name such
    as ``"euclidean"``. Table entries are validated against the
    pseudometric axioms on load.
    """
    if isinstance(spec, str):
        name = spec.strip()
        if name in _SIMPLE_KINDS:
            return _SIMPLE_KINDS[name]()
        try:
            spec = json.loads(name)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid metric spec {spec!r}: {exc}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"metric spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind is None:
        raise ValueError("metric spec is missing 'kind'")
    cap = spec.get("cap")
    if kind in _SIMPLE_KINDS:
        return _SIMPLE_KINDS[kind](cap=cap)
    if kind == "table":
        if "points" not in spec or "d" not in spec:
            raise ValueError("table metric spec needs 'points' and 'd'")
        return TableMetric(spec["points"], spec["d"], cap=cap)
    if kind == "pullback":
        if "coords" not in spec or "inner" not in spec:
            raise ValueError("pullback metric spec needs 'coords' and 'inner'")
        inner = metric_from_spec(spec["inner"])
        return PullbackMetric(coordinate_projection(spec["coords"]), inner, cap=cap)
    if kind == "max":
        if "of" not in spec or not spec["of"]:
            raise ValueError("max metric spec needs a nonempty 'of' list")
        return MaxMetric([metric_from_spec(s) for s in spec["of"]], cap=cap)
    raise ValueError(f"unknown metric kind {kind!r}")
