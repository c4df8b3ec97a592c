"""Finitely supported probability measures and their algebra.

Measures are immutable: a tuple of distinct support points plus positive
weights. Construction merges duplicate atoms, drops zero weights, and
renormalizes, so downstream marginal constraints stay consistent and
measure equality is structural.

Atoms are points, or finite measures for a measure of measures (and so on
up: P(P(X)) and P(P(P(X))) are the same type). Two point atoms are equal
when :func:`points_equal` accepts them, two measure atoms when
:func:`measures_equal` does. A new atom joins the earliest kept atom it
equals, found through a :class:`PointIndex` or a :class:`MeasureIndex`;
since the tolerances are not transitive, input order can decide which atoms
merge.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from math import inf, isfinite

import numpy as np

from .points import (
    Point,
    PointIndex,
    as_point,
    as_points,
    json_number,
    point_to_json,
)

#: Tolerance on the weight sum accepted at construction, and on weight
#: comparison in measure equality.
WEIGHT_TOL = 1e-9


class PartitionError(ValueError):
    """Cells overlap on the support or fail to cover it."""


class MeasureIndex(PointIndex):
    """The :class:`PointIndex` of measure atoms: measures are bucketed by
    support size, which equal measures share, and :func:`measures_equal`
    decides within a bucket."""

    __slots__ = ()

    def matches(self, m) -> Iterator[int]:
        """Positions of every stored measure equal to ``m``, ascending, lazily."""
        if isinstance(m, SubProbabilityMeasure):
            pts = self.points
            yield from (i for i in self._buckets.get(len(m), ()) if measures_equal(m, pts[i]))

    def find(self, m) -> int | None:
        """Position of the earliest stored measure equal to ``m``, if any."""
        return next(self.matches(m), None)

    # a measure is its own canonical form
    find_canonical = find

    def find_or_add(self, m) -> int:
        i = self.find(m)
        return self._insert(m, (len(m),)) if i is None else i


def _merged_atoms(atoms: Iterable, weights) -> tuple[PointIndex, np.ndarray]:
    """The support index and merged weights of ``atoms``, zero weights dropped.

    Raises, in this order: on a malformed point (a non-finite coordinate
    included), on weights that are not 1-D, on a count mismatch, on mixed
    atom kinds, on a non-finite weight, then on a negative weight.
    """
    # a string stays whole, for as_points to reject: a label is one point
    atoms = atoms if isinstance(atoms, str) else list(atoms)
    # the atom kind is decided once, by the first atom
    of_measures = bool(atoms) and isinstance(atoms[0], FiniteMeasure)
    pts = atoms if of_measures else as_points(atoms)
    # an iterator becomes a list; a scalar is left to the shape check
    if not isinstance(weights, np.ndarray) and isinstance(weights, Iterable):
        weights = list(weights)
    # numpy's conversion, which reads None as NaN; then plain floats
    ws = np.asarray(weights, dtype=float)
    if ws.ndim != 1:
        raise ValueError(f"weights must be a 1-D sequence, got shape {ws.shape}")
    ws = ws.tolist()
    if len(pts) != len(ws):
        raise ValueError(f"{len(pts)} atoms but {len(ws)} weights")
    if of_measures and not all(isinstance(m, FiniteMeasure) for m in pts):
        raise TypeError("atoms must be all points or all finite measures")
    if not all(map(isfinite, ws)):
        raise ValueError("non-finite weight")
    if ws and min(ws) < 0.0:
        raise ValueError("negative weight")
    # exact duplicates add up first; then each distinct atom, in order of
    # first appearance, adds its total to the earliest kept atom it equals
    index = MeasureIndex() if of_measures else PointIndex()
    totals: dict = {}
    slots: list[int] = []
    for p, wi in zip(pts, ws):
        if wi == 0.0:
            continue
        if p in totals:
            totals[p] += wi
        else:
            totals[p] = wi
            slots.append(index.find_or_add(p))
    merged = [0.0] * len(index.points)
    for slot, total in zip(slots, totals.values()):
        merged[slot] += total
    return index, np.array(merged)


class SubProbabilityMeasure:
    """Finitely supported measure with total mass in (0, 1]."""

    __slots__ = ("_support", "_weights", "_index")

    def __init__(self, atoms: Iterable, weights):
        index, w = _merged_atoms(atoms, weights)
        if len(w) == 0:
            raise ValueError("measure needs at least one atom of positive weight")
        total = float(w.sum())
        if total > 1.0 + 1e-12:
            raise ValueError(f"total mass {total:.12g} exceeds 1")
        self._store(index, w)

    def _store(self, index: PointIndex, w: np.ndarray) -> None:
        self._index = index
        self._support = tuple(index.points)
        w.setflags(write=False)
        self._weights = w

    @property
    def support(self) -> tuple:
        return self._support

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def mass(self) -> float:
        return float(self._weights.sum())

    def items(self):
        return zip(self._support, self._weights)

    def index_of(self, atom) -> int | None:
        """Position of the earliest support atom equal to ``atom``, if any."""
        return self._index.find(atom)

    def weight_of(self, atom) -> float:
        i = self.index_of(atom)
        return 0.0 if i is None else float(self._weights[i])

    def __len__(self):
        return len(self._support)

    def __repr__(self):
        inside = ", ".join(f"{p!r}: {w:.6g}" for p, w in self.items())
        return f"{type(self).__name__}({{{inside}}})"


class FiniteMeasure(SubProbabilityMeasure):
    """Probability measure with finite support of points or of measures.

    Weights must sum to 1 within ``mass_tol``, a finite nonnegative number;
    they are renormalized to sum exactly 1 after validation.
    """

    __slots__ = ()

    def __init__(self, atoms: Iterable, weights, *, mass_tol: float = WEIGHT_TOL):
        if not 0.0 <= mass_tol < inf:
            raise ValueError(f"mass_tol must be a finite nonnegative number, got {mass_tol!r}")
        index, w = _merged_atoms(atoms, weights)
        if len(w) == 0:
            raise ValueError("measure needs at least one atom of positive weight")
        total = float(w.sum())
        if abs(total - 1.0) > mass_tol:
            raise ValueError(f"weights sum to {total:.12g}, expected 1")
        if total != 1.0:  # dividing by 1.0 changes no weight
            w /= total
        self._store(index, w)


def dirac(x) -> FiniteMeasure:
    """Unit mass at a single atom, a point or a measure: the monad unit.

    The measure ``FiniteMeasure([x], [1.0])`` builds, raising what it
    raises, without its merge pass over the atoms.
    """
    if isinstance(x, FiniteMeasure):
        index = MeasureIndex()
    else:
        x = as_point(x)
        index = PointIndex()
    index.find_or_add(x)
    mu = FiniteMeasure.__new__(FiniteMeasure)
    mu._store(index, np.ones(1))
    return mu


def mix(parts: Sequence[tuple[float, FiniteMeasure]]) -> FiniteMeasure:
    """Convex combination of measures of any order; duplicate atoms merge.

    ``parts`` pairs each measure with a nonnegative weight; the weights
    must sum to 1 within ``WEIGHT_TOL``. Zero-weight parts are skipped and
    :class:`FiniteMeasure` checks the scaled atom weights, so a bad part
    weight raises its ``non-finite weight``, ``negative weight`` or
    ``weights sum to ..., expected 1``.
    """
    if not parts:
        raise ValueError("mix needs at least one part")
    atoms: list = []
    weights: list[float] = []
    for t, mu in parts:
        t = float(t)
        if t == 0.0:
            continue
        atoms.extend(mu.support)
        weights.extend([t * w for w in mu.weights.tolist()])
    return FiniteMeasure(atoms, weights)


def restrict(mu: SubProbabilityMeasure, predicate: Callable[[Point], bool]):
    """Keep the atoms satisfying ``predicate`` with their original weights.

    Returns ``None`` when no atom survives (the measure of the set is 0).
    """
    kept = [(p, w) for p, w in mu.items() if predicate(p)]
    if not kept:
        return None
    return SubProbabilityMeasure([p for p, _ in kept], [w for _, w in kept])


def condition(mu: FiniteMeasure, predicate: Callable[[Point], bool]) -> FiniteMeasure:
    """Restriction renormalized to a probability measure."""
    kept = [(p, w) for p, w in mu.items() if predicate(p)]
    if not kept:
        raise ValueError("conditioning on a set of measure zero")
    mass = sum(w for _, w in kept)
    return FiniteMeasure([p for p, _ in kept], [w / mass for _, w in kept])


def cell_of(p: Point, cells: Sequence[Callable[[Point], bool]]) -> int | None:
    """Position of the one cell that matches ``p``, None if no cell does;
    :class:`PartitionError` if two cells do."""
    hits = [i for i, cell in enumerate(cells) if cell(p)]
    if len(hits) > 1:
        raise PartitionError(f"atom {p!r} matched by cells {hits[0]} and {hits[1]}")
    return hits[0] if hits else None


def decompose(
    mu: FiniteMeasure, cells: Sequence[Callable[[Point], bool]]
) -> list[tuple[float, FiniteMeasure]]:
    """Split a measure along a partition of its support.

    Each support atom must match exactly one cell. Returns the list of
    ``(cell mass, conditioned measure)`` pairs, skipping empty cells;
    mixing the result back reproduces the measure.
    """
    groups: dict[int, list[int]] = {}
    for a, p in enumerate(mu.support):
        i = cell_of(p, cells)
        if i is None:
            raise PartitionError(f"atom {p!r} not covered by any cell")
        groups.setdefault(i, []).append(a)
    out: list[tuple[float, FiniteMeasure]] = []
    for i in sorted(groups):
        idx = groups[i]
        eps = float(mu.weights[idx].sum())
        out.append((eps, FiniteMeasure([mu.support[a] for a in idx], mu.weights[idx] / eps)))
    return out


def pushforward(f: Callable[[Point], Point], mu: FiniteMeasure) -> FiniteMeasure:
    """Image measure: atoms mapped through ``f``, colliding images merged."""
    return FiniteMeasure([f(p) for p in mu.support], mu.weights)


def tensor(mu: FiniteMeasure, eta: FiniteMeasure) -> FiniteMeasure:
    """Product measure on pairs; its marginals are ``mu`` and ``eta``."""
    atoms = [(p, q) for p in mu.support for q in eta.support]
    weights = np.outer(mu.weights, eta.weights).ravel()
    return FiniteMeasure(atoms, weights)


def integrate(mu: SubProbabilityMeasure, f: Callable[[Point], float]) -> float:
    """Weighted sum of ``f`` over the support."""
    return float(sum(w * float(f(p)) for p, w in mu.items()))


def _matched_atoms(mu: SubProbabilityMeasure, eta: SubProbabilityMeasure):
    """For each atom of ``mu`` in order, the position of the earliest atom of
    ``eta`` that equals it and is not matched yet, or ``None``."""
    used = [False] * len(eta)
    # atoms of different kinds never match
    index = eta._index if type(eta._index) is type(mu._index) else MeasureIndex()
    for p in mu.support:
        for j in index.matches(p):
            if not used[j]:
                used[j] = True
                break
        else:
            j = None
        yield j


def measures_equal(mu: SubProbabilityMeasure, eta: SubProbabilityMeasure) -> bool:
    """Structural equality: same atom set, weights within ``WEIGHT_TOL``."""
    if mu is eta:
        return True
    if len(mu) != len(eta):
        return False
    for w, j in zip(mu.weights, _matched_atoms(mu, eta)):
        if j is None or abs(float(w) - float(eta.weights[j])) > WEIGHT_TOL:
            return False
    return True


def measure_deviation(mu: SubProbabilityMeasure, eta: SubProbabilityMeasure) -> float:
    """Largest atomwise weight discrepancy; unmatched atoms count in full."""
    dev = 0.0
    matched = set()
    for w, j in zip(mu.weights, _matched_atoms(mu, eta)):
        if j is None:
            dev = max(dev, float(w))
        else:
            matched.add(j)
            dev = max(dev, abs(float(w) - float(eta.weights[j])))
    for j, v in enumerate(eta.weights):
        if j not in matched:
            dev = max(dev, float(v))
    return dev


def _load_measure(obj, key: str, mass_tol: float) -> FiniteMeasure:
    """Load ``{"atoms": [{key: ..., "w": ...}, ...]}``, where ``key`` is
    ``"point"``, or ``"measure"`` for a measure of measures."""
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ValueError("measure JSON must be an object with an 'atoms' list")
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("measure JSON needs a nonempty 'atoms' list")
    # checked before the atoms, whose inner loads would name an atom
    if not 0.0 <= mass_tol < inf:
        raise ValueError(f"mass_tol must be a finite nonnegative number, got {mass_tol!r}")
    load = as_point if key == "point" else partial(measure_from_json, mass_tol=mass_tol)
    xs, ws = [], []
    for i, entry in enumerate(atoms):
        if not isinstance(entry, dict) or key not in entry or "w" not in entry:
            raise ValueError(f"atom {i} must be an object with '{key}' and 'w'")
        try:
            xs.append(load(entry[key]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"atom {i}: {exc}") from None
        try:
            ws.append(json_number(entry["w"]))
        except ValueError as exc:
            raise ValueError(f"atom {i}: 'w': {exc}") from None
    return FiniteMeasure(xs, ws, mass_tol=mass_tol)


def measure_from_json(obj, *, mass_tol: float = WEIGHT_TOL) -> FiniteMeasure:
    """Load ``{"atoms": [{"point": ..., "w": ...}, ...]}``."""
    return _load_measure(obj, "point", mass_tol)


def second_order_from_json(obj, *, mass_tol: float = WEIGHT_TOL) -> FiniteMeasure:
    """Load ``{"atoms": [{"measure": {...}, "w": ...}, ...]}``, each entry read
    by :func:`measure_from_json`: exactly two levels, so a third-order measure
    that :func:`measure_to_json` wrote raises ``ValueError``."""
    return _load_measure(obj, "measure", mass_tol)


def atom_to_json(atom):
    """JSON form of a support atom: a point, or a measure one order down."""
    return measure_to_json(atom) if isinstance(atom, SubProbabilityMeasure) else point_to_json(atom)


def measure_to_json(mu: SubProbabilityMeasure) -> dict:
    """``{"atoms": [{"point": ..., "w": ...}, ...]}``, with ``"measure"`` in
    place of ``"point"`` for a measure of measures, at any depth; the loaders
    read back only two levels."""
    key = "measure" if isinstance(mu._index, MeasureIndex) else "point"
    return {"atoms": [{key: atom_to_json(a), "w": float(w)} for a, w in mu.items()]}
