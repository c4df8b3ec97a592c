"""Finitely supported probability measures and their algebra.

Measures are immutable: a tuple of distinct support points plus positive
weights. Construction merges duplicate atoms, drops zero weights, and
renormalizes, so downstream marginal constraints stay consistent and
measure equality is structural.

Two atoms are the same point when :func:`points_equal` accepts them. A new
atom joins the earliest kept atom it equals, found through a
:class:`PointIndex`; since the tolerance is not transitive, input order can
decide which atoms merge.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import Callable, Iterable, Sequence

import numpy as np

from .points import Point, PointIndex, as_point, is_finite, point_from_json, point_to_json

#: Tolerance on the weight sum accepted at construction, and on weight
#: comparison in measure equality.
WEIGHT_TOL = 1e-9


class PartitionError(ValueError):
    """Cells overlap on the support or fail to cover it."""


def _check_weights(ws: list[float]) -> None:
    """Raise on a non-finite weight, then on a negative one; else return."""
    if not all(map(isfinite, ws)):
        raise ValueError("non-finite weight")
    if ws and min(ws) < 0.0:
        raise ValueError("negative weight")


def _merged_atoms(atoms: Iterable, weights) -> tuple[PointIndex, np.ndarray]:
    pts = [as_point(a) for a in atoms]
    if not isinstance(weights, np.ndarray):
        weights = list(weights)
    # numpy's conversion, which reads None as NaN; then plain floats
    ws = np.asarray(weights, dtype=float).tolist()
    if len(pts) != len(ws):
        raise ValueError(f"{len(pts)} atoms but {len(ws)} weights")
    # exact duplicates add up first; then each distinct point, in order of
    # first appearance, adds its total to the earliest kept atom it equals
    index = PointIndex()
    first: dict[Point, int] = {}
    totals: list[float] = []
    slots: list[int] = []
    try:
        for p, wi in zip(pts, ws):
            if not 0.0 < wi < inf:
                if wi != 0.0:
                    _check_weights(ws)
                # dropped, but still an input that must be a valid point
                if not is_finite(p):
                    raise ValueError(f"coordinates must be finite, got {p!r}")
                continue
            k = first.get(p)
            if k is None:
                first[p] = len(totals)
                totals.append(wi)
                slots.append(index.find_or_add(p))
            else:
                totals[k] += wi
    except ValueError:
        # an invalid weight anywhere is reported before an invalid point
        _check_weights(ws)
        raise
    merged = [0.0] * len(index.points)
    for i, t in zip(slots, totals):
        merged[i] += t
    return index, np.asarray(merged, dtype=float)


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
        w.flags.writeable = False
        self._weights = w

    @property
    def support(self) -> tuple[Point, ...]:
        return self._support

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def mass(self) -> float:
        return float(self._weights.sum())

    def items(self):
        return zip(self._support, self._weights)

    def index_of(self, point) -> int | None:
        """Position of the earliest support atom equal to ``point``, if any."""
        return self._index.find(as_point(point))

    def weight_of(self, point) -> float:
        i = self.index_of(point)
        return 0.0 if i is None else float(self._weights[i])

    def __len__(self):
        return len(self._support)

    def __repr__(self):
        inside = ", ".join(f"{p!r}: {w:.6g}" for p, w in self.items())
        return f"{type(self).__name__}({{{inside}}})"


class FiniteMeasure(SubProbabilityMeasure):
    """Probability measure with finite support.

    Weights must sum to 1 within ``WEIGHT_TOL``; they are renormalized to
    sum exactly 1 after validation.
    """

    __slots__ = ()

    def __init__(self, atoms: Iterable, weights, *, mass_tol: float = WEIGHT_TOL):
        index, w = _merged_atoms(atoms, weights)
        if len(w) == 0:
            raise ValueError("measure needs at least one atom of positive weight")
        total = float(w.sum())
        if abs(total - 1.0) > mass_tol:
            raise ValueError(f"weights sum to {total:.12g}, expected 1")
        self._store(index, w / total)

    @classmethod
    def from_dict(cls, mapping: dict, **kwargs) -> "FiniteMeasure":
        return cls(list(mapping.keys()), list(mapping.values()), **kwargs)


def dirac(x) -> FiniteMeasure:
    """Unit mass at a single point."""
    return FiniteMeasure([x], [1.0])


def mix(parts: Sequence[tuple[float, FiniteMeasure]]) -> FiniteMeasure:
    """Convex combination of measures; duplicate atoms merge.

    ``parts`` pairs each measure with a nonnegative weight; the weights
    must sum to 1 within ``WEIGHT_TOL``.
    """
    if not parts:
        raise ValueError("mix needs at least one part")
    ts = np.array([float(t) for t, _ in parts])
    if (ts < 0).any():
        raise ValueError("negative mixture weight")
    if abs(ts.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError(f"mixture weights sum to {ts.sum():.12g}, expected 1")
    atoms: list[Point] = []
    weights: list[float] = []
    for t, mu in parts:
        if t == 0.0:
            continue
        atoms.extend(mu.support)
        weights.extend(t * mu.weights)
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
        hits = [i for i, cell in enumerate(cells) if cell(p)]
        if len(hits) > 1:
            raise PartitionError(f"atom {p!r} matched by cells {hits[0]} and {hits[1]}")
        if not hits:
            raise PartitionError(f"atom {p!r} not covered by any cell")
        groups.setdefault(hits[0], []).append(a)
    out: list[tuple[float, FiniteMeasure]] = []
    for i in sorted(groups):
        idx = groups[i]
        eps = float(mu.weights[idx].sum())
        if eps == 0.0:
            continue
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
    for p in mu.support:
        for j in eta._index.matches(p):
            if not used[j]:
                used[j] = True
                break
        else:
            j = None
        yield j


def measures_equal(mu: SubProbabilityMeasure, eta: SubProbabilityMeasure, tol: float = WEIGHT_TOL) -> bool:
    """Structural equality: same atom set, weights within ``tol``."""
    if mu is eta:
        return True
    if len(mu) != len(eta):
        return False
    for w, j in zip(mu.weights, _matched_atoms(mu, eta)):
        if j is None or abs(float(w) - float(eta.weights[j])) > tol:
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


def measure_from_json(obj, *, mass_tol: float = WEIGHT_TOL) -> FiniteMeasure:
    """Load ``{"atoms": [{"point": ..., "w": ...}, ...]}``."""
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ValueError("measure JSON must be an object with an 'atoms' list")
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("measure JSON needs a nonempty 'atoms' list")
    pts, ws = [], []
    for i, entry in enumerate(atoms):
        if not isinstance(entry, dict) or "point" not in entry or "w" not in entry:
            raise ValueError(f"atom {i} must be an object with 'point' and 'w'")
        try:
            pts.append(point_from_json(entry["point"]))
            ws.append(float(entry["w"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"atom {i}: {exc}") from None
    return FiniteMeasure(pts, ws, mass_tol=mass_tol)


def measure_to_json(mu: SubProbabilityMeasure) -> dict:
    return {"atoms": [{"point": point_to_json(p), "w": float(w)} for p, w in mu.items()]}
