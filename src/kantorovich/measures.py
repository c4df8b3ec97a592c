"""Finitely supported probability measures and their algebra.

Measures are immutable: a tuple of distinct support points plus positive
weights. Construction merges duplicate atoms, drops zero weights, and
renormalizes, so downstream marginal constraints stay consistent and
measure equality is structural.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .points import COORD_TOL, Point, as_point, point_from_json, point_to_json, points_equal

#: Tolerance on the weight sum accepted at construction, and on weight
#: comparison in measure equality.
WEIGHT_TOL = 1e-9


class PartitionError(ValueError):
    """Cells overlap on the support or fail to cover it."""


def _merged_atoms(atoms: Iterable, weights) -> tuple[list[Point], np.ndarray]:
    pts = [as_point(a) for a in atoms]
    w = np.asarray(list(weights), dtype=float)
    if len(pts) != len(w):
        raise ValueError(f"{len(pts)} atoms but {len(w)} weights")
    if not np.isfinite(w).all():
        raise ValueError("non-finite weight")
    if (w < 0).any():
        raise ValueError("negative weight")
    # exact-duplicate merge first (hash-based), then a tolerance pass
    order: list[Point] = []
    acc: dict[Point, float] = {}
    for p, wi in zip(pts, w):
        if wi == 0.0:
            continue
        if p in acc:
            acc[p] += wi
        else:
            acc[p] = wi
            order.append(p)
    support: list[Point] = []
    merged: list[float] = []
    for p in order:
        for i, q in enumerate(support):
            if points_equal(p, q, COORD_TOL):
                merged[i] += acc[p]
                break
        else:
            support.append(p)
            merged.append(acc[p])
    return support, np.asarray(merged, dtype=float)


class SubProbabilityMeasure:
    """Finitely supported measure with total mass in (0, 1]."""

    __slots__ = ("_support", "_weights")

    def __init__(self, atoms: Iterable, weights):
        support, w = _merged_atoms(atoms, weights)
        if len(support) == 0:
            raise ValueError("measure needs at least one atom of positive weight")
        total = float(w.sum())
        if total > 1.0 + 1e-12:
            raise ValueError(f"total mass {total:.12g} exceeds 1")
        self._store(support, w)

    def _store(self, support: Sequence[Point], w: np.ndarray) -> None:
        self._support = tuple(support)
        w = np.asarray(w, dtype=float)
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

    def weight_of(self, point) -> float:
        q = as_point(point)
        for p, w in self.items():
            if points_equal(p, q):
                return float(w)
        return 0.0

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
        support, w = _merged_atoms(atoms, weights)
        if len(support) == 0:
            raise ValueError("measure needs at least one atom of positive weight")
        total = float(w.sum())
        if abs(total - 1.0) > mass_tol:
            raise ValueError(f"weights sum to {total:.12g}, expected 1")
        self._store(support, w / total)

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


def measures_equal(mu: SubProbabilityMeasure, eta: SubProbabilityMeasure, tol: float = WEIGHT_TOL) -> bool:
    """Structural equality: same atom set, weights within ``tol``."""
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


def measure_deviation(mu: SubProbabilityMeasure, eta: SubProbabilityMeasure) -> float:
    """Largest atomwise weight discrepancy; unmatched atoms count in full."""
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
