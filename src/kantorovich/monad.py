"""Probability-monad structure over finitely supported measures.

The unit sends a point to its Dirac measure; the multiplication flattens a
measure on measures into its mixture, which for coordinate supports is the
barycenter map. The same coupling solver that computes ground distances
computes the second-order distance on measures of measures, with the
ground distance itself as the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .ground import GroundMetric, GroundSpace, quotient
from .measures import (
    FiniteMeasure,
    WEIGHT_TOL,
    dirac,
    measure_deviation,
    measure_from_json,
    measure_to_json,
    measures_equal,
    mix,
    pushforward,
)
from .points import Point, as_point, coordinates
from .transport import Coupling, TransportResult, kantorovich, solve_transport


class SecondOrderMeasure:
    """Finitely supported measure whose atoms are measures.

    Atom identity is structural measure equality at the weight tolerance,
    so duplicate inner measures merge just like duplicate points do.
    """

    __slots__ = ("_support", "_weights")

    def __init__(self, atoms: Iterable[FiniteMeasure], weights, *, mass_tol: float = WEIGHT_TOL):
        atoms = list(atoms)
        w = np.asarray(list(weights), dtype=float)
        if len(atoms) != len(w):
            raise ValueError(f"{len(atoms)} atoms but {len(w)} weights")
        if not np.isfinite(w).all():
            raise ValueError("non-finite weight")
        if (w < 0).any():
            raise ValueError("negative weight")
        support: list[FiniteMeasure] = []
        merged: list[float] = []
        for m, wi in zip(atoms, w):
            if wi == 0.0:
                continue
            if not isinstance(m, FiniteMeasure):
                raise TypeError("second-order atoms must be finite measures")
            for i, q in enumerate(support):
                if measures_equal(m, q):
                    merged[i] += wi
                    break
            else:
                support.append(m)
                merged.append(float(wi))
        if not support:
            raise ValueError("measure needs at least one atom of positive weight")
        total = float(sum(merged))
        if abs(total - 1.0) > mass_tol:
            raise ValueError(f"weights sum to {total:.12g}, expected 1")
        self._support = tuple(support)
        ww = np.asarray(merged, dtype=float) / total
        ww.flags.writeable = False
        self._weights = ww

    @property
    def support(self) -> tuple[FiniteMeasure, ...]:
        return self._support

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def items(self):
        return zip(self._support, self._weights)

    def __len__(self):
        return len(self._support)

    def __repr__(self):
        return f"SecondOrderMeasure({len(self._support)} inner measures)"


def unit(x) -> FiniteMeasure:
    """Monad unit on points: the Dirac measure."""
    return dirac(x)


def unit2(mu: FiniteMeasure) -> SecondOrderMeasure:
    """Monad unit on measures: the Dirac measure concentrated at ``mu``."""
    return SecondOrderMeasure([mu], [1.0])


def flatten(M: SecondOrderMeasure) -> FiniteMeasure:
    """Monad multiplication: the mixture of the inner measures.

    This is the barycenter of a measure on measures; for finite supports
    it is the convex combination of the inner measures.
    """
    return mix([(float(t), m) for m, t in M.items()])


def mix_second_order(parts: Sequence[tuple[float, SecondOrderMeasure]]) -> SecondOrderMeasure:
    """Convex combination one level up; inner-measure atoms merge."""
    if not parts:
        raise ValueError("mix needs at least one part")
    ts = np.array([float(t) for t, _ in parts])
    if (ts < 0).any():
        raise ValueError("negative mixture weight")
    if abs(ts.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError(f"mixture weights sum to {ts.sum():.12g}, expected 1")
    atoms: list[FiniteMeasure] = []
    weights: list[float] = []
    for t, M in parts:
        if t == 0.0:
            continue
        atoms.extend(M.support)
        weights.extend(t * M.weights)
    return SecondOrderMeasure(atoms, weights)


class ConvexSpace:
    """Convex subset of coordinate space with the standard combination rule.

    The optional membership predicate lets callers restrict to a proper
    convex subset; it is consulted on barycenter inputs and outputs.
    """

    def __init__(self, dim: int, contains: Callable[[Point], bool] | None = None):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)
        self.contains = contains

    def combine(self, pts: Sequence[Point], weights) -> Point:
        arr = np.array([self._coords(p) for p in pts])
        w = np.asarray(weights, dtype=float)
        return tuple(float(v) for v in (w[:, None] * arr).sum(axis=0))

    def _coords(self, p) -> np.ndarray:
        c = coordinates(p)
        if len(c) != self.dim:
            raise ValueError(f"point {p!r} has dimension {len(c)}, space has {self.dim}")
        if self.contains is not None and not self.contains(as_point(p)):
            raise ValueError(f"point {p!r} is outside the space")
        return c


def barycenter(space: ConvexSpace, mu: FiniteMeasure) -> Point:
    """Weighted average of the support; satisfies f(b) = ∫f dμ for every
    linear functional f."""
    b = space.combine(mu.support, mu.weights)
    if space.contains is not None and not space.contains(b):
        raise ValueError("barycenter fell outside the space; the membership predicate is not convex")
    return b


def second_order_distance(
    space: GroundSpace, M: SecondOrderMeasure, N: SecondOrderMeasure
) -> TransportResult:
    """Coupling distance between measures of measures.

    The ground cost between two inner measures is their coupling distance
    over ``space``; the inner distance matrix is computed once per call
    and fed to the same exact solver.
    """
    D = np.zeros((len(M), len(N)))
    for i, m in enumerate(M.support):
        for j, nmeas in enumerate(N.support):
            D[i, j] = kantorovich(space, m, nmeas).cost
    cost, gamma = solve_transport(D, M.weights, N.weights)
    return TransportResult(cost, Coupling(M.support, N.support, gamma), "network-simplex")


def lifted_pseudometric(
    space: GroundSpace, p: GroundMetric, mu: FiniteMeasure, eta: FiniteMeasure
) -> float:
    """Distance between measures induced by a pseudometric on the space.

    Quotients the space by the zero-distance classes of ``p``, pushes both
    measures through the projection, and evaluates the coupling distance
    in the quotient. Coincides with the coupling distance taken directly
    with ``p`` as the ground cost.
    """
    qspace, proj = quotient(space, p)
    return kantorovich(qspace, pushforward(proj, mu), pushforward(proj, eta)).cost


def reweight_series_check(
    points: Sequence,
    lam: Sequence[float],
    m: int,
    eps: Sequence[float],
    *,
    tol: float = 1e-9,
) -> bool:
    """Verify the convex-combination rewrite used to absorb small weights.

    With ``x'_n = (1 - ε_n)·x_m + ε_n·x_n`` and ``λ'_n = λ_n/ε_n`` for
    ``n ≠ m`` (the weight at ``m`` absorbing the remainder), both convex
    combinations must produce the same point. Requires ``λ_m > 0``,
    ``0 < ε_n ≤ 1``, and ``Σ_{n≠m} λ_n/ε_n ≤ 1``.
    """
    xs = np.array([coordinates(p) for p in points])
    lam = np.asarray(lam, dtype=float)
    eps = np.asarray(eps, dtype=float)
    n = len(xs)
    if len(lam) != n or len(eps) != n:
        raise ValueError("points, weights, and epsilons must have equal length")
    if (lam < 0).any() or abs(lam.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError("weights must be nonnegative and sum to 1")
    if not 0 <= m < n or lam[m] <= 0:
        raise ValueError("the absorbing index must carry positive weight")
    if (eps <= 0).any() or (eps > 1).any():
        raise ValueError("epsilons must lie in (0, 1]")
    others = [k for k in range(n) if k != m]
    lam_prime = np.zeros(n)
    lam_prime[others] = lam[others] / eps[others]
    if lam_prime.sum() > 1.0 + WEIGHT_TOL:
        raise ValueError("epsilons are infeasible: rescaled weights exceed 1")
    lam_prime[m] = 1.0 - lam_prime[others].sum()
    x_prime = (1.0 - eps)[:, None] * xs[m][None, :] + eps[:, None] * xs
    lhs = (lam[:, None] * xs).sum(axis=0)
    rhs = (lam_prime[:, None] * x_prime).sum(axis=0)
    return bool(np.abs(lhs - rhs).max() <= tol)


# ---------------------------------------------------------------------------
# law reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LawReport:
    """Outcome of checking one law over a batch of sampled instances."""

    law: str
    samples: int
    max_deviation: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "samples": self.samples,
            "max_deviation": float(self.max_deviation),
            "pass": bool(self.passed),
        }


ThirdOrder = Sequence[tuple[float, SecondOrderMeasure]]


def check_monad_laws(
    space: GroundSpace, samples: Sequence[ThirdOrder], tol: float = WEIGHT_TOL
) -> list[LawReport]:
    """Verify the unit and associativity laws on sampled instances.

    Each sample is a depth-3 instance: weighted second-order measures over
    ``space``. The unit laws are checked at both levels, associativity by
    comparing the two ways of collapsing depth 3 to depth 1. The report
    records the worst measure deviation per law.
    """
    dev_unit_outer = 0.0
    dev_unit_inner = 0.0
    dev_unit2 = 0.0
    dev_assoc = 0.0
    for sample in samples:
        sample = [(float(t), M) for t, M in sample]
        for _, M in sample:
            for mu, _ in M.items():
                dev_unit_outer = max(dev_unit_outer, measure_deviation(flatten(unit2(mu)), mu))
                via_diracs = SecondOrderMeasure([dirac(p) for p in mu.support], mu.weights)
                dev_unit_inner = max(dev_unit_inner, measure_deviation(flatten(via_diracs), mu))
            as_parts = mix_second_order([(1.0, M)])
            dev_unit2 = max(dev_unit2, _second_order_deviation(as_parts, M))
            redundant = mix_second_order([(float(t), unit2(mu)) for mu, t in M.items()])
            dev_unit2 = max(dev_unit2, _second_order_deviation(redundant, M))
        lhs = flatten(mix_second_order(sample))
        rhs = flatten(SecondOrderMeasure([flatten(M) for _, M in sample], [t for t, _ in sample]))
        dev_assoc = max(dev_assoc, measure_deviation(lhs, rhs))
    n = len(samples)
    return [
        LawReport("unit-dirac-of-measure", n, dev_unit_outer, dev_unit_outer <= tol),
        LawReport("unit-measure-of-diracs", n, dev_unit_inner, dev_unit_inner <= tol),
        LawReport("unit-second-order", n, dev_unit2, dev_unit2 <= tol),
        LawReport("flatten-associativity", n, dev_assoc, dev_assoc <= tol),
    ]


def _second_order_deviation(A: SecondOrderMeasure, B: SecondOrderMeasure) -> float:
    dev = 0.0
    used = [False] * len(B)
    for m, w in A.items():
        for j, (q, v) in enumerate(B.items()):
            if not used[j] and measures_equal(m, q):
                dev = max(dev, abs(float(w) - float(v)))
                used[j] = True
                break
        else:
            dev = max(dev, float(w))
    for j, (_, v) in enumerate(B.items()):
        if not used[j]:
            dev = max(dev, float(v))
    return dev


AlgebraSample = tuple[SecondOrderMeasure, Callable[[Point], Point], int]


def check_algebra(
    space: ConvexSpace,
    samples: Sequence[AlgebraSample],
    metric: GroundMetric | None = None,
    tol: float = WEIGHT_TOL,
) -> list[LawReport]:
    """Verify that barycentric evaluation is an algebra for the monad.

    Each sample carries a second-order measure with coordinate atoms, an
    affine map, and the target dimension of that map. Checks the unit law
    ``b(δ_x) = x``, the two evaluation orders of a second-order measure,
    and commutation of the map with barycenters. Maps are screened for
    affinity on sampled combinations first. When a ``metric`` (induced by
    a norm) is supplied, barycenter non-expansion against the coupling
    distance is reported as well.
    """
    dev_unit = 0.0
    dev_assoc = 0.0
    dev_morphism = 0.0
    dev_nonexp = 0.0
    for M, f, target_dim in samples:
        target = ConvexSpace(target_dim)
        for mu, _ in M.items():
            for x in mu.support:
                b = barycenter(space, dirac(x))
                dev_unit = max(dev_unit, float(np.abs(coordinates(b) - coordinates(x)).max()))
            _require_affine(f, mu.support, space)
            lhs = coordinates(barycenter(target, pushforward(f, mu)))
            rhs = coordinates(as_point(f(barycenter(space, mu))))
            dev_morphism = max(dev_morphism, float(np.abs(lhs - rhs).max()))
        via_flatten = barycenter(space, flatten(M))
        via_map = barycenter(
            space,
            FiniteMeasure([barycenter(space, mu) for mu, _ in M.items()], M.weights),
        )
        dev_assoc = max(
            dev_assoc, float(np.abs(coordinates(via_flatten) - coordinates(via_map)).max())
        )
        if metric is not None:
            gspace_points = {p for mu, _ in M.items() for p in mu.support}
            gspace = GroundSpace(sorted(gspace_points), metric)
            inner = list(M.support)
            for i in range(len(inner)):
                for j in range(i + 1, len(inner)):
                    lhs_d = metric(barycenter(space, inner[i]), barycenter(space, inner[j]))
                    rhs_d = kantorovich(gspace, inner[i], inner[j]).cost
                    dev_nonexp = max(dev_nonexp, lhs_d - rhs_d)
    n = len(samples)
    reports = [
        LawReport("barycenter-of-dirac", n, dev_unit, dev_unit <= tol),
        LawReport("barycenter-evaluation-orders", n, dev_assoc, dev_assoc <= tol),
        LawReport("affine-morphism-commutation", n, dev_morphism, dev_morphism <= tol),
    ]
    if metric is not None:
        reports.append(
            LawReport("barycenter-nonexpansion", n, max(0.0, dev_nonexp), dev_nonexp <= tol)
        )
    return reports


def _require_affine(f, pts: Sequence[Point], space: ConvexSpace, tol: float = 1e-8) -> None:
    """Reject maps that fail affinity on sampled convex combinations."""
    if len(pts) < 2:
        return
    for t in (0.25, 0.5):
        x, y = pts[0], pts[-1]
        mid = space.combine([x, y], [t, 1.0 - t])
        lhs = coordinates(as_point(f(mid)))
        rhs = t * coordinates(as_point(f(x))) + (1.0 - t) * coordinates(as_point(f(y)))
        if np.abs(lhs - rhs).max() > tol:
            raise ValueError("map is not affine on sampled combinations")


def second_order_from_json(obj, *, mass_tol: float = WEIGHT_TOL) -> SecondOrderMeasure:
    """Load ``{"atoms": [{"measure": {...}, "w": ...}, ...]}``."""
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ValueError("second-order measure JSON must be an object with an 'atoms' list")
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("second-order measure JSON needs a nonempty 'atoms' list")
    measures, ws = [], []
    for i, entry in enumerate(atoms):
        if not isinstance(entry, dict) or "measure" not in entry or "w" not in entry:
            raise ValueError(f"atom {i} must be an object with 'measure' and 'w'")
        measures.append(measure_from_json(entry["measure"], mass_tol=mass_tol))
        try:
            ws.append(float(entry["w"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"atom {i}: {exc}") from None
    return SecondOrderMeasure(measures, ws, mass_tol=mass_tol)


def second_order_to_json(M: SecondOrderMeasure) -> dict:
    return {"atoms": [{"measure": measure_to_json(m), "w": float(w)} for m, w in M.items()]}
