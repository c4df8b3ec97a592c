"""Probability-monad structure over finitely supported measures.

A measure of measures is a :class:`FiniteMeasure` whose atoms are measures,
so one type serves every order. The unit sends an atom to its Dirac
measure (:func:`dirac`, at any order); the multiplication flattens a
measure of measures into its mixture, which for coordinate supports is the
barycenter map. The same coupling solver that computes ground distances
computes the second-order distance on measures of measures, with the
ground distance itself as the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ground import GroundMetric, GroundSpace, quotient
from .measures import (
    FiniteMeasure,
    WEIGHT_TOL,
    dirac,
    measure_deviation,
    mix,
    pushforward,
)
from .points import Point, as_point, coordinates
from .transport import Coupling, TransportResult, kantorovich, solve_transport


def flatten(M: FiniteMeasure) -> FiniteMeasure:
    """Monad multiplication: the mixture of the inner measures.

    This is the barycenter of a measure on measures; for finite supports
    it is the convex combination of the inner measures.
    """
    return mix([(float(t), m) for m, t in M.items()])


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
    space: GroundSpace, M: FiniteMeasure, N: FiniteMeasure
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


ThirdOrder = Sequence[tuple[float, FiniteMeasure]]


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
    dev_unit_second = 0.0
    dev_assoc = 0.0
    for sample in samples:
        sample = [(float(t), M) for t, M in sample]
        for _, M in sample:
            for mu, _ in M.items():
                dev_unit_outer = max(dev_unit_outer, measure_deviation(flatten(dirac(mu)), mu))
                via_diracs = FiniteMeasure([dirac(p) for p in mu.support], mu.weights)
                dev_unit_inner = max(dev_unit_inner, measure_deviation(flatten(via_diracs), mu))
            as_parts = mix([(1.0, M)])
            dev_unit_second = max(dev_unit_second, measure_deviation(as_parts, M))
            redundant = mix([(float(t), dirac(mu)) for mu, t in M.items()])
            dev_unit_second = max(dev_unit_second, measure_deviation(redundant, M))
        lhs = flatten(mix(sample))
        rhs = flatten(FiniteMeasure([flatten(M) for _, M in sample], [t for t, _ in sample]))
        dev_assoc = max(dev_assoc, measure_deviation(lhs, rhs))
    n = len(samples)
    return [
        LawReport("unit-dirac-of-measure", n, dev_unit_outer, dev_unit_outer <= tol),
        LawReport("unit-measure-of-diracs", n, dev_unit_inner, dev_unit_inner <= tol),
        LawReport("unit-second-order", n, dev_unit_second, dev_unit_second <= tol),
        LawReport("flatten-associativity", n, dev_assoc, dev_assoc <= tol),
    ]


AlgebraSample = tuple[FiniteMeasure, Callable[[Point], Point], int]


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
