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
from itertools import combinations
from math import isfinite, nan
from numbers import Real
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
        if isinstance(dim, bool) or not isinstance(dim, Real) or not float(dim).is_integer():
            raise ValueError(f"dimension must be an integer, got {dim!r}")
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
    for name, outer in (("M", M), ("N", N)):
        if not isinstance(outer.support[0], FiniteMeasure):
            raise TypeError(
                f"{name} must be a measure of measures, not of points like {outer.support[0]!r}"
            )
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
    for name, arr in (("lam", lam), ("eps", eps)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite, got {arr.tolist()!r}")
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


@dataclass(frozen=True, eq=False)
class LawReport:
    """Outcome of checking one law over a batch of sampled instances. ``witness``
    (not serialized) is the sample that set ``max_deviation``, None if it stayed 0.
    Reports compare by field, with a NaN deviation equal to a NaN deviation."""

    law: str
    samples: int
    max_deviation: float
    passed: bool
    witness: int | None = None

    def to_json(self) -> dict:
        dev = float(self.max_deviation)
        return {
            "law": self.law,
            "samples": self.samples,
            "max_deviation": dev if isfinite(dev) else None,
            "pass": bool(self.passed),
        }

    def _key(self) -> tuple:
        dev = self.max_deviation
        return (self.law, self.samples, dev if dev == dev else "nan", self.passed, self.witness)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, LawReport) else NotImplemented

    def __hash__(self):
        return hash(self._key())


def worst(values) -> float:
    """The largest of ``values`` floored at 0.0, or NaN if any is NaN."""
    values = list(values)
    return nan if any(v != v for v in values) else max([0.0, *values])


def fold_reports(
    laws: Sequence[str],
    check: Callable[[int, float], Sequence[float]],
    n: int,
    tol: float | None,
    default_tol: float | None = WEIGHT_TOL,
    count: bool = False,
) -> list[LawReport]:
    """Fold ``check(s, tol)``, one deviation per law, over samples ``s < n``.

    A law's ``max_deviation`` is the :func:`worst` over samples (so a NaN
    fails it) and must be at most ``tol``, ``default_tol`` if ``None``.
    With ``count`` deviations are failure flags and ``max_deviation``
    counts them. The witness is the last sample that raised the value, or
    the first to give NaN.
    """
    tol = default_tol if tol is None else tol
    dev = [0.0] * len(laws)
    witness: list[int | None] = [None] * len(laws)
    for s in range(n):
        for k, d in enumerate(check(s, tol)):
            new = dev[k] + d if count else d
            if dev[k] == dev[k] and (new > dev[k] or new != new):
                dev[k], witness[k] = new, s
    return [
        LawReport(law, n, d, d == 0.0 if count else d <= tol, w)
        for law, d, w in zip(laws, dev, witness)
    ]


ThirdOrder = Sequence[tuple[float, FiniteMeasure]]

MONAD_LAWS = (
    "unit-dirac-of-measure",
    "unit-measure-of-diracs",
    "unit-second-order",
    "flatten-associativity",
)


def monad_deviations(sample: ThirdOrder) -> tuple[float, float, float, float]:
    """Worst measure deviation of one depth-3 instance, per law of
    :data:`MONAD_LAWS`."""
    sample = [(float(t), M) for t, M in sample]
    outer, inner, second = [], [], []
    for _, M in sample:
        for mu, _ in M.items():
            outer.append(measure_deviation(flatten(dirac(mu)), mu))
            via_diracs = FiniteMeasure([dirac(p) for p in mu.support], mu.weights)
            inner.append(measure_deviation(flatten(via_diracs), mu))
        second.append(measure_deviation(mix([(1.0, M)]), M))
        redundant = mix([(float(t), dirac(mu)) for mu, t in M.items()])
        second.append(measure_deviation(redundant, M))
    lhs = flatten(mix(sample))
    rhs = flatten(FiniteMeasure([flatten(M) for _, M in sample], [t for t, _ in sample]))
    return worst(outer), worst(inner), worst(second), measure_deviation(lhs, rhs)


def check_monad_laws(
    space: GroundSpace, samples: Sequence[ThirdOrder], tol: float = WEIGHT_TOL
) -> list[LawReport]:
    """Verify the unit and associativity laws on sampled instances.

    Each sample is a depth-3 instance: weighted second-order measures over
    ``space``. The unit laws are checked at both levels, associativity by
    comparing the two ways of collapsing depth 3 to depth 1. The report
    records the worst measure deviation per law.
    """
    return fold_reports(MONAD_LAWS, lambda s, _: monad_deviations(samples[s]), len(samples), tol)


AlgebraSample = tuple[FiniteMeasure, Callable[[Point], Point], int]

ALGEBRA_LAWS = (
    "barycenter-of-dirac",
    "barycenter-evaluation-orders",
    "affine-morphism-commutation",
    "barycenter-nonexpansion",
)


def algebra_deviations(
    space: ConvexSpace, sample: AlgebraSample, metric: GroundMetric | None = None
) -> tuple[float, ...]:
    """Worst deviation of one algebra instance, per law of
    :data:`ALGEBRA_LAWS` (the last only with a ``metric``)."""
    M, f, target_dim = sample
    target = ConvexSpace(target_dim)
    unit, morphism = [], []
    for mu, _ in M.items():
        for x in mu.support:
            b = barycenter(space, dirac(x))
            unit.append(float(np.abs(coordinates(b) - coordinates(x)).max()))
        _require_affine(f, mu.support, space)
        lhs = coordinates(barycenter(target, pushforward(f, mu)))
        rhs = coordinates(as_point(f(barycenter(space, mu))))
        morphism.append(float(np.abs(lhs - rhs).max()))
    via_flatten = barycenter(space, flatten(M))
    means = [barycenter(space, mu) for mu in M.support]
    via_map = barycenter(space, FiniteMeasure(means, M.weights))
    assoc = float(np.abs(coordinates(via_flatten) - coordinates(via_map)).max())
    devs = (worst(unit), assoc, worst(morphism))
    if metric is None:
        return devs
    gspace = GroundSpace(sorted({p for mu, _ in M.items() for p in mu.support}), metric)
    nonexp = [
        metric(barycenter(space, mu), barycenter(space, nu)) - kantorovich(gspace, mu, nu).cost
        for mu, nu in combinations(M.support, 2)
    ]
    return devs + (worst(nonexp),)


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
    laws = ALGEBRA_LAWS if metric is not None else ALGEBRA_LAWS[:3]
    check = lambda s, _: algebra_deviations(space, samples[s], metric)  # noqa: E731
    return fold_reports(laws, check, len(samples), tol)


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
