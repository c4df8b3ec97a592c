"""Probability-monad structure over finitely supported measures.

A measure of measures is a :class:`FiniteMeasure` whose atoms are measures,
so one type serves every order. The unit sends an atom to its Dirac
measure (:func:`~kantorovich.measures.dirac`, at any order); the
multiplication flattens a measure of measures into its mixture, which for
coordinate supports is the barycenter map. The second-order distance is
the same construction one order up: the inner measures' distances are its
cost matrix, solved as :func:`~kantorovich.transport.kantorovich` solves
one. The monad and algebra laws are checked in :mod:`kantorovich.laws`.
"""

from __future__ import annotations

from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .ground import GroundMetric, GroundSpace, _coord_array, quotient
from .measures import FiniteMeasure, WEIGHT_TOL, mix, pushforward
from .points import Point, as_point, coordinates
from .transport import TransportResult, _transport, kantorovich


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
    """Coupling distance between measures of measures of points.

    The ground cost between two inner measures is their coupling distance
    over ``space``. The inner distance matrix is solved as
    :func:`~kantorovich.transport.kantorovich` solves its cost matrix: an
    inner measure that both hold (under ``measures_equal``) keeps its mass.
    """
    for name, outer in (("M", M), ("N", N)):
        if not isinstance(outer.support[0], FiniteMeasure):
            raise TypeError(
                f"{name} must be a measure of measures, not of points like {outer.support[0]!r}"
            )
        if any(isinstance(m.support[0], FiniteMeasure) for m in outer.support):
            raise TypeError(f"{name} must be a measure of order 2, not of order 3 or more")
    D = np.array([[kantorovich(space, m, n).cost for n in N.support] for m in M.support])
    return _transport(D, M, N)


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
    xs = _coord_array(points, "reweight_series_check")
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
