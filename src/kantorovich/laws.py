"""Seeded law-checking harness.

Every structural fact the library relies on is restated here as a runnable
law over randomly generated desk-scale instances: metric axioms of the
coupling distance, diameter and isometry preservation, convexity,
barycenter non-expansion, the monad and algebra laws, the neighborhood
mass bound, and the pseudometric lifting identities. Instances are drawn
from numpy's PCG64 generator, so a seed pins the whole suite.

Each law is one row of :data:`LAWS`: a per-sample check plus report names
and a default tolerance. Its runner folds the checks with
:func:`~kantorovich.monad.fold_reports`.
"""

from __future__ import annotations

from math import isfinite, nan
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ground import (
    Chebyshev,
    Discrete,
    Euclidean,
    GroundMetric,
    GroundSpace,
    Manhattan,
    PullbackMetric,
    coordinate_projection,
    pullback,
)
from .measures import FiniteMeasure, dirac, mix, pushforward
from .monad import (
    ALGEBRA_LAWS,
    MONAD_LAWS,
    ConvexSpace,
    LawReport,
    algebra_deviations,
    barycenter,
    flatten,
    fold_reports,
    lifted_pseudometric,
    monad_deviations,
    reweight_series_check,
    second_order_distance,
    worst,
)
from .transport import kantorovich, mass_transport_bound_check

# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def random_points(rng: np.random.Generator, n: int, dim: int = 2) -> list[tuple]:
    return [tuple(row) for row in rng.random((n, dim)).tolist()]


def random_space(
    rng: np.random.Generator, n: int = 8, dim: int = 2, metric: GroundMetric | None = None
) -> GroundSpace:
    return GroundSpace(random_points(rng, n, dim), metric or Euclidean())


def random_measure(
    rng: np.random.Generator, points: Sequence, max_support: int = 5
) -> FiniteMeasure:
    k = int(rng.integers(1, min(max_support, len(points)) + 1))
    idx = rng.choice(len(points), size=k, replace=False)
    w = rng.random(k) + 0.1
    return FiniteMeasure([points[i] for i in idx.tolist()], w / w.sum())


def random_second_order(
    rng: np.random.Generator,
    points: Sequence,
    max_outer: int = 4,
    max_inner: int = 5,
) -> FiniteMeasure:
    k = int(rng.integers(1, max_outer + 1))
    inner = [random_measure(rng, points, max_inner) for _ in range(k)]
    w = rng.random(k) + 0.1
    return FiniteMeasure(inner, w / w.sum())


def random_third_order(
    rng: np.random.Generator, points: Sequence, max_parts: int = 3
) -> list[tuple[float, FiniteMeasure]]:
    k = int(rng.integers(1, max_parts + 1))
    w = rng.random(k) + 0.1
    w = w / w.sum()
    return [(float(w[i]), random_second_order(rng, points, 3, 4)) for i in range(k)]


def _random_rotation(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    return q[:, :cols]


# ---------------------------------------------------------------------------
# per-sample law checks
# ---------------------------------------------------------------------------
# Each check(rng, s, shared, tol) draws sample s and returns one deviation
# per report of its row in LAWS; shared is what the row's setup drew.

# ground metrics cycled over samples; laws that need a norm take the first two
_METRICS = (Euclidean(), Manhattan(), Discrete())
_PLANE, _CUBE = ConvexSpace(2), ConvexSpace(3)


def _metric_axioms(rng, s, shared, tol):
    """Symmetry and the triangle inequality of the coupling distance."""
    space = random_space(rng, 8, 2, _METRICS[s % 3])
    mu, eta, nu = (random_measure(rng, space.points) for _ in range(3))
    d_me = kantorovich(space, mu, eta).cost
    d_em = kantorovich(space, eta, mu).cost
    d_en = kantorovich(space, eta, nu).cost
    d_mn = kantorovich(space, mu, nu).cost
    return abs(d_me - d_em), d_mn - d_me - d_en


def _diameter_preservation(rng, s, shared, tol):
    """No pair of measures is farther apart than the space's diameter,
    and a diameter pair of Diracs attains it."""
    space = random_space(rng, 8, 2)
    diam = space.diameter()
    mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
    above = kantorovich(space, mu, eta).cost - diam
    d = space.metric.pairwise(space.points, space.points)
    i, j = np.unravel_index(int(d.argmax()), d.shape)
    attained = kantorovich(space, dirac(space.points[i]), dirac(space.points[j])).cost
    return (worst((above, abs(attained - diam))),)


def _dirac_isometry(rng, s, shared, tol):
    """Dirac measures sit at exactly the ground distance from each other."""
    space = random_space(rng, 6, 2)
    x, y = (space.points[int(i)] for i in rng.choice(len(space.points), 2, replace=False))
    return (abs(kantorovich(space, dirac(x), dirac(y)).cost - space.distance(x, y)),)


def _monad_laws(rng, s, space, tol):
    """Unit and associativity laws of flatten and dirac."""
    return monad_deviations(random_third_order(rng, space.points))


def _algebra_laws(rng, s, pts, tol):
    """Barycentric evaluation is an algebra for the monad."""
    M = random_second_order(rng, pts, 3, 4)
    A = rng.normal(size=(3, 3))
    c = rng.normal(size=3)
    return algebra_deviations(_CUBE, (M, _affine_map(A, c), 3))


def _affine_map(A: np.ndarray, c: np.ndarray) -> Callable:
    return lambda p: tuple((A @ np.asarray(p, dtype=float) + c).tolist())


def _isometry_preservation(rng, s, shared, tol):
    """Pushing forward along an isometric embedding preserves distances."""
    src = random_space(rng, 8, 2)
    Q = _random_rotation(rng, 3, 2)
    c = rng.normal(size=3)
    f = _affine_map(Q, c)
    mu, eta = random_measure(rng, src.points), random_measure(rng, src.points)
    dst = GroundSpace([f(p) for p in src.points], Euclidean())
    lhs = kantorovich(dst, pushforward(f, mu), pushforward(f, eta)).cost
    return (abs(lhs - kantorovich(src, mu, eta).cost),)


def _nonexpansion_preservation(rng, s, shared, tol):
    """Pushing forward along a 1-Lipschitz map never increases distance."""
    src = random_space(rng, 8, 2)
    if s % 2 == 0:
        scale = 0.2 + 0.8 * rng.random()
        f = _affine_map(scale * _random_rotation(rng, 2, 2), rng.normal(size=2))
    else:
        f = coordinate_projection([0])
    mu, eta = random_measure(rng, src.points), random_measure(rng, src.points)
    dst = GroundSpace([f(p) for p in src.points], Euclidean())
    lhs = kantorovich(dst, pushforward(f, mu), pushforward(f, eta)).cost
    return (lhs - kantorovich(src, mu, eta).cost,)


def _sup_distance_identity(rng, s, shared, tol, n_measures: int = 20):
    """The distance between two pushforward maps is the sup of the ground
    distances of their values, attained at a Dirac."""
    domain = [f"y{k}" for k in range(10)]
    space = random_space(rng, 10, 2)
    table_f = {y: space.points[int(i)] for y, i in zip(domain, rng.integers(0, 10, 10))}
    table_g = {y: space.points[int(i)] for y, i in zip(domain, rng.integers(0, 10, 10))}
    f, g = table_f.__getitem__, table_g.__getitem__
    sup_d = max(space.distance(f(y), g(y)) for y in domain)
    mus = (random_measure(rng, domain) for _ in range(n_measures))
    devs = [kantorovich(space, pushforward(f, mu), pushforward(g, mu)).cost - sup_d for mu in mus]
    dirac_max = worst(
        kantorovich(space, pushforward(f, dirac(y)), pushforward(g, dirac(y))).cost
        for y in domain
    )
    devs.append(abs(dirac_max - sup_d))
    return (worst(devs),)


def _convexity(rng, s, shared, tol):
    """The coupling distance is convex under mixing."""
    space = random_space(rng, 8, 2, _METRICS[s % 2])
    mu, mu2, eta, eta2 = (random_measure(rng, space.points, 4) for _ in range(4))
    d1 = kantorovich(space, mu, mu2).cost
    d2 = kantorovich(space, eta, eta2).cost
    gaps = (
        kantorovich(space, mix([(t, mu), (1 - t, eta)]), mix([(t, mu2), (1 - t, eta2)])).cost
        - (t * d1 + (1 - t) * d2)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    return (worst(gaps),)


def _barycenter_nonexpansion(rng, s, shared, tol):
    """Averaging contracts: barycenters are at most the coupling distance apart."""
    metric = _METRICS[s % 2]
    space = random_space(rng, 8, 2, metric)
    mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
    lhs = metric(barycenter(_PLANE, mu), barycenter(_PLANE, eta))
    return (lhs - kantorovich(space, mu, eta).cost,)


def make_mass_transport_instance(rng, points: Sequence):
    """An instance satisfying the hypotheses of the neighborhood mass bound."""
    mu = random_measure(rng, points)
    eta = random_measure(rng, points)
    space = GroundSpace(points, Euclidean())
    d_hat = kantorovich(space, mu, eta).cost
    delta = 2.0 * d_hat + 0.05 + float(rng.random())
    eps_floor = 2.0 * d_hat / delta
    eps = eps_floor + (1.0 - eps_floor) * (0.05 + 0.9 * float(rng.random()))
    # K: heaviest atoms of mu until mass reaches 1 - eps/2
    order = np.argsort(mu.weights)[::-1]
    k_atoms, acc = [], 0.0
    for i in order:
        k_atoms.append(mu.support[i])
        acc += float(mu.weights[i])
        if acc >= 1.0 - eps / 2.0:
            break
    K = lambda p: any(p == q for q in k_atoms)  # noqa: E731
    return space, mu, eta, K, eps, delta


def _mass_transport_bound(rng, s, shared, tol):
    """The neighborhood mass bound holds; counts failing instances."""
    space, mu, eta, K, eps, delta = make_mass_transport_instance(rng, random_points(rng, 10, 2))
    if not (isfinite(eps) and isfinite(delta)):
        # a non-finite distance leaves no instance to check
        return (nan,)
    return (float(mass_transport_bound_check(space, mu, eta, K, eps, delta) is not True),)


def _flatten_nonexpansion(rng, s, shared, tol):
    """Flattening never increases the (second-order) coupling distance."""
    space = random_space(rng, 8, 2)
    M = random_second_order(rng, space.points)
    N = random_second_order(rng, space.points)
    outer = second_order_distance(space, M, N).cost
    return (kantorovich(space, flatten(M), flatten(N)).cost - outer,)


def _dirac_flatten_equality(rng, s, shared, tol):
    """Distance from a doubly Dirac measure equals the distance to the
    flattened measure."""
    space = random_space(rng, 8, 2)
    x = space.points[int(rng.integers(len(space.points)))]
    M = random_second_order(rng, space.points)
    lhs = second_order_distance(space, dirac(dirac(x)), M).cost
    return (abs(lhs - kantorovich(space, dirac(x), flatten(M)).cost),)


def _random_pseudometric(rng) -> GroundMetric:
    """A pseudometric on the plane with genuine zero-distance collapses."""
    axis = int(rng.integers(0, 2))
    inner = [Euclidean(), Manhattan(), Chebyshev()][int(rng.integers(0, 3))]
    return PullbackMetric(coordinate_projection([axis]), inner)


def _lift_consistency(rng, s, shared, tol):
    """Lifting through the quotient agrees with costing the pseudometric
    directly."""
    p = _random_pseudometric(rng)
    space = random_space(rng, 8, 2, p)
    mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
    via_quotient = lifted_pseudometric(space, p, mu, eta)
    return (abs(via_quotient - kantorovich(space, mu, eta).cost),)


def _pullback_lift_commutation(rng, s, shared, tol):
    """Lifting a pulled-back pseudometric equals lifting after pushforward."""
    src = random_space(rng, 8, 2)
    dst_points = random_points(rng, 6, 2)
    assignment = {p: dst_points[int(i)] for p, i in zip(src.points, rng.integers(0, 6, 8))}
    f = assignment.__getitem__
    p = _random_pseudometric(rng)
    dst = GroundSpace(dst_points, p)
    rho = pullback(f, p)
    rho_space = GroundSpace(src.points, rho)
    mu, eta = random_measure(rng, src.points), random_measure(rng, src.points)
    lhs = lifted_pseudometric(rho_space, rho, mu, eta)
    rhs = lifted_pseudometric(dst, p, pushforward(f, mu), pushforward(f, eta))
    return (abs(lhs - rhs),)


def make_reweight_instance(rng, dim: int = 3):
    """A feasible instance of the convex-combination rewrite."""
    k = int(rng.integers(2, 7))
    pts = random_points(rng, k, dim)
    lam = rng.random(k) + 0.05
    lam = lam / lam.sum()
    m = int(lam.argmax())
    others = [i for i in range(k) if i != m]
    alpha = rng.random(k - 1)
    alpha = alpha * (0.9 * rng.random() / alpha.sum())
    eps = np.ones(k)
    lam_target = lam[others] + lam[m] * alpha
    eps[others] = lam[others] / lam_target
    eps[m] = 0.1 + 0.9 * float(rng.random())
    return pts, lam, m, eps


def _reweight_identity(rng, s, shared, tol):
    """The convex-combination rewrite keeps the point; counts failures."""
    pts, lam, m, eps = make_reweight_instance(rng)
    return (float(not reweight_series_check(pts, lam, m, eps, tol=tol)),)


def _lifted_diameter(rng, s, shared, tol):
    """A lifted pseudometric keeps the diameter of the ground pseudometric."""
    p = _random_pseudometric(rng)
    space = random_space(rng, 8, 2, p)
    diam = space.diameter()
    mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
    above = lifted_pseudometric(space, p, mu, eta) - diam
    d = p.pairwise(space.points, space.points)
    i, j = np.unravel_index(int(d.argmax()), d.shape)
    attained = lifted_pseudometric(space, p, dirac(space.points[i]), dirac(space.points[j]))
    return (worst((above, abs(attained - diam))),)


# ---------------------------------------------------------------------------
# the law table
# ---------------------------------------------------------------------------


class Law(NamedTuple):
    """One row of the suite: report names, default tolerance, per-sample
    check, optional setup drawn before the first sample, and whether
    deviations are failure flags to count. The runner of a row is named
    ``run`` plus the name of its check."""

    reports: tuple[str, ...]
    tol: float | None
    check: Callable
    setup: Callable | None = None
    count: bool = False


LAWS = [
    Law(("coupling-distance-symmetry", "coupling-distance-triangle"), 1e-8, _metric_axioms),
    Law(("diameter-preservation",), 1e-9, _diameter_preservation),
    Law(("dirac-isometry",), 1e-12, _dirac_isometry),
    Law(MONAD_LAWS, 1e-9, _monad_laws, lambda rng: random_space(rng, 10, 2)),
    Law(ALGEBRA_LAWS[:3], 1e-9, _algebra_laws, lambda rng: random_points(rng, 10, 3)),
    Law(("isometric-embedding-preservation",), 1e-8, _isometry_preservation),
    Law(("nonexpanding-map-preservation",), 1e-9, _nonexpansion_preservation),
    Law(("sup-distance-identity",), 1e-9, _sup_distance_identity),
    Law(("mixing-convexity",), 1e-9, _convexity),
    Law(("barycenter-nonexpansion",), 1e-9, _barycenter_nonexpansion),
    Law(("mass-transport-bound",), None, _mass_transport_bound, count=True),
    Law(("flatten-nonexpansion",), 1e-9, _flatten_nonexpansion),
    Law(("dirac-flatten-equality",), 1e-8, _dirac_flatten_equality),
    Law(("lift-quotient-consistency",), 1e-9, _lift_consistency),
    Law(("pullback-lift-commutation",), 1e-9, _pullback_lift_commutation),
    Law(("reweight-identity",), 1e-9, _reweight_identity, count=True),
    Law(("lifted-diameter-preservation",), 1e-9, _lifted_diameter),
]


def _runner(law: Law) -> Callable[..., list[LawReport]]:
    def run(rng, n: int, tol: float | None = None, **params) -> list[LawReport]:
        shared = law.setup(rng) if law.setup else None
        check = lambda s, tol: law.check(rng, s, shared, tol, **params)  # noqa: E731
        return fold_reports(law.reports, check, n, tol, law.tol, law.count)

    run.__name__ = run.__qualname__ = "run" + law.check.__name__
    run.__doc__ = law.check.__doc__
    return run


#: The full suite, in report order: ``runner(rng, samples, tol, **params)``.
LAW_RUNNERS = [_runner(law) for law in LAWS]
(
    run_metric_axioms, run_diameter_preservation, run_dirac_isometry, run_monad_laws,
    run_algebra_laws, run_isometry_preservation, run_nonexpansion_preservation,
    run_sup_distance_identity, run_convexity, run_barycenter_nonexpansion,
    run_mass_transport_bound, run_flatten_nonexpansion, run_dirac_flatten_equality,
    run_lift_consistency, run_pullback_lift_commutation, run_reweight_identity,
    run_lifted_diameter,
) = LAW_RUNNERS


def run_law_suite(seed: int, samples: int = 200, tol: float | None = None) -> list[LawReport]:
    """Run every law with independent seeded generators.

    The seed fully determines every instance, so identical calls produce
    identical reports. No law can pass on zero samples.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    children = np.random.SeedSequence(seed).spawn(len(LAW_RUNNERS))
    reports: list[LawReport] = []
    for runner, child in zip(LAW_RUNNERS, children):
        reports.extend(runner(np.random.default_rng(child), samples, tol))
    return reports
