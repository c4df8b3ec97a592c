"""Seeded law-checking harness.

Every structural fact the library relies on is restated here as a runnable
law over randomly generated desk-scale instances: metric axioms of the
coupling distance, diameter and isometry preservation, convexity,
barycenter non-expansion, the monad and algebra laws, the neighborhood
mass bound, and the pseudometric lifting identities. Instances are drawn
from numpy's PCG64 generator, so a seed pins the whole suite.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
    ConvexSpace,
    LawReport,
    barycenter,
    check_algebra,
    check_monad_laws,
    flatten,
    lifted_pseudometric,
    reweight_series_check,
    second_order_distance,
)
from .transport import kantorovich, mass_transport_bound_check

# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def random_points(rng: np.random.Generator, n: int, dim: int = 2) -> list[tuple]:
    return [tuple(row) for row in rng.random((n, dim))]


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
    return FiniteMeasure([points[i] for i in idx], w / w.sum())


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
# law runners
# ---------------------------------------------------------------------------


def run_metric_axioms(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """Symmetry and the triangle inequality of the coupling distance."""
    tol = 1e-8 if tol is None else tol
    metrics = [Euclidean(), Manhattan(), Discrete()]
    dev_sym = dev_tri = 0.0
    for s in range(n):
        space = random_space(rng, 8, 2, metrics[s % len(metrics)])
        mu, eta, nu = (random_measure(rng, space.points) for _ in range(3))
        d_me = kantorovich(space, mu, eta).cost
        d_em = kantorovich(space, eta, mu).cost
        d_en = kantorovich(space, eta, nu).cost
        d_mn = kantorovich(space, mu, nu).cost
        dev_sym = max(dev_sym, abs(d_me - d_em))
        dev_tri = max(dev_tri, d_mn - d_me - d_en)
    return [
        LawReport("coupling-distance-symmetry", n, dev_sym, dev_sym <= tol),
        LawReport("coupling-distance-triangle", n, max(0.0, dev_tri), dev_tri <= tol),
    ]


def run_diameter_preservation(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """No pair of measures is farther apart than the space's diameter,
    and a diameter pair of Diracs attains it."""
    tol = 1e-9 if tol is None else tol
    dev = 0.0
    for _ in range(n):
        space = random_space(rng, 8, 2)
        diam = space.diameter()
        mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
        dev = max(dev, kantorovich(space, mu, eta).cost - diam)
        d = space.metric.pairwise(space.points, space.points)
        i, j = np.unravel_index(int(d.argmax()), d.shape)
        attained = kantorovich(space, dirac(space.points[i]), dirac(space.points[j])).cost
        dev = max(dev, abs(attained - diam))
    return [LawReport("diameter-preservation", n, max(0.0, dev), dev <= tol)]


def run_dirac_isometry(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """Dirac measures sit at exactly the ground distance from each other."""
    tol = 1e-12 if tol is None else tol
    dev = 0.0
    for _ in range(n):
        space = random_space(rng, 6, 2)
        x, y = (space.points[int(i)] for i in rng.choice(len(space.points), 2, replace=False))
        dev = max(dev, abs(kantorovich(space, dirac(x), dirac(y)).cost - space.distance(x, y)))
    return [LawReport("dirac-isometry", n, dev, dev <= tol)]


def run_monad_laws(rng, n: int, tol: float | None = None) -> list[LawReport]:
    tol = 1e-9 if tol is None else tol
    space = random_space(rng, 10, 2)
    samples = [random_third_order(rng, space.points) for _ in range(n)]
    return check_monad_laws(space, samples, tol=tol)


def run_algebra_laws(rng, n: int, tol: float | None = None) -> list[LawReport]:
    tol = 1e-9 if tol is None else tol
    space = ConvexSpace(3)
    pts = random_points(rng, 10, 3)
    samples = []
    for _ in range(n):
        M = random_second_order(rng, pts, 3, 4)
        A = rng.normal(size=(3, 3))
        c = rng.normal(size=3)
        samples.append((M, _affine_map(A, c), 3))
    return check_algebra(space, samples, tol=tol)


def _affine_map(A: np.ndarray, c: np.ndarray) -> Callable:
    def f(p):
        return tuple(A @ np.asarray(p, dtype=float) + c)

    return f


def run_isometry_preservation(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """Pushing forward along an isometric embedding preserves distances."""
    tol = 1e-8 if tol is None else tol
    dev = 0.0
    for _ in range(n):
        src = random_space(rng, 8, 2)
        Q = _random_rotation(rng, 3, 2)
        c = rng.normal(size=3)
        f = _affine_map(Q, c)
        mu, eta = random_measure(rng, src.points), random_measure(rng, src.points)
        dst = GroundSpace([f(p) for p in src.points], Euclidean())
        lhs = kantorovich(dst, pushforward(f, mu), pushforward(f, eta)).cost
        dev = max(dev, abs(lhs - kantorovich(src, mu, eta).cost))
    return [LawReport("isometric-embedding-preservation", n, dev, dev <= tol)]


def run_nonexpansion_preservation(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """Pushing forward along a 1-Lipschitz map never increases distance."""
    tol = 1e-9 if tol is None else tol
    dev = 0.0
    for s in range(n):
        src = random_space(rng, 8, 2)
        if s % 2 == 0:
            scale = 0.2 + 0.8 * rng.random()
            f = _affine_map(scale * _random_rotation(rng, 2, 2), rng.normal(size=2))
            dst_points = [f(p) for p in src.points]
        else:
            f = coordinate_projection([0])
            dst_points = [f(p) for p in src.points]
        mu, eta = random_measure(rng, src.points), random_measure(rng, src.points)
        dst = GroundSpace(dst_points, Euclidean())
        lhs = kantorovich(dst, pushforward(f, mu), pushforward(f, eta)).cost
        dev = max(dev, lhs - kantorovich(src, mu, eta).cost)
    return [LawReport("nonexpanding-map-preservation", n, max(0.0, dev), dev <= tol)]


def run_sup_distance_identity(
    rng, n: int, tol: float | None = None, n_measures: int = 20
) -> list[LawReport]:
    """The distance between two pushforward maps is the sup of the ground
    distances of their values, attained at a Dirac."""
    tol = 1e-9 if tol is None else tol
    dev = 0.0
    for _ in range(n):
        domain = [f"y{k}" for k in range(10)]
        space = random_space(rng, 10, 2)
        table_f = {y: space.points[int(i)] for y, i in zip(domain, rng.integers(0, 10, 10))}
        table_g = {y: space.points[int(i)] for y, i in zip(domain, rng.integers(0, 10, 10))}
        f, g = table_f.__getitem__, table_g.__getitem__
        sup_d = max(space.distance(f(y), g(y)) for y in domain)
        for _ in range(n_measures):
            mu = random_measure(rng, domain)
            push = kantorovich(space, pushforward(f, mu), pushforward(g, mu)).cost
            dev = max(dev, push - sup_d)
        dirac_max = max(
            kantorovich(space, pushforward(f, dirac(y)), pushforward(g, dirac(y))).cost
            for y in domain
        )
        dev = max(dev, abs(dirac_max - sup_d))
    return [LawReport("sup-distance-identity", n, max(0.0, dev), dev <= tol)]


def run_convexity(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """The coupling distance is convex under mixing."""
    tol = 1e-9 if tol is None else tol
    dev = 0.0
    metrics = [Euclidean(), Manhattan()]
    for s in range(n):
        space = random_space(rng, 8, 2, metrics[s % 2])
        mu, mu2, eta, eta2 = (random_measure(rng, space.points, 4) for _ in range(4))
        d1 = kantorovich(space, mu, mu2).cost
        d2 = kantorovich(space, eta, eta2).cost
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            lhs = kantorovich(
                space, mix([(t, mu), (1 - t, eta)]), mix([(t, mu2), (1 - t, eta2)])
            ).cost
            dev = max(dev, lhs - (t * d1 + (1 - t) * d2))
    return [LawReport("mixing-convexity", n, max(0.0, dev), dev <= tol)]


def verify_metric_convexity(
    metric: GroundMetric, rng: np.random.Generator, dim: int = 2, samples: int = 25
) -> None:
    """Spot-check that a metric is convex before using it in barycenter
    non-expansion runs."""
    for _ in range(samples):
        x, x2, y, y2 = (tuple(v) for v in rng.random((4, dim)))
        t = float(rng.random())
        mid1 = tuple(t * np.asarray(x) + (1 - t) * np.asarray(y))
        mid2 = tuple(t * np.asarray(x2) + (1 - t) * np.asarray(y2))
        if metric(mid1, mid2) > t * metric(x, x2) + (1 - t) * metric(y, y2) + 1e-9:
            raise ValueError(f"{metric.kind} metric is not convex")


def run_barycenter_nonexpansion(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """Averaging contracts: barycenters are at most the coupling distance apart."""
    tol = 1e-9 if tol is None else tol
    dev = 0.0
    metrics = [Euclidean(), Manhattan()]
    for m in metrics:
        verify_metric_convexity(m, rng)
    cspace = ConvexSpace(2)
    for s in range(n):
        metric = metrics[s % 2]
        space = random_space(rng, 8, 2, metric)
        mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
        lhs = metric(barycenter(cspace, mu), barycenter(cspace, eta))
        dev = max(dev, lhs - kantorovich(space, mu, eta).cost)
    return [LawReport("barycenter-nonexpansion", n, max(0.0, dev), dev <= tol)]


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


def run_mass_transport_bound(rng, n: int, tol: float | None = None) -> list[LawReport]:
    failures = 0
    for _ in range(n):
        points = random_points(rng, 10, 2)
        space, mu, eta, K, eps, delta = make_mass_transport_instance(rng, points)
        if mass_transport_bound_check(space, mu, eta, K, eps, delta) is not True:
            failures += 1
    dev = float(failures)
    return [LawReport("mass-transport-bound", n, dev, failures == 0)]


def run_flatten_nonexpansion(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """Flattening never increases the (second-order) coupling distance."""
    tol = 1e-9 if tol is None else tol
    dev = 0.0
    for _ in range(n):
        space = random_space(rng, 8, 2)
        M = random_second_order(rng, space.points)
        N = random_second_order(rng, space.points)
        outer = second_order_distance(space, M, N).cost
        inner = kantorovich(space, flatten(M), flatten(N)).cost
        dev = max(dev, inner - outer)
    return [LawReport("flatten-nonexpansion", n, max(0.0, dev), dev <= tol)]


def run_dirac_flatten_equality(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """Distance from a doubly Dirac measure equals the distance to the
    flattened measure."""
    tol = 1e-8 if tol is None else tol
    dev = 0.0
    for _ in range(n):
        space = random_space(rng, 8, 2)
        x = space.points[int(rng.integers(len(space.points)))]
        M = random_second_order(rng, space.points)
        lhs = second_order_distance(space, dirac(dirac(x)), M).cost
        rhs = kantorovich(space, dirac(x), flatten(M)).cost
        dev = max(dev, abs(lhs - rhs))
    return [LawReport("dirac-flatten-equality", n, dev, dev <= tol)]


def _random_pseudometric(rng) -> GroundMetric:
    """A pseudometric on the plane with genuine zero-distance collapses."""
    axis = int(rng.integers(0, 2))
    inner = [Euclidean(), Manhattan(), Chebyshev()][int(rng.integers(0, 3))]
    return PullbackMetric(coordinate_projection([axis]), inner)


def run_lift_consistency(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """Lifting through the quotient agrees with costing the pseudometric
    directly."""
    tol = 1e-9 if tol is None else tol
    dev = 0.0
    for _ in range(n):
        p = _random_pseudometric(rng)
        space = random_space(rng, 8, 2, p)
        mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
        via_quotient = lifted_pseudometric(space, p, mu, eta)
        direct = kantorovich(space, mu, eta).cost
        dev = max(dev, abs(via_quotient - direct))
    return [LawReport("lift-quotient-consistency", n, dev, dev <= tol)]


def run_pullback_lift_commutation(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """Lifting a pulled-back pseudometric equals lifting after pushforward."""
    tol = 1e-9 if tol is None else tol
    dev = 0.0
    for _ in range(n):
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
        dev = max(dev, abs(lhs - rhs))
    return [LawReport("pullback-lift-commutation", n, dev, dev <= tol)]


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


def run_reweight_identity(rng, n: int, tol: float | None = None) -> list[LawReport]:
    tol = 1e-9 if tol is None else tol
    failures = 0
    for _ in range(n):
        pts, lam, m, eps = make_reweight_instance(rng)
        if not reweight_series_check(pts, lam, m, eps, tol=tol):
            failures += 1
    return [LawReport("reweight-identity", n, float(failures), failures == 0)]


def run_lifted_diameter(rng, n: int, tol: float | None = None) -> list[LawReport]:
    """A lifted pseudometric keeps the diameter of the ground pseudometric."""
    tol = 1e-9 if tol is None else tol
    dev = 0.0
    for _ in range(n):
        p = _random_pseudometric(rng)
        space = random_space(rng, 8, 2, p)
        diam = space.diameter()
        mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
        dev = max(dev, lifted_pseudometric(space, p, mu, eta) - diam)
        d = p.pairwise(space.points, space.points)
        i, j = np.unravel_index(int(d.argmax()), d.shape)
        attained = lifted_pseudometric(space, p, dirac(space.points[i]), dirac(space.points[j]))
        dev = max(dev, abs(attained - diam))
    return [LawReport("lifted-diameter-preservation", n, max(0.0, dev), dev <= tol)]


#: The full suite, in report order.
LAW_RUNNERS = [
    run_metric_axioms,
    run_diameter_preservation,
    run_dirac_isometry,
    run_monad_laws,
    run_algebra_laws,
    run_isometry_preservation,
    run_nonexpansion_preservation,
    run_sup_distance_identity,
    run_convexity,
    run_barycenter_nonexpansion,
    run_mass_transport_bound,
    run_flatten_nonexpansion,
    run_dirac_flatten_equality,
    run_lift_consistency,
    run_pullback_lift_commutation,
    run_reweight_identity,
    run_lifted_diameter,
]


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
