"""Seeded law-checking harness.

Every structural fact the library relies on is restated here as a runnable
law over randomly generated desk-scale instances: metric axioms of the
coupling distance, diameter and isometry preservation, convexity,
barycenter non-expansion, the monad and algebra laws, the neighborhood
mass bound, and the pseudometric lifting identities. Instances are drawn
from numpy's PCG64 generator, so a seed pins the whole suite.

Each law is one row of :data:`LAWS`: a per-sample check plus report names
and a default tolerance. Its runner folds the checks with
:func:`fold_reports` into one :class:`LawReport` per report name.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)
from .measures import WEIGHT_TOL, FiniteMeasure, dirac, measure_deviation, mix, pushforward
from .monad import (
    ConvexSpace,
    barycenter,
    flatten,
    lifted_pseudometric,
    reweight_series_check,
    second_order_distance,
)
from .points import Point, coordinates, points_equal
from .transport import kantorovich, mass_transport_bound_check

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


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def random_points(rng: np.random.Generator, n: int, dim: int = 2) -> list[tuple]:
    return [tuple(row) for row in rng.random((n, dim)).tolist()]


def random_space(rng: np.random.Generator, n: int = 8, metric: GroundMetric | None = None) -> GroundSpace:
    return GroundSpace(random_points(rng, n, 2), metric or Euclidean())


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


def random_third_order(rng: np.random.Generator, points: Sequence) -> list[tuple[float, FiniteMeasure]]:
    k = int(rng.integers(1, 4))
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
    space = random_space(rng, 8, _METRICS[s % 3])
    mu, eta, nu = (random_measure(rng, space.points) for _ in range(3))
    d_me = kantorovich(space, mu, eta).cost
    d_em = kantorovich(space, eta, mu).cost
    d_en = kantorovich(space, eta, nu).cost
    d_mn = kantorovich(space, mu, nu).cost
    return abs(d_me - d_em), d_mn - d_me - d_en


def _diameter_deviation(rng, metric: GroundMetric, distance: Callable) -> tuple[float]:
    """On a random space under ``metric``: by how much ``distance(space, mu,
    eta)`` of two random measures exceeds the diameter, or a diameter pair
    of Diracs misses it, whichever is worse."""
    space = random_space(rng, 8, metric)
    d = metric.pairwise(space.points, space.points)
    diam = float(d.max())
    mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
    above = distance(space, mu, eta) - diam
    i, j = np.unravel_index(int(d.argmax()), d.shape)
    attained = distance(space, dirac(space.points[i]), dirac(space.points[j]))
    return (worst((above, abs(attained - diam))),)


def _diameter_preservation(rng, s, shared, tol):
    """No pair of measures is farther apart than the space's diameter,
    and a diameter pair of Diracs attains it."""
    return _diameter_deviation(
        rng, Euclidean(), lambda space, *pair: kantorovich(space, *pair).cost
    )


def _dirac_isometry(rng, s, shared, tol):
    """Dirac measures sit at exactly the ground distance from each other."""
    space = random_space(rng, 6)
    x, y = (space.points[int(i)] for i in rng.choice(len(space.points), 2, replace=False))
    return (abs(kantorovich(space, dirac(x), dirac(y)).cost - space.metric(x, y)),)


ThirdOrder = Sequence[tuple[float, FiniteMeasure]]

MONAD_LAWS = (
    "unit-dirac-of-measure",
    "unit-measure-of-diracs",
    "unit-second-order",
    "flatten-associativity",
)


def monad_deviations(sample: ThirdOrder) -> tuple[float, float, float, float]:
    """Worst measure deviation of one depth-3 instance, per law of
    :data:`MONAD_LAWS`: the unit laws at both levels, and associativity as
    the two ways of collapsing depth 3 to depth 1."""
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


def _monad_laws(rng, s, points, tol):
    """Unit and associativity laws of flatten and dirac."""
    return monad_deviations(random_third_order(rng, points))


AlgebraSample = tuple[FiniteMeasure, Callable[[Point], Point], int]

ALGEBRA_LAWS = (
    "barycenter-of-dirac",
    "barycenter-evaluation-orders",
    "affine-morphism-commutation",
)


def algebra_deviations(space: ConvexSpace, sample: AlgebraSample) -> tuple[float, float, float]:
    """Worst deviation of one instance, per law of :data:`ALGEBRA_LAWS`.

    The sample is a second-order measure with coordinate atoms, a map and
    the map's target dimension. The laws are ``b(δ_x) = x``, the two
    evaluation orders of the measure, and commutation of the map with
    barycenters, which only an affine map satisfies.
    """
    M, f, target_dim = sample
    target = ConvexSpace(target_dim)
    unit, morphism = [], []
    for mu, _ in M.items():
        for x in mu.support:
            b = barycenter(space, dirac(x))
            unit.append(float(np.abs(coordinates(b) - coordinates(x)).max()))
        lhs = coordinates(barycenter(target, pushforward(f, mu)))
        rhs = coordinates(f(barycenter(space, mu)))
        morphism.append(float(np.abs(lhs - rhs).max()))
    via_flatten = barycenter(space, flatten(M))
    means = [barycenter(space, mu) for mu in M.support]
    via_map = barycenter(space, FiniteMeasure(means, M.weights))
    assoc = float(np.abs(coordinates(via_flatten) - coordinates(via_map)).max())
    return worst(unit), assoc, worst(morphism)


def _algebra_laws(rng, s, pts, tol):
    """Barycentric evaluation is an algebra for the monad."""
    M = random_second_order(rng, pts, 3, 4)
    A = rng.normal(size=(3, 3))
    c = rng.normal(size=3)
    return algebra_deviations(_CUBE, (M, _affine_map(A, c), 3))


def _affine_map(A: np.ndarray, c: np.ndarray) -> Callable:
    return lambda p: tuple((A @ np.asarray(p, dtype=float) + c).tolist())


def _pushforward_gap(rng, src: GroundSpace, f: Callable) -> float:
    """The distance of two random measures on ``src`` after pushing them
    along ``f`` into a Euclidean space, minus their distance before."""
    mu, eta = random_measure(rng, src.points), random_measure(rng, src.points)
    dst = GroundSpace([f(p) for p in src.points], Euclidean())
    lhs = kantorovich(dst, pushforward(f, mu), pushforward(f, eta)).cost
    return lhs - kantorovich(src, mu, eta).cost


def _isometry_preservation(rng, s, shared, tol):
    """Pushing forward along an isometric embedding preserves distances."""
    src = random_space(rng, 8)
    Q = _random_rotation(rng, 3, 2)
    c = rng.normal(size=3)
    return (abs(_pushforward_gap(rng, src, _affine_map(Q, c))),)


def _nonexpansion_preservation(rng, s, shared, tol):
    """Pushing forward along a 1-Lipschitz map never increases distance."""
    src = random_space(rng, 8)
    if s % 2 == 0:
        scale = 0.2 + 0.8 * rng.random()
        f = _affine_map(scale * _random_rotation(rng, 2, 2), rng.normal(size=2))
    else:
        f = coordinate_projection([0])
    return (_pushforward_gap(rng, src, f),)


def _sup_distance_identity(rng, s, shared, tol):
    """The distance between two pushforward maps is the sup of the ground
    distances of their values, attained at a Dirac."""
    domain = [f"y{k}" for k in range(10)]
    space = random_space(rng, 10)
    table_f = {y: space.points[int(i)] for y, i in zip(domain, rng.integers(0, 10, 10))}
    table_g = {y: space.points[int(i)] for y, i in zip(domain, rng.integers(0, 10, 10))}
    f, g = table_f.__getitem__, table_g.__getitem__
    sup_d = max(space.metric(f(y), g(y)) for y in domain)
    mus = (random_measure(rng, domain) for _ in range(20))
    devs = [kantorovich(space, pushforward(f, mu), pushforward(g, mu)).cost - sup_d for mu in mus]
    dirac_max = worst(
        kantorovich(space, pushforward(f, dirac(y)), pushforward(g, dirac(y))).cost
        for y in domain
    )
    devs.append(abs(dirac_max - sup_d))
    return (worst(devs),)


def _convexity(rng, s, shared, tol):
    """The coupling distance is convex under mixing."""
    space = random_space(rng, 8, _METRICS[s % 2])
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
    space = random_space(rng, 8, metric)
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
    K = lambda p: any(points_equal(p, q) for q in k_atoms)  # noqa: E731
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
    space = random_space(rng, 8)
    M = random_second_order(rng, space.points)
    N = random_second_order(rng, space.points)
    outer = second_order_distance(space, M, N).cost
    return (kantorovich(space, flatten(M), flatten(N)).cost - outer,)


def _dirac_flatten_equality(rng, s, shared, tol):
    """Distance from a doubly Dirac measure equals the distance to the
    flattened measure."""
    space = random_space(rng, 8)
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
    space = random_space(rng, 8, p)
    mu, eta = random_measure(rng, space.points), random_measure(rng, space.points)
    via_quotient = lifted_pseudometric(space, p, mu, eta)
    return (abs(via_quotient - kantorovich(space, mu, eta).cost),)


def _pullback_lift_commutation(rng, s, shared, tol):
    """Lifting a pulled-back pseudometric equals lifting after pushforward."""
    src = random_space(rng, 8)
    dst_points = random_points(rng, 6, 2)
    assignment = {p: dst_points[int(i)] for p, i in zip(src.points, rng.integers(0, 6, 8))}
    f = assignment.__getitem__
    p = _random_pseudometric(rng)
    dst = GroundSpace(dst_points, p)
    rho = PullbackMetric(f, p)
    rho_space = GroundSpace(src.points, rho)
    mu, eta = random_measure(rng, src.points), random_measure(rng, src.points)
    lhs = lifted_pseudometric(rho_space, rho, mu, eta)
    rhs = lifted_pseudometric(dst, p, pushforward(f, mu), pushforward(f, eta))
    return (abs(lhs - rhs),)


def make_reweight_instance(rng):
    """A feasible instance of the convex-combination rewrite."""
    k = int(rng.integers(2, 7))
    pts = random_points(rng, k, 3)
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
    return _diameter_deviation(rng, p, lambda space, *pair: lifted_pseudometric(space, p, *pair))


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
    Law(MONAD_LAWS, 1e-9, _monad_laws, lambda rng: random_points(rng, 10, 2)),
    Law(ALGEBRA_LAWS, 1e-9, _algebra_laws, lambda rng: random_points(rng, 10, 3)),
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
    def run(rng, n: int, tol: float | None = None) -> list[LawReport]:
        shared = law.setup(rng) if law.setup else None
        check = lambda s, tol: law.check(rng, s, shared, tol)  # noqa: E731
        return fold_reports(law.reports, check, n, tol, law.tol, law.count)

    run.__name__ = run.__qualname__ = "run" + law.check.__name__
    run.__doc__ = law.check.__doc__
    return run


#: The full suite, in report order: ``runner(rng, samples, tol)``.
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
