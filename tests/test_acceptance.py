"""Acceptance suite.

Each test drives one acceptance criterion at its stated sample count and
tolerance and prints one pass/fail line. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from kantorovich.ground import Euclidean, GroundSpace
from kantorovich.laws import (
    random_measure,
    run_algebra_laws,
    run_convexity,
    run_barycenter_nonexpansion,
    run_dirac_flatten_equality,
    run_flatten_nonexpansion,
    run_lift_consistency,
    run_mass_transport_bound,
    run_metric_axioms,
    run_monad_laws,
    run_pullback_lift_commutation,
    run_reweight_identity,
    run_sup_distance_identity,
)
from kantorovich.measures import FiniteMeasure, dirac
from kantorovich.transport import (
    brute_force_distance,
    cost_matrix,
    kantorovich,
    partition_coupling,
)

COST_TOL = 1e-9


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {name}", flush=True)
        raise
    print(f"ACCEPTANCE {num:02d} PASS {name}", flush=True)


def assert_reports(reports):
    for r in reports:
        assert r.passed, f"{r.law}: max deviation {r.max_deviation:.3e}"


def test_criterion_01_oracle_equivalence():
    with criterion(1, "oracle equivalence (permutation and vertex enumeration)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            pts = [tuple(p) for p in rng.random((2 * n, 2))]
            space = GroundSpace(pts, Euclidean())
            mu = FiniteMeasure(pts[:n], np.full(n, 1.0 / n))
            eta = FiniteMeasure(pts[n:], np.full(n, 1.0 / n))
            exact = kantorovich(space, mu, eta)
            oracle = brute_force_distance(space, mu, eta)
            assert oracle.solver == "brute-permutation"
            assert abs(exact.cost - oracle.cost) <= COST_TOL
        for _ in range(200):
            m, n = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            pts = [tuple(p) for p in rng.random((m + n, 2))]
            space = GroundSpace(pts, Euclidean())
            num1 = rng.integers(1, 12, m).astype(float)
            num2 = rng.integers(1, 12, n).astype(float)
            if m == n and len(set(num1)) == 1 and len(set(num2)) == 1:
                num1[0] += 1.0  # keep the instance off the uniform fast path
            mu = FiniteMeasure(pts[:m], num1 / num1.sum())
            eta = FiniteMeasure(pts[m:], num2 / num2.sum())
            exact = kantorovich(space, mu, eta)
            oracle = brute_force_distance(space, mu, eta)
            assert oracle.solver == "vertex-enumeration"
            assert abs(exact.cost - oracle.cost) <= COST_TOL
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"oracle runs took {elapsed:.1f}s"


def test_criterion_02_metric_axioms():
    with criterion(2, "symmetry and triangle inequality of the coupling distance"):
        rng = np.random.default_rng(102)
        assert_reports(run_metric_axioms(rng, 300, tol=1e-8))


def test_criterion_03_dirac_isometry_and_diameter():
    with criterion(3, "Dirac isometry and diameter preservation"):
        rng = np.random.default_rng(103)
        pts = [tuple(p) for p in rng.random((20, 2))]
        space = GroundSpace(pts, Euclidean())
        for i in range(20):
            for j in range(i + 1, 20):
                d = space.metric(pts[i], pts[j])
                assert abs(kantorovich(space, dirac(pts[i]), dirac(pts[j])).cost - d) <= 1e-12
        diam = space.diameter()
        for _ in range(200):
            mu, eta = random_measure(rng, pts), random_measure(rng, pts)
            assert kantorovich(space, mu, eta).cost <= diam + COST_TOL
        D = space.metric.pairwise(pts, pts)
        i, j = np.unravel_index(int(D.argmax()), D.shape)
        attained = kantorovich(space, dirac(pts[i]), dirac(pts[j])).cost
        assert abs(attained - diam) <= 1e-12


def test_criterion_04_monad_laws():
    with criterion(4, "monad unit and associativity laws"):
        rng = np.random.default_rng(104)
        assert_reports(run_monad_laws(rng, 200, tol=1e-9))


def test_criterion_05_algebra_laws():
    with criterion(5, "barycentric algebra laws in three dimensions"):
        rng = np.random.default_rng(105)
        assert_reports(run_algebra_laws(rng, 100, tol=1e-9))


def test_criterion_06_second_order_suite():
    with criterion(6, "flatten non-expansion and Dirac flatten equality"):
        rng = np.random.default_rng(106)
        assert_reports(run_flatten_nonexpansion(rng, 200, tol=1e-9))
        assert_reports(run_dirac_flatten_equality(rng, 200, tol=1e-8))


def test_criterion_07_sup_distance_identity():
    with criterion(7, "sup-distance identity with Dirac attainment"):
        rng = np.random.default_rng(107)
        assert_reports(run_sup_distance_identity(rng, 250, tol=1e-9))


def test_criterion_08_convexity_and_barycenter_nonexpansion():
    with criterion(8, "mixing convexity and barycenter non-expansion"):
        rng = np.random.default_rng(108)
        assert_reports(run_convexity(rng, 300, tol=1e-9))
        assert_reports(run_barycenter_nonexpansion(rng, 300, tol=1e-9))


def test_criterion_09_mass_transport_bound():
    with criterion(9, "neighborhood mass bound on applicable instances"):
        rng = np.random.default_rng(109)
        assert_reports(run_mass_transport_bound(rng, 500))


def test_criterion_10_lifting_suite():
    with criterion(10, "pseudometric lifting identities and reweighting"):
        rng = np.random.default_rng(110)
        assert_reports(run_lift_consistency(rng, 200, tol=1e-9))
        assert_reports(run_pullback_lift_commutation(rng, 200, tol=1e-9))
        assert_reports(run_reweight_identity(rng, 100, tol=1e-9))


def test_criterion_11_partition_coupling():
    with criterion(11, "partition coupling feasibility, diagonal mass, cost bound"):
        rng = np.random.default_rng(111)
        for _ in range(200):
            pts = [tuple(p) for p in rng.random((10, 2))]
            space = GroundSpace(pts, Euclidean())
            mu0, mu = random_measure(rng, pts, 6), random_measure(rng, pts, 6)
            ncells = int(rng.integers(2, 5))
            cuts = np.sort(rng.random(ncells - 1))
            edges = [-np.inf, *cuts, np.inf]
            # drop a random tail sometimes so the complement block is exercised
            if rng.random() < 0.3:
                edges = edges[1:] if rng.random() < 0.5 else edges[:-1]
            cells = [
                (lambda p, lo=lo, hi=hi: lo <= p[0] < hi)
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
            coup = partition_coupling(mu0, mu, cells)
            assert coup.check_marginals(mu0, mu)
            blocks = list(cells) + [lambda p, cs=cells: not any(c(p) for c in cs)]
            for cell in blocks:
                rows = [i for i, p in enumerate(mu0.support) if cell(p)]
                cols = [j for j, q in enumerate(mu.support) if cell(q)]
                got = float(coup.gamma[np.ix_(rows, cols)].sum()) if rows and cols else 0.0
                a = float(mu0.weights[rows].sum()) if rows else 0.0
                b = float(mu.weights[cols].sum()) if cols else 0.0
                assert abs(got - min(a, b)) <= COST_TOL
            C = cost_matrix(space, mu0.support, mu.support)
            assert coup.cost_against(C) >= kantorovich(space, mu0, mu).cost - COST_TOL


def test_criterion_12_cli_golden(tmp_path):
    with criterion(12, "CLI golden commands are byte-identical across runs"):
        from test_cli import GOLDEN_COMMANDS, run_to_bytes

        assert len(GOLDEN_COMMANDS) == 10
        for k, argv in enumerate(GOLDEN_COMMANDS):
            first = run_to_bytes(argv, tmp_path, f"acc{k}a")
            second = run_to_bytes(argv, tmp_path, f"acc{k}b")
            assert first == second, f"command {argv} not byte-identical"
