import dataclasses
import json
import math

import numpy as np

from kantorovich import laws
from kantorovich.cli import main
from kantorovich.laws import LAW_RUNNERS, fold_reports, run_law_suite
from kantorovich.points import as_point


def test_suite_runs_green_at_small_counts():
    reports = run_law_suite(seed=7, samples=5)
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]
    # one report per law, more laws than runners since some runners emit several
    assert len(reports) >= len(LAW_RUNNERS)
    names = [r.law for r in reports]
    assert len(names) == len(set(names))


def test_seed_pins_every_instance():
    a = run_law_suite(seed=123, samples=4)
    b = run_law_suite(seed=123, samples=4)
    assert a == b
    c = run_law_suite(seed=124, samples=4)
    assert [r.law for r in a] == [r.law for r in c]
    assert any(x.max_deviation != y.max_deviation for x, y in zip(a, c))


def test_report_json_shape():
    report = run_law_suite(seed=1, samples=2)[0]
    payload = report.to_json()
    assert set(payload) == {"law", "samples", "max_deviation", "pass"}
    assert isinstance(payload["max_deviation"], float)
    assert isinstance(payload["pass"], bool)


# the reports whose deviation reads a coupling distance computed in laws.py
READS_KANTOROVICH = {
    "coupling-distance-symmetry",
    "coupling-distance-triangle",
    "diameter-preservation",
    "dirac-isometry",
    "isometric-embedding-preservation",
    "nonexpanding-map-preservation",
    "sup-distance-identity",
    "mixing-convexity",
    "barycenter-nonexpansion",
    "mass-transport-bound",
    "flatten-nonexpansion",
    "dirac-flatten-equality",
    "lift-quotient-consistency",
}


def _nan_costs(monkeypatch):
    real = laws.kantorovich
    monkeypatch.setattr(
        laws, "kantorovich", lambda *args: dataclasses.replace(real(*args), cost=math.nan)
    )


def test_nan_deviation_fails_every_report_that_reads_it(monkeypatch):
    # max(dev, nan) keeps dev, so a NaN distance used to pass 12 of these 13
    # reports with max deviation 0.0
    _nan_costs(monkeypatch)
    reports = run_law_suite(seed=3, samples=4)
    failed = {r.law for r in reports if not r.passed}
    assert failed == READS_KANTOROVICH
    for r in reports:
        if r.law in READS_KANTOROVICH:
            assert math.isnan(r.max_deviation) and r.to_json()["max_deviation"] is None


def test_reports_with_nan_deviations_compare_equal(monkeypatch):
    # field equality made NaN != NaN, so identical runs compared unequal
    _nan_costs(monkeypatch)
    a, b = run_law_suite(3, 2), run_law_suite(3, 2)
    assert any(math.isnan(r.max_deviation) for r in a)
    assert a == b and [hash(r) for r in a] == [hash(r) for r in b]
    nan_report = next(r for r in a if math.isnan(r.max_deviation))
    assert nan_report != dataclasses.replace(nan_report, max_deviation=math.inf)
    assert nan_report != dataclasses.replace(nan_report, witness=None)


def test_laws_command_under_nan_exits_1_with_valid_json(monkeypatch, capsys):
    _nan_costs(monkeypatch)
    assert main(["laws", "--seed", "3", "--samples", "2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {r["law"] for r in payload if not r["pass"]} == READS_KANTOROVICH
    assert any(r["max_deviation"] is None for r in payload)


def test_fold_keeps_nan_and_names_the_worst_sample():
    devs = [(0.5, -1.0, 0.0), (2.0, math.nan, 1.0), (1.0, 3.0, 1.0), (2.0, -2.0, 0.0)]
    a, b, c = fold_reports(("a", "b", "c"), lambda s, tol: devs[s], 4, None, 1.0)
    assert (a.max_deviation, a.witness, a.passed) == (2.0, 1, False)
    assert math.isnan(b.max_deviation) and b.witness == 1 and not b.passed
    assert (c.max_deviation, c.witness, c.passed) == (1.0, 1, True)
    (zero,) = fold_reports(("z",), lambda s, tol: (-0.5,), 3, 1e-9)
    assert (zero.max_deviation, zero.witness, zero.passed) == (0.0, None, True)
    (count,) = fold_reports(("n",), lambda s, tol: (float(s % 2),), 5, None, count=True)
    assert (count.max_deviation, count.witness, count.passed) == (2.0, 3, False)


def replay(seed: int, row: int, sample: int) -> tuple:
    """The deviations of one sample of one law row, drawn as the suite draws it."""
    law = laws.LAWS[row]
    child = np.random.SeedSequence(seed).spawn(len(LAW_RUNNERS))[row]
    rng = np.random.default_rng(child)
    shared = law.setup(rng) if law.setup else None
    for s in range(sample + 1):
        devs = law.check(rng, s, shared, law.tol)
    return devs


def test_witness_replays_the_worst_deviation_exactly():
    reports = iter(run_law_suite(seed=42, samples=20))
    witnessed = 0
    for row, law in enumerate(laws.LAWS):
        for k, name in enumerate(law.reports):
            report = next(reports)
            assert report.law == name
            if report.witness is None:
                assert report.max_deviation == 0.0
                continue
            witnessed += 1
            dev = replay(42, row, report.witness)[k]
            assert dev == (1.0 if law.count else report.max_deviation)
    assert witnessed >= 10


def test_runners_keep_their_names_and_order():
    assert [r.__name__ for r in LAW_RUNNERS] == [
        "run_metric_axioms",
        "run_diameter_preservation",
        "run_dirac_isometry",
        "run_monad_laws",
        "run_algebra_laws",
        "run_isometry_preservation",
        "run_nonexpansion_preservation",
        "run_sup_distance_identity",
        "run_convexity",
        "run_barycenter_nonexpansion",
        "run_mass_transport_bound",
        "run_flatten_nonexpansion",
        "run_dirac_flatten_equality",
        "run_lift_consistency",
        "run_pullback_lift_commutation",
        "run_reweight_identity",
        "run_lifted_diameter",
    ]
    assert laws.run_convexity is LAW_RUNNERS[8]


def test_generators_return_canonical_points():
    # a point that as_point would rebuild is canonicalized again by every
    # measure, space and metric it reaches
    rng = np.random.default_rng(3)
    pts = laws.random_points(rng, 6, 3)
    f = laws._affine_map(rng.normal(size=(2, 3)), rng.normal(size=2))
    seen = pts + [f(p) for p in pts]
    assert len(seen) == 12
    assert all(as_point(p) is p for p in seen)
