"""Self-test of the reference checker: known-bad outputs must be caught.

Feeds the checker a correct optimal plan, the same plan with its cost off
by 1e-6, and a plan with a broken marginal, plus a failing law report.
``run.py`` runs it in every run; ``python3 bench/selftest.py`` runs it
alone and exits 1 on a failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import check


def _instance():
    rng = np.random.default_rng(7)
    x, y = rng.random((6, 2)), rng.random((5, 2))
    a = rng.random(6) + 0.1
    b = rng.random(5) + 0.1
    return check.euclidean(x, y), a / a.sum(), b / b.sum()


def _flags(errors: list[str], word: str) -> bool:
    return any(word in e for e in errors)


def failures() -> list[str]:
    """Names of the self-test cases the checker got wrong."""
    from workloads import LawSuite
    from kantorovich import LawReport

    C, a, b = _instance()
    cost, gamma = check.highs(C, a, b)
    cost = float((gamma * C).sum())
    broken = gamma.copy()
    broken[0] *= 1.01
    law = LawSuite(workdir=None).errors(None, [LawReport("x", 1, 1.0, False)])
    cases = {
        "correct plan is accepted": not check.transport_errors(C, a, b, cost, gamma),
        "cost off by 1e-6 is a failure": _flags(
            check.transport_errors(C, a, b, cost + 1e-6, gamma), "HiGHS"
        ),
        "broken marginal is a failure": _flags(
            check.transport_errors(C, a, b, cost, broken), "marginal"
        ),
        "failing law report is a failure": bool(law),
    }
    return [name for name, ok in cases.items() if not ok]


if __name__ == "__main__":
    sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))
    bad = failures()
    for name in bad:
        print(f"FAIL: {name}")
    print("checker self-test:", "failed" if bad else "passed")
    sys.exit(1 if bad else 0)
