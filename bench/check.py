"""Reference checks for benchmark outputs, run outside the timed region.

Every transport cost is compared with scipy's HiGHS linear-programming
solver on a cost matrix the benchmark computes itself with numpy, so a
defect in the library's cost matrix or simplex cannot hide behind the
library's own arithmetic. Each check returns a list of error strings; an
op fails when its list is nonempty.
"""

from __future__ import annotations

import numpy as np

#: Absolute tolerance on costs, marginals and negative coupling entries.
TOL = 1e-9


def euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1))


def manhattan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs(x[:, None, :] - y[None, :, :]).sum(axis=-1)


def highs(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimal transport cost and plan as a linear program solved by HiGHS."""
    # imported here so scipy stays out of the process until the timed ops end
    from scipy import sparse
    from scipy.optimize import linprog

    m, n = C.shape
    cells = np.arange(m * n)
    rows = np.concatenate([cells // n, m + cells % n])
    A = sparse.csr_matrix((np.ones(2 * m * n), (rows, np.tile(cells, 2))), shape=(m + n, m * n))
    res = linprog(
        C.ravel(), A_eq=A, b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"reference solver failed: {res.message}")
    return float(res.fun), res.x.reshape(m, n)


def highs_cost(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return highs(C, a, b)[0]


def transport_errors(C, a, b, cost, gamma) -> list[str]:
    """Check a reported optimal cost and coupling for weights ``a``, ``b``.

    The cost must match HiGHS within ``TOL``; the coupling must have the
    right marginals, no entry below ``-TOL``, and attain the cost.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != C.shape:
        return [f"coupling shape {gamma.shape} != cost shape {C.shape}"]
    errors = []
    ref = highs_cost(C, a, b)
    if not abs(cost - ref) <= TOL:
        errors.append(f"cost {cost!r} differs from HiGHS {ref!r}")
    if not np.abs(gamma.sum(axis=1) - a).max() <= TOL:
        errors.append("row marginal differs from the first measure")
    if not np.abs(gamma.sum(axis=0) - b).max() <= TOL:
        errors.append("column marginal differs from the second measure")
    if not gamma.min() >= -TOL:
        errors.append(f"negative coupling entry {gamma.min()!r}")
    if not abs(float((gamma * C).sum()) - cost) <= TOL:
        errors.append("coupling does not attain the reported cost")
    return errors


def cost_errors(cost, C, a, b) -> list[str]:
    ref = highs_cost(C, a, b)
    return [] if abs(cost - ref) <= TOL else [f"cost {cost!r} differs from HiGHS {ref!r}"]


def reorder(points, reference) -> list[int]:
    """Index of each output point in the list of generated input points.

    Outputs name points by value; JSON and float round trips are exact, so
    a missing key means the library returned a point it was never given.
    """
    index = {tuple(p): i for i, p in enumerate(reference)}
    return [index[tuple(p)] for p in points]
