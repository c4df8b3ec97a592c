"""One measure type for every order, against the second-order code it replaced.

A measure of measures is a ``FiniteMeasure`` whose atoms are measures. The
``ref_*`` functions are the merge loop and the deviation of the former
``SecondOrderMeasure`` class as they stood: every new inner measure compared
with every kept one. The unified type must keep the same support objects in
the same order, the same weights up to the last bits of the normalisation
(numpy's sum instead of Python's), and the same deviations.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kantorovich.measures import (
    WEIGHT_TOL,
    FiniteMeasure,
    SubProbabilityMeasure,
    dirac,
    measure_deviation,
    measure_to_json,
    measures_equal,
    mix,
    second_order_from_json,
)
from kantorovich.monad import flatten
from kantorovich.points import COORD_TOL


def ref_second_order_merge(atoms, weights, mass_tol=WEIGHT_TOL):
    atoms = list(atoms)
    w = np.asarray(list(weights), dtype=float)
    if len(atoms) != len(w):
        raise ValueError(f"{len(atoms)} atoms but {len(w)} weights")
    if not np.isfinite(w).all():
        raise ValueError("non-finite weight")
    if (w < 0).any():
        raise ValueError("negative weight")
    support, merged = [], []
    for m, wi in zip(atoms, w):
        if wi == 0.0:
            continue
        if not isinstance(m, FiniteMeasure):
            raise TypeError("second-order atoms must be finite measures")
        for i, q in enumerate(support):
            if measures_equal(m, q):
                merged[i] += wi
                break
        else:
            support.append(m)
            merged.append(float(wi))
    if not support:
        raise ValueError("measure needs at least one atom of positive weight")
    total = float(sum(merged))
    if abs(total - 1.0) > mass_tol:
        raise ValueError(f"weights sum to {total:.12g}, expected 1")
    return support, np.asarray(merged, dtype=float) / total


def ref_second_order_deviation(A, B):
    dev = 0.0
    used = [False] * len(B)
    for m, w in A.items():
        for j, (q, v) in enumerate(B.items()):
            if not used[j] and measures_equal(m, q):
                dev = max(dev, abs(float(w) - float(v)))
                used[j] = True
                break
        else:
            dev = max(dev, float(w))
    for j, (_, v) in enumerate(B.items()):
        if not used[j]:
            dev = max(dev, float(v))
    return dev


# weight moves around the equality tolerance, so that "equal" is not
# transitive among the variants of one measure and merge order matters
WEIGHT_MOVES = [0.0, 0.4 * WEIGHT_TOL, 0.9 * WEIGHT_TOL, 1.5 * WEIGHT_TOL, 3 * WEIGHT_TOL]
POINTS = [(0.0,), (1.0,), (2.5,), (1.0 + COORD_TOL / 2,)]


@st.composite
def inner_pools(draw):
    """Inner measures with near duplicates (weights moved by a fraction or a
    multiple of the tolerance, points moved within it), reorderings, equal
    copies and repeats of the same object."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        pts = draw(st.lists(st.sampled_from(POINTS[:3]), min_size=1, max_size=3, unique=True))
        w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(pts), max_size=len(pts))))
        base = FiniteMeasure(pts, w / w.sum())
        pool.append(base)
        for move in draw(st.lists(st.sampled_from(WEIGHT_MOVES), max_size=3)):
            shift = np.zeros(len(base))
            if len(base) > 1:
                shift[0], shift[-1] = move, -move
            pool.append(FiniteMeasure(base.support, base.weights + shift))
        if draw(st.booleans()):
            pool.append(FiniteMeasure(base.support[::-1], base.weights[::-1]))
        if draw(st.booleans()) and base.support[0] == (1.0,):
            moved = ((1.0 + COORD_TOL / 2,),) + base.support[1:]
            pool.append(FiniteMeasure(moved, base.weights))
    return pool


@st.composite
def outer_atoms(draw, pool):
    atoms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    w = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), min_size=len(atoms), max_size=len(atoms)))
    total = sum(w)
    assume(total > 0)
    return atoms, [x / total for x in w]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_measure_of_measures_matches_the_second_order_loop(data):
    pool = data.draw(inner_pools())
    built = []
    for _ in range(2):
        atoms, w = data.draw(outer_atoms(pool))
        M = FiniteMeasure(atoms, w)
        support, weights = ref_second_order_merge(atoms, w)
        assert len(M.support) == len(support)
        assert all(a is b for a, b in zip(M.support, support))
        assert np.abs(M.weights - weights).max() <= 1e-15
        built.append(M)
    M, N = built
    for A, B in [(M, N), (N, M), (M, M), (M, FiniteMeasure(M.support[::-1], M.weights[::-1]))]:
        assert measure_deviation(A, B) == ref_second_order_deviation(A, B)
        assert measures_equal(A, B) == (len(A) == len(B) and ref_second_order_deviation(A, B) <= WEIGHT_TOL)


def test_mixed_atom_kinds_raise_type_error():
    mu = dirac((0.0,))
    for atoms in ([mu, (1.0,)], [(1.0,), mu]):
        with pytest.raises(TypeError):
            FiniteMeasure(atoms, [0.5, 0.5])
        # a zero-weight atom of the other kind is an error too; the former
        # SecondOrderMeasure dropped it unchecked
        with pytest.raises(TypeError):
            FiniteMeasure(atoms, [1.0, 0.0] if atoms[0] is mu else [0.0, 1.0])
    support, _ = ref_second_order_merge([mu, (1.0,)], [1.0, 0.0])
    assert support == [mu]


MU, NU = dirac((0.0,)), FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
NAN = float("nan")


# each case breaks two rules at once (but the last); the earlier rule in
# _merged_atoms's order of errors is the one reported
@pytest.mark.parametrize(
    "atoms, weights, error, message",
    [
        ([MU, (1.0,)], [1.0], ValueError, "2 atoms but 1 weights"),
        ([MU, (1.0,)], [NAN, 1.0], TypeError, "atoms must be all points or all finite measures"),
        ([MU, NU], [-1.0, NAN], ValueError, "non-finite weight"),
        ([MU, NU], [0.0, 0.0], ValueError, "measure needs at least one atom of positive weight"),
    ],
    ids=["count-and-kinds", "kinds-and-nan", "nan-and-negative", "all-zero"],
)
@pytest.mark.parametrize("cls", [FiniteMeasure, SubProbabilityMeasure], ids=lambda c: c.__name__)
def test_measure_of_measures_reports_the_first_error(cls, atoms, weights, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        cls(atoms, weights)


def test_orders_do_not_mix_in_comparisons():
    point_level, measure_level = dirac((0.0,)), dirac(dirac((0.0,)))
    assert not measures_equal(point_level, measure_level)
    assert measure_deviation(point_level, measure_level) == 1.0
    assert measure_deviation(measure_level, point_level) == 1.0
    assert measure_level.weight_of(dirac((0.0,))) == 1.0
    assert measure_level.weight_of((0.0,)) == 0.0


def test_third_order_measures_need_no_new_code():
    a = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    b = dirac((2.0,))
    M1 = FiniteMeasure([a, b], [0.25, 0.75])
    M2 = FiniteMeasure([b, a, dirac((1.0,))], [0.5, 0.3, 0.2])
    # P(P(P(X))): a measure whose atoms are measures of measures
    P = FiniteMeasure([M1, M2, FiniteMeasure([b, a], [0.75, 0.25])], [0.2, 0.5, 0.3])
    assert len(P) == 2  # the third atom equals M1 and merges into it
    assert P.weights.tolist() == pytest.approx([0.5, 0.5])
    sample = [(0.2, M1), (0.5, M2), (0.3, M1)]
    twice = flatten(flatten(P))
    assert measure_deviation(twice, flatten(mix(sample))) <= 1e-15
    # associativity at third order: flatten the inner level first
    inner_first = flatten(FiniteMeasure([flatten(M) for M in P.support], P.weights))
    assert measure_deviation(twice, inner_first) <= 1e-15
    assert measures_equal(twice, FiniteMeasure([(0.0,), (1.0,), (2.0,)], [0.1375, 0.2375, 0.625]))
    as_json = measure_to_json(P)
    assert set(as_json["atoms"][0]) == {"measure", "w"}
    assert measures_equal(second_order_from_json(as_json["atoms"][0]["measure"]), M1)
