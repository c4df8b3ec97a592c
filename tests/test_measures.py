import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorovich.measures import (
    FiniteMeasure,
    PartitionError,
    SubProbabilityMeasure,
    condition,
    decompose,
    dirac,
    integrate,
    measure_from_json,
    measure_to_json,
    measures_equal,
    mix,
    pushforward,
    restrict,
    tensor,
)

POOL = [(-1.0,), (0.0,), (0.5,), (1.0,), (2.0,), (3.0,)]


@st.composite
def finite_measures(draw, pool=tuple(POOL)):
    k = draw(st.integers(1, len(pool)))
    idx = draw(st.permutations(range(len(pool))))[:k]
    ws = [draw(st.integers(1, 9)) for _ in range(k)]
    total = sum(ws)
    return FiniteMeasure([pool[i] for i in idx], [w / total for w in ws])


def test_construction_normalizes_and_merges():
    mu = FiniteMeasure([(0.0,), (0.0,), (1.0,)], [0.25, 0.25, 0.5])
    assert len(mu) == 2
    assert mu.weight_of((0.0,)) == pytest.approx(0.5)
    near = FiniteMeasure([(0.0,), (1e-13,)], [0.5, 0.5])
    assert len(near) == 1
    dropped = FiniteMeasure([(0.0,), (1.0,)], [1.0, 0.0])
    assert len(dropped) == 1
    assert float(mu.weights.sum()) == 1.0


def test_construction_rejects_bad_weights():
    with pytest.raises(ValueError, match="sum"):
        FiniteMeasure([(0.0,)], [0.9])
    with pytest.raises(ValueError, match="negative"):
        FiniteMeasure([(0.0,), (1.0,)], [1.5, -0.5])
    with pytest.raises(ValueError, match="atom"):
        FiniteMeasure([], [])
    with pytest.raises(ValueError, match="exceeds"):
        SubProbabilityMeasure([(0.0,)], [1.5])


def test_construction_rejects_weights_that_are_not_1d():
    # both ended in a TypeError that named nothing
    with pytest.raises(ValueError, match=r"weights must be a 1-D sequence, got shape \(2, 1\)"):
        FiniteMeasure([(0.0,), (1.0,)], [[0.5], [0.5]])
    with pytest.raises(ValueError, match=r"weights must be a 1-D sequence, got shape \(\)"):
        FiniteMeasure([(0.0,)], 1.0)
    assert FiniteMeasure([(0.0,), (1.0,)], (w for w in [0.5, 0.5])).weights.tolist() == [0.5, 0.5]


def test_weights_are_immutable():
    mu = dirac((0.0,))
    with pytest.raises(ValueError):
        mu.weights[0] = 0.5


def test_dirac():
    mu = dirac(0)
    assert mu.support == ((0.0,),) and mu.weights[0] == 1.0
    assert integrate(dirac((1, 2)), lambda p: p[0] + p[1]) == 3.0
    assert measures_equal(dirac("a"), dirac("a"))


_MU = FiniteMeasure([(0.0,), (1.0,)], [0.25, 0.75])
_DIRAC_ATOMS = [
    (0.5, 1.0),
    3,
    np.float64(2.5),
    [1, 2],
    np.array([1.0, 2.0]),
    (np.float64(0.5), 1),
    "a",
    ((0.0,), "a"),
    [(0.0, 1.0), (2.0,)],
    _MU,
    FiniteMeasure([_MU, dirac((1.0,))], [0.5, 0.5]),
]


@pytest.mark.parametrize("x", _DIRAC_ATOMS, ids=repr)
def test_dirac_is_the_one_atom_measure(x):
    d, f = dirac(x), FiniteMeasure([x], [1.0])
    assert type(d) is FiniteMeasure
    assert d.support == f.support
    assert d.weights.dtype == f.weights.dtype and d.weights.tobytes() == f.weights.tobytes()
    assert not d.weights.flags.writeable
    assert type(d._index) is type(f._index)
    assert d.index_of(x) == f.index_of(x) == 0
    for other in ((9.0,), "z"):
        assert d.index_of(other) is f.index_of(other) is None


def _raised(build, x):
    with pytest.raises(Exception) as info:
        build(x)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "x",
    [(np.nan,), (np.inf, 0.0), (0.0, -np.inf), ((0.0,), (np.nan,)), True, np.bool_(False),
     (True, 1.0), (), [], ((),), None, object()],
    ids=lambda x: "object()" if type(x) is object else repr(x),
)
def test_dirac_rejects_what_the_one_atom_measure_rejects(x):
    assert _raised(dirac, x) == _raised(lambda y: FiniteMeasure([y], [1.0]), x)


def test_mix_examples():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    assert measures_equal(mix([(1.0, mu)]), mu)
    half = mix([(0.5, dirac((0.0,))), (0.5, dirac((1.0,)))])
    assert measures_equal(half, mu)
    # hand-summed atom weights
    m = mix([(0.5, mu), (0.5, dirac((0.0,)))])
    assert m.weight_of((0.0,)) == pytest.approx(0.75)
    assert m.weight_of((1.0,)) == pytest.approx(0.25)


def test_mix_validation():
    mu = dirac((0.0,))
    with pytest.raises(ValueError, match="sum"):
        mix([(0.4, mu)])
    with pytest.raises(ValueError, match="negative"):
        mix([(1.5, mu), (-0.5, mu)])


@settings(max_examples=60)
@given(finite_measures(), finite_measures(), st.integers(1, 9), st.integers(1, 9))
def test_mix_permutation_and_flattening(mu, eta, a, b):
    t = a / (a + b)
    direct = mix([(t, mu), (1 - t, eta)])
    swapped = mix([(1 - t, eta), (t, mu)])
    assert measures_equal(direct, swapped)
    # flattening a nested part list changes nothing
    nested = mix([(0.5, mix([(t, mu), (1 - t, eta)])), (0.5, eta)])
    flat = mix([(0.5 * t, mu), (0.5 * (1 - t), eta), (0.5, eta)])
    assert measures_equal(nested, flat)


def test_restrict_and_condition():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    r = restrict(mu, lambda p: p[0] < 1)
    assert r is not None and r.mass == pytest.approx(0.5)
    assert restrict(mu, lambda p: True).mass == pytest.approx(1.0)
    assert restrict(dirac((0.0,)), lambda p: p[0] > 0) is None

    assert measures_equal(condition(FiniteMeasure([(0.0,), (1.0,)], [0.25, 0.75]), lambda p: p[0] < 1), dirac((0.0,)))
    assert measures_equal(condition(mu, lambda p: True), mu)
    # hand renormalization: 1/4 / (3/4) and 1/2 / (3/4)
    c = condition(FiniteMeasure([(0.0,), (1.0,), (2.0,)], [0.25, 0.25, 0.5]), lambda p: p[0] >= 1)
    assert c.weight_of((1.0,)) == pytest.approx(1 / 3)
    assert c.weight_of((2.0,)) == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="measure zero"):
        condition(mu, lambda p: p[0] > 10)


def test_decompose_examples():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    whole = decompose(mu, [lambda p: True])
    assert len(whole) == 1 and whole[0][0] == pytest.approx(1.0)
    parts = decompose(mu, [lambda p: p[0] < 1, lambda p: p[0] >= 1])
    assert [e for e, _ in parts] == pytest.approx([0.5, 0.5])
    assert measures_equal(parts[0][1], dirac((0.0,)))
    with pytest.raises(PartitionError, match=r"^atom \(0\.0,\) matched by cells 0 and 1$"):
        decompose(mu, [lambda p: True, lambda p: p[0] < 1])
    with pytest.raises(PartitionError, match=r"^atom \(1\.0,\) not covered by any cell$"):
        decompose(mu, [lambda p: p[0] < 1])


@settings(max_examples=60)
@given(finite_measures(), st.floats(-0.5, 2.5))
def test_decompose_mix_round_trip(mu, cut):
    cells = [lambda p: p[0] < cut, lambda p: p[0] >= cut]
    try:
        parts = decompose(mu, cells)
    except PartitionError:
        pytest.fail("a binary split can neither overlap nor miss")
    assert measures_equal(mix(parts), mu)


def test_pushforward_examples():
    mu = FiniteMeasure([(0.0,), (1.0,), (2.0,), (3.0,)], [0.25] * 4)
    assert measures_equal(pushforward(lambda p: p, mu), mu)
    assert measures_equal(pushforward(lambda p: (7.0,), mu), dirac((7.0,)))
    mod2 = pushforward(lambda p: (p[0] % 2,), mu)
    assert measures_equal(mod2, FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5]))


@settings(max_examples=60)
@given(finite_measures())
def test_pushforward_functorial(mu):
    f = lambda p: (abs(p[0]),)  # noqa: E731
    g = lambda p: (p[0] + 1.0,)  # noqa: E731
    composed = pushforward(lambda p: g(f(p)), mu)
    staged = pushforward(g, pushforward(f, mu))
    assert measures_equal(composed, staged)
    assert measures_equal(pushforward(lambda p: p, mu), mu)


def test_tensor_examples():
    ab = tensor(dirac("a"), dirac("b"))
    assert measures_equal(ab, dirac(("a", "b")))
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    prod = tensor(mu, dirac("c"))
    assert prod.weight_of(((0.0,), "c")) == pytest.approx(0.5)
    four = tensor(mu, mu)
    assert len(four) == 4 and np.allclose(four.weights, 0.25)


@settings(max_examples=60)
@given(finite_measures(), finite_measures())
def test_tensor_marginals(mu, eta):
    lam = tensor(mu, eta)
    assert measures_equal(pushforward(lambda p: p[0], lam), mu)
    assert measures_equal(pushforward(lambda p: p[1], lam), eta)


def test_integrate_examples():
    assert integrate(dirac((2.0,)), lambda p: p[0] ** 2) == 4.0
    mu = FiniteMeasure([(0.0,), (2.0,)], [0.25, 0.75])
    assert integrate(mu, lambda p: 1.0) == pytest.approx(1.0)
    assert integrate(mu, lambda p: p[0] ** 2) == pytest.approx(3.0)


@settings(max_examples=60)
@given(finite_measures(), st.floats(-3, 3), st.floats(-3, 3))
def test_integrate_linear_and_monotone(mu, a, b):
    f = lambda p: p[0]  # noqa: E731
    g = lambda p: p[0] ** 2  # noqa: E731
    combo = integrate(mu, lambda p: a * f(p) + b * g(p))
    assert combo == pytest.approx(a * integrate(mu, f) + b * integrate(mu, g), abs=1e-9)
    assert integrate(mu, f) <= integrate(mu, lambda p: f(p) + 0.5)


def test_measure_equality_tolerance():
    mu = FiniteMeasure([(0.0,), (1.0,)], [0.5, 0.5])
    nudged = FiniteMeasure([(0.0,), (1.0,)], [0.5 + 4e-10, 0.5 - 4e-10])
    assert measures_equal(mu, nudged)
    off = FiniteMeasure([(0.0,), (1.0,)], [0.6, 0.4])
    assert not measures_equal(mu, off)
    assert not measures_equal(mu, dirac((0.0,)))


def test_measure_json_round_trip():
    mu = FiniteMeasure([(0.0, 0.0), (1.0, 0.0)], [0.5, 0.5])
    assert measures_equal(measure_from_json(measure_to_json(mu)), mu)
    labeled = measure_from_json({"atoms": [{"point": "a", "w": 1.0}]})
    assert measures_equal(labeled, dirac("a"))
    with pytest.raises(ValueError, match="atoms"):
        measure_from_json({"weights": [1.0]})
    with pytest.raises(ValueError, match="sum"):
        measure_from_json({"atoms": [{"point": [0], "w": 0.7}]})
