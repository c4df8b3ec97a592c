"""The simplex against closed-form distances, at sizes past the brute-force
oracles' reach: tied weights, overlapping supports and integer grids, the
degenerate regime of the pivot rule."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import discrete_distance, line_distance

from kantorovich.ground import Discrete, Euclidean, GroundSpace, Manhattan
from kantorovich.measures import FiniteMeasure
from kantorovich.transport import kantorovich

MAX_ATOMS = 40


@st.composite
def grid_measure(draw, pool: int, step: float):
    """A measure on points of the grid ``step * range(pool)``, with uniform
    weights or integer weights over their sum."""
    k = draw(st.integers(1, min(pool, MAX_ATOMS)))
    idx = draw(st.permutations(range(pool)))[:k]
    if draw(st.booleans()):
        ws = [1.0 / k] * k
    else:
        ints = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        ws = [w / sum(ints) for w in ints]
    return FiniteMeasure([(step * i,) for i in idx], ws)


@st.composite
def grid_pairs(draw):
    """Two measures on one grid of at most ``2 * MAX_ATOMS`` points, so their
    supports overlap often."""
    pool = draw(st.integers(1, 2 * MAX_ATOMS))
    step = draw(st.sampled_from([1.0, 0.5, 0.25]))
    return draw(grid_measure(pool, step)), draw(grid_measure(pool, step))


def _uniform(idx) -> FiniteMeasure:
    return FiniteMeasure([(float(i),) for i in idx], [1.0 / len(idx)] * len(idx))


# the largest size, with every weight tied and half of each support shared
WIDEST = (_uniform(range(MAX_ATOMS)), _uniform(range(MAX_ATOMS // 2, 3 * MAX_ATOMS // 2)))


def _distance(metric, mu, eta) -> float:
    points = list(dict.fromkeys([*mu.support, *eta.support]))
    return kantorovich(GroundSpace(points, metric), mu, eta).cost


@settings(max_examples=15, deadline=None)
@given(grid_pairs())
@example(WIDEST)
def test_discrete_metric_distance_is_the_total_variation(pair):
    mu, eta = pair
    assert abs(_distance(Discrete(), mu, eta) - discrete_distance(mu, eta)) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(grid_pairs(), st.sampled_from([Euclidean(), Manhattan()]))
@example(WIDEST, Manhattan())
def test_line_distance_is_the_area_between_distribution_functions(pair, metric):
    mu, eta = pair
    assert abs(_distance(metric, mu, eta) - line_distance(mu, eta)) <= 1e-9
