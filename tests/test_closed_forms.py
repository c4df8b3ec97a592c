"""The solver against closed-form distances, at sizes past the brute-force
oracles' reach: tied weights, overlapping supports and integer grids, the
degenerate regime of the pivot rule, and, for a measure of one or two
atoms against one of up to 300, tied cost differences, the degenerate
regime of the solver's own closed form."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import discrete_distance, line_distance, tree_distance
from test_simplex_reference import assert_certified

from kantorovich.ground import Discrete, Euclidean, GroundSpace, Manhattan, TableMetric
from kantorovich.measures import FiniteMeasure
from kantorovich.transport import kantorovich, solve_transport

MAX_ATOMS = 40
MAX_WIDE_ATOMS = 300
MAX_TREE_NODES = 30


@st.composite
def measure_on(draw, points, max_atoms=MAX_ATOMS):
    """A measure on at most ``max_atoms`` of ``points``, with uniform weights
    or integer weights over their sum."""
    k = draw(st.integers(1, min(len(points), max_atoms)))
    idx = draw(st.permutations(range(len(points))))[:k]
    if draw(st.booleans()):
        ws = [1.0 / k] * k
    else:
        ints = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        ws = [w / sum(ints) for w in ints]
    return FiniteMeasure([points[i] for i in idx], ws)


def grid_measure(pool: int, step: float):
    """A measure on points of the grid ``step * range(pool)``."""
    return measure_on([(step * i,) for i in range(pool)])


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


@st.composite
def narrow_pairs(draw):
    """A measure of one or two atoms and one of up to ``MAX_WIDE_ATOMS``, on
    one integer grid and in either order: the shapes 1×n, 2×n, n×1 and n×2.
    On a grid the cost differences c_0j - c_1j tie, under every metric."""
    points = [(float(i),) for i in range(draw(st.integers(1, MAX_WIDE_ATOMS)))]
    narrow = draw(measure_on(points, 2))
    wide = draw(measure_on(points, MAX_WIDE_ATOMS))
    return (narrow, wide) if draw(st.booleans()) else (wide, narrow)


# two atoms against the widest uniform measure, sharing both atoms
NARROWEST = (
    FiniteMeasure([(0.0,), (float(MAX_WIDE_ATOMS - 1),)], [0.25, 0.75]),
    _uniform(range(MAX_WIDE_ATOMS)),
)


@settings(max_examples=20, deadline=None)
@given(narrow_pairs(), st.sampled_from([Euclidean(), Manhattan(), Discrete()]))
@example(NARROWEST, Manhattan())
@example(NARROWEST[::-1], Discrete())
def test_closed_form_matches_the_oracles_and_certifies_its_plan(pair, metric):
    mu, eta = pair
    oracle = discrete_distance if isinstance(metric, Discrete) else line_distance
    assert abs(_distance(metric, mu, eta) - oracle(mu, eta)) <= 1e-9
    C = metric.pairwise(mu.support, eta.support)
    cost, gamma, u, v = solve_transport(C, mu.weights, eta.weights)
    assert abs(cost - oracle(mu, eta)) <= 1e-9
    assert_certified(C, mu.weights, eta.weights, cost, gamma, u, v)


@st.composite
def trees(draw):
    """``(nodes, parent, length)`` of a random tree of at most
    ``MAX_TREE_NODES`` labelled nodes, with tied edge lengths; node ``k > 0``
    hangs from an earlier node."""
    size = draw(st.integers(1, MAX_TREE_NODES))
    parent = [-1] + [draw(st.integers(0, k - 1)) for k in range(1, size)]
    length = [0.0] + [draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) for _ in range(1, size)]
    return [f"n{k}" for k in range(size)], parent, length


@st.composite
def tree_cases(draw):
    """A tree and two measures on its nodes, which overlap often."""
    nodes, parent, length = draw(trees())
    return nodes, parent, length, draw(measure_on(nodes)), draw(measure_on(nodes))


def _path_table(parent, length) -> np.ndarray:
    """Path lengths between all pairs of nodes: node ``k`` reaches every
    earlier node through its parent."""
    size = len(parent)
    d = np.zeros((size, size))
    for k in range(1, size):
        d[k, :k] = d[:k, k] = d[parent[k], :k] + length[k]
    return d


def _path_chain(size):
    # a path of tied unit edges with uniform measures on two overlapping halves
    nodes = [f"n{k}" for k in range(size)]
    half = size // 2
    return (
        nodes,
        [-1, *range(size - 1)],
        [0.0] + [1.0] * (size - 1),
        FiniteMeasure(nodes[: half + 5], [1.0 / (half + 5)] * (half + 5)),
        FiniteMeasure(nodes[half - 5 :], [1.0 / (size - half + 5)] * (size - half + 5)),
    )


@settings(max_examples=15, deadline=None)
@given(tree_cases())
@example(_path_chain(MAX_TREE_NODES))
def test_tree_metric_distance_is_the_weighted_subtree_imbalance(case):
    nodes, parent, length, mu, eta = case
    metric = TableMetric(nodes, _path_table(parent, length))
    assert abs(_distance(metric, mu, eta) - tree_distance(nodes, parent, length, mu, eta)) <= 1e-9
