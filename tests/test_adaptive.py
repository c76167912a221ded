"""Marking, bisection, and the adaptive loop."""

import itertools

import numpy as np
import pytest

import waveslab.adaptive
from waveslab import (
    ErrorBundle,
    ProblemData,
    TensorSpace,
    TimeGrid,
    make_case,
    problem_data,
)
from waveslab.adaptive import bisect, doerfler_mark, run_adaptive, total_dofs

rng = np.random.default_rng(20240816)

zero2 = lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
zero3 = lambda t, x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


def brute_force_minimum_size(indicators, theta):
    """Smallest subset cardinality reaching the marking threshold."""
    total = indicators.sum()
    for k in range(len(indicators) + 1):
        for combo in itertools.combinations(range(len(indicators)), k):
            if indicators[list(combo)].sum() >= theta * total * (1.0 - 1e-12):
                return k
    return len(indicators)


def test_marking_examples():
    assert doerfler_mark([4.0, 3.0, 2.0, 1.0], 0.5) == [0, 1]
    assert doerfler_mark([1.0, 0.0, 2.0], 1.0) == [0, 2]
    assert doerfler_mark([0.0, 0.0, 0.0], 0.5) == []
    # ties resolve toward the smaller index
    assert doerfler_mark([3.0, 3.0, 1.0], 1.0 / 3.0) == [0]
    assert doerfler_mark([1.0, 1.0, 1.0, 1.0], 0.25) == [0]
    # the bulk is reached up to round-off: ten indicators of 0.1 sum to 1.0,
    # but their running sum after nine is one ulp short of 0.9
    assert np.cumsum([0.1] * 10)[8] < 0.9 * np.sum([0.1] * 10)
    assert doerfler_mark([0.1] * 10, 0.9) == list(range(9))


def test_marking_is_minimal_and_sufficient():
    for _ in range(30):
        ind = rng.uniform(0.0, 1.0, size=8)
        theta = rng.uniform(0.1, 1.0)
        marked = doerfler_mark(ind, theta)
        assert ind[marked].sum() >= theta * ind.sum() * (1.0 - 1e-12)
        assert len(marked) == brute_force_minimum_size(ind, theta)


def test_marking_rejections():
    with pytest.raises(ValueError):
        doerfler_mark([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        doerfler_mark([1.0, 2.0], 1.5)
    with pytest.raises(ValueError):
        doerfler_mark([1.0, -0.5], 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_marking_refuses_non_finite_indicators(bad):
    with pytest.raises(ValueError):
        doerfler_mark([bad, 1.0], 0.5)


def test_bisection():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]), np.array([2, 3]))
    out = bisect(grid, [0])
    assert np.allclose(out.nodes, [0.0, 0.25, 0.5, 1.0])
    assert list(out.degrees) == [2, 2, 3]

    both = bisect(grid, {0, 1})
    assert np.allclose(both.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert list(both.degrees) == [2, 2, 3, 3]

    # marks are a set of indices: order, repeats and container do not matter
    for marks in ([1, 0], [0, 1, 1, 0], np.array([1, 0])):
        again = bisect(grid, marks)
        assert np.array_equal(again.nodes, both.nodes)
        assert np.array_equal(again.degrees, both.degrees)

    # each midpoint is 0.5 * (a + b) of its interval, to the bit
    uneven = TimeGrid(np.array([0.0, 0.1, 0.3, 1.0]), np.array([2, 4, 3]))
    split = bisect(uneven, np.array([2, 0]))
    assert np.array_equal(split.nodes, [0.0, 0.5 * (0.0 + 0.1), 0.1, 0.3, 0.5 * (0.3 + 1.0), 1.0])
    assert list(split.degrees) == [2, 2, 4, 3, 3]

    same = bisect(grid, [])
    assert np.allclose(same.nodes, grid.nodes)
    # old nodes survive every split
    assert np.all(np.isin(grid.nodes, both.nodes))

    with pytest.raises(ValueError):
        bisect(grid, [2])
    with pytest.raises(ValueError):
        bisect(grid, [-1])


@pytest.mark.parametrize("marks", [[0.7], [1.5], [np.float64(0.5)], [True], [np.True_],
                                   np.array([True, False]), [np.nan], [np.inf]])
def test_bisection_refuses_non_integer_marks(marks):
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]), np.array([2, 3]))
    with pytest.raises(ValueError, match="interval indices"):
        bisect(grid, marks)


def test_bisection_accepts_integer_valued_marks():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]), np.array([2, 3]))
    expect = bisect(grid, [1])
    for marks in ([1.0], [np.int64(1)], np.array([1.0]), [np.float32(1.0)]):
        got = bisect(grid, marks)
        assert np.array_equal(got.nodes, expect.nodes)
        assert np.array_equal(got.degrees, expect.degrees)


def test_total_dofs():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]), np.array([2, 3]))
    space = TensorSpace(2, 2, 2)
    assert space.n_dofs == 9
    assert total_dofs(grid, space) == 45


def test_zero_data_stops_immediately():
    data = ProblemData(u0=zero2, grad_u0=(zero2, zero2), u1=zero2, f=zero3)
    space = TensorSpace(2, 2, 2)
    result = run_adaptive(data, space, TimeGrid.uniform(1.0, 4, 2))
    assert len(result.history) == 1
    assert result.final.report.total == 0.0
    assert result.final.errors is None and result.final.kappa is None
    assert result.final_solution is not None
    with pytest.raises(ValueError):
        run_adaptive(data, space, TimeGrid.uniform(1.0, 4, 2), max_iters=0)


def test_zero_error_gives_infinite_kappa(monkeypatch):
    # kappa is None only without an exact solution; a zero error gives inf
    exact = ErrorBundle(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    monkeypatch.setattr(waveslab.adaptive, "compute_errors",
                        lambda sol, case: exact)
    data = problem_data(make_case("case2", alpha=1.75))
    result = run_adaptive(data, TensorSpace(2, 2, 2), TimeGrid.uniform(1.0, 2, 2),
                          max_iters=2)
    assert len(result.history) == 2
    for rec in result.history:
        assert rec.report.eta > 0.0 and rec.kappa == float("inf")


def test_eta_tolerance_stops_the_loop():
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = TensorSpace(3, 3, 2)
    result = run_adaptive(data, space, TimeGrid.uniform(1.0, 4, 2), eta_tol=1e3)
    assert len(result.history) == 1


def test_singular_case_refines_toward_the_origin():
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = TensorSpace(3, 3, 2)
    result = run_adaptive(data, space, TimeGrid.uniform(1.0, 4, 2),
                          theta=0.5, max_iters=6)
    assert len(result.history) == 6
    taus = np.diff(result.final.grid.nodes)
    assert taus.argmin() == 0
    assert taus.min() < taus.max()
    # grids are nested and grow, with bookkeeping filled in
    for prev, cur in zip(result.history, result.history[1:]):
        assert np.all(np.isin(prev.grid.nodes, cur.grid.nodes))
        assert cur.dofs > prev.dofs
    for rec in result.history:
        assert rec.dofs == total_dofs(rec.grid, space)
        assert rec.kappa is not None and rec.kappa > 0.0
        assert rec.errors is not None
        assert rec.report.localized
        assert rec.wall_time > 0.0


def test_higher_degree_concentrates_harder():
    # with the smooth part resolved, refinement piles onto the singularity
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = TensorSpace(3, 3, 2)
    ratios = {}
    for p in (2, 4):
        result = run_adaptive(data, space, TimeGrid.uniform(1.0, 4, p),
                              theta=0.5, max_iters=6)
        taus = np.diff(result.final.grid.nodes)
        ratios[p] = taus.max() / taus.min()
    assert ratios[4] > ratios[2]
