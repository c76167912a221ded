"""Slab-by-slab Petrov-Galerkin march: grids, exactness, residuals, stability."""

import contextlib
import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import legendre as npleg

import slow_reference as slow
from test_batched_kernel import assert_close
from test_errors import counting_exact
from waveslab import (
    ProblemData,
    TensorSpace,
    TimeGrid,
    compute_errors,
    effectivity,
    estimate,
    gauss_legendre,
    make_case,
    march,
    problem_data,
    stability_check,
)
import waveslab.adaptive
from waveslab import slabsolver, spacefem
from waveslab.adaptive import bisect, run_adaptive
from waveslab.estimator import osc_terms
from waveslab.slabsolver import _load, reference_blocks

rng = np.random.default_rng(20240814)

zero2 = lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
zero3 = lambda t, x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))

bump = lambda x, y: (1.0 - x**2) * (1.0 - y**2)
bump_x = lambda x, y: -2.0 * x * (1.0 - y**2)
bump_y = lambda x, y: -2.0 * y * (1.0 - x**2)
neg_lap_bump = lambda x, y: 2.0 * (1.0 - y**2) + 2.0 * (1.0 - x**2)


def zero_data():
    return ProblemData(grad_u0=(zero2, zero2), u1=zero2, f=zero3)


# ------------------------------------------------------------------ grids

def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]), np.array([], dtype=int))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0]), np.array([2, 2]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]), np.array([2, 2]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 1.0]), np.array([2, 1]))
    with pytest.raises(ValueError):
        TimeGrid.uniform(0.0, 4, 2)


@pytest.mark.parametrize("nodes, degrees", [
    ([0.0, np.nan, 1.0], [2, 2]),
    ([0.0, 1.0, np.inf], [2, 2]),
    ([0.0, 1.0, 2.0], [2.7, 3.2]),
    ([0.0, 1.0, 2.0], [2, np.nan]),
])
def test_grid_refuses_non_finite_nodes_and_fractional_degrees(nodes, degrees):
    with pytest.raises(ValueError):
        TimeGrid(np.array(nodes), np.array(degrees))


def test_grid_accepts_integral_float_degrees():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]), np.array([2.0, 3.0]))
    assert grid.degrees.dtype.kind == "i" and list(grid.degrees) == [2, 3]
    grid = TimeGrid.uniform(1.0, 4, 3.0)
    assert grid.degrees.dtype.kind == "i" and list(grid.degrees) == [3, 3, 3, 3]


@pytest.mark.parametrize("degree", [2.5, 3.7, np.nan, True])
def test_uniform_grid_refuses_what_the_grid_refuses(degree):
    # 2.5 used to be truncated to degree 2 on the way in
    with pytest.raises(ValueError):
        TimeGrid(np.linspace(0.0, 1.0, 5), [degree] * 4)
    with pytest.raises(ValueError):
        TimeGrid.uniform(1.0, 4, degree)
    # as an interval count these failed inside numpy with a TypeError, and
    # so did 4.0, which the sizes of a TensorSpace accept as 4
    with pytest.raises(ValueError):
        TimeGrid.uniform(1.0, degree, 2)
    grid = TimeGrid.uniform(1.0, 4.0, 2)
    assert np.array_equal(grid.nodes, TimeGrid.uniform(1.0, 4, 2).nodes)


def test_uniform_grid_accessors():
    grid = TimeGrid.uniform(2.0, 4, 3)
    assert grid.n_intervals == 4
    assert grid.T == 2.0
    assert grid.interval(1) == (0.5, 1.0)
    assert abs(grid.tau(2) - 0.5) < 1e-15
    assert np.all(grid.degrees == 3)


# ------------------------------------------------------------------ march

def test_zero_data_gives_zero_solution():
    space = TensorSpace(2, 2, 2)
    grid = TimeGrid.uniform(1.0, 3, 2)
    sol = march(zero_data(), space, grid)
    for n in range(3):
        assert np.max(np.abs(sol.blocks[n])) < 1e-14
        assert np.max(np.abs(sol.jumps[n])) < 1e-14


def test_empty_space_smoke():
    space = TensorSpace(1, 1, 1)
    sol = march(zero_data(), space, TimeGrid.uniform(1.0, 2, 2))
    assert sol.blocks[0].shape == (3, 0)


def test_single_dof_oscillator():
    # 2x2 bilinear mesh: one hat function, M = 4/9, K = 8/3, so with the hat
    # as initial value the semi-discrete coefficient is cos(sqrt(6) t)
    space = TensorSpace(2, 2, 1)
    hat_x = lambda x, y: -np.sign(x) * (1.0 - np.abs(y))
    hat_y = lambda x, y: -np.sign(y) * (1.0 - np.abs(x))
    data = ProblemData(grad_u0=(hat_x, hat_y), u1=zero2, f=zero3)
    grid = TimeGrid.uniform(1.0, 10, 3)
    sol = march(data, space, grid)
    assert abs(sol.blocks[0][0][0] - 1.0) < 1e-12
    for t in (0.35, 0.7, 1.0):
        n = min(int(t / 0.1), 9)
        got = sol.poly(n).eval(t)[0]
        assert abs(got - np.cos(np.sqrt(6.0) * t)) < 1e-4, t


def test_space_time_polynomial_exactness():
    # solution inside the trial space is reproduced to solver precision
    g = lambda t: 0.3 + 0.5 * t + 0.8 * t**2
    ddg = 1.6
    space = TensorSpace(3, 3, 2)
    data = ProblemData(
        grad_u0=(lambda x, y: 0.3 * bump_x(x, y), lambda x, y: 0.3 * bump_y(x, y)),
        u1=lambda x, y: 0.5 * bump(x, y),
        f=lambda t, x, y: ddg * bump(x, y) + neg_lap_bump(x, y) * g(t),
    )
    grid = TimeGrid.uniform(1.0, 4, 2)
    sol = march(data, space, grid)
    coeffs = slow.interpolate(space, bump)
    for t in (0.0, 0.2, 0.55, 0.8, 1.0):
        n = min(int(t / 0.25), 3)
        got = sol.poly(n).eval(t)
        assert np.max(np.abs(got - g(t) * coeffs)) < 1e-9, t
    for n in range(4):
        assert np.max(np.abs(sol.jumps[n])) < 1e-9


def test_continuity_across_slabs():
    space = TensorSpace(3, 3, 2)
    data = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2,
                       f=lambda t, x, y: np.cos(3.0 * t) * bump(x, y))
    grid = TimeGrid(np.array([0.0, 0.3, 0.45, 1.0]), np.array([2, 3, 2]))
    sol = march(data, space, grid)
    for n in (1, 2):
        left = sol.poly(n - 1).eval(grid.nodes[n])
        right = sol.poly(n).eval(grid.nodes[n])
        assert np.allclose(left, right, atol=1e-12)
        assert np.allclose(sol.blocks[n][0], sol.blocks[n - 1][-1], atol=0.0)


def test_jump_convention():
    space = TensorSpace(3, 3, 2)
    data = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2, f=zero3)
    grid = TimeGrid.uniform(1.0, 3, 2)
    sol = march(data, space, grid)
    dphi_left = slabsolver.reference_blocks(2)["dphi_left"]
    start_deriv = (2.0 / grid.tau(0)) * (dphi_left @ sol.blocks[0])
    assert np.allclose(sol.jumps[0], start_deriv - sol.u1h, atol=0.0)
    got = sol.jumps[2]
    ref = sol.poly(2).deriv(grid.nodes[2]) - sol.poly(1).deriv(grid.nodes[2])
    assert np.allclose(got, ref, atol=1e-10)


def test_variational_residual_per_slab():
    """The computed slab satisfies the upwinded weak form against every test
    polynomial, verified with an independent quadrature."""
    space = TensorSpace(3, 3, 2)
    f = lambda t, x, y: np.cos(3.0 * t) * bump(x, y) + np.sin(t) * x * (1 - y**2)
    data = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2, f=f)
    grid = TimeGrid(np.array([0.0, 0.4, 0.7]), np.array([3, 2]))
    sol = march(data, space, grid)
    M, K = slow.mass_stiffness(space)
    for n in range(2):
        p = int(grid.degrees[n])
        a, b = grid.interval(n)
        poly = sol.poly(n)
        xq, wq = gauss_legendre(2 * p + 9)
        tq = 0.5 * (a + b) + 0.5 * (b - a) * xq
        incoming = sol.u1h if n == 0 else sol.poly(n - 1).deriv(a)
        for k in range(p):
            coeff = np.zeros(p + 1)
            coeff[k] = 1.0
            psi = npleg.legval(xq, coeff)
            moment = np.zeros(space.n_dofs)
            for t, w, s in zip(tq, wq, psi):
                resid = (
                    M @ poly.deriv(t, m=2)
                    + K @ poly.eval(t)
                    - space.load_vector(space.grid_eval(lambda X, Y: f(t, X, Y)))
                )
                moment += 0.5 * (b - a) * w * s * resid
            moment += (-1.0) ** k * (M @ (poly.deriv(a) - incoming))
            scale = max(1.0, float(np.max(np.abs(M @ poly.deriv(a)))))
            assert np.max(np.abs(moment)) < 1e-9 * scale, (n, k)


@contextlib.contextmanager
def recording_factorizations(monkeypatch):
    """Yield the list of (operator, factorization, keyword arguments) made inside."""
    real = slabsolver.spla
    calls = []

    class Recording:
        def __getattr__(self, name):
            return getattr(real, name)

        def splu(self, matrix, *args, **kwargs):
            lu = real.splu(matrix, *args, **kwargs)
            calls.append((matrix, lu, kwargs))
            return lu

    monkeypatch.setattr(slabsolver, "spla", Recording())
    try:
        yield calls
    finally:
        monkeypatch.setattr(slabsolver, "spla", real)


def record_factorizations(monkeypatch, space, grid):
    """The (operator, factorization, keyword arguments) of one march on `grid`."""
    with recording_factorizations(monkeypatch) as calls:
        march(zero_data(), space, grid)
    return calls


def count_factorizations(monkeypatch, grid):
    """Number of sparse-LU factorizations one march on `grid` makes."""
    return len(record_factorizations(monkeypatch, TensorSpace(2, 2, 1), grid))


def test_factorization_reused_across_equal_slabs(monkeypatch):
    # np.linspace steps differ in their last bits; those slabs still share
    assert count_factorizations(monkeypatch, TimeGrid.uniform(1.0, 40, 2)) == 1
    assert count_factorizations(monkeypatch, TimeGrid.uniform(1.0, 160, 2)) == 1
    # a bisected grid factorizes once per distinct (degree, length)
    grid = bisect(bisect(TimeGrid.uniform(1.0, 5, 3), [0, 2, 3]), [0, 1])
    lengths = {round(float(tau), 9) for tau in np.diff(grid.nodes)}
    assert lengths == {0.05, 0.1, 0.2}
    assert count_factorizations(monkeypatch, grid) == 3
    mixed = TimeGrid(grid.nodes, np.where(np.arange(grid.n_intervals) < 5, 2, 3))
    assert count_factorizations(monkeypatch, mixed) == 4


def nested_grids():
    """uniform(1, 5, 3) and two bisections of it: lengths 0.2, then 0.1, then 0.05."""
    g0 = TimeGrid.uniform(1.0, 5, 3)
    g1 = bisect(g0, [0, 2, 3])
    return g0, g1, bisect(g1, [0, 1])


def slab_keys(grid):
    return {(int(p), f"{tau:.11e}") for p, tau in zip(grid.degrees, np.diff(grid.nodes))}


def test_factorizations_kept_across_marches_on_one_space(monkeypatch):
    # each grid of the nested sequence adds one new (degree, length) pair
    space = TensorSpace(2, 2, 1)
    counts = [len(record_factorizations(monkeypatch, space, g)) for g in nested_grids()]
    assert counts == [1, 1, 1]
    assert len(set.union(*map(slab_keys, nested_grids()))) == sum(counts)
    assert set(space.slab_lu) == slab_keys(nested_grids()[2])


def test_march_drops_factorizations_its_grid_does_not_use(monkeypatch):
    space = TensorSpace(2, 2, 1)
    g0, g1, g2 = nested_grids()
    for grid in (g0, g1, g2):
        march(zero_data(), space, grid)
    # lengths 0.25 only: every kept factorization goes
    assert len(record_factorizations(monkeypatch, space, TimeGrid.uniform(1.0, 4, 2))) == 1
    assert list(space.slab_lu) == [(2, f"{0.25:.11e}")]
    assert len(record_factorizations(monkeypatch, space, g2)) == 3
    assert set(space.slab_lu) == slab_keys(g2)


def test_warm_space_march_matches_a_fresh_one():
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = TensorSpace(4, 4, 2)
    g0, g1, g2 = nested_grids()
    march(data, space, g0)
    march(data, space, g1)
    warm = march(data, space, g2)
    again = march(data, space, g2)
    fresh = march(data, TensorSpace(4, 4, 2), g2)
    for n in range(g2.n_intervals):
        assert np.array_equal(warm.blocks[n], again.blocks[n])
        assert_close(warm.blocks[n], fresh.blocks[n])


def test_adaptive_loop_factorizes_each_slab_operator_once(monkeypatch):
    data = problem_data(make_case("case2", alpha=1.75))
    space = TensorSpace(3, 3, 2)
    with recording_factorizations(monkeypatch) as calls:
        result = run_adaptive(data, space, TimeGrid.uniform(1.0, 3, 2), max_iters=6)
    grids = [record.grid for record in result.history]
    assert len(grids) == 6
    distinct = set.union(*map(slab_keys, grids))
    assert len(distinct) < sum(len(slab_keys(g)) for g in grids)
    assert len(calls) == len(distinct)


def load_keys(grid):
    """The (p, t_n, t_{n+1}) under which a march keeps each slab's load."""
    return set(zip(grid.degrees.tolist(), grid.nodes[:-1].tolist(), grid.nodes[1:].tolist()))


def record_loads(monkeypatch):
    """The list to which every later `_load` call appends its number of slabs."""
    loaded = []

    def recording_load(data, space, a, tau, rule):
        loaded.append(np.size(a))
        return _load(data, space, a, tau, rule)

    monkeypatch.setattr(slabsolver, "_load", recording_load)
    return loaded


def test_adaptive_loop_loads_each_slab_once(monkeypatch):
    data = problem_data(make_case("case2", alpha=1.75))
    loaded = record_loads(monkeypatch)
    result = run_adaptive(data, TensorSpace(3, 3, 2), TimeGrid.uniform(1.0, 3, 2), max_iters=6)
    grids = [record.grid for record in result.history]
    assert len(grids) == 6
    distinct = set.union(*map(load_keys, grids))
    assert len(distinct) < sum(g.n_intervals for g in grids)
    assert sum(loaded) == len(distinct)


def counting_solves(monkeypatch):
    """The list to which every solve with a later factorization appends."""
    real = slabsolver.spla
    solves = []

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(len(rhs))
            return self.lu.solve(rhs)

    class Counting:
        def __getattr__(self, name):
            return getattr(real, name)

        def splu(self, *args, **kwargs):
            return Counted(real.splu(*args, **kwargs))

    monkeypatch.setattr(slabsolver, "spla", Counting())
    return solves


def common_prefix(keys, previous):
    """Number of leading slabs whose keys are the previous grid's at the same index."""
    count = 0
    for key, old in zip(keys, previous):
        if key != old:
            break
        count += 1
    return count


def test_adaptive_history_equals_marches_without_kept_loads_bitwise(monkeypatch):
    calls = {}
    case = counting_exact(make_case("case2", alpha=1.75), calls)
    data = problem_data(case)
    loaded = record_loads(monkeypatch)
    solves = counting_solves(monkeypatch)
    solutions = []

    def recording_march(*args, **kwargs):
        solutions.append(slabsolver.march(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(waveslab.adaptive, "march", recording_march)
    # chunks of two slabs in the error norms, so a kept slab changes the
    # chunks that the slabs after it are scored in; on this space, summing
    # a chunk's oscillation by a matrix-vector product moves the osc_n of
    # iteration 3
    space = TensorSpace(4, 4, 2)
    samples = sum(len(reference_blocks(2)[name][0]) for name in ("gauss", "equispaced"))
    monkeypatch.setattr(slabsolver, "STACK_BUDGET",
                        2 * samples * space.gauss_x.size * space.gauss_y.size)
    result = run_adaptive(data, space, TimeGrid.uniform(1.0, 3, 2), max_iters=6)
    kept_count, adaptive_calls, adaptive_solves = sum(loaded), dict(calls), len(solves)
    # the same grids in the same order on one space, so that the kept
    # factorizations agree too; each march assembles all of its loads and
    # solves every slab, and each estimate and compute_errors evaluates
    # every slab
    space = TensorSpace(4, 4, 2)
    kept_blocks, scored_chunks, all_chunks = {}, 0, 0
    previous_keys, solved = [], 0
    for record, adaptive_sol in zip(result.history, solutions, strict=True):
        sol = march(data, space, record.grid)
        report = estimate(sol, data, localized=True)
        errs = compute_errors(sol, case)
        for kept_block, block in zip(adaptive_sol.blocks, sol.blocks, strict=True):
            assert np.array_equal(kept_block, block)
        assert record.report.eta1 == report.eta1 and record.report.m == report.m
        for name in ("eta2_n", "osc_n", "local_n"):
            assert np.array_equal(getattr(record.report, name), getattr(report, name))
        assert adaptive_sol.jump_sq.tobytes() == sol.jump_sq.tobytes()
        assert record.report.eta == report.eta and record.report.osc == report.osc
        assert record.errors == errs
        assert record.kappa == effectivity(report, errs.Linf_L2)
        # the adaptive run scored only the slabs whose key or block is new
        keys, blocks = record.grid.slab_keys(), [b.tobytes() for b in sol.blocks]
        new = [n for n, key in enumerate(keys) if kept_blocks.get(key) != blocks[n]]
        cost = slabsolver._sample_cost(space, "gauss", "equispaced")
        scored_chunks += len(list(slabsolver._runs(record.grid, new, cost)))
        all_chunks += len(list(slabsolver._runs(record.grid, range(len(keys)), cost)))
        kept_blocks = dict(zip(keys, blocks))
        # and solved only the slabs from the first one its bisection changed
        solved += len(keys) - common_prefix(keys, previous_keys)
        previous_keys = keys
    assert sum(loaded) - kept_count == sum(r.grid.n_intervals for r in result.history)
    assert kept_count < sum(loaded) - kept_count
    assert adaptive_calls == dict.fromkeys(("u", "du", "ux", "uy"), scored_chunks)
    assert scored_chunks < all_chunks
    assert adaptive_solves == solved < sum(r.grid.n_intervals for r in result.history)
    assert np.array_equal(np.concatenate(result.final_solution.blocks),
                          np.concatenate(sol.blocks))


def test_adaptive_history_equals_marches_without_kept_loads_bitwise_in_the_local_form(
        monkeypatch):
    # the kept records need a slab's values to have the same bits in any stack
    monkeypatch.setattr(spacefem, "_LOCAL_KERNEL_DOFS", 0)
    test_adaptive_history_equals_marches_without_kept_loads_bitwise(monkeypatch)


def test_an_adaptive_march_knows_the_values_of_its_copied_slabs(monkeypatch):
    # a march resumed from the last one knows the squared jumps and Laplacian
    # norms of the slabs it copies, and the forcing defect of every slab: it
    # keeps those of the slabs whose key it kept and takes the others from
    # its load's samples, all but that of the graded first slab.  An
    # estimate computes only the others, from the first slab that was not
    # copied on, and samples f only on a new first slab; every row has the
    # bits of a fresh evaluation
    samples = []
    case = make_case("case2", alpha=1.75)

    def f(t, x, y):
        samples.append(np.size(t))
        return case.f(t, x, y)

    data = dataclasses.replace(problem_data(case), f=f)
    space, kept = TensorSpace(3, 3, 2), {}
    jump_rows, lap_rows = [], []
    real_inner, real_lap = TensorSpace.m_inner, TensorSpace.eval_laplacian_gauss

    def inner(self, u, v):
        jump_rows.append(len(u))
        return real_inner(self, u, v)

    def laplacian(self, vec):
        lap_rows.append(len(vec))
        return real_lap(self, vec)

    monkeypatch.setattr(TensorSpace, "m_inner", inner)
    monkeypatch.setattr(TensorSpace, "eval_laplacian_gauss", laplacian)
    grid, keys = TimeGrid.uniform(1.0, 4, 2), []
    n_gauss = len(reference_blocks(2)["gauss"][0])
    for marks in (None, [2], [0], [5], []):
        last_keys, grid = keys, grid if marks is None else bisect(grid, marks)
        keys = grid.slab_keys()
        sol = march(data, space, grid, kept=kept)
        copied = common_prefix(keys, last_keys)
        for rows in (jump_rows, lap_rows, samples):
            rows.clear()
        report = estimate(sol, data)  # every slab's terms
        new = grid.n_intervals - copied
        assert jump_rows == [new] * (new > 0)
        assert lap_rows == [new] * 2 * (new > 0)
        assert sum(samples) == n_gauss * (keys[0] not in last_keys)
        fresh = dataclasses.replace(sol)
        expect = estimate(fresh, data)
        assert (report.eta1, report.m) == (expect.eta1, expect.m)
        for got, want in ((report.eta2_n, expect.eta2_n), (report.osc_n, expect.osc_n),
                          (sol.jump_sq, fresh.jump_sq), (sol.lap, fresh.lap),
                          (sol.osc_l1, fresh.osc_l1)):
            assert got.tobytes() == want.tobytes()
    assert copied == grid.n_intervals  # the last march copied every slab


def test_kept_loads_are_read_only_and_unchanged_by_a_march(monkeypatch):
    data = problem_data(make_case("case2", alpha=1.75))
    space = TensorSpace(3, 3, 2)
    grid = TimeGrid.uniform(1.0, 4, 3)
    solves, kept = counting_solves(monkeypatch), {}
    march(data, space, grid, kept=kept)
    assert set(kept) == load_keys(grid)
    loads = {key: record.load for key, record in kept.items()}
    copies = {key: load.copy() for key, load in loads.items()}
    for load in loads.values():
        assert load.shape == (3, space.n_dofs) and not load.flags.writeable
        with pytest.raises(ValueError):
            load[0, 0] = 1.0
    # bisecting the first slab resumes no slab: the march reads the loads of
    # the three slabs it keeps and adds its history to a new array
    fine = bisect(grid, [0])
    solves.clear()
    again = march(data, space, fine, kept=kept)
    assert len(solves) == fine.n_intervals
    shared = load_keys(grid) & load_keys(fine)
    assert len(shared) == 3
    assert all(kept[key].load is loads[key] for key in shared)
    assert all(np.array_equal(loads[key], copies[key]) for key in loads)
    assert np.array_equal(np.concatenate(again.blocks),
                          np.concatenate(march(data, space, fine).blocks))


def test_march_drops_loads_its_grid_does_not_use():
    data = problem_data(make_case("case2", alpha=1.75))
    space = TensorSpace(2, 2, 1)
    g0, g1, g2 = nested_grids()
    kept = {}
    for grid in (g0, g1, g2):
        sol = march(data, space, grid, kept=kept)
        assert set(kept) == load_keys(grid)
        assert all(record.solution is sol for record in kept.values())
    assert load_keys(g0) - load_keys(g2)
    other = TimeGrid.uniform(1.0, 4, 2)
    march(data, space, other, kept=kept)
    assert set(kept) == load_keys(other)


@pytest.mark.parametrize("change, resumed", [
    ("nothing", 4), ("third slab", 2), ("first slab", 0), ("u0h", 0), ("u1h", 0)])
def test_march_resumes_only_an_unchanged_start(monkeypatch, change, resumed):
    # the slabs before the first changed one are copied; a changed first
    # slab or projected initial state, even by a tiny amount, resumes nothing
    case = make_case("case2", alpha=1.75)
    moved = []  # the initial data that have changed since the first march
    tiny = lambda fn: lambda x, y: 1e-200 * fn(x, y)
    moving = lambda name, before, after: lambda x, y: (
        after(x, y) if name in moved else before(x, y))
    # one data object throughout, whose initial data callables return
    # another array once their name is in `moved`
    data = dataclasses.replace(
        problem_data(case),
        grad_u0=(moving("u0h", case.u0x, tiny(bump_x)), moving("u0h", case.u0y, tiny(bump_y))),
        u1=moving("u1h", case.u1, tiny(bump)))
    space = TensorSpace(3, 3, 2)
    grid = TimeGrid.uniform(1.0, 4, 2)
    solves, kept = counting_solves(monkeypatch), {}
    march(data, space, grid, kept=kept)
    if change == "third slab":
        grid = bisect(grid, [2])
    elif change == "first slab":
        grid = bisect(grid, [0])
    moved.append(change)
    solves.clear()
    sol = march(data, space, grid, kept=kept)
    assert len(solves) == grid.n_intervals - resumed
    fresh = march(data, TensorSpace(3, 3, 2), grid)
    assert np.array_equal(sol.u1h, fresh.u1h)
    assert np.array_equal(np.concatenate(sol.blocks), np.concatenate(fresh.blocks))
    assert set(kept) == load_keys(grid)
    assert all(record.solution is sol for record in kept.values())


def two_problems():
    """case2 at alpha 1.75 and at 2.5: zero initial data, so that every slab
    key and the projected initial state of one march match the other's."""
    return tuple(problem_data(make_case("case2", alpha=alpha)) for alpha in (1.75, 2.5))


@pytest.mark.parametrize("change", ["data", "space"])
def test_a_march_of_another_problem_reuses_nothing(monkeypatch, change):
    # one dict passed to marches of two problems: the second march reads no
    # load and copies no row of the first, and gives the rows of a fresh one
    first, second = two_problems()
    space, grid = TensorSpace(4, 4, 2), TimeGrid.uniform(1.0, 4, 2)
    solves, loaded, kept = counting_solves(monkeypatch), record_loads(monkeypatch), {}
    march(first, space, grid, kept=kept)
    data, other_space = (second, space) if change == "data" else (first, TensorSpace(4, 4, 2))
    solves.clear()
    loaded.clear()
    sol = march(data, other_space, grid, kept=kept)
    assert len(solves) == sum(loaded) == grid.n_intervals
    fresh = march(data, TensorSpace(4, 4, 2), grid)
    assert np.array_equal(np.concatenate(sol.blocks), np.concatenate(fresh.blocks))
    assert all(record.solution is sol for record in kept.values())


def test_problem_data_cannot_change_under_a_solution():
    # the reuse rules know a problem by its data object, so the object must
    # keep its fields; another problem is another object
    data = problem_data(make_case("case2", alpha=1.75))
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.f = make_case("case2", alpha=2.5).f


def test_error_partials_serve_only_the_case_the_solution_solved():
    first, second = two_problems()
    space, grid = TensorSpace(4, 4, 2), TimeGrid.uniform(1.0, 4, 2)
    kept = {}
    sol = march(first, space, grid, kept=kept)
    compute_errors(sol, first.exact)
    # partials scored for the first case are read neither for the second
    # case nor by a march of the second problem
    fresh = march(first, TensorSpace(4, 4, 2), grid)
    assert compute_errors(sol, second.exact) == compute_errors(fresh, second.exact)
    again = march(second, space, grid, kept=kept)
    fresh = march(second, TensorSpace(4, 4, 2), grid)
    assert compute_errors(again, second.exact) == compute_errors(fresh, second.exact)


def test_forcing_defects_serve_only_the_data_the_solution_solved():
    first, second = two_problems()
    space, grid = TensorSpace(4, 4, 2), TimeGrid.uniform(1.0, 4, 2)
    m = grid.n_intervals - 1
    kept = {}
    sol = march(first, space, grid, kept=kept)
    estimate(sol, first)
    # defects of the first forcing are read neither for the second forcing,
    # nor on other points, nor by a march of the second problem
    fresh = march(first, TensorSpace(4, 4, 2), grid)
    assert np.array_equal(osc_terms(second, sol, m), osc_terms(second, fresh, m))
    assert np.array_equal(osc_terms(first, sol, m, "gauss_doubled"),
                          osc_terms(first, fresh, m, "gauss_doubled"))
    again = march(second, space, grid, kept=kept)
    report, expect = estimate(again, second), estimate(march(second, TensorSpace(4, 4, 2), grid),
                                                       second)
    assert report.eta1 == expect.eta1
    for name in ("eta2_n", "osc_n"):
        assert np.array_equal(getattr(report, name), getattr(expect, name))


def test_a_stability_check_of_another_forcing_reads_no_forcing_row():
    # the forcing norms the march kept serve only its own data: for another
    # forcing the check samples every slab up to its m again, and leaves the
    # solution's rows as they were
    first, second = two_problems()
    space, grid = TensorSpace(4, 4, 2), TimeGrid.uniform(1.0, 4, 2)
    sol = march(first, space, grid)
    known = sol.f_sq.tobytes()
    report = stability_check(sol, second)
    assert sol.f_sq.tobytes() == known
    expect = stability_check(dataclasses.replace(sol, data=None), second)
    assert report.m == expect.m and report.rhs == expect.rhs
    assert_close(report.rhs, slow.stability_check(sol, second)[1])


def test_a_resumed_march_carries_its_energies_and_forcing_terms():
    # the copied slabs keep their energies and the kept slabs their forcing
    # terms; the march samples f only for the slabs it loads, and every row
    # has the bits of a fresh march
    samples = []
    case = make_case("case2", alpha=1.75)

    def f(t, x, y):
        samples.append(np.size(t))
        return case.f(t, x, y)

    data = dataclasses.replace(problem_data(case), f=f)
    space, kept = TensorSpace(3, 3, 2), {}
    grid = TimeGrid.uniform(1.0, 4, 2)
    march(data, space, grid, kept=kept)
    fine = bisect(grid, [2])
    samples.clear()
    sol = march(data, space, fine, kept=kept)
    assert sum(samples) == 2 * len(reference_blocks(2)["gauss"][0])  # the two new halves
    fresh = march(data, TensorSpace(3, 3, 2), fine)
    for name in ("energy", "osc_l1", "f_sq"):
        assert getattr(sol, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert np.isnan(sol.f_sq[0]) and not np.isnan(sol.f_sq[1:]).any()
    assert not np.isnan(sol.energy).any()


def test_graded_loads_have_the_same_bits_under_any_stack_budget(monkeypatch):
    # the graded rule's panels share f calls as the budget allows, and are
    # summed one by one in rule order all the same
    data = problem_data(make_case("case2", alpha=1.75))
    space = TensorSpace(3, 3, 2)
    panels = reference_blocks(3)["graded_load"]
    values = len(panels[0][0]) * space.gauss_x.size * space.gauss_y.size
    calls, loads = [], set()
    real = TensorSpace.grid_eval

    def grid_eval(self, fn, t=None):
        calls.append(np.size(t))
        return real(self, fn, t)

    monkeypatch.setattr(TensorSpace, "grid_eval", grid_eval)
    for per_call in (1, 2, 7, 46, None):
        if per_call is not None:
            monkeypatch.setattr(slabsolver, "STACK_BUDGET", per_call * values)
        calls.clear()
        moments, forcing = _load(data, space, np.array([0.0]), np.array([0.37]), panels)
        if per_call is not None:
            assert len(calls) == -(-46 // per_call)
        assert np.isnan(forcing).all()
        loads.add(moments.tobytes())
    assert len(loads) == 1


def test_an_adaptive_solution_goes_with_its_last_reference():
    # the records point at the last solution, and nothing points back from a
    # solution, so a dropped one is freed without the cyclic collector
    data = problem_data(make_case("case2", alpha=1.75))
    space, grid = TensorSpace(3, 3, 2), TimeGrid.uniform(1.0, 4, 2)
    kept = {}
    gc.disable()
    try:
        sol = march(data, space, grid, kept=kept)
        estimate(sol, data, localized=True)
        compute_errors(sol, data.exact)
        ref = weakref.ref(sol)
        following = march(data, space, bisect(grid, [2]), kept=kept)
        assert ref() is sol
        del sol
        assert ref() is None
        assert all(record.solution is following for record in kept.values())
    finally:
        gc.enable()


def test_slab_factors_stay_within_each_eigenmode(monkeypatch):
    # in the spatial eigenbasis a slab couples each of the d modes only to
    # itself in time, so the LU factors fill at most one p x p block per mode
    space = TensorSpace(16, 16, 2)
    [(system, lu, _)] = record_factorizations(monkeypatch, space, TimeGrid.uniform(1.0, 2, 3))
    d, p = space.n_dofs, 3
    assert system.shape == (p * d, p * d)
    assert lu.L.nnz + lu.U.nnz <= d * p * (p + 1)


@pytest.mark.parametrize("p", range(2, 11))
def test_slab_operator_is_the_kronecker_sum_in_natural_order(monkeypatch, p):
    # the CSC arrays written entry by entry hold exactly A'(x)I + B'(x)diag(s),
    # and SuperLU keeps their time-major column order
    space = TensorSpace(4, 3, 2)
    grid = TimeGrid.uniform(1.0, 2, p)
    [(system, lu, kwargs)] = record_factorizations(monkeypatch, space, grid)
    A, B = slabsolver.time_matrices(p, grid.tau(0))
    d, s = space.n_dofs, space.stiffness_eigs
    ref = sp.kron(A[:, 1:], sp.identity(d)) + sp.kron(B[:, 1:], sp.diags(s))
    assert system.format == "csc" and system.shape == ref.shape
    assert system.nnz == ref.nnz == p * p * d
    assert abs(system - ref).max() == 0.0
    assert kwargs == {"permc_spec": "NATURAL", "panel_size": 1, "relax": 1}
    assert np.array_equal(lu.perm_c, np.arange(p * d))


@pytest.mark.parametrize("shape, p", [((5, 5, 2), p) for p in range(2, 11)]
                         + [((10, 10, 2), p) for p in range(2, 11)] + [((30, 30, 3), 3)])
def test_one_column_panels_give_the_factors_of_the_default_panels(monkeypatch, shape, p):
    # the operator's columns share no sparsity pattern, so SuperLU's
    # supernodal panels group nothing and the march's factors keep their bits
    [(system, lu, _)] = record_factorizations(monkeypatch, TensorSpace(*shape),
                                              TimeGrid.uniform(1.0, 2, p))
    ref = spla.splu(system, permc_spec="NATURAL")
    for mine, theirs in ((lu.L, ref.L), (lu.U, ref.U)):
        assert np.array_equal(mine.indptr, theirs.indptr)
        assert np.array_equal(mine.indices, theirs.indices)
        assert np.array_equal(mine.data, theirs.data)
    assert np.array_equal(lu.perm_r, ref.perm_r)
    rhs = np.random.default_rng(p).standard_normal(system.shape[0])
    assert np.array_equal(lu.solve(rhs), ref.solve(rhs))


@pytest.mark.parametrize("p", range(2, 11))
def test_march_matches_default_ordering_reference(p):
    # the reference assembles A'(x)M + B'(x)K in the nodal basis and
    # factorizes it anew, under SuperLU's default ordering, on every slab
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = TensorSpace(4, 4, 2)
    grid = TimeGrid.uniform(1.0, 3, p)
    fast = march(data, space, grid)
    ref = slow.march(data, space, grid)
    for n in range(grid.n_intervals):
        assert_close(fast.blocks[n], ref.blocks[n])


@pytest.mark.parametrize("p", range(2, 11))
def test_march_matches_default_ordering_reference_in_the_local_form(monkeypatch, p):
    monkeypatch.setattr(spacefem, "_LOCAL_KERNEL_DOFS", 0)
    test_march_matches_default_ordering_reference(p)


def test_blocks_share_their_junction_rows_read_only():
    space = TensorSpace(3, 3, 2)
    data = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2,
                       f=lambda t, x, y: np.cos(3.0 * t) * bump(x, y))
    grid = TimeGrid(np.array([0.0, 0.3, 0.45, 1.0]), np.array([2, 3, 2]))
    sol = march(data, space, grid)
    for n in range(grid.n_intervals):
        assert sol.blocks[n].shape == (grid.degrees[n] + 1, space.n_dofs)
        assert not sol.blocks[n].flags.writeable
    for left, right in zip(sol.blocks, sol.blocks[1:]):
        assert np.shares_memory(left[-1], right[0])
        assert not np.shares_memory(left[:-1], right)


def nan_on_second_factorization(monkeypatch):
    """Make the solves of the second distinct slab operator return nan."""
    real = slabsolver.spla
    made = []

    class NanSolve:
        def solve(self, rhs):
            return np.full_like(rhs, np.nan)

    class Failing:
        def __getattr__(self, name):
            return getattr(real, name)

        def splu(self, matrix, *args, **kwargs):
            made.append(matrix)
            return NanSolve() if len(made) == 2 else real.splu(matrix, *args, **kwargs)

    monkeypatch.setattr(slabsolver, "spla", Failing())


@pytest.mark.parametrize("nodes, degrees, slab", [
    ([0.0, 0.2, 0.4, 0.5, 0.6, 0.8], [2, 2, 2, 2, 2], 2),  # second length
    ([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], [2, 2, 2, 3, 2], 3),  # second degree
    ([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.55, 0.65, 0.75], [2] * 8, 5),  # inside a run
])
def test_a_failed_solve_names_the_first_slab_using_it(monkeypatch, nodes, degrees, slab):
    # the march checks a run of slabs at once, after the slabs behind the
    # failed one have solved from its nan state: under a budget of 600
    # values a run holds four slabs of degree 2 on this space (2 p + 2
    # rows of 25 values each), so slab 5 of the last grid fails inside the
    # run of slabs 4..7; under a budget of 1 every slab is a run of its own
    data = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2,
                       f=lambda t, x, y: np.cos(3.0 * t) * bump(x, y))
    grid = TimeGrid(np.array(nodes), np.array(degrees))
    space = TensorSpace(3, 3, 2)
    for budget in (1, 600, slabsolver.STACK_BUDGET):
        with monkeypatch.context() as patch:
            nan_on_second_factorization(patch)
            patch.setattr(slabsolver, "STACK_BUDGET", budget)
            space.slab_lu.clear()
            with pytest.raises(FloatingPointError, match=f"solve of slab {slab}$"):
                march(data, space, grid)


def test_non_finite_load_or_solution_stops_the_march():
    space = TensorSpace(3, 3, 2)
    grid = TimeGrid.uniform(1.0, 4, 2)
    late_nan = lambda t, x, y: np.where(t > 0.6, np.nan, 1.0) * bump(x, y)
    data = ProblemData(grad_u0=(zero2, zero2), u1=zero2, f=late_nan)
    with pytest.raises(FloatingPointError, match="load of slab 2"):
        march(data, space, grid)
    nan2 = lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.nan)
    data = ProblemData(grad_u0=(nan2, nan2), u1=zero2, f=zero3)
    with pytest.raises(FloatingPointError, match="projected initial displacement"):
        march(data, space, grid)
    data = ProblemData(grad_u0=(zero2, zero2), u1=nan2, f=zero3)
    with pytest.raises(FloatingPointError, match="projected initial velocity"):
        march(data, space, grid)


def test_load_sees_only_low_temporal_modes():
    # adding a forcing component orthogonal to the test space on the single
    # slab leaves the discrete solution unchanged
    space = TensorSpace(3, 3, 2)
    p = 3
    grid = TimeGrid.uniform(0.8, 1, p)
    extra = lambda t, x, y: np.cos(np.pi * x) * np.sin(np.pi * y) * npleg.legval(
        2.0 * t / 0.8 - 1.0, np.array([0.0] * p + [1.0])
    )
    f0 = lambda t, x, y: np.cos(3.0 * t) * bump(x, y)
    base = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2, f=f0)
    spiked = ProblemData(
        grad_u0=(bump_x, bump_y), u1=zero2,
        f=lambda t, x, y: f0(t, x, y) + extra(t, x, y),
    )
    a = march(base, space, grid)
    b = march(spiked, space, grid)
    assert np.allclose(a.blocks[0], b.blocks[0], atol=1e-10)


def test_graded_first_slab_load_moments():
    """Moments of a t^(alpha-2) forcing against the test polynomials, checked
    against the closed-form antiderivatives."""
    alpha = 1.75
    space = TensorSpace(3, 3, 2)
    f = lambda t, x, y: (
        alpha * (alpha - 1.0) * t ** (alpha - 2.0) * bump(x, y)
        + t**alpha * neg_lap_bump(x, y)
    )
    data = ProblemData(grad_u0=(zero2, zero2), u1=zero2, f=f,
                       singular_load=True)
    tau = 0.37
    for p in (2, 3):
        [got], _ = _load(data, space, np.array([0.0]), np.array([tau]),
                         reference_blocks(p)["graded_load"])
        load_bump = space.load_vector(space.grid_eval(bump))
        load_curv = space.load_vector(space.grid_eval(neg_lap_bump))
        for k in range(p):
            coeff = np.zeros(p + 1)
            coeff[k] = 1.0
            poly_t = np.polynomial.Polynomial(npleg.leg2poly(coeff))(
                np.polynomial.Polynomial([-1.0, 2.0 / tau])
            )
            # integrate t^(alpha-2+i) and t^(alpha+i) term by term
            sing = sum(
                c * tau ** (alpha - 1.0 + i) / (alpha - 1.0 + i)
                for i, c in enumerate(poly_t.coef)
            )
            smooth = sum(
                c * tau ** (alpha + 1.0 + i) / (alpha + 1.0 + i)
                for i, c in enumerate(poly_t.coef)
            )
            expect = alpha * (alpha - 1.0) * sing * load_bump + smooth * load_curv
            scale = np.max(np.abs(expect))
            assert np.max(np.abs(got[k] - expect)) < 1e-9 * scale, (p, k)


def test_graded_load_only_on_the_first_slab():
    alpha = 1.75
    f = lambda t, x, y: (
        alpha * (alpha - 1.0) * t ** (alpha - 2.0) * bump(x, y)
        + t**alpha * neg_lap_bump(x, y)
    )
    space = TensorSpace(3, 3, 2)
    grid = TimeGrid.uniform(0.5, 2, 2)
    flagged = ProblemData(grad_u0=(zero2, zero2), u1=zero2, f=f,
                          singular_load=True)
    plain = ProblemData(grad_u0=(zero2, zero2), u1=zero2, f=f)
    a = march(flagged, space, grid)
    b = march(plain, space, grid)
    # first slab differs by the quadrature treatment, and the mismatch is the
    # fixed rule's error, well above round-off
    assert np.max(np.abs(a.blocks[0] - b.blocks[0])) > 1e-8


# -------------------------------------------------------------- stability

def test_stability_zero_data():
    space = TensorSpace(2, 2, 2)
    sol = march(zero_data(), space, TimeGrid.uniform(1.0, 2, 2))
    report = stability_check(sol, zero_data())
    assert report.satisfied


def test_stability_on_a_forced_run():
    space = TensorSpace(3, 3, 2)
    data = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2,
                       f=lambda t, x, y: np.cos(3.0 * t) * bump(x, y))
    sol = march(data, space, TimeGrid.uniform(1.0, 5, 2))
    report = stability_check(sol, data)
    assert report.satisfied
    assert report.lhs <= report.rhs
    assert len(report.slab_energy) == 5


def test_stability_fills_the_energy_table_of_a_solution_without_one(monkeypatch):
    # a solution the march did not build has no energies: the first check
    # computes and stores them, the second takes eigen-coordinates no more,
    # and the report holds a copy, not the solution's table
    space = TensorSpace(3, 3, 2)
    data = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2,
                       f=lambda t, x, y: np.cos(3.0 * t) * bump(x, y))
    grid = TimeGrid(np.linspace(0.0, 1.0, 5), np.array([2, 3, 3, 2]))
    marched = march(data, space, grid)
    sol = dataclasses.replace(marched)
    assert np.isnan(sol.energy).all()
    calls = []
    real = TensorSpace.eigen_coords

    def counted(self, u):
        calls.append(len(u))
        return real(self, u)

    monkeypatch.setattr(TensorSpace, "eigen_coords", counted)
    report = stability_check(sol, data)
    assert calls and not np.isnan(sol.energy).any()
    assert_close(sol.energy, marched.energy)
    known = sol.energy.tobytes()
    assert report.slab_energy.tobytes() == known
    calls.clear()
    again = stability_check(sol, data)
    assert calls == [] and (again.lhs, again.rhs, again.m) == (report.lhs, report.rhs, report.m)
    report.slab_energy[:] = -1.0
    assert sol.energy.tobytes() == known


def test_stability_flags_a_corrupted_solution():
    space = TensorSpace(3, 3, 2)
    data = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2, f=zero3)
    sol = march(data, space, TimeGrid.uniform(1.0, 5, 2))
    blocks = list(sol.blocks)
    blocks[3] = blocks[3] * 1e6
    report = stability_check(dataclasses.replace(sol, blocks=blocks), data)
    assert not report.satisfied


def test_a_solution_is_a_finished_value():
    space = TensorSpace(3, 3, 2)
    data = ProblemData(grad_u0=(bump_x, bump_y), u1=zero2, f=zero3)
    sol = march(data, space, TimeGrid.uniform(1.0, 3, 2))
    assert isinstance(sol.blocks, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.blocks = ()
    # the blocks and velocity behind the cached jumps cannot change either
    for array in (sol.jumps, sol.blocks[1], sol.u1h):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert sol.jumps is sol.jumps
