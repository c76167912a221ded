"""Manufactured cases, error norms, and observed-order helpers."""

import dataclasses

import numpy as np
import pytest

from waveslab import (
    ManufacturedCase,
    SlabSolution,
    TensorSpace,
    TimeGrid,
    bisect,
    compute_errors,
    make_case,
    march,
    problem_data,
    rate,
)
from waveslab import errors, slabsolver

rng = np.random.default_rng(20240815)


def finite_difference_consistency(case, points, tol):
    # the forcing must equal u_tt - Laplace(u), and the stored derivative
    # fields must match difference quotients of u
    h = 1e-4
    for t, x, y in points:
        u = lambda a, b, c: float(case.u(a, b, c))
        utt = (u(t + h, x, y) - 2.0 * u(t, x, y) + u(t - h, x, y)) / h**2
        uxx = (u(t, x + h, y) - 2.0 * u(t, x, y) + u(t, x - h, y)) / h**2
        uyy = (u(t, x, y + h) - 2.0 * u(t, x, y) + u(t, x, y - h)) / h**2
        assert abs(utt - uxx - uyy - float(case.f(t, x, y))) < tol
        assert abs((u(t + h, x, y) - u(t - h, x, y)) / (2 * h) - float(case.du(t, x, y))) < tol
        assert abs((u(t, x + h, y) - u(t, x - h, y)) / (2 * h) - float(case.ux(t, x, y))) < tol
        assert abs((u(t, x, y + h) - u(t, x, y - h)) / (2 * h) - float(case.uy(t, x, y))) < tol


def test_case1_is_consistent():
    case = make_case("case1")
    assert abs(case.u(0.0, 0.0, 0.0) - 1.0) < 1e-15
    assert abs(case.u0(0.5, -0.5) - 0.75**2) < 1e-15
    assert float(case.u1(0.3, 0.3)) == 0.0
    pts = [(0.4, 0.25, -0.3), (1.1, -0.6, 0.1), (2.0, 0.7, 0.7)]
    finite_difference_consistency(case, pts, 2e-4)


def test_case2_is_consistent_and_starts_from_rest():
    case = make_case("case2", alpha=2.5)
    assert case.params["alpha"] == 2.5
    assert float(case.u0(0.2, 0.4)) == 0.0
    assert float(case.u1(0.2, 0.4)) == 0.0
    assert abs(float(case.u(1.0, 0.0, 0.0)) - 1.0) < 1e-15
    # keep t away from 0: the forcing is singular there
    pts = [(0.5, 0.25, -0.3), (0.9, -0.6, 0.1)]
    finite_difference_consistency(case, pts, 2e-4)


def test_case2_rejects_small_alpha():
    with pytest.raises(ValueError):
        make_case("case2", alpha=1.2)
    with pytest.raises(ValueError):
        make_case("case2", alpha=1.5)


@pytest.mark.parametrize("name, params", [
    ("case2", {"alpha": np.nan}), ("case2", {"alpha": np.inf}),
    ("case3", {"omega": np.nan}), ("case3", {"omega": np.inf}),
])
def test_cases_refuse_non_finite_parameters(name, params):
    with pytest.raises(ValueError, match=next(iter(params))):
        make_case(name, **params)


def test_case3_base_mode_is_unforced():
    case = make_case("case3")
    assert case.params == {"m": 1, "n": 1, "omega": float(np.sqrt(2.0))}
    x = rng.uniform(-1.0, 1.0, 5)
    y = rng.uniform(-1.0, 1.0, 5)
    assert np.max(np.abs(case.f(0.7, x[:, None], y[None, :]))) < 1e-12
    # walls of (-1,1)^2 are honored
    assert np.max(np.abs(case.u(0.3, 1.0, y))) < 1e-12
    assert np.max(np.abs(case.u(0.3, x, -1.0))) < 1e-12
    finite_difference_consistency(case, [(0.4, 0.25, -0.3)], 2e-3)


def test_case3_higher_mode_consistent():
    case = make_case("case3", m=3, n=2, omega=2.0)
    finite_difference_consistency(case, [(0.3, 0.21, 0.48)], 2e-3)


def test_unknown_case_and_bad_modes():
    with pytest.raises(ValueError):
        make_case("case9")
    with pytest.raises(ValueError):
        make_case("case3", m=0)


@pytest.mark.parametrize("modes", [{"m": 1.5}, {"n": 2.5}])
def test_case3_refuses_fractional_mode_numbers(modes):
    with pytest.raises(ValueError):
        make_case("case3", **modes)
    assert make_case("case3", m=2.0).params["m"] == 2


def test_problem_data_wiring():
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    assert data.exact is case
    assert data.singular_load
    assert not problem_data(make_case("case1")).singular_load


def test_error_norms_vanish_on_reproduced_solution():
    # a solution inside the trial space: every error column is solver noise
    bump = lambda x, y: (1.0 - x**2) * (1.0 - y**2)
    g = lambda t: 0.3 + 0.5 * t + 0.8 * t**2
    dg = lambda t: 0.5 + 1.6 * t
    case = ManufacturedCase(
        name="inspace", params={},
        u=lambda t, x, y: bump(x, y) * g(t),
        du=lambda t, x, y: bump(x, y) * dg(t),
        ux=lambda t, x, y: -2.0 * x * (1.0 - y**2) * g(t),
        uy=lambda t, x, y: -2.0 * y * (1.0 - x**2) * g(t),
        f=lambda t, x, y: 1.6 * bump(x, y)
        + (2.0 * (1.0 - y**2) + 2.0 * (1.0 - x**2)) * g(t),
        u0=lambda x, y: 0.3 * bump(x, y),
        u0x=lambda x, y: -0.6 * x * (1.0 - y**2),
        u0y=lambda x, y: -0.6 * y * (1.0 - x**2),
        u1=lambda x, y: 0.5 * bump(x, y),
    )
    space = TensorSpace(3, 3, 2)
    sol = march(problem_data(case), space, TimeGrid.uniform(1.0, 4, 2))
    errs = compute_errors(sol, case)
    for name, value in errs.as_dict().items():
        assert value < 1e-8, (name, value)


def test_error_norms_on_a_real_run_are_positive_and_ordered():
    case = make_case("case1")
    space = TensorSpace(5, 5, 2)
    sol = march(problem_data(case), space, TimeGrid.uniform(1.0, 5, 2))
    errs = compute_errors(sol, case)
    for value in errs.as_dict().values():
        assert value > 0.0
    # the max-in-time L2 error cannot exceed the max-in-time H1 seminorm
    # scale on this domain (Poincare-type sanity, loose)
    assert errs.Linf_L2 < 10.0 * errs.max_Linf_H1


def counting_exact(case, calls):
    """`case` with `u`, `du`, `ux` and `uy` counting their calls in `calls`."""
    def counted(name, fn):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    return dataclasses.replace(case, **{name: counted(name, getattr(case, name))
                                        for name in ("u", "du", "ux", "uy")})


def test_kept_error_partials_are_read_only_for_the_same_block(monkeypatch):
    calls = {}
    case = counting_exact(make_case("case2", alpha=1.75), calls)
    monkeypatch.setattr(slabsolver, "STACK_BUDGET", 1)  # one slab per chunk

    def scored(sol, kept):
        # the norms with `kept`, the slabs scored, and the norms without
        calls.clear()
        errs = compute_errors(sol, case, kept=kept)
        count = calls.get("u", 0)
        assert calls == (dict.fromkeys(("u", "du", "ux", "uy"), count) if count else {})
        assert set(kept) == set(sol.grid.slab_keys())
        assert errs == compute_errors(sol, case)
        return errs, count

    data, space, grid = problem_data(case), TensorSpace(3, 3, 2), TimeGrid.uniform(1.0, 4, 2)
    kept = {}
    sol = march(data, space, grid, kept=kept)
    first, count = scored(sol, kept)
    assert count == 4
    assert scored(sol, kept) == (first, 0)
    # a second march of the grid resumes every slab: nothing is scored
    sol = march(data, space, grid, kept=kept)
    assert scored(sol, kept) == (first, 0)

    # one bit changed in the block of slab 2: that slab alone is scored again
    blocks = list(sol.blocks)
    blocks[2] = blocks[2].copy()
    blocks[2][1, 0] = np.nextafter(blocks[2][1, 0], np.inf)
    nudged = SlabSolution(grid=grid, space=space, blocks=blocks, u1h=sol.u1h)
    assert scored(nudged, kept)[1] == 1

    # bisecting slab 0 changes the blocks of every later slab, whose
    # intervals are unchanged: all five are scored
    fine = bisect(grid, [0])
    assert len(set(fine.slab_keys()) & set(kept)) == 3
    assert scored(march(data, space, fine, kept=kept), kept)[1] == 5


def stored_results(fn):
    """`fn` returning the one array it keeps for each distinct array of times."""
    def stored(t, x, y):
        key = t.tobytes()
        if key not in stored.kept:
            stored.kept[key] = fn(t, x, y)
            stored.pristine[key] = stored.kept[key].copy()
        return stored.kept[key]

    stored.kept, stored.pristine = {}, {}
    return stored


EXACT_RESULTS = {
    "stored": stored_results,
    "fortran_ordered": lambda fn: lambda *args: np.asfortranarray(fn(*args)),
    "read_only_view": lambda fn: lambda *args: np.broadcast_to(
        fn(*args), np.broadcast_shapes(*map(np.shape, args))),
}


@pytest.mark.parametrize("kind", list(EXACT_RESULTS))
def test_exact_callables_may_return_arrays_they_keep(kind):
    # the misfits are formed in place in the exact samples: an array the
    # callable keeps, or one in another layout, must not be written, nor the
    # norms lose the subtraction
    case = make_case("case1")
    sol = march(problem_data(case), TensorSpace(3, 3, 2), TimeGrid.uniform(1.0, 4, 2))
    ref = compute_errors(sol, case).as_dict()
    names = ("u", "du", "ux", "uy")
    wrapped = dataclasses.replace(
        case, **{name: EXACT_RESULTS[kind](getattr(case, name)) for name in names})
    for _ in range(2):
        got = compute_errors(sol, wrapped).as_dict()
        for key, value in ref.items():
            assert abs(got[key] - value) <= 1e-12 * value, (key, got[key], value)
    if kind == "stored":
        for name in names:
            stored = getattr(wrapped, name)
            assert stored.kept
            for key, array in stored.kept.items():
                assert np.array_equal(array, stored.pristine[key])


def test_a_gemm_that_copies_its_output_is_refused(monkeypatch):
    # the misfits rely on dgemm writing into the exact samples; a wrapper
    # that copies `c` first would leave them untouched, and the norms would
    # be those of the exact solution alone
    real = errors.blas.dgemm

    def copying(*args, **kwargs):
        # `c` is the fifth argument, by position or by keyword
        if "c" in kwargs:
            kwargs["c"] = kwargs["c"].copy(order="F")
        else:
            args = args[:4] + (args[4].copy(order="F"),) + args[5:]
        return real(*args, **kwargs)

    case = make_case("case1")
    sol = march(problem_data(case), TensorSpace(3, 3, 2), TimeGrid.uniform(1.0, 4, 2))
    monkeypatch.setattr(errors.blas, "dgemm", copying)
    with pytest.raises(RuntimeError, match="dgemm"):
        compute_errors(sol, case)


def test_as_dict_round_trip():
    case = make_case("case1")
    space = TensorSpace(3, 3, 2)
    sol = march(problem_data(case), space, TimeGrid.uniform(0.5, 2, 2))
    bundle = compute_errors(sol, case)
    d = bundle.as_dict()
    assert list(d) == [
        "max_W1inf_L2", "max_Linf_H1", "L2_H1", "H1deriv_L2L2", "Linf_L2", "jump",
    ]
    assert all(d[key] == getattr(bundle, key) for key in d)


def test_rate_examples():
    assert np.allclose(rate([0.1, 0.025], [0.2, 0.1]), [2.0])
    assert np.allclose(rate([0.3, 0.3, 0.3], [0.4, 0.2, 0.1]), [0.0, 0.0])
    assert np.allclose(rate([1.0, 1.0 / 8.0], [0.2, 0.1]), [3.0])
    with pytest.raises(ValueError):
        rate([1.0, 0.5, 0.25], [1.0, 0.5])
    with pytest.raises(ValueError):
        rate([1.0], [1.0])
    with pytest.raises(ValueError):
        rate([1.0, 0.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        rate([1.0, 0.5], [1.0, -0.5])
    # non-finite or boolean values and steps, and equal consecutive steps
    for values, steps in [([1.0, np.nan], [1.0, 0.5]), ([1.0, 0.5], [1.0, np.inf]),
                          ([1.0, 0.5], [1.0, 1.0]), ([1.0, 0.5, 0.25], [1.0, 0.5, 0.5]),
                          ([True, 0.5], [1.0, 0.5]), ([1.0, 0.5], [np.True_, 0.5]),
                          (["1", 0.5], [1.0, 0.5]),
                          ([1.0, 0.5], [3.0, np.nextafter(3.0, 4.0)])]:
        with pytest.raises(ValueError):
            rate(values, steps)


def test_rate_of_extreme_finite_ratios_is_finite():
    # ratios of 1e600 overflow a float; differences of logarithms do not
    spread = np.log(1e300) - np.log(1e-300)
    assert np.allclose(rate([1e300, 1e-300], [1.0, 0.5]), [spread / np.log(2.0)])
    assert np.allclose(rate([1.0, 0.5], [1e300, 1e-300]), [np.log(2.0) / spread])
    # neighbouring floats as steps, whose logarithms still differ
    assert np.isfinite(rate([1.0, 0.5], [1.0, np.nextafter(1.0, 2.0)])).all()
