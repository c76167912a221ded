"""Property tests of the one rule for numeric arguments (`waveslab._numbers`).

Each public entry point takes a drawn value as an equal value (an int where
an integer is asked for), or refuses it with ValueError: never another
exception, and never a RuntimeWarning, which the project's warning filters
turn into an error.  `expected` states the rule through `Fraction`
arithmetic, apart from the implementation.  Arrays and sequences go
through numpy, which holds no `Fraction` and no int beyond 64 bits, so an
entry point that takes an array may refuse those (`loose`).

Sizes that allocate are drawn small (nx, ny <= 4, the interval count <= 8,
an iteration budget <= 2, a `timebasis` degree or order <= 8); huge ones
are tried only at parse time or where they are refused before anything is
built.  The `@example`s pin values that fell between the per-module
checks this rule replaced.
"""

import functools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveslab import (
    TensorSpace, TimeGrid, bisect, doerfler_mark, make_case, problem_data, run_adaptive,
)
from waveslab.cli import main
from waveslab.estimator import (
    estimate, eta2_terms, laplacian_norms, osc_terms, quadrature_check,
)
from waveslab.experiments import ConfigError, parse_config
from waveslab.slabsolver import MAX_INTERVALS, MAX_TIME_DEGREE, march
from waveslab.spacefem import ELEMENT_SIZES
from waveslab import timebasis
from waveslab.timebasis import (
    IntervalPoly, equispaced_nodes, gauss_legendre, integrated_thomee, legendre_eval,
    nodal_to_modal, project_H1, project_L2, thomee_project,
)

settings.register_profile("waveslab", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("waveslab")

HUGE = [10**400, -10**400, 10**200, 2**64]
NOT_NUMBERS = [True, False, np.True_, np.False_, math.nan, math.inf, -math.inf]
REFUSED = object()


def forms(i, numpy=True, fraction=True):
    """The int i as an int, a float, a numpy scalar or a Fraction."""
    return st.sampled_from([i, float(i)] + ([np.int64(i), np.float64(i)] if numpy else [])
                           + ([Fraction(i)] if numpy and fraction else []))


def scalars(low, high, huge=True, numpy=True):
    """Half the time an int in [low, high] in some form, else a value beside it:
    a fraction, a digit string, a boolean, nan, +-inf or a huge int."""
    ints = st.integers(low, high)
    others = [ints.map(lambda i: i + 0.5), ints.map(str),
              st.sampled_from(NOT_NUMBERS if numpy else NOT_NUMBERS[:2] + NOT_NUMBERS[4:])]
    if numpy:
        others.append(ints.map(lambda i: Fraction(2 * i + 1, 2)))
    if huge:
        others.append(st.sampled_from(HUGE))
    return st.one_of(ints.flatmap(lambda i: forms(i, numpy)), st.one_of(others))


@st.composite
def arguments(draw, valid, *drawn, array=False):
    """The valid ints that `valid` draws, each in some form, at most one of
    them replaced by a value from `drawn` (one strategy, or one per place).
    An `array` argument gets no Fraction, which numpy would refuse."""
    args = [draw(forms(i, fraction=not array)) for i in draw(valid)]
    at = draw(st.integers(0, len(args)))
    if at < len(args):
        args[at] = draw(drawn[at] if len(drawn) > 1 else drawn[0])
    return args


def increasing(low, high, min_size):
    return st.lists(st.integers(low, high), min_size=min_size, max_size=5,
                    unique=True).map(sorted)


def expected(value, integer=False):
    """What the rule takes `value` as: an int, a float, or None (refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, Fraction)):
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    exact = Fraction(value)
    if integer:
        return int(exact) if exact.denominator == 1 else None
    try:
        return float(exact)
    except OverflowError:
        return None


def loose(value):
    """A Fraction or an int beyond int64, which numpy holds as an object."""
    return isinstance(value, Fraction) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) >= 2**63)


def outcome(call):
    """What `call` returns, or REFUSED where it raises ValueError."""
    try:
        return call()
    except ValueError:
        return REFUSED


def settle(got, ok, entries=()):
    """Check acceptance against the rule; True where the value must be compared."""
    if got is REFUSED and any(map(loose, entries)):
        return False
    assert (got is not REFUSED) == ok
    return ok


@given(arguments(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)),
                 scalars(-1, 6), array=True))
@example(["3", 3, 2])
@example([2, 2, True])
def test_space_sizes(args):
    got = outcome(lambda: TensorSpace(*args))
    want = [expected(v, integer=True) for v in args]
    ok = None not in want and min(want[:2]) >= 1 and 1 <= want[2] <= 5
    if settle(got, ok, args):
        assert [got.nx, got.ny, got.degree] == want
        assert all(type(v) is int for v in (got.nx, got.ny, got.degree))


@given(arguments(st.tuples(increasing(-2, 2, 2), increasing(-2, 2, 2)).map(
    lambda pair: pair[0][:2] + pair[1][:2]), scalars(-2, 2), array=True))
@example([0, 0, -1, 1])
@example([1, -1, -1, 1])
@example([0, math.inf, -1, 1])
@example([0, 2.5, np.int64(-1), np.float64(0.5)])
@example([-1e308, 1e308, -1, 1])  # the width overflows
@example([0, 1e-300, -1, 1])  # (2 / h) ** 2 overflows
@example([-1, 1, 0, 2e50])
@example([-1, 1, 0, 2.0000000000000006e50])
def test_space_domain(bounds):
    got = outcome(lambda: TensorSpace(2, 2, 1, domain=(bounds[:2], bounds[2:])))
    want = [expected(v) for v in bounds]
    low, high = map(Fraction, ELEMENT_SIZES)
    ok = None not in want and all(
        low <= (Fraction(b) - Fraction(a)) / 2 <= high for a, b in (want[:2], want[2:]))
    if settle(got, ok, bounds):
        assert got.domain == (tuple(want[:2]), tuple(want[2:]))
        assert got.hx == (want[1] - want[0]) / 2


@given(arguments(st.tuples(st.integers(1, 3), st.integers(1, 8), st.integers(2, 4)),
                 scalars(-2, 5), scalars(-1, 8, huge=False), scalars(0, 4)))
@example([True, 4, 2])
@example([np.inf, 4, 2])
@example([1.0, "4", 2])
@example(["1", 4, 2])
@example([10**200, 4.0, np.int64(3)])
@example([1.0, 2**63, 2])  # IndexError inside np.linspace
@example([1.0, 10**400, 2])  # numpy's "Maximum allowed size exceeded"
@example([1.0, 4, 11])
def test_uniform_grid(args):
    got = outcome(lambda: TimeGrid.uniform(*args))
    T, n, p = expected(args[0]), expected(args[1], True), expected(args[2], True)
    ok = (None not in (T, n, p) and T > 0 and 1 <= n <= MAX_INTERVALS
          and 2 <= p <= MAX_TIME_DEGREE)
    if settle(got, ok, args[2:]):  # np.full holds the degree as given
        assert np.array_equal(got.nodes, np.linspace(0.0, T, n + 1))
        assert got.degrees.dtype.kind == "i" and list(got.degrees) == [p] * n


def test_uniform_grid_names_a_count_numpy_cannot_index():
    assert MAX_INTERVALS + 1 == np.iinfo(np.intp).max
    for n in (MAX_INTERVALS + 1, 2**63, 10**400):
        with pytest.raises(ValueError, match="interval count"):
            TimeGrid.uniform(1.0, n, 2)


@st.composite
def grid_arguments(draw):
    nodes = draw(increasing(-2, 6, 2))
    degrees = [draw(st.integers(2, 4)) for _ in nodes[1:]]
    both = draw(arguments(st.just(nodes + degrees), scalars(-1, 6), array=True))
    return both[:len(nodes)], both[len(nodes):]


@given(grid_arguments())
@example((["0", "0.5", "1"], [2, 2]))
@example(([0, 0.5, 1], ["2", "2"]))
@example(([0, 0.5, True], [2, 2]))
@example(([0.0, 1.5, np.float64(3.0)], [2.0, np.int64(3)]))
@example(([0, 0.5, 1], [10, 11]))  # above MAX_TIME_DEGREE
def test_grid(args):
    nodes, degrees = args
    got = outcome(lambda: TimeGrid(nodes, degrees))
    want_t = [expected(v) for v in nodes]
    want_p = [expected(v, integer=True) for v in degrees]
    ok = (None not in want_t + want_p and len(want_p) == len(want_t) - 1 >= 1
          and all(a < b for a, b in zip(want_t, want_t[1:]))
          and 2 <= min(want_p) and max(want_p) <= MAX_TIME_DEGREE)
    if settle(got, ok, nodes + degrees):
        assert list(got.nodes) == want_t and list(got.degrees) == want_p
        assert got.degrees.dtype.kind == "i"


@given(arguments(st.lists(st.integers(0, 3), max_size=3), scalars(-1, 5), array=True))
@example(["1"])
@example([0, True])
@example([np.float64(1.0), 3])
def test_bisect_marks(marks):
    grid = TimeGrid.uniform(1.0, 4, 2)
    got = outcome(lambda: bisect(grid, marks))
    want = [expected(v, integer=True) for v in marks]
    ok = None not in want and all(0 <= m < 4 for m in want)
    if settle(got, ok, marks):
        mids = [(m + 0.5) / 4 for m in set(want)]
        assert list(got.nodes) == sorted(list(grid.nodes) + mids)


@functools.lru_cache(maxsize=None)
def case2_run():
    """case2 (alpha 1.75) marched on `TensorSpace(3, 3, 2)` over 4 slabs at p = 2."""
    data = problem_data(make_case("case2", alpha=1.75))
    return data, march(data, TensorSpace(3, 3, 2), TimeGrid.uniform(1.0, 4, 2))


TERMS = {
    "laplacian_norms": lambda data, sol, m, points: laplacian_norms(sol, m),
    "eta2_terms": lambda data, sol, m, points: eta2_terms(sol, m, points),
    "osc_terms": osc_terms,
}
POINTS = ["gauss", "gauss_doubled", "equispaced", "graded_load", "Gauss", "", None, 1]


@pytest.mark.parametrize("name", TERMS)
@given(scalars(-2, 5), st.sampled_from(POINTS))
@example(-1, "gauss")  # all zeros
@example(True, "gauss")  # taken as 1
@example(2.0, "gauss")  # a TypeError
@example(4, "gauss")  # an IndexError
@example(1, "equispaced")  # no weights: fails inside matmul
@example(1, "unknown")  # a KeyError
def test_estimator_terms_check_the_target_and_the_points(name, m, points):
    # m is a slab index of the grid, and the terms integrate on a Gauss rule
    data, sol = case2_run()
    term = TERMS[name]
    got = outcome(lambda: term(data, sol, m, points))
    want = expected(m, integer=True)
    ok = (want is not None and 0 <= want < sol.grid.n_intervals
          and (name == "laplacian_norms" or points in ("gauss", "gauss_doubled")))
    if settle(got, ok):
        assert np.array_equal(got, term(data, sol, want, points))


@given(scalars(-1, 2))
@example(True)
@example(np.float64(1.0))
@example(Fraction(1, 2))
def test_marking_fraction(theta):
    got = outcome(lambda: doerfler_mark([1.0, 2.0], theta))
    want = expected(theta)
    if settle(got, want is not None and 0 < want <= 1):
        assert got == ([1] if want <= 2 / 3 else [0, 1])


@given(arguments(st.tuples(st.just(1), st.integers(1, 2), st.integers(0, 2)),
                 scalars(-1, 2), scalars(-1, 2, huge=False), scalars(-1, 2)))
@settings(max_examples=25)
@example([0.5, 2.5, 0.0])
@example([0.5, True, 0.0])
@example([0.5, 2, math.nan])
@example([0.5, 2, -1])
@example([np.float64(1.0), 2.0, 10**200])
def test_adaptive_controls(args):
    data = problem_data(make_case("case1"))
    space, grid = TensorSpace(2, 2, 1), TimeGrid.uniform(1.0, 2, 2)
    got = outcome(lambda: run_adaptive(data, space, grid, theta=args[0],
                                       max_iters=args[1], eta_tol=args[2]))
    theta, iters, tol = expected(args[0]), expected(args[1], True), expected(args[2])
    ok = None not in (theta, iters, tol) and 0 < theta <= 1 and iters >= 1 and tol >= 0
    if settle(got, ok):
        assert 1 <= len(got.history) <= iters


@given(scalars(0, 4))
@example("2")
@example(True)
@example(np.float64(2.0))
def test_case2_alpha(alpha):
    got = outcome(lambda: make_case("case2", alpha=alpha))
    want = expected(alpha)
    if settle(got, want is not None and want > 1.5):
        assert got.params == {"alpha": want} and type(got.params["alpha"]) is float


@given(arguments(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
                 scalars(-1, 3)))
@example([True, 1, 1.5])
@example([1, 1, True])
@example([np.inf, 1, 1.5])
@example([10**200, 1, 1.5])
@example([1, 1, 10**200])
@example([np.float64(2.0), np.int64(1), 1])
def test_case3_parameters(args):
    m, n, omega = args
    got = outcome(lambda: make_case("case3", m=m, n=n, omega=omega))
    want = {"m": expected(m, True), "n": expected(n, True), "omega": expected(omega)}
    ok = None not in want.values() and min(want["m"], want["n"]) >= 1
    if ok:  # the forcing's gain needs m^2 + n^2 and omega^2 in the float range
        ok = (want["m"] ** 2 + want["n"] ** 2 <= sys.float_info.max
              and math.isfinite(want["omega"] * want["omega"]))
    if settle(got, ok):
        assert got.params == want
        assert [type(v) for v in got.params.values()] == [int, int, float]


# the projectors' functions of time and the slab they work on
PROJECTORS = {
    "project_L2": lambda degree, interval: project_L2(np.cos, degree, interval),
    "project_H1": lambda degree, interval: project_H1(
        np.cos, lambda t: -np.sin(t), degree, interval),
    "thomee_project": lambda degree, interval: thomee_project(np.cos, degree, interval),
    "integrated_thomee": lambda degree, interval: integrated_thomee(
        np.cos, lambda t: -np.sin(t), degree, interval),
}
POLY = IntervalPoly((0.0, 1.0), np.arange(1.0, 6.0))
# every entry point that takes an interval
INTERVALS = {
    **PROJECTORS,
    "IntervalPoly": lambda degree, interval: IntervalPoly(interval, np.arange(degree + 1.0)),
    "IntervalPoly.from_nodal": lambda degree, interval: IntervalPoly.from_nodal(
        interval, np.arange(degree + 1.0) ** 2),
}

# each entry point that takes a degree or an order, and the least it takes
TIMEBASIS = {
    "gauss_legendre": (gauss_legendre, 0),
    "equispaced_nodes": (equispaced_nodes, 0),
    "nodal_to_modal": (nodal_to_modal, 0),
    "legendre_eval": (lambda degree: legendre_eval(degree, np.linspace(-1.0, 1.0, 5)), 0),
    "project_L2": (lambda degree: PROJECTORS["project_L2"](degree, (0.0, 1.0)).modes, 0),
    "project_H1": (lambda degree: PROJECTORS["project_H1"](degree, (0.0, 1.0)).modes, 1),
    "thomee_project": (
        lambda degree: PROJECTORS["thomee_project"](degree, (0.0, 1.0)).modes, 1),
    "integrated_thomee": (
        lambda degree: PROJECTORS["integrated_thomee"](degree, (0.0, 1.0)).modes, 2),
    "IntervalPoly.derivative": (lambda m: POLY.derivative(m).modes, 0),
    "IntervalPoly.truncated": (lambda degree: POLY.truncated(degree).modes, 0),
}


@pytest.mark.parametrize("name", TIMEBASIS)
@given(scalars(-2, 8, huge=False))
@example(math.nan)
@example(True)
@example(np.True_)
@example(2.5)
@example(np.float64(3.0))
def test_timebasis_degrees(name, value):
    # a degree or order is a size, drawn small; with 1 (or the least value
    # taken) cached first, True must still be refused, not read from the
    # entry of 1
    helper, least = TIMEBASIS[name]
    helper(max(1, least))
    got = outcome(lambda: helper(value))
    want = expected(value, integer=True)
    ok = want is not None and want >= least
    if settle(got, ok):
        ref = helper(want)
        pairs = zip(got, ref) if isinstance(ref, tuple) else [(got, ref)]
        assert all(np.array_equal(a, b) for a, b in pairs)


def test_quadrature_orders_beyond_the_cap_are_refused_before_a_rule_is_built():
    # numpy's leggauss builds a dense companion matrix with about order / 2
    # rows, so order 10**5 would ask for 20 GB.  The cap is read first: a
    # build without one fails here before it builds any rule
    cap = timebasis.MAX_QUADRATURE_ORDER
    assert cap > 61  # the highest order the tests integrate with
    for call in (gauss_legendre,
                 lambda order: project_L2(np.cos, 2, (0.0, 1.0), quad_order=order)):
        for order in (cap + 1, 10**5, float(10**5)):
            with pytest.raises(ValueError, match="the quadrature order"):
                call(order)
    assert len(gauss_legendre(cap)[0]) == cap // 2 + 1


@pytest.mark.parametrize("name", INTERVALS)
@given(arguments(st.tuples(st.integers(-2, 1), st.integers(2, 4)), scalars(-2, 4), array=True))
@example([1, 0])
@example([0, math.nan])
@example([0, True])
@example([0.0, 0.0])
def test_projector_intervals(name, interval):
    # an interval is two numbers a < b
    got = outcome(lambda: INTERVALS[name](3, tuple(interval)))
    a, b = (expected(value) for value in interval)
    if settle(got, None not in (a, b) and a < b, interval):
        ref = INTERVALS[name](3, (a, b))
        assert got.interval == (a, b) and np.array_equal(got.modes, ref.modes)


@pytest.fixture(scope="module")
def estimated():
    data = problem_data(make_case("case2"))
    sol = march(data, TensorSpace(3, 3, 2), TimeGrid.uniform(1.0, 4, 2))
    return sol, data, estimate(sol, data)


@given(scalars(-1, 1))
@example(math.inf)
@example(math.nan)
@example(True)
@example("1e-3")
@example(Fraction(1, 2))
def test_quadrature_tolerance(estimated, tol):
    # tol is a number >= 0, or inf; the check warns when its worst relative
    # difference (0.139 on this run) is above it
    sol, data, report = estimated
    worst = quadrature_check(sol, data, report, tol=math.inf)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = outcome(lambda: quadrature_check(sol, data, report, tol=tol))
    want = math.inf if tol == math.inf else expected(tol)
    if settle(got, want is not None and want >= 0):
        assert got == worst and len(caught) == (worst > want)


FLOAT_KEYS = ("T", "alpha", "omega", "theta", "eta_tol", "h", "tau")
INT_KEYS = ("p_t", "p_x", "mode_m", "mode_n", "max_iters", "initial_n", "seed")
LIST_KEYS = {"T_list": False, "tau_list": False, "p_t_list": True}
BASES = [
    {"suite": "tau_refine", "case": "case1", "tau_list": [0.5, 0.25]},
    {"suite": "p_refine", "case": "case1", "tau": 0.5, "p_t_list": [2, 3]},
    {"suite": "spacetime_refine", "case": "case3", "tau_list": [0.5]},
    {"suite": "long_time", "case": "case3", "T_list": [1.0, 2.0], "tau": 0.5},
    {"suite": "effectivity", "case": "case1", "tau_list": [0.5], "p_t_list": [2]},
    {"suite": "adaptive", "case": "case2"},
]


def configs(numpy):
    """A valid config with up to three keys drawn over it."""
    value = st.one_of(scalars(-1, 12, numpy=numpy),
                      st.lists(scalars(0, 4, numpy=numpy), max_size=3),
                      st.sampled_from([None, "case3", "adaptive", [1]]))
    keys = st.sampled_from(FLOAT_KEYS + INT_KEYS + tuple(LIST_KEYS)
                           + ("suite", "case", "include_osc", "mystery", 1))
    return st.builds(lambda base, over: {**base, **over}, st.sampled_from(BASES),
                     st.dictionaries(keys, value, max_size=3))


def refused_keys(raw):
    """The numeric keys whose drawn value the rule refuses."""
    bad = [key for key in FLOAT_KEYS + INT_KEYS if key in raw
           and not (key == "seed" and raw[key] is None)
           and expected(raw[key], integer=key in INT_KEYS) is None]
    for key, integer in LIST_KEYS.items():
        seq = raw.get(key)
        if isinstance(seq, list) and any(expected(v, integer) is None for v in seq):
            bad.append(key)
    return bad


def check_config(raw):
    try:
        config = parse_config(raw)
    except ConfigError as exc:
        assert exc.problems
        for key in refused_keys(raw):
            assert any(p.startswith(f"{key} ") for p in exc.problems), key
        return False
    assert not refused_keys(raw)
    for key in FLOAT_KEYS + INT_KEYS:
        if key in raw and raw[key] is not None:
            assert config.values[key] == expected(raw[key], integer=key in INT_KEYS)
            assert type(config.values[key]) is (int if key in INT_KEYS else float)
    return True


@given(configs(numpy=True))
@example({"suite": "adaptive", "case": "case1", "T": "2"})
@example({"suite": "spacetime_refine", "case": "case3", "tau_list": [10**400]})
@example({"suite": "adaptive", "case": "case1", 1: 2, "mystery": 3})
@example({"suite": [1], "case": "case1"})
@example({"suite": "adaptive", "case": "case3", "mode_m": np.float64(2.0), "seed": 10**400})
@example({"suite": "adaptive", "case": "case2", "initial_n": 10**400})
@example({"suite": "tau_refine", "case": "case1", "tau_list": [1.0e-300]})
def test_config_parses_or_lists_its_problems(raw):
    check_config(raw)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@given(configs(numpy=False))
@settings(max_examples=25)
@example({"suite": "adaptive", "case": "case1", "T": "2"})
@example({"suite": "adaptive", "case": "case1", 1: 2, "mystery": 3})
@example({"suite": [1], "case": "case1"})
@example({"suite": "adaptive", "case": "case2", "initial_n": 10**400})
@example({"suite": "tau_refine", "case": "case1", "tau_list": [1.0e-300]})
def test_cli_exits_1_on_every_config_that_does_not_parse(config_dir, raw):
    if check_config(raw):
        return  # a valid config would run its study: not here
    path = config_dir / "drawn.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    assert main(["run", str(path), "--out", str(config_dir / "never.csv")]) == 1
    assert not (config_dir / "never.csv").exists()
