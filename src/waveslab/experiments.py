"""Configured studies producing one CSV row per refinement level.

A study is described by a flat YAML mapping with a ``suite``, a ``case``
and the keys that suite and case read (`SUITES`, `CASES`):

=====================  ======================  ============================
suite                  required                optional
=====================  ======================  ============================
``tau_refine``         ``tau_list``            ``T``, ``h``, ``p_x``, ``p_t``
``p_refine``           ``tau``, ``p_t_list``   ``T``, ``h``, ``p_x``
``spacetime_refine``   ``tau_list``            ``T``, ``p_t``
``long_time``          ``T_list``, ``tau``     ``h``, ``p_x``, ``p_t``
``effectivity``        ``tau_list``,           ``T``, ``h``, ``p_x``
                       ``p_t_list``
``adaptive``                                   ``T``, ``h``, ``p_x``, ``p_t``,
                                               ``initial_n``, ``theta``,
                                               ``max_iters``, ``eta_tol``,
                                               ``include_osc``
=====================  ======================  ============================

``case1`` reads no key, ``case2`` reads ``alpha`` (default 1.75, must
exceed 1.5) and ``case3`` reads ``mode_m``, ``mode_n`` (default 1 each)
and ``omega`` (default sqrt 2).  Every suite also reads ``out``, the
output CSV path, and accepts ``seed``, an optional unsigned integer that
is validated and kept on the ``Config`` but read by no study (none draws
random numbers).  Any other key, known or not, is refused, also when
``waveslab run --suite`` replaces the suite of a file, and the ``Config``
holds exactly the keys its suite and case read, with their defaults.

- ``T``: final time (default 1.0); ``long_time`` reads none, and runs one
  level per entry of ``T_list``.
- ``tau`` or ``tau_list``: time step(s); each step must divide the final
  time (each ``T_list`` entry for ``long_time``) up to a 2 percent
  rounding allowance (the step lists in common use are decimal roundings
  of 1/N), in at most ``slabsolver.MAX_INTERVALS`` steps, the most whose
  nodes numpy can index.
- ``p_t`` (default 2) or ``p_t_list``: temporal degree(s), between 2 and
  ``slabsolver.MAX_TIME_DEGREE`` (10).
- ``p_x``: spatial degree (default 2, at most 5); ``h``: spatial mesh size
  on (-1, 1)^2 (default 0.4), must similarly divide the side length 2, as
  must every step of ``spacetime_refine``, which sets h = tau and
  p_x = p_t + 1.  The ``h`` column reports the mesh that ran,
  2 / round(2 / h).
- ``theta`` (default 0.5), ``max_iters`` (default 25), ``eta_tol``
  (default 0.0), ``initial_n`` (default 5, at most
  ``slabsolver.MAX_INTERVALS``): adaptive loop controls.
- ``include_osc``: the adaptive loop stops on eta plus the data
  oscillation, not on eta alone (default false; the oscillation column is
  always filled).

Every known key's value is validated, whichever suite it is given to.
Refused are unknown keys, keys that the suite and case do not read, and
numbers that the package-wide rule refuses (booleans, strings such as a
quoted ``"2"``, infinite or nan values, fractional values of integer
keys); all validation problems are reported at once.
A fixed configuration yields identical CSV output up to the wall time
column.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from ._numbers import number
from .adaptive import run_adaptive, total_dofs
from .errors import compute_errors, make_case, problem_data
from .estimator import effectivity, estimate
from .slabsolver import MAX_INTERVALS, MAX_TIME_DEGREE, TimeGrid, march
from .spacefem import MAX_DEGREE, TensorSpace

# The keys each suite reads: (required, optional).  Every suite also reads
# `out` and accepts `seed`, which no study reads.
SUITES = {
    "tau_refine": (("tau_list",), ("T", "h", "p_x", "p_t")),
    "p_refine": (("tau", "p_t_list"), ("T", "h", "p_x")),
    "spacetime_refine": (("tau_list",), ("T", "p_t")),
    "long_time": (("T_list", "tau"), ("h", "p_x", "p_t")),
    "effectivity": (("tau_list", "p_t_list"), ("T", "h", "p_x")),
    "adaptive": ((), ("T", "h", "p_x", "p_t", "initial_n", "theta", "max_iters",
                      "eta_tol", "include_osc")),
}
# The keys each case reads, all optional.
CASES = {"case1": (), "case2": ("alpha",), "case3": ("mode_m", "mode_n", "omega")}

COLUMNS = (
    "level", "h", "tau", "p_x", "p_t", "N", "dofs",
    "max_W1inf_L2", "max_Linf_H1", "L2_H1", "H1deriv_L2L2", "Linf_L2", "jump",
    "eta", "eta1", "osc", "kappa", "wall_time",
)

# the value of every optional key that a config leaves out
_DEFAULTS = {
    "alpha": 1.75, "mode_m": 1, "mode_n": 1, "omega": float(np.sqrt(2.0)),
    "T": 1.0, "p_x": 2, "h": 0.4, "theta": 0.5, "include_osc": False,
    "max_iters": 25, "eta_tol": 0.0, "initial_n": 5, "out": "results.csv",
    "seed": None, "p_t": 2,
}

_KNOWN_KEYS = {"suite", "case", *_DEFAULTS}.union(*(keys for keys, _ in SUITES.values()))


class ConfigError(Exception):
    """Carries every validation problem found in a configuration."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _steps_per(total: float, step: float) -> int | None:
    """Number of steps if `step` divides `total` up to rounding, else None.

    A step so small that `total / step` overflows (a subnormal `tau` or `h`),
    or gives more than `MAX_INTERVALS` steps, divides nothing.
    """
    if step <= 0 or total <= 0 or not np.isfinite(total / step):
        return None
    n = round(total / step)
    if not 1 <= n <= MAX_INTERVALS or abs(total / step - n) > 0.02 * n:
        return None
    return int(n)


@dataclass(frozen=True)
class Config:
    suite: str
    case: str
    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        # through the instance dict: while a copy or an unpickled config is
        # rebuilt it has no `values` yet, and `self.values` would come back here
        try:
            return self.__dict__["values"][key]
        except KeyError as exc:
            raise AttributeError(key) from exc


def _read_yaml(text: str) -> dict:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"malformed YAML: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["configuration must be a flat mapping"])
    return raw


def parse_config(source) -> Config:
    """Load and validate a study configuration.

    `source` is a mapping, YAML text (any `str`) or the path of a YAML file
    (any `os.PathLike`, such as `pathlib.Path`); a `str` is never taken as a
    file name.  Raises ConfigError listing every violation, or naming the
    YAML syntax error when the text does not parse.
    """
    if isinstance(source, dict):
        raw = dict(source)
    elif isinstance(source, os.PathLike):
        raw = _read_yaml(Path(source).read_text())
    elif isinstance(source, str):
        raw = _read_yaml(source)
    else:
        raise ConfigError([f"cannot read a configuration from {type(source).__name__}"])

    problems = []
    for key in sorted(set(raw) - _KNOWN_KEYS, key=repr):
        problems.append(f"unknown key {key!r}")

    # an unknown suite or case is reported here, and no check of its own applies
    suite, case = raw.get("suite"), raw.get("case")
    if suite not in tuple(SUITES):  # a value such as a list cannot be looked up
        problems.append(f"suite must be one of {tuple(SUITES)}, got {suite!r}")
        suite = None
    if case not in tuple(CASES):
        problems.append(f"case must be one of {tuple(CASES)}, got {case!r}")
        case = None
    required, optional = SUITES.get(suite, ((), ()))
    reads = {*required, *optional, *CASES.get(case, ()), "out", "seed"}

    values = dict(_DEFAULTS)
    for key in raw:
        if key in _KNOWN_KEYS and key not in ("suite", "case"):
            values[key] = raw[key]

    def check_num(key, cond, msg, integer=False):
        if key not in values:
            return None
        try:
            val = number(values[key], key, integer=integer)
        except ValueError as exc:
            problems.append(str(exc))
            return None
        if not cond(val):
            problems.append(f"{key} {msg}, got {val}")
            return None
        values[key] = val
        return val

    T = check_num("T", lambda v: v > 0, "must be positive")
    check_num("alpha", lambda v: v > 1.5, "must exceed 1.5")
    check_num("omega", lambda v: v > 0, "must be positive")
    check_num("theta", lambda v: 0 < v <= 1, "must lie in (0, 1]")
    check_num("eta_tol", lambda v: v >= 0, "must be nonnegative")
    degree = (lambda v: 2 <= v <= MAX_TIME_DEGREE, f"must lie in [2, {MAX_TIME_DEGREE}]")
    p_t = check_num("p_t", *degree, integer=True)
    check_num("p_x", lambda v: 1 <= v <= MAX_DEGREE,
              f"must lie in [1, {MAX_DEGREE}]", integer=True)
    check_num("mode_m", lambda v: v >= 1, "must be a positive integer", integer=True)
    check_num("mode_n", lambda v: v >= 1, "must be a positive integer", integer=True)
    check_num("max_iters", lambda v: v >= 1, "must be >= 1", integer=True)
    check_num("initial_n", lambda v: 1 <= v <= MAX_INTERVALS,
              f"must lie in [1, {MAX_INTERVALS}]", integer=True)
    if values.get("seed") is not None:
        check_num("seed", lambda v: v >= 0, "must be a nonnegative integer", integer=True)
    if not isinstance(values["include_osc"], bool):
        problems.append(f"include_osc must be boolean, got {values['include_osc']!r}")

    h = check_num("h", lambda v: v > 0, "must be positive")
    if h is not None and _steps_per(2.0, h) is None:
        problems.append(f"h must divide the domain side 2, got {h}")

    def check_list(key, item_cond, msg, integer=False):
        if key not in values:
            return None
        seq = values[key]
        if not isinstance(seq, (list, tuple)) or not seq:
            problems.append(f"{key} must be a nonempty list")
            return None
        out = []
        for item in seq:
            try:
                val = number(item, f"{key} entries", integer=integer)
            except ValueError as exc:
                problems.append(str(exc))
                return None
            if not item_cond(val):
                problems.append(f"{key} entry {msg}, got {val}")
                return None
            out.append(val)
        values[key] = out
        return out

    def tau_ok(t):  # an invalid T is reported on its own; long_time reads no T
        return T is None or suite == "long_time" or _steps_per(T, t) is not None

    divides_T = f"must divide T={T} into at most {MAX_INTERVALS} steps"
    tau = check_num("tau", tau_ok, divides_T)
    taus = check_list("tau_list", tau_ok, divides_T)
    check_list("p_t_list", *degree, integer=True)
    T_list = check_list("T_list", lambda v: v > 0, "must be positive")
    if suite == "long_time" and tau is not None and T_list:
        for end in T_list:
            if _steps_per(end, tau) is None:
                problems.append(f"tau {tau} must divide T={end} into at most "
                                f"{MAX_INTERVALS} steps")

    for key in required:
        if key not in raw:
            problems.append(f"suite {suite!r} requires key {key!r}")
    if suite is not None and case is not None:
        for key in sorted(_KNOWN_KEYS.intersection(raw) - reads - {"suite", "case"}):
            problems.append(f"suite {suite!r} with case {case!r} does not read key {key!r}")

    if suite == "spacetime_refine" and p_t is not None and p_t + 1 > MAX_DEGREE:
        problems.append(
            f"spacetime_refine pairs p_x = p_t + 1 and needs p_t <= {MAX_DEGREE - 1}"
        )
    if suite == "spacetime_refine" and taus:
        for t in taus:
            if _steps_per(2.0, t) is None:
                problems.append(
                    f"spacetime_refine sets h = tau, so tau_list entry must divide "
                    f"the domain side 2, got {t}"
                )
    if case == "case2" and suite == "spacetime_refine":
        problems.append("spacetime_refine is meant for case3")

    if problems:
        raise ConfigError(problems)
    return Config(suite=suite, case=case,
                  values={key: val for key, val in values.items() if key in reads})


def _build_case(config: Config):
    if config.case == "case1":
        return make_case("case1")
    if config.case == "case2":
        return make_case("case2", alpha=config.alpha)
    return make_case(
        "case3", m=config.mode_m, n=config.mode_n, omega=config.omega,
    )


@dataclass
class ExperimentResult:
    columns: tuple
    rows: list
    config: Config


def _level_row(level, tau, p_x, p_t, grid, space, errs, report, wall):
    """One CSV row; `h` is the mesh's own, kappa is inf at zero max-in-time L2 error."""
    row = {
        "level": level, "h": space.hx, "tau": tau, "p_x": p_x, "p_t": p_t,
        "N": grid.n_intervals, "dofs": total_dofs(grid, space),
        "eta": report.eta, "eta1": report.eta1, "osc": report.osc,
        "kappa": effectivity(report, errs.Linf_L2), "wall_time": wall,
    }
    row.update(errs.as_dict())
    return row


def _uniform_level(case, space, tau, p_t, T):
    """One level of a uniform suite: its grid, errors, report and wall time."""
    grid = TimeGrid.uniform(T, round(T / tau), p_t)
    data = problem_data(case)
    started = time.perf_counter()
    sol = march(data, space, grid)
    report = estimate(sol, data)
    errs = compute_errors(sol, case)
    wall = time.perf_counter() - started
    return grid, errs, report, wall


def _level_specs(config: Config) -> list:
    """The (h, tau, p_x, p_t, T) of each level of a uniform suite, in row order."""
    c = config
    if c.suite == "tau_refine":
        return [(c.h, tau, c.p_x, c.p_t, c.T) for tau in c.tau_list]
    if c.suite == "spacetime_refine":
        return [(tau, tau, c.p_t + 1, c.p_t, c.T) for tau in c.tau_list]
    if c.suite == "p_refine":
        return [(c.h, c.tau, c.p_x, p_t, c.T) for p_t in c.p_t_list]
    if c.suite == "long_time":
        return [(c.h, c.tau, c.p_x, c.p_t, T) for T in c.T_list]
    if c.suite == "effectivity":
        return [(c.h, tau, c.p_x, p_t, c.T) for p_t in c.p_t_list for tau in c.tau_list]
    raise ConfigError([f"suite {c.suite!r} is not implemented"])


def run_suite(config: Config) -> ExperimentResult:
    """Execute the configured study and collect one row per level."""
    case = _build_case(config)
    rows = []

    if config.suite == "adaptive":
        nx = round(2.0 / config.h)
        space = TensorSpace(nx, nx, config.p_x)
        grid = TimeGrid.uniform(config.T, config.initial_n, config.p_t)
        result = run_adaptive(
            problem_data(case), space, grid,
            theta=config.theta, max_iters=config.max_iters,
            eta_tol=config.eta_tol, include_osc=config.include_osc,
        )
        for level, rec in enumerate(result.history):
            rows.append(_level_row(
                level, float(np.diff(rec.grid.nodes).min()), config.p_x,
                config.p_t, rec.grid, space, rec.errors, rec.report, rec.wall_time,
            ))
    else:
        spaces = {}  # levels on the same mesh and degree share one space
        for level, (h, tau, p_x, p_t, T) in enumerate(_level_specs(config)):
            nx = round(2.0 / h)
            if (nx, p_x) not in spaces:
                spaces[nx, p_x] = TensorSpace(nx, nx, p_x)
            space = spaces[nx, p_x]
            grid, errs, report, wall = _uniform_level(case, space, tau, p_t, T)
            rows.append(_level_row(
                level, grid.T / grid.n_intervals, p_x, p_t, grid, space, errs, report, wall,
            ))

    return ExperimentResult(columns=COLUMNS, rows=rows, config=config)


def emit_csv(result: ExperimentResult, path) -> Path:
    """Write rows to CSV: UTF-8, dot decimal, 13 significant digits."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.columns)
        for row in result.rows:
            out = []
            for key in result.columns:
                val = row[key]
                if isinstance(val, (int, np.integer)):
                    out.append(str(int(val)))
                else:
                    out.append(f"{float(val):.12e}")
            writer.writerow(out)
    return path


def run_from_file(config_path, out=None, suite=None) -> Path:
    """Parse a config file, run its suite, and write the CSV."""
    raw = _read_yaml(Path(config_path).read_text())
    if suite is not None:
        raw["suite"] = suite
    config = parse_config(raw)
    result = run_suite(config)
    return emit_csv(result, out if out is not None else config.out)
