"""Configured studies producing one CSV row per refinement level.

A study is described by a flat YAML mapping.  Common keys:

- ``suite``: one of ``tau_refine``, ``p_refine``, ``spacetime_refine``,
  ``long_time``, ``effectivity``, ``adaptive``.
- ``case``: ``case1``, ``case2`` or ``case3``; ``alpha`` tunes case2
  (must exceed 1.5), ``mode_m``/``mode_n``/``omega`` tune case3.
- ``T``: final time (default 1.0); ``long_time`` instead takes ``T_list``.
- ``tau`` or ``tau_list``: time step(s); each step must divide the final
  time up to a 2 percent rounding allowance (the step lists in common use
  are decimal roundings of 1/N).
- ``p_t`` or ``p_t_list``: temporal degree(s), between 2 and 10.
- ``p_x``: spatial degree (default 2, at most 5); ``h``: spatial mesh size
  on (-1, 1)^2 (default 0.4), must similarly divide the side length 2, as
  must every step of ``spacetime_refine``, which sets h = tau.  The ``h``
  column reports the mesh that ran, 2 / round(2 / h).
- ``theta`` (default 0.5), ``max_iters`` (default 25), ``eta_tol``
  (default 0.0), ``initial_n`` (default 5): adaptive loop controls.
- ``include_osc``: add data oscillation to the reported total (default
  false; the oscillation column is always filled).
- ``out``: output CSV path; ``seed``: optional unsigned integer, validated
  and kept on the ``Config`` (no study draws random numbers).

Unknown keys are rejected, as are numbers that the package-wide rule
refuses (booleans, strings such as a quoted ``"2"``, infinite or nan
values, fractional values of integer keys), and all validation problems
are reported at once.
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
from .slabsolver import TimeGrid, march
from .spacefem import MAX_DEGREE, TensorSpace

SUITES = (
    "tau_refine", "p_refine", "spacetime_refine", "long_time", "effectivity", "adaptive",
)
CASES = ("case1", "case2", "case3")

COLUMNS = (
    "level", "h", "tau", "p_x", "p_t", "N", "dofs",
    "max_W1inf_L2", "max_Linf_H1", "L2_H1", "H1deriv_L2L2", "Linf_L2", "jump",
    "eta", "eta1", "osc", "kappa", "wall_time",
)

_DEFAULTS = {
    "alpha": 1.75, "mode_m": 1, "mode_n": 1, "omega": float(np.sqrt(2.0)),
    "T": 1.0, "p_x": 2, "h": 0.4, "theta": 0.5, "include_osc": False,
    "max_iters": 25, "eta_tol": 0.0, "initial_n": 5, "out": "results.csv",
    "seed": None, "p_t": 2,
}

_KNOWN_KEYS = set(_DEFAULTS) | {
    "suite", "case", "T_list", "tau", "tau_list", "p_t_list",
}


class ConfigError(Exception):
    """Carries every validation problem found in a configuration."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _steps_per(total: float, step: float) -> int | None:
    """Number of steps if `step` divides `total` up to rounding, else None.

    A step so small that `total / step` overflows (a subnormal `tau` or `h`)
    divides nothing.
    """
    if step <= 0 or total <= 0 or not np.isfinite(total / step):
        return None
    n = round(total / step)
    if n < 1 or abs(total / step - n) > 0.02 * n:
        return None
    return int(n)


@dataclass(frozen=True)
class Config:
    suite: str
    case: str
    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        try:
            return self.values[key]
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

    suite = raw.get("suite")
    if suite not in SUITES:
        problems.append(f"suite must be one of {SUITES}, got {suite!r}")
        suite = None  # reported here; no suite-specific check applies
    case = raw.get("case")
    if case not in CASES:
        problems.append(f"case must be one of {CASES}, got {case!r}")

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
    p_t = check_num("p_t", lambda v: 2 <= v <= 10, "must lie in [2, 10]", integer=True)
    check_num("p_x", lambda v: 1 <= v <= MAX_DEGREE,
              f"must lie in [1, {MAX_DEGREE}]", integer=True)
    check_num("mode_m", lambda v: v >= 1, "must be a positive integer", integer=True)
    check_num("mode_n", lambda v: v >= 1, "must be a positive integer", integer=True)
    check_num("max_iters", lambda v: v >= 1, "must be >= 1", integer=True)
    check_num("initial_n", lambda v: v >= 1, "must be >= 1", integer=True)
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

    def tau_ok(t):  # an invalid T is reported on its own
        return T is None or _steps_per(T, t) is not None

    check_num("tau", tau_ok, f"must divide T={T}")
    taus = check_list("tau_list", tau_ok, f"must divide T={T}")
    check_list("p_t_list", lambda v: 2 <= v <= 10, "must lie in [2, 10]", integer=True)
    if "T_list" in values:
        check_list("T_list", lambda v: v > 0, "must be positive")
        if suite == "long_time" and "tau" in values and not problems:
            for Ti in values["T_list"]:
                if _steps_per(Ti, values["tau"]) is None:
                    problems.append(f"tau {values['tau']} must divide T={Ti}")

    requirements = {
        "tau_refine": ("tau_list",),
        "p_refine": ("p_t_list", "tau"),
        "spacetime_refine": ("tau_list",),
        "long_time": ("T_list", "tau"),
        "effectivity": ("tau_list", "p_t_list"),
        "adaptive": (),
    }
    for key in requirements.get(suite, ()):
        if key not in raw:
            problems.append(f"suite {suite!r} requires key {key!r}")

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
    if case == "case2" and suite in ("spacetime_refine",):
        problems.append("spacetime_refine is meant for case3")

    if problems:
        raise ConfigError(problems)
    return Config(suite=suite, case=case, values=values)


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


def _uniform_level(case, config, space, tau, p_t, T):
    grid = TimeGrid.uniform(T, round(T / tau), p_t)
    data = problem_data(case)
    started = time.perf_counter()
    sol = march(data, space, grid)
    report = estimate(sol, data, include_osc=config.include_osc)
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
            grid, errs, report, wall = _uniform_level(case, config, space, tau, p_t, T)
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


def run_from_file(config_path, out=None, suite=None, seed=None) -> Path:
    """Parse a config file, run its suite, and write the CSV."""
    raw = _read_yaml(Path(config_path).read_text())
    if suite is not None:
        raw["suite"] = suite
    if seed is not None:
        raw["seed"] = seed
    config = parse_config(raw)
    result = run_suite(config)
    return emit_csv(result, out if out is not None else config.out)
