"""Adaptive refinement of the time grid driven by local indicators.

One iteration solves on the current grid, evaluates the localized
estimator, marks a minimal bulk of slabs whose indicators reach a fraction
theta of the total, and bisects the marked slabs (children inherit the
parent's degree).  The loop stops on the iteration budget, when eta (plus
the data oscillation, with `include_osc`) is at most `eta_tol`, or when
nothing is marked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._numbers import number, number_array
from .errors import ErrorBundle, compute_errors
from .estimator import EstimatorReport, effectivity, estimate
from .slabsolver import ProblemData, SlabSolution, TimeGrid, march
from .spacefem import TensorSpace


def doerfler_mark(indicators, theta: float) -> list[int]:
    """Minimal set of largest indicators whose sum reaches theta * total.

    Sorting is descending with ties resolved toward smaller indices.  An
    all-zero indicator vector marks nothing.
    """
    if not 0.0 < number(theta, "theta") <= 1.0:
        raise ValueError(f"marking fraction must be in (0, 1], got {theta}")
    indicators = number_array(indicators, "indicators")
    if np.any(indicators < 0.0):
        raise ValueError("indicators must be nonnegative")
    total = float(indicators.sum())
    if total == 0.0:
        return []
    order = np.argsort(-indicators, kind="stable")
    accrued = np.cumsum(indicators[order])
    cut = int(np.searchsorted(accrued, theta * total - 1e-14 * total))
    return sorted(int(i) for i in order[: cut + 1])


def bisect(grid: TimeGrid, marked) -> TimeGrid:
    """Split each marked interval at its midpoint, degrees inherited.

    Marks are interval indices, as integers or integer-valued numbers;
    booleans and fractional values are refused.
    """
    marked = np.unique(number_array(list(marked), "marks (interval indices)", integer=True))
    if np.any((marked < 0) | (marked >= grid.n_intervals)):
        raise ValueError("marked interval index out of range")
    mids = 0.5 * (grid.nodes[marked] + grid.nodes[marked + 1])
    return TimeGrid(np.insert(grid.nodes, marked + 1, mids),
                    np.insert(grid.degrees, marked, grid.degrees[marked]))


@dataclass(frozen=True, eq=False)
class AdaptiveRecord:
    """State after one solve on one grid."""

    grid: TimeGrid
    dofs: int
    report: EstimatorReport
    errors: ErrorBundle | None
    kappa: float | None
    wall_time: float


@dataclass(eq=False)
class AdaptiveResult:
    history: list = field(default_factory=list)
    final_solution: SlabSolution | None = None

    @property
    def final(self) -> AdaptiveRecord:
        return self.history[-1]


def total_dofs(grid: TimeGrid, space: TensorSpace) -> int:
    return int(np.sum(grid.degrees)) * space.n_dofs


def run_adaptive(
    data: ProblemData,
    space: TensorSpace,
    initial_grid: TimeGrid,
    theta: float = 0.5,
    max_iters: int = 25,
    eta_tol: float = 0.0,
    include_osc: bool = False,
) -> AdaptiveResult:
    """Run the solve-estimate-mark-refine loop from an initial grid.

    Error norms and effectivity are recorded whenever the data carries a
    manufactured solution.  Refined grids keep all previous nodes, so the
    sequence is nested.

    Every iteration after the first does work only for the slabs its
    bisection changed.  The call passes one dict of `slabsolver.SlabRecord`,
    keyed by (p, t_n, t_{n+1}), to every `march` as `kept`:

    - each slab's load is assembled once, so a bisection assembles only the
      children of the marked slabs;
    - the march copies the slabs before the first marked one and solves
      from there on;
    - each solution carries the per-slab values its march knew (see
      `SlabSolution`): the estimator reads the squared jump norms and
      Laplacian norms of the copied slabs and the forcing defect of every
      slab it has seen, and the error norms read the copied slabs' partials.

    Every value has the bits a run without `kept` computes, so the history
    is the same.  The dict holds the last grid's records and goes when the
    call returns.
    """
    theta, eta_tol = number(theta, "theta"), number(eta_tol, "eta_tol")
    max_iters = number(max_iters, "max_iters", integer=True)
    if not (0.0 < theta <= 1.0 and max_iters >= 1 and eta_tol >= 0.0):
        raise ValueError(f"need 0 < theta <= 1, max_iters >= 1 and eta_tol >= 0, "
                         f"got {theta}, {max_iters}, {eta_tol}")
    result = AdaptiveResult()
    grid = initial_grid
    kept = {}
    for _ in range(max_iters):
        started = time.perf_counter()
        sol = march(data, space, grid, kept=kept)
        report = estimate(sol, data, localized=True)
        errs = compute_errors(sol, data.exact) if data.exact is not None else None
        kappa = effectivity(report, errs.Linf_L2) if errs is not None else None
        result.history.append(AdaptiveRecord(
            grid=grid,
            dofs=total_dofs(grid, space),
            report=report,
            errors=errs,
            kappa=kappa,
            wall_time=time.perf_counter() - started,
        ))
        result.final_solution = sol
        if report.eta + (report.osc if include_osc else 0.0) <= eta_tol:
            break
        marked = doerfler_mark(report.local_n, theta)
        if not marked:
            break
        grid = bisect(grid, marked)
    return result
