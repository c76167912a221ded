"""Explicit-constant a posteriori estimator for the max-in-time L2 error.

The estimator has two ingredients.  A jump part eta1 takes the worst slab
value of tau_n * sqrt(c1 c2) times the derivative-jump norm.  A consistency
part eta2 accumulates, per slab, the broken Laplacian of the top temporal
mode of the solution (equivalently of the defect against the temporal L2
projection one degree down) and the broken Laplacian of the derivative
jump.  Slabs before the target index m carry weights involving c3 and c4
and a factor 2/pi; the target slab itself carries plain weights.

For uniform studies the target index is the final slab.  The localized
variant instead targets the slab carrying eta1, which yields per-slab
indicators whose sum is the global estimator; those drive marking.

Data oscillation is measured the same way from the defect of the forcing
against its temporal projection and is reported separately.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._numbers import number
from .slabsolver import ProblemData, SlabSolution, _forcing_rows, _short_buffer, reference_blocks
from .spacefem import _sqrt_pos
from .timebasis import c3_constant, c4_constant, reconstruction_constants


def _distinct(degrees: np.ndarray) -> list:
    """The distinct degrees of a grid's slabs, ascending."""
    return np.flatnonzero(np.bincount(degrees)).tolist()


def _by_degree(degrees: np.ndarray, value) -> np.ndarray:
    """value(p) for each entry p of `degrees`, one call per distinct degree."""
    distinct = _distinct(degrees)
    table = np.zeros(distinct[-1] + 1)
    table[distinct] = [value(p) for p in distinct]
    return table[degrees]


def eta1(sol: SlabSolution) -> tuple[float, int]:
    """Jump estimator: worst slab value and the first slab attaining it.

    A slab's value is tau (c1 c2)^(1/2) times its jump norm, with one
    `reconstruction_constants` per degree of the grid.  Values within a
    relative 1e-14 of the worst count as attaining it.
    """
    grid = sol.grid

    def weight(p):
        c1_sq, c2_sq, _ = reconstruction_constants(p)
        return (c1_sq * c2_sq) ** 0.25

    weights = _by_degree(grid.degrees, weight)
    vals = np.diff(grid.nodes) * weights * _sqrt_pos(sol.jump_sq)
    arg = int(np.argmax(vals * (1.0 + 1e-14) >= np.max(vals)))
    return float(vals[arg]), arg


def _target(sol: SlabSolution, m, points: str = "gauss") -> int:
    """The target slab index m as an int, after checking it and `points`."""
    m = number(m, "the target slab index m", integer=True)
    if not 0 <= m < sol.grid.n_intervals:
        raise ValueError(f"the target slab index m must be a slab of the grid, got {m}")
    if not isinstance(points, str) or points not in ("gauss", "gauss_doubled"):
        raise ValueError(f"points must be 'gauss' or 'gauss_doubled', got {points!r}")
    return m


def laplacian_norms(sol: SlabSolution, m: int) -> np.ndarray:
    """Broken-Laplacian L2 norms of slabs 0..m, shape (m + 1, 2), read-only.

    Row n holds the norms of slab n's top Legendre mode and of its
    derivative jump, the rule-independent factors of its eta2 term.  They
    are the rows of the solution's table `SlabSolution.lap`: the known rows
    are read, and the others computed and written there by
    `SlabSolution._fill_laplacians`, which takes the squared jump norms of
    `jump_sq` from the same jumps, so a second call costs nothing.  Each
    slab's norms have the same bits in any stack.
    """
    m = _target(sol, m)
    sol._fill_laplacians(m + 1)
    out = sol.lap[:m + 1].view()
    out.flags.writeable = False
    return out


def eta2_terms(sol: SlabSolution, m: int, points: str = "gauss") -> np.ndarray:
    """Per-slab consistency terms for target slab index m (zero past m).

    The defect of a slab polynomial against its temporal L2 projection one
    degree down is exactly its top Legendre mode, so that term is the time
    L1 norm of the mapped Legendre polynomial times the broken-Laplacian L2
    norm of the top mode.  The norms are the `laplacian_norms` of slabs
    0..m, which the solution keeps; the weights, which depend on the grid
    and on m, and the Legendre L1 factor, which `points` ("gauss" or
    "gauss_doubled" of `reference_blocks`) integrates, are applied to them
    here as arrays over the slabs.  Each degree takes one
    `reconstruction_constants`, one `c3_constant`, one `c4_constant` (over
    the slabs of that degree) and one Legendre L1 factor; each term has
    the bits of the same expression in scalars.
    """
    m = _target(sol, m, points)
    grid = sol.grid
    top_lap, jump_lap = laplacian_norms(sol, m).T
    left = grid.nodes[:m + 1]
    tau = np.diff(grid.nodes[:m + 2])
    degrees = grid.degrees[:m + 1]
    t_m = float(grid.nodes[m + 1])

    l1, c2, c3, c4 = np.empty((4, m + 1))
    for p in _distinct(degrees):
        slabs = degrees == p
        _, w, leg, _ = reference_blocks(p)[points]
        l1[slabs] = float(w @ np.abs(leg[:, p]))
        c2[slabs] = np.sqrt(reconstruction_constants(p)[1])
        c3[slabs] = c3_constant(p - 1)
        c4[slabs] = c4_constant(p, t_m, left[slabs], tau[slabs])
    lap_l1 = 0.5 * tau * l1 * top_lap
    # cubed one by one: numpy's vectorized power may round differently from
    # the scalar one (it did for 5% of random lengths on AVX-512)
    cubes = np.array([length**3 for length in tau.tolist()])
    out = np.zeros(grid.n_intervals)
    out[:m + 1] = (2.0 / np.pi) * (tau * c3 * lap_l1 + cubes * c2 * c4 * jump_lap)
    out[m] = 2.0 * (tau[m] * lap_l1[m] + c2[m] * cubes[m] * jump_lap[m])
    return out


def osc_terms(data: ProblemData, sol: SlabSolution, m: int,
              points: str = "gauss") -> np.ndarray:
    """Per-slab data oscillation: defect of f against its temporal projection.

    The projection onto degree p - 1 is taken per spatial quadrature point
    from samples at the point set `points` ("gauss" or "gauss_doubled" of
    `reference_blocks`); norms follow the same conventions as the estimator
    terms.  The slabs are sampled a run at a time (`slabsolver._runs`),
    and one projector takes the defect of the whole run
    (`slabsolver._forcing_terms`).  Each slab's time L1 norm of the defect
    is summed on its own row, so it has the same bits in any run; the
    weights, which depend on the grid and on m, are applied
    after.

    That L1 norm depends only on f, the space and the slab's key.  It is
    row 0 of `slabsolver._forcing_rows`: for the problem `sol` solved, on
    the "gauss" points, the rows of `SlabSolution.osc_l1`, which the march
    fills from its load's samples.
    """
    m = _target(sol, m, points)
    grid = sol.grid
    l1 = _forcing_rows(data, sol, m, points)[0]
    tau = np.diff(grid.nodes[:m + 2])
    c3 = _by_degree(grid.degrees[:m + 1], lambda p: c3_constant(p - 1))
    out = np.zeros(grid.n_intervals)
    last = np.arange(m + 1) == m
    out[: m + 1] = np.where(last, 2.0 * tau, (2.0 * tau / np.pi) * c3) * l1
    return out


@dataclass(frozen=True, eq=False)
class EstimatorReport:
    """Estimator evaluation on one solution.

    `eta` is eta1 plus the sum of the eta2 terms and `osc` the sum of the
    oscillation terms.  `local_n` places eta1 on its carrying slab on top
    of that slab's eta2 term, so the indicators sum to `eta`.
    """

    m: int
    eta1: float
    eta1_argmax: int
    eta2_n: np.ndarray
    osc_n: np.ndarray

    @property
    def eta(self) -> float:
        return self.eta1 + float(np.sum(self.eta2_n))

    @property
    def osc(self) -> float:
        return float(np.sum(self.osc_n))

    @property
    def local_n(self) -> np.ndarray:
        out = self.eta2_n.copy()
        out[self.eta1_argmax] += self.eta1
        return out


@_short_buffer
def estimate(
    sol: SlabSolution,
    data: ProblemData,
    localized: bool = False,
) -> EstimatorReport:
    """Evaluate the estimator on a computed solution.

    With `localized` the target slab is the one carrying eta1; otherwise it
    is the final slab.  Oscillation terms are always computed and reported
    apart from `eta`.

    The solution's known squared jump norms, Laplacian norms and forcing
    defects (`SlabSolution.jump_sq`, `lap`, `osc_l1`) are read, not
    computed again, and the others are computed and kept there
    (`laplacian_norms`, `osc_terms`).  Each has the bits a fresh evaluation
    gives, and the weights are applied after the lookup, so the report is
    the one a fresh solution gives.  When the target is the final slab,
    the Laplacian norms of every slab are filled first, and their pass
    gives eta1 its squared jump norms, so each jump is derived once.  A
    localized estimate needs every jump norm before it knows m; it then
    derives the jumps of slabs 0..m a second time for their Laplacian
    norms, and computes none past m.
    """
    if not localized:
        sol._fill_laplacians(sol.grid.n_intervals)
    e1, arg = eta1(sol)
    m = arg if localized else sol.grid.n_intervals - 1
    return EstimatorReport(
        m=m,
        eta1=e1,
        eta1_argmax=arg,
        eta2_n=eta2_terms(sol, m),
        osc_n=osc_terms(data, sol, m),
    )


def effectivity(report: EstimatorReport, linf_l2_error: float) -> float:
    """Ratio of the estimator to the max-in-time L2 error; inf when it is zero."""
    return report.eta / linf_l2_error if linf_l2_error > 0 else float("inf")


@_short_buffer
def quadrature_check(sol: SlabSolution, data: ProblemData, report: EstimatorReport,
                     tol: float = 1e-6) -> float:
    """Recompute the quadrature-dependent terms on the "gauss_doubled" points.

    Returns the worst relative difference and warns when it exceeds `tol`,
    a number >= 0 by the rule of `_numbers`, or inf, which never warns.
    The integrands contain absolute values, so some sensitivity to the rule
    is expected and worth surfacing.  The eta2 terms read the Laplacian
    norms the estimate left on the solution (`SlabSolution.lap`), which do
    not depend on the rule: only their Legendre L1 factor is integrated
    again.
    """
    tol = tol if tol == np.inf else number(tol, "tol")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    ref = np.concatenate([report.eta2_n, report.osc_n])
    new = np.concatenate([
        eta2_terms(sol, report.m, points="gauss_doubled"),
        osc_terms(data, sol, report.m, points="gauss_doubled"),
    ])
    denom = np.maximum(np.maximum(np.abs(ref), np.abs(new)), 1e-300)
    worst = float(np.max(np.abs(new - ref) / denom)) if len(ref) else 0.0
    if worst > tol:
        warnings.warn(
            f"estimator quadrature sensitivity {worst:.3e} above {tol:.1e}; "
            "the reported values keep the standard rule",
            stacklevel=3,  # the caller's line, past `_short_buffer`
        )
    return worst
