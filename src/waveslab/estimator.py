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

from .slabsolver import ProblemData, SlabSolution, _chunks, _sample_times, reference_blocks
from .timebasis import c3_constant, c4_constant, nodal_to_modal, reconstruction_constants


def eta1(sol: SlabSolution) -> tuple[float, int]:
    """Jump estimator: worst slab value and the first slab attaining it.

    Values within a relative 1e-14 of the worst count as attaining it.
    """
    grid = sol.grid
    weights = np.array([
        (c1_sq * c2_sq) ** 0.25
        for c1_sq, c2_sq, _ in map(reconstruction_constants, grid.degrees)
    ])
    vals = np.diff(grid.nodes) * weights * sol.space.m_norm(sol.jumps)
    arg = int(np.argmax(vals * (1.0 + 1e-14) >= np.max(vals)))
    return float(vals[arg]), arg


def eta2_terms(sol: SlabSolution, m: int, points: str = "gauss") -> np.ndarray:
    """Per-slab consistency terms for target slab index m (zero past m).

    The defect of a slab polynomial against its temporal L2 projection one
    degree down is exactly its top Legendre mode, so that term is the time
    L1 norm of the mapped Legendre polynomial times the broken-Laplacian L2
    norm of the top mode.  The top modes and the jumps of slabs 0..m each
    go through the space kernel as one stack.  `points` names the Gauss
    point set of `reference_blocks` that integrates the Legendre L1 norm.
    """
    grid, space = sol.grid, sol.space
    t_m = float(grid.nodes[m + 1])
    degrees = [int(p) for p in grid.degrees[: m + 1]]
    tops = np.array([nodal_to_modal(p)[p] @ block for p, block in zip(degrees, sol.blocks)])
    top_lap = space.l2_norm(space.eval_laplacian_gauss(tops))
    jump_lap = space.l2_norm(space.eval_laplacian_gauss(sol.jumps[: m + 1]))
    out = np.zeros(grid.n_intervals)
    for n, p in enumerate(degrees):
        tau = grid.tau(n)
        _, c2_sq, _ = reconstruction_constants(p)
        _, w, leg, _ = reference_blocks(p)[points]
        lap_l1 = 0.5 * tau * float(w @ np.abs(leg[:, p])) * top_lap[n]
        if n == m:
            out[n] = 2.0 * (tau * lap_l1 + np.sqrt(c2_sq) * tau**3 * jump_lap[n])
        else:
            c4 = c4_constant(p, t_m, float(grid.nodes[n]), tau)
            out[n] = (2.0 / np.pi) * (
                tau * c3_constant(p - 1) * lap_l1
                + tau**3 * np.sqrt(c2_sq) * c4 * jump_lap[n]
            )
    return out


def osc_terms(data: ProblemData, sol: SlabSolution, m: int, points: str = "gauss") -> np.ndarray:
    """Per-slab data oscillation: defect of f against its temporal projection.

    The projection onto degree p - 1 is taken per spatial quadrature point
    from samples at the Gauss point set `points` of `reference_blocks`;
    norms follow the same conventions as the estimator terms.  Slabs of one
    degree are sampled together, in chunks under `slabsolver.STACK_BUDGET`,
    and one projector takes the defect of the whole chunk.
    """
    grid, space = sol.grid, sol.space
    out = np.zeros(grid.n_intervals)
    for p, slabs in _chunks(space, grid, range(m + 1), points):
        x, w, leg, _ = reference_blocks(p)[points]
        vander = leg[:, :p]  # (nq, p)
        scale = 0.5 * (2.0 * np.arange(p) + 1.0)
        to_defect = np.eye(len(x)) - vander @ (scale[:, None] * (vander * w[:, None]).T)
        samples = space.grid_eval(data.f, _sample_times(grid, slabs, x).ravel())
        defect = to_defect @ samples.reshape(len(slabs), len(x), -1)
        norms = space.l2_norm(defect.reshape(samples.shape)).reshape(len(slabs), len(x))
        tau = grid.nodes[slabs + 1] - grid.nodes[slabs]
        l1 = 0.5 * tau * (norms @ w)
        weight = np.where(slabs == m, 2.0 * tau, (2.0 * tau / np.pi) * c3_constant(p - 1))
        out[slabs] = weight * l1
    return out


@dataclass(frozen=True)
class EstimatorReport:
    """Estimator evaluation on one solution.

    `eta` is eta1 plus the sum of the eta2 terms; `total` additionally
    carries the oscillation when `include_osc` is set.  `local_n` places
    eta1 on its carrying slab on top of that slab's eta2 term, so the
    indicators sum to `eta`.
    """

    m: int
    eta1: float
    eta1_argmax: int
    eta2_n: np.ndarray
    osc_n: np.ndarray
    include_osc: bool
    localized: bool

    @property
    def eta(self) -> float:
        return self.eta1 + float(np.sum(self.eta2_n))

    @property
    def osc(self) -> float:
        return float(np.sum(self.osc_n))

    @property
    def total(self) -> float:
        return self.eta + self.osc if self.include_osc else self.eta

    @property
    def local_n(self) -> np.ndarray:
        out = self.eta2_n.copy()
        out[self.eta1_argmax] += self.eta1
        return out


def estimate(
    sol: SlabSolution,
    data: ProblemData,
    include_osc: bool = False,
    localized: bool = False,
) -> EstimatorReport:
    """Evaluate the estimator on a computed solution.

    With `localized` the target slab is the one carrying eta1; otherwise it
    is the final slab.  Oscillation terms are always computed so that
    reliability checks can add them regardless of `include_osc`.
    """
    e1, arg = eta1(sol)
    m = arg if localized else sol.grid.n_intervals - 1
    return EstimatorReport(
        m=m,
        eta1=e1,
        eta1_argmax=arg,
        eta2_n=eta2_terms(sol, m),
        osc_n=osc_terms(data, sol, m),
        include_osc=include_osc,
        localized=localized,
    )


def effectivity(report: EstimatorReport, linf_l2_error: float) -> float:
    """Ratio of the estimator to the max-in-time L2 error; inf when it is zero."""
    return report.eta / linf_l2_error if linf_l2_error > 0 else float("inf")


def quadrature_check(sol: SlabSolution, data: ProblemData, report: EstimatorReport,
                     tol: float = 1e-6) -> float:
    """Recompute the quadrature-dependent terms on the "gauss_doubled" points.

    Returns the worst relative difference and warns when it exceeds `tol`.
    The integrands contain absolute values, so some sensitivity to the rule
    is expected and worth surfacing.
    """
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
            stacklevel=2,
        )
    return worst
