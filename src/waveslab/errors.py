"""Manufactured solutions and discrete error norms.

Three families of exact solutions on (-1, 1)^2 drive the studies:

- ``case1``: a fixed-frequency smooth oscillation with polynomial spatial
  profile, so the spatial discretization is exact at degree two and the
  temporal error is isolated.
- ``case2``: the same profile times t^alpha with alpha > 1.5, whose limited
  temporal smoothness at t = 0 exercises graded refinement.
- ``case3``: a Laplace eigenmode with resonant frequency, which makes the
  forcing vanish identically and is useful over long times.  The mode is
  not exact in Q_p, so a temporal study with it needs a space-resolved
  mesh: for m = n = 1 at Q2, h = 0.4 adds 5-7% to the max-in-time L2 error
  and h = 0.25 none that shows.

Error norms follow fixed sampling conventions: squared-integral norms in
time use Gauss rules exact to order 2p + 3 per interval, max-in-time norms
sample 2p + 3 equispaced times per interval including both endpoints.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.linalg import blas

from ._numbers import number, number_array
from .slabsolver import (
    ProblemData,
    SlabSolution,
    _runs,
    _sample_cost,
    _sample_times,
    _short_buffer,
    reference_blocks,
)


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution with the derived data the solver and norms need."""

    name: str
    params: dict
    u: Callable  # u(t, x, y)
    du: Callable  # time derivative
    ux: Callable  # spatial gradient components
    uy: Callable
    f: Callable  # forcing u'' - Laplace(u)
    u0: Callable  # u(0, x, y)
    u0x: Callable
    u0y: Callable
    u1: Callable  # du(0, x, y)


# the spatial profile of case1 and case2, and its negative Laplacian
_bump = lambda x, y: (1.0 - x**2) * (1.0 - y**2)
_curv = lambda x, y: 2.0 * (1.0 - y**2) + 2.0 * (1.0 - x**2)


def make_case(name: str, **params) -> ManufacturedCase:
    """Build one of the named manufactured cases.

    case1 takes no parameters, case2 takes alpha > 1.5, case3 takes integer
    mode numbers m, n and a frequency omega.
    """
    if name == "case1":
        return ManufacturedCase(
            name=name, params={},
            u=lambda t, x, y: _bump(x, y) * np.cos(4.0 * t),
            du=lambda t, x, y: -4.0 * _bump(x, y) * np.sin(4.0 * t),
            ux=lambda t, x, y: -2.0 * x * (1.0 - y**2) * np.cos(4.0 * t),
            uy=lambda t, x, y: -2.0 * y * (1.0 - x**2) * np.cos(4.0 * t),
            f=lambda t, x, y: (-16.0 * _bump(x, y) + _curv(x, y)) * np.cos(4.0 * t),
            u0=_bump,
            u0x=lambda x, y: -2.0 * x * (1.0 - y**2),
            u0y=lambda x, y: -2.0 * y * (1.0 - x**2),
            u1=lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))),
        )
    if name == "case2":
        alpha = number(params.get("alpha", 1.75), "alpha")
        if not alpha > 1.5:
            raise ValueError(f"case2 needs alpha > 1.5, got {alpha}")
        zero = lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return ManufacturedCase(
            name=name, params={"alpha": alpha},
            u=lambda t, x, y: _bump(x, y) * t**alpha,
            du=lambda t, x, y: alpha * _bump(x, y) * t ** (alpha - 1.0),
            ux=lambda t, x, y: -2.0 * x * (1.0 - y**2) * t**alpha,
            uy=lambda t, x, y: -2.0 * y * (1.0 - x**2) * t**alpha,
            f=lambda t, x, y: alpha * (alpha - 1.0) * _bump(x, y) * t ** (alpha - 2.0)
            + _curv(x, y) * t**alpha,
            u0=zero, u0x=zero, u0y=zero, u1=zero,
        )
    if name == "case3":
        mode_n = number(params.get("n", 1), "n", integer=True)
        mode_m = number(params.get("m", 1), "m", integer=True)
        omega = number(params.get("omega", np.sqrt(2.0)), "omega")
        if mode_n < 1 or mode_m < 1:
            raise ValueError(f"case3 mode numbers must be >= 1, got {mode_m}, {mode_n}")
        pi = np.pi
        shape = lambda x, y: np.sin(pi * mode_n * x) * np.sin(pi * mode_m * y)
        try:  # int mode numbers and a float omega, squared beyond the float range
            gain = pi**2 * (mode_n**2 + mode_m**2 - omega**2)
        except OverflowError:
            raise ValueError(f"case3 squares of m, n or omega overflow, got {params}") from None
        return ManufacturedCase(
            name=name, params={"m": mode_m, "n": mode_n, "omega": omega},
            u=lambda t, x, y: shape(x, y) * np.cos(omega * pi * t),
            du=lambda t, x, y: -omega * pi * shape(x, y) * np.sin(omega * pi * t),
            ux=lambda t, x, y: pi * mode_n * np.cos(pi * mode_n * x)
            * np.sin(pi * mode_m * y) * np.cos(omega * pi * t),
            uy=lambda t, x, y: pi * mode_m * np.sin(pi * mode_n * x)
            * np.cos(pi * mode_m * y) * np.cos(omega * pi * t),
            f=lambda t, x, y: gain * shape(x, y) * np.cos(omega * pi * t),
            u0=shape,
            u0x=lambda x, y: pi * mode_n * np.cos(pi * mode_n * x) * np.sin(pi * mode_m * y),
            u0y=lambda x, y: pi * mode_m * np.sin(pi * mode_n * x) * np.cos(pi * mode_m * y),
            u1=lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))),
        )
    raise ValueError(f"unknown case {name!r}")


def problem_data(case: ManufacturedCase) -> ProblemData:
    # t^alpha sources with fractional alpha are not smooth at t = 0.
    return ProblemData(
        grad_u0=(case.u0x, case.u0y), u1=case.u1, f=case.f, exact=case,
        singular_load=case.name == "case2",
    )


@dataclass(frozen=True)
class ErrorBundle:
    """Discrete error norms of a computed solution against the exact one.

    `max_W1inf_L2` and `max_Linf_H1` are maxima over intervals of
    max-in-time norms; `Linf_L2` is the global max-in-time L2 norm;
    `L2_H1` and `H1deriv_L2L2` are squared-integral-in-time norms; `jump`
    collects the derivative jumps across all time nodes in one square sum.
    """

    max_W1inf_L2: float
    max_Linf_H1: float
    L2_H1: float
    H1deriv_L2L2: float
    Linf_L2: float
    jump: float

    def as_dict(self) -> dict:
        return asdict(self)


@_short_buffer
def compute_errors(sol: SlabSolution, case: ManufacturedCase) -> ErrorBundle:
    """Evaluate all error norms of a slab solution for a manufactured case.

    Each slab first gets five partials: the Gauss-weighted sums of its
    squared H1 and time-derivative misfits, and the equispaced maxima of
    its squared H1, W1inf and L2 misfits.  The norms reduce these (N, 5)
    partials in slab order.

    The slabs are scored a run at a time (`slabsolver._runs`): a stretch
    of slabs of one degree whose samples at the "gauss" and "equispaced"
    point sets together stay under `slabsolver.STACK_BUDGET`, each exact
    callable once per run.  The space kernel evaluates values and
    gradients of a run's p + 1 temporal modes (`SlabSolution.modes`)
    once; the samples at both point sets follow on the Gauss grid through
    one stacked `leg` and `(2 / tau) dleg` table, Gauss rows first, but are
    never stored: one BLAS update C <- -A B + C per slab
    (`scipy.linalg.blas.dgemm`) overwrites the slab's exact samples, which
    `TensorSpace.grid_eval` returns as an array the call owns, with its
    misfit, and a wrapper that returns a copy of C raises `RuntimeError`.  The misfits split into the Gauss columns, summed per
    slab with the rule's weights, and the equispaced columns, maximized
    per slab.

    When `case` is the exact solution of the problem `sol` solved
    (`sol.data.exact`), the partials are the rows of the solution's table
    `SlabSolution.partials`: the known ones are read and the others scored
    and written there, so a second call for the case scores nothing.  A
    slab's partials come from the same operations whichever run it is
    scored with, and the reduction runs over all of them in slab order, so
    the norms have the same bits either way.
    """
    space, grid = sol.space, sol.grid
    own = sol.data is not None and case is sol.data.exact
    partials = sol.partials if own else np.full((grid.n_intervals, 5), np.nan)
    missing = np.flatnonzero(np.isnan(partials[:, 0]))

    def misfit_sq(exact, t, basis, coeffs):
        # per time sample, the squared L2 norm of exact(t) - basis @ coeffs,
        # shaped as t, (S, k) for k samples on each of S slabs; each slab's
        # (k, ngx * ngy) block of exact(t) becomes the misfit in place, in one
        # gemm C <- -A B + C on its transpose, which is F-ordered
        err = space.grid_eval(exact, t.ravel())
        blocks = err.reshape(t.shape + (-1,))
        bases = basis.transpose(0, 2, 1) if basis.ndim == 3 else [basis.T] * len(blocks)
        for c, a, b in zip(blocks.transpose(0, 2, 1), coeffs.transpose(0, 2, 1), bases):
            # alpha, a, b, beta, c, trans_a, trans_b, overwrite_c; passed by
            # position, as keywords cost a fifth of a small slab's update
            out = blas.dgemm(-1.0, a, b, 1.0, c, 0, 0, 1)
            if not (out is c or np.shares_memory(out, c)):
                raise RuntimeError("scipy.linalg.blas.dgemm returned a copy of its output "
                                   "array, so a misfit would read as the exact solution")
        return space.integrate(np.square(blocks, out=blocks).reshape(err.shape)).reshape(t.shape)

    for p, run in _runs(grid, missing, _sample_cost(space, "gauss", "equispaced")):
        xg, wq, leg_g, dleg_g = reference_blocks(p)["gauss"]
        xe, _, leg_e, dleg_e = reference_blocks(p)["equispaced"]
        ng = len(xg)
        tau = grid.nodes[run + 1] - grid.nodes[run]
        t = _sample_times(grid, run, np.concatenate((xg, xe)))
        leg = np.vstack((leg_g, leg_e))
        dt_leg = (2.0 / tau)[:, None, None] * np.vstack((dleg_g, dleg_e))
        # values and gradients of the run's modes on the Gauss grid, each
        # of shape (S, p + 1, ngx * ngy); samples are basis @ modes
        modes = sol.modes(run)
        flat = modes.reshape(-1, space.n_dofs)
        vals, gx, gy = (v.reshape(modes.shape[:2] + (-1,))
                        for v in (space.eval_gauss(flat), *space.eval_grad_gauss(flat)))
        h1 = misfit_sq(case.ux, t, leg, gx) + misfit_sq(case.uy, t, leg, gy)
        dl2 = misfit_sq(case.du, t, dt_leg, vals)
        weights = 0.5 * tau[:, None] * wq
        partials[run] = np.column_stack((
            np.sum(weights * h1[:, :ng], axis=1),
            np.sum(weights * dl2[:, :ng], axis=1),
            np.max(h1[:, ng:], axis=1),
            np.max(dl2[:, ng:], axis=1),
            np.max(misfit_sq(case.u, t[:, ng:], leg_e, vals), axis=1),
        ))

    sq_h1, sq_dl2 = np.sum(partials[:, :2], axis=0)
    sq_h1_max, sq_w1inf, sq_l2 = np.max(partials[:, 2:], axis=0)
    return ErrorBundle(
        max_W1inf_L2=float(np.sqrt(sq_w1inf)),
        max_Linf_H1=float(np.sqrt(sq_h1_max)),
        L2_H1=float(np.sqrt(sq_h1)),
        H1deriv_L2L2=float(np.sqrt(sq_dl2)),
        Linf_L2=float(np.sqrt(sq_l2)),
        jump=float(np.sqrt(np.sum(sol.jump_sq))),
    )


def rate(values, steps) -> np.ndarray:
    """Observed convergence orders between consecutive refinement levels.

    Each order is a difference of logarithms over a difference of
    logarithms, so no ratio of values or steps is formed and any positive
    finite input gives a finite order.  Consecutive steps whose logarithms
    are equal (equal steps, or neighbouring floats) are refused.
    """
    values, steps = number_array(values, "values"), number_array(steps, "steps")
    if len(values) < 2 or len(values) != len(steps):
        raise ValueError(
            f"need matching lists of length >= 2, got {len(values)} and {len(steps)}"
        )
    if np.any(values <= 0.0) or np.any(steps <= 0.0):
        raise ValueError("values and steps must be strictly positive")
    log_values, log_steps = np.log(values), np.log(steps)
    if np.any(log_steps[:-1] == log_steps[1:]):
        raise ValueError(f"consecutive steps must differ in their logarithms, got {steps}")
    return (log_values[:-1] - log_values[1:]) / (log_steps[:-1] - log_steps[1:])
