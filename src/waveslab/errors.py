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

from .slabsolver import ProblemData, SlabSolution, _chunks, _sample_times, reference_blocks


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


def make_case(name: str, **params) -> ManufacturedCase:
    """Build one of the named manufactured cases.

    case1 takes no parameters, case2 takes alpha > 1.5, case3 takes integer
    mode numbers m, n and a frequency omega.
    """
    if name == "case1":
        bump = lambda x, y: (1.0 - x**2) * (1.0 - y**2)
        curv = lambda x, y: 2.0 * (1.0 - y**2) + 2.0 * (1.0 - x**2)
        return ManufacturedCase(
            name=name, params={},
            u=lambda t, x, y: bump(x, y) * np.cos(4.0 * t),
            du=lambda t, x, y: -4.0 * bump(x, y) * np.sin(4.0 * t),
            ux=lambda t, x, y: -2.0 * x * (1.0 - y**2) * np.cos(4.0 * t),
            uy=lambda t, x, y: -2.0 * y * (1.0 - x**2) * np.cos(4.0 * t),
            f=lambda t, x, y: (-16.0 * bump(x, y) + curv(x, y)) * np.cos(4.0 * t),
            u0=bump,
            u0x=lambda x, y: -2.0 * x * (1.0 - y**2),
            u0y=lambda x, y: -2.0 * y * (1.0 - x**2),
            u1=lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))),
        )
    if name == "case2":
        alpha = float(params.get("alpha", 1.75))
        if not (np.isfinite(alpha) and alpha > 1.5):
            raise ValueError(f"case2 needs a finite alpha > 1.5, got {alpha}")
        bump = lambda x, y: (1.0 - x**2) * (1.0 - y**2)
        curv = lambda x, y: 2.0 * (1.0 - y**2) + 2.0 * (1.0 - x**2)
        zero = lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return ManufacturedCase(
            name=name, params={"alpha": alpha},
            u=lambda t, x, y: bump(x, y) * t**alpha,
            du=lambda t, x, y: alpha * bump(x, y) * t ** (alpha - 1.0),
            ux=lambda t, x, y: -2.0 * x * (1.0 - y**2) * t**alpha,
            uy=lambda t, x, y: -2.0 * y * (1.0 - x**2) * t**alpha,
            f=lambda t, x, y: alpha * (alpha - 1.0) * bump(x, y) * t ** (alpha - 2.0)
            + curv(x, y) * t**alpha,
            u0=zero, u0x=zero, u0y=zero, u1=zero,
        )
    if name == "case3":
        mode_n, mode_m = params.get("n", 1), params.get("m", 1)
        if int(mode_n) != mode_n or int(mode_m) != mode_m:
            raise ValueError(f"case3 mode numbers must be integers, got {mode_m}, {mode_n}")
        mode_n, mode_m = int(mode_n), int(mode_m)
        omega = float(params.get("omega", np.sqrt(2.0)))
        if not np.isfinite(omega):
            raise ValueError(f"case3 needs a finite omega, got {omega}")
        if mode_n < 1 or mode_m < 1:
            raise ValueError(f"case3 mode numbers must be >= 1, got {mode_m}, {mode_n}")
        pi = np.pi
        shape = lambda x, y: np.sin(pi * mode_n * x) * np.sin(pi * mode_m * y)
        gain = pi**2 * (mode_n**2 + mode_m**2 - omega**2)
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
        u0=case.u0, grad_u0=(case.u0x, case.u0y), u1=case.u1, f=case.f, exact=case,
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


def compute_errors(sol: SlabSolution, case: ManufacturedCase) -> ErrorBundle:
    """Evaluate all error norms of a slab solution for a manufactured case.

    Slabs of one degree are scored together in one pass, in chunks whose
    samples at the "gauss" and "equispaced" point sets together stay under
    `slabsolver.STACK_BUDGET`, each exact callable once per chunk.  The
    space kernel evaluates values and gradients of a chunk's p + 1 temporal
    modes (`SlabSolution.modes`) once; the samples at both point sets follow
    on the Gauss grid through one stacked `leg` and `(2 / tau) dleg` table,
    Gauss rows first.  Their misfits split into the Gauss columns, summed
    with the rule's weights, and the equispaced columns, maximized.
    """
    space, grid = sol.space, sol.grid

    def misfit_sq(exact, t, approx):
        # per time sample, the squared L2 norm of exact(t) - approx, shaped
        # as t, (S, k) for k samples on each of S slabs
        err = space.grid_eval(exact, t.ravel())
        err -= approx.reshape(err.shape)
        return space.integrate(np.square(err, out=err)).reshape(t.shape)

    sq_h1 = sq_dl2 = 0.0
    sq_w1inf = sq_h1_max = sq_l2 = 0.0
    for p, chunk in _chunks(space, grid, range(grid.n_intervals), "gauss", "equispaced"):
        xg, wq, leg_g, dleg_g = reference_blocks(p)["gauss"]
        xe, _, leg_e, dleg_e = reference_blocks(p)["equispaced"]
        ng = len(xg)
        tau = grid.nodes[chunk + 1] - grid.nodes[chunk]
        t = _sample_times(grid, chunk, np.concatenate((xg, xe)))
        leg = np.vstack((leg_g, leg_e))
        dt_leg = (2.0 / tau)[:, None, None] * np.vstack((dleg_g, dleg_e))
        # values and gradients of the chunk's modes on the Gauss grid, each
        # of shape (S, p + 1, ngx * ngy); samples are basis @ modes
        modes = sol.modes(chunk)
        flat = modes.reshape(-1, space.n_dofs)
        vals, gx, gy = (v.reshape(modes.shape[:2] + (-1,))
                        for v in (space.eval_gauss(flat), *space.eval_grad_gauss(flat)))
        h1 = misfit_sq(case.ux, t, leg @ gx) + misfit_sq(case.uy, t, leg @ gy)
        dl2 = misfit_sq(case.du, t, dt_leg @ vals)
        weights = (0.5 * tau[:, None] * wq).ravel()
        sq_h1 += float(weights @ h1[:, :ng].ravel())
        sq_dl2 += float(weights @ dl2[:, :ng].ravel())
        sq_h1_max = max(sq_h1_max, float(np.max(h1[:, ng:])))
        sq_w1inf = max(sq_w1inf, float(np.max(dl2[:, ng:])))
        sq_l2 = max(sq_l2, float(np.max(misfit_sq(case.u, t[:, ng:], leg_e @ vals))))

    jumps = sol.jumps
    jump_sq = float(np.sum(space.m_inner(jumps, jumps)))
    return ErrorBundle(
        max_W1inf_L2=float(np.sqrt(sq_w1inf)),
        max_Linf_H1=float(np.sqrt(sq_h1_max)),
        L2_H1=float(np.sqrt(sq_h1)),
        H1deriv_L2L2=float(np.sqrt(sq_dl2)),
        Linf_L2=float(np.sqrt(sq_l2)),
        jump=float(np.sqrt(jump_sq)),
    )


def rate(values, steps) -> np.ndarray:
    """Observed convergence orders between consecutive refinement levels."""
    values = np.asarray(values, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if len(values) < 2 or len(values) != len(steps):
        raise ValueError(
            f"need matching lists of length >= 2, got {len(values)} and {len(steps)}"
        )
    if np.any(values <= 0.0) or np.any(steps <= 0.0):
        raise ValueError("values and steps must be strictly positive")
    return np.log(values[:-1] / values[1:]) / np.log(steps[:-1] / steps[1:])
