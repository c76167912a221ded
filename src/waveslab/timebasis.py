"""Polynomial tools on time intervals.

Everything in this module lives on a single interval (a, b].  Polynomials are
stored as Legendre modal coefficients with respect to the reference interval
[-1, 1]; the affine map between the two is handled internally.  The module
provides Gauss quadrature, nodal/modal conversion, the temporal projectors
used by the solver and the estimator (L2 projection, derivative-matching H1
projection, right-endpoint Thomee projection and its integrated variant), and
the explicit constants that enter the a posteriori bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import legendre as npleg

from ._numbers import number, number_array

# The degree, order and interval arguments follow the rule of `_numbers`.
# The cached helpers check theirs inside the cached body, so a cache hit
# costs nothing, and `typed=True` keeps True from hitting the entry of 1.
# The per-slab constants (`c3_constant`, `mu_n`, ...) take their degree from
# a validated `TimeGrid` and are not checked again, as they are called once
# per slab.

# The highest order `gauss_legendre` takes.  numpy's `leggauss` solves for
# its ceil((order + 1) / 2) nodes through a dense companion matrix of that
# size: at order 1 000, 501 nodes, that is 2 MB and under 0.1 s, while an
# order of 10**5 would ask for 20 GB.  The package uses at most order 46
# ("gauss_doubled" at p = 10, `slabsolver.MAX_TIME_DEGREE`).
MAX_QUADRATURE_ORDER = 1000


def _degree(degree, least: int = 0, what: str = "the polynomial degree") -> int:
    degree = number(degree, what, integer=True)
    if degree < least:
        raise ValueError(f"{what} must be >= {least}, got {degree}")
    return degree


def _interval(interval) -> tuple[float, float]:
    """`interval` as (a, b), two numbers with a < b, or ValueError."""
    bounds = number_array(interval, "the interval")
    if bounds.shape != (2,) or not bounds[0] < bounds[1]:
        raise ValueError(f"the interval must be (a, b) with a < b, got {interval!r}")
    return float(bounds[0]), float(bounds[1])


@lru_cache(maxsize=None, typed=True)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1] exact for polynomials of `order`.

    The node count is the smallest n with 2n - 1 >= order.  Rules are
    cached per order and returned as read-only arrays shared by all callers.

    Args:
        order: polynomial degree the rule must integrate exactly, in
            [0, MAX_QUADRATURE_ORDER].

    Returns:
        (nodes, weights) as float arrays of equal length.
    """
    order = number(order, "the quadrature order", integer=True)
    if not 0 <= order <= MAX_QUADRATURE_ORDER:
        raise ValueError(
            f"the quadrature order must lie in [0, {MAX_QUADRATURE_ORDER}], got {order}")
    n = max(1, -(-(order + 1) // 2))
    nodes, weights = npleg.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def legendre_eval(degree: int, x) -> np.ndarray:
    """Evaluate the Legendre polynomial of the given degree at x."""
    degree = _degree(degree)
    coeff = np.zeros(degree + 1)
    coeff[degree] = 1.0
    return npleg.legval(x, coeff)


def to_reference(t, interval) -> np.ndarray:
    a, b = interval
    return (2.0 * np.asarray(t) - a - b) / (b - a)


def from_reference(x, interval) -> np.ndarray:
    a, b = interval
    return 0.5 * (a + b) + 0.5 * (b - a) * np.asarray(x)


@lru_cache(maxsize=None, typed=True)
def equispaced_nodes(degree: int) -> np.ndarray:
    """Equispaced nodal points on [-1, 1], endpoints included."""
    degree = _degree(degree)
    nodes = np.linspace(-1.0, 1.0, degree + 1)
    nodes.flags.writeable = False
    return nodes


@lru_cache(maxsize=None, typed=True)
def nodal_to_modal(degree: int) -> np.ndarray:
    """Matrix taking values at the equispaced nodes to Legendre modes.

    Column j holds the modal coefficients of the Lagrange basis polynomial
    attached to node j.
    """
    degree = _degree(degree)
    vander = npleg.legvander(equispaced_nodes(degree), degree)
    mat = np.linalg.inv(vander)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class IntervalPoly:
    """Polynomial (scalar or vector valued) on an interval.

    `modes` has shape (degree + 1,) or (degree + 1, d); row k is the
    coefficient of the Legendre polynomial L_k pulled back to the interval,
    two numbers a < b.
    """

    interval: tuple[float, float]
    modes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "interval", _interval(self.interval))

    @property
    def degree(self) -> int:
        return self.modes.shape[0] - 1

    @property
    def length(self) -> float:
        return self.interval[1] - self.interval[0]

    @classmethod
    def from_nodal(cls, interval, values) -> "IntervalPoly":
        """Build from values at the equispaced nodes of the interval."""
        values = np.asarray(values, dtype=float)
        return cls(interval, nodal_to_modal(values.shape[0] - 1) @ values)

    def eval(self, t):
        """Evaluate at time t (scalar or array).

        Vector-valued polynomials return shape (d,) for scalar t and
        (len(t), d) for array t.
        """
        x = to_reference(t, self.interval)
        out = npleg.legval(x, self.modes)
        if self.modes.ndim == 2 and np.ndim(x) > 0:
            out = out.T
        return out

    def derivative(self, m: int = 1) -> "IntervalPoly":
        m = _degree(m, what="the derivative order")
        if self.degree - m < 0:
            shape = (1,) if self.modes.ndim == 1 else (1, self.modes.shape[1])
            return IntervalPoly(self.interval, np.zeros(shape))
        dmodes = npleg.legder(self.modes, m=m, scl=2.0 / self.length, axis=0)
        return IntervalPoly(self.interval, dmodes)

    def deriv(self, t, m: int = 1):
        return self.derivative(m).eval(t)

    def truncated(self, degree: int) -> "IntervalPoly":
        """L2 projection onto the given lower (or equal) degree.

        Dropping trailing Legendre modes is exactly the L2 projection.
        """
        degree = _degree(degree)
        if degree >= self.degree:
            return self
        return IntervalPoly(self.interval, self.modes[: degree + 1].copy())

    def l2_norm_sq(self, norm_sq: Callable[[np.ndarray], float] | None = None) -> float:
        """Integral over the interval of the squared coefficient norm.

        `norm_sq` maps one coefficient row to a squared spatial norm; the
        default is the squared Euclidean norm.  Exact via orthogonality of
        the Legendre modes.
        """
        weights = 2.0 / (2.0 * np.arange(self.degree + 1) + 1.0)
        if norm_sq is None:
            if self.modes.ndim == 1:
                per_mode = self.modes**2
            else:
                per_mode = np.sum(self.modes**2, axis=1)
        else:
            rows = self.modes if self.modes.ndim == 2 else self.modes[:, None]
            per_mode = np.array([norm_sq(row) for row in rows])
        return 0.5 * self.length * float(weights @ per_mode)


def _sample(w: Callable[[float], np.ndarray], times: np.ndarray) -> np.ndarray:
    return np.array([np.asarray(w(float(t)), dtype=float) for t in times])


def project_L2(
    w: Callable, degree: int, interval, quad_order: int | None = None
) -> IntervalPoly:
    """L2-orthogonal projection of w onto polynomials of the given degree.

    Args:
        w: callable of time, scalar or vector valued.
        degree: target polynomial degree (>= 0).
        interval: (a, b) with b > a.
        quad_order: quadrature exactness, default 2 * degree + 3.

    Returns:
        IntervalPoly of the given degree.
    """
    degree, interval = _degree(degree), _interval(interval)
    xq, wq = gauss_legendre(quad_order if quad_order is not None else 2 * degree + 3)
    vals = _sample(w, from_reference(xq, interval))
    vander = npleg.legvander(xq, degree)
    scale = 0.5 * (2.0 * np.arange(degree + 1) + 1.0)
    modes = scale[:, None] * (vander.T @ (wq[:, None] * vals.reshape(len(xq), -1)))
    if vals.ndim == 1:
        modes = modes[:, 0]
    return IntervalPoly(interval, modes)


def project_H1(
    w: Callable, dw: Callable, degree: int, interval, quad_order: int | None = None
) -> IntervalPoly:
    """Projection matching the left value and L2-projecting the derivative.

    The result r satisfies r' = (L2 projection of w' onto degree - 1) and
    r(a) = w(a); both conditions determine r uniquely.  The derivative is
    supplied analytically by the caller as `dw`.
    """
    degree, (a, b) = _degree(degree, 1), _interval(interval)
    dproj = project_L2(dw, degree - 1, (a, b), quad_order=quad_order)
    modes = npleg.legint(dproj.modes, scl=0.5 * (b - a), axis=0)
    left = np.asarray(w(a), dtype=float)
    modes[0] += left - npleg.legval(-1.0, modes)
    return IntervalPoly((a, b), modes)


def thomee_project(
    w: Callable, degree: int, interval, quad_order: int | None = None
) -> IntervalPoly:
    """Projection orthogonal to degree - 1 that interpolates the right endpoint.

    Equals the L2 projection plus the endpoint defect carried by the top
    Legendre mode.
    """
    degree = _degree(degree, 1)
    proj = project_L2(w, degree, interval, quad_order=quad_order)
    b = proj.interval[1]
    defect = np.asarray(w(b), dtype=float) - proj.eval(b)
    modes = proj.modes.copy()
    modes[degree] += defect
    return IntervalPoly(proj.interval, modes)


def integrated_thomee(
    w: Callable, dw: Callable, degree: int, interval, quad_order: int | None = None
) -> IntervalPoly:
    """Antiderivative of the Thomee projection of w', anchored at the left.

    The result P satisfies P(a) = w(a), P(b) = w(b), P'(b) = w'(b) and, for
    degree >= 3, orthogonality of w - P to polynomials of degree - 3.
    """
    degree, (a, b) = _degree(degree, 2), _interval(interval)
    dproj = thomee_project(dw, degree - 1, (a, b), quad_order=quad_order)
    modes = npleg.legint(dproj.modes, scl=0.5 * (b - a), axis=0)
    left = np.asarray(w(a), dtype=float)
    modes[0] += left - npleg.legval(-1.0, modes)
    return IntervalPoly((a, b), modes)


@lru_cache(maxsize=None, typed=True)
def reconstruction_constants(p: int) -> tuple[float, float, float]:
    """Constants (c1^2, c2^2, c3) attached to temporal degree p >= 2.

    c1 and c2 scale the derivative and value gaps between a slab solution
    and its lifted reconstruction in terms of the derivative jump; c3 enters
    the weighted bound for the top temporal mode.  Cached per degree: the
    estimator asks for them once per degree of a grid.
    """
    if p < 2:
        raise ValueError(f"reconstruction constants need p >= 2, got {p}")
    c1_sq = p / ((2.0 * p - 1.0) * (2.0 * p + 1.0))
    if p == 2:
        c2_sq = 2.0 / (15.0 * np.pi**2)
    else:
        c2_sq = 0.25 * p / ((p - 2.0) * (p - 1.0) * (2.0 * p - 1.0) * (2.0 * p + 1.0))
    return c1_sq, c2_sq, c3_constant(p)


def c3_constant(p: int) -> float:
    if p < 0:
        raise ValueError(f"c3 needs p >= 0, got {p}")
    if p <= 2:
        return float(np.sqrt(np.pi))
    return 1.0 / (p - 2.0)


def c4_constant(p: int, t_m: float, t_prev, tau_n):
    """Weight multiplying the derivative-jump term away from the target slab.

    For p = 2 it grows with the distance from the slab's left endpoint to
    the target time t_m; for p >= 3 it is the c3 constant at p - 3.
    `t_prev` and `tau_n` may be arrays over slabs of degree p, giving the
    weight of each (elementwise, with a scalar's bits).

    The distance factor is capped at sqrt(pi): without the cap a sustained
    sequence of jumps makes the summed weight grow quadratically in the
    horizon t_m, while the quantity it bounds accumulates only linearly.
    The cap is inactive on horizons shorter than sqrt(pi).
    """
    if p < 2:
        raise ValueError(f"c4 needs p >= 2, got {p}")
    if p == 2:
        dist = np.minimum(np.abs(t_m - t_prev), float(np.sqrt(np.pi)))
        return float(np.pi) * dist / tau_n
    return c3_constant(p - 3)


def mu_n(p: int) -> float:
    """Stability weight 1 / (1024 p^2 (2p + 1)) for temporal degree p >= 2."""
    if p < 2:
        raise ValueError(f"stability weight needs p >= 2, got {p}")
    return 1.0 / (1024.0 * p * p * (2.0 * p + 1.0))
