"""Slab-by-slab solver for the second order wave equation.

The trial space is continuous in time and piecewise polynomial of degree
p >= 2 per slab; the test space per slab has one degree less, so each slab
yields a square system.  Upwinding enters through the jump of the time
derivative at the slab's left endpoint, which couples a slab to its
predecessor and makes the march sequential.

Within a slab the trial polynomial is stored by its values at equispaced
time nodes (left endpoint first), so continuity is enforced by fixing the
first node to the previous slab's end value.  Test functions are Legendre
polynomials mapped to the slab, which keeps the reference matrices sparse in
the modal sense and well conditioned for degrees up to ten.

The march solves in the spatial eigenbasis of `TensorSpace`, where a slab
is d decoupled p x p systems in time.  Their operator (`slab_operator`) is
written directly in compressed-column form and factorized by SuperLU in
its natural order, which keeps p (p + 1) factor entries per mode; at
d = 7 921, p = 3 one solve takes 0.57 ms, against 3.0 ms under SuperLU's
default COLAMD ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import legendre as npleg

from ._numbers import number, number_array
from .spacefem import TensorSpace
from .timebasis import IntervalPoly, gauss_legendre, mu_n, nodal_to_modal


@dataclass(frozen=True)
class TimeGrid:
    """Partition of (0, T] with a temporal degree per interval."""

    nodes: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        nodes = number_array(self.nodes, "grid nodes")
        degrees = number_array(self.degrees, "temporal degrees", integer=True)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "degrees", degrees)
        if len(nodes) < 2 or len(degrees) != len(nodes) - 1:
            raise ValueError("grid needs N+1 nodes and N degrees")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.any(degrees < 2):
            raise ValueError("temporal degree must be >= 2 on every interval")

    @classmethod
    def uniform(cls, T: float, n: int, degree: int) -> "TimeGrid":
        """n equal intervals of (0, T]; n may be an integer-valued float."""
        T, n = number(T, "T"), number(n, "the interval count", integer=True)
        if T <= 0 or n < 1:
            raise ValueError(f"need T > 0 and n >= 1, got T={T}, n={n}")
        return cls(np.linspace(0.0, T, n + 1), np.full(n, degree))

    @property
    def n_intervals(self) -> int:
        return len(self.nodes) - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    def interval(self, n: int) -> tuple[float, float]:
        return float(self.nodes[n]), float(self.nodes[n + 1])

    def tau(self, n: int) -> float:
        return float(self.nodes[n + 1] - self.nodes[n])

    def slab_keys(self) -> list:
        """(p, t_n, t_{n+1}) of every interval, degree and exact float end nodes.

        Adaptive runs keep a slab's load (`march`) and error partials
        (`errors.compute_errors`) under this key across iterations.
        """
        return list(zip(self.degrees.tolist(), self.nodes[:-1].tolist(), self.nodes[1:].tolist()))


@dataclass
class ProblemData:
    """Wave equation data on (-1, 1)^2 with homogeneous Dirichlet walls.

    All callables are vectorized over numpy arrays.  `f` takes (t, x, y)
    and must broadcast over an array t of shape (nt, 1, 1) against x and y
    of shapes (nx, 1) and (1, ny): the time samples of a chunk of slabs of
    one degree (see `STACK_BUDGET`) are evaluated in one call.  `exact` may
    hold a manufactured solution for error studies.

    `singular_load` declares that f has limited smoothness at t = 0 (a
    fractional power of t, say).  The slab touching t = 0 then takes its
    load from the "graded_load" rule of `reference_blocks`; a single
    fixed-order Gauss rule there would cap the convergence rate of the
    whole march at the quadrature's own algebraic rate.
    """

    u0: object
    grad_u0: object  # callable -> (du/dx, du/dy)
    u1: object
    f: object
    exact: object = None
    singular_load: bool = False


@lru_cache(maxsize=None)
def reference_blocks(p: int):
    """Reference-interval matrices and every temporal rule for trial degree p.

    Rows of `A0`/`B0` are indexed by the p Legendre test functions, columns
    by the p + 1 Lagrange trial nodes; integrals are exact through modal
    orthogonality.  Time quadrature is chosen here and nowhere else.

    Point sets "gauss" (order 2p + 3), "gauss_doubled" (order 4p + 6) and
    "equispaced" (2p + 3 points with both ends, no weights) are tuples
    `(x, w, leg, dleg)`: `leg`/`dleg` hold the Legendre polynomials up to
    degree p and their reference derivatives at x, rows being points.
    Sampling through the modes, `leg @ nodal_to_modal(p) @ block`, keeps
    pointwise Legendre round-off; a nodal derivative matrix loses a factor
    of about three at p = 10.

    Load rules "gauss_load" (one "gauss" panel) and "graded_load" (46 panels
    shrinking by 0.3 toward the left end, resolving a power singularity of f
    there to near machine precision) are tuples of panels `(theta, weights)`:
    points in theta = (t - a) / tau, which keeps samples near a precise, and
    the test functions times the quadrature weights, shape (p, len(theta)).

    `history` (p, 3) weighs the previous slab's end values M u', M u and
    K u in each test function's right-hand side; on a slab of length tau
    its columns scale by 1, 2 / tau and tau / 2 (the first columns of the
    coupling matrices of `time_matrices`).

    Every array is read-only: the tables are shared by every caller.
    """
    to_modal = nodal_to_modal(p)  # column j: modes of trial basis j
    mode_weights = 2.0 / (2.0 * np.arange(p) + 1.0)
    der2 = npleg.legder(to_modal, m=2, axis=0)
    A0 = np.zeros((p, p + 1))
    A0[: der2.shape[0], :] = der2
    A0 *= mode_weights[:, None]
    B0 = to_modal[:p, :] * mode_weights[:, None]
    dphi_left = npleg.legval(-1.0, npleg.legder(to_modal, axis=0))
    dphi_right = npleg.legval(1.0, npleg.legder(to_modal, axis=0))
    eye_der = npleg.legder(np.eye(p + 1), axis=0)
    psi_left = (-1.0) ** np.arange(p)
    A0_left = A0[:, 0] + psi_left * dphi_left[0]

    def point_set(x, w=None):
        return x, w, npleg.legvander(x, p), npleg.legval(x, eye_der).T

    def panel(lo, hi, x, w):
        theta = lo + 0.5 * (hi - lo) * (x + 1.0)
        psi = npleg.legvander(2.0 * theta - 1.0, p - 1).T  # (p, nq)
        return theta, (0.5 * (hi - lo)) * psi * w

    cuts = [0.0] + [0.3**k for k in range(45, 0, -1)] + [1.0]
    graded_rule = gauss_legendre(max(2 * p + 3, 23))
    tables = {
        "A0": A0, "B0": B0,
        "dphi_left": dphi_left, "dphi_right": dphi_right,
        "psi_left": psi_left,
        "history": np.column_stack((psi_left, -A0_left, -B0[:, 0])),
        "gauss": point_set(*gauss_legendre(2 * p + 3)),
        "gauss_doubled": point_set(*gauss_legendre(4 * p + 6)),
        "equispaced": point_set(np.linspace(-1.0, 1.0, 2 * p + 3)),
        "gauss_load": (panel(0.0, 1.0, *gauss_legendre(2 * p + 3)),),
        "graded_load": tuple(panel(lo, hi, *graded_rule)
                             for lo, hi in zip(cuts[:-1], cuts[1:])),
    }
    _freeze(tuple(tables.values()))
    return tables


def _freeze(item) -> None:
    if isinstance(item, np.ndarray):
        item.flags.writeable = False
    elif isinstance(item, tuple):
        for part in item:
            _freeze(part)


def time_matrices(p: int, tau: float):
    """Trial-by-test coupling matrices (A, B) on a slab of length tau."""
    ref = reference_blocks(p)
    A = (2.0 / tau) * (ref["A0"] + np.outer(ref["psi_left"], ref["dphi_left"]))
    B = (0.5 * tau) * ref["B0"]
    return A, B


def slab_operator(p: int, tau: float, s: np.ndarray) -> sp.csc_matrix:
    """The slab operator A' (x) I + B' (x) diag(s) in the spatial eigenbasis.

    A' and B' are the coupling matrices of `time_matrices` without their
    first (known) trial column, and s holds the d stiffness eigenvalues.
    Unknowns are time-major, row k d + i for test function k and mode i, so
    column j d + i holds A'[k, j] + B'[k, j] s[i] in the rows k d + i: the
    CSC arrays are written directly, p entries per column.
    """
    A, B = time_matrices(p, tau)
    d = len(s)
    data = (A[:, 1:, None] + B[:, 1:, None] * s).transpose(1, 2, 0)  # (j, i, k)
    rows = np.broadcast_to(np.arange(p) * d + np.arange(d)[:, None], (p, d, p))
    indptr = np.arange(0, p * p * d + 1, p)
    return sp.csc_matrix((data.ravel(), rows.ravel(), indptr), shape=(p * d, p * d))


# Gauss-grid values per stacked array in the batched passes over slabs: the
# loads, error norms, stability check and oscillation send the slabs of one
# degree through the space kernel together, in chunks of at most this many
# values (at least one slab each).  On the d = 81 acceptance-study levels
# (1 400 slabs, p = 2 to 10) budgets from 2**14 to 2**20 ran within noise of
# each other, while peak memory rose from 77 MB at 2**16 to 86 MB at 2**18
# and 109 MB at 2**20.
STACK_BUDGET = 1 << 16


def _chunks(space: TensorSpace, grid: TimeGrid, slabs, *points: str):
    """Slab indices grouped by degree and split to `STACK_BUDGET`.

    Yields (p, indices), the indices an ascending array of slabs of degree
    p whose samples at the point sets `points` of `reference_blocks`, all
    of them together, fill at most `STACK_BUDGET` Gauss-grid values, or a
    single slab.
    """
    slabs = np.asarray(slabs, dtype=int)
    degrees = grid.degrees[slabs]
    grid_values = space.gauss_x.size * space.gauss_y.size
    for p in np.unique(degrees):
        group = slabs[degrees == p]
        samples = sum(len(reference_blocks(int(p))[name][0]) for name in points)
        size = max(1, STACK_BUDGET // (samples * grid_values))
        for start in range(0, len(group), size):
            yield int(p), group[start:start + size]


def _sample_times(grid: TimeGrid, slabs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Times of the reference points x on each of the slabs, shape (S, len(x))."""
    a = grid.nodes[slabs][:, None]
    return a + 0.5 * (grid.nodes[slabs + 1][:, None] - a) * (x + 1.0)


def _load(data: ProblemData, space: TensorSpace, a, tau, rule):
    """Load moments (f, psi_k phi_i) on slabs (a, a + tau) by a load rule.

    `a` and `tau` are scalars, giving moments of shape (p, n_dofs), or
    arrays over S slabs of one degree, giving shape (S, p, n_dofs).  Time
    moments of f are formed on the Gauss grid one panel at a time, with one
    call of f for all slabs, which holds one panel's samples at once; one
    load_vector call assembles them all.
    """
    a, tau = np.asarray(a, dtype=float), np.asarray(tau, dtype=float)
    lead = a.shape
    a, tau = a.reshape(-1, 1), tau.reshape(-1, 1)
    moments = 0.0
    for theta, weights in rule:
        samples = space.grid_eval(data.f, (a + tau * theta).ravel())
        moments = moments + weights @ samples.reshape(len(a), len(theta), -1)
    values = (tau[:, :, None] * moments).reshape((-1,) + samples.shape[1:])
    return space.load_vector(values).reshape(lead + (len(weights), space.n_dofs))


def _slab_loads(data: ProblemData, space: TensorSpace, grid: TimeGrid,
                kept: dict | None = None) -> list:
    """Load moments of every slab in the spatial eigenbasis, (p_n, n_dofs) each.

    The first slab of a singular load takes the graded rule on its own;
    every other slab is loaded with the one-panel Gauss rule, a chunk of
    slabs of one degree at a time (that panel is the "gauss" point set).
    Each load is read-only.

    `kept` (see `march`) maps (p, t_n, t_{n+1}) to loads of earlier
    marches: the slabs found there are read, only the others are assembled,
    and `kept` is left holding exactly this grid's loads.
    """
    keys = grid.slab_keys()
    kept = {} if kept is None else kept
    loads = [kept.get(key) for key in keys]
    missing = np.array([n for n, load in enumerate(loads) if load is None], dtype=int)
    if data.singular_load and loads[0] is None:
        rule = reference_blocks(int(grid.degrees[0]))["graded_load"]
        loads[0] = space.to_eigenbasis(_load(data, space, grid.nodes[0], grid.tau(0), rule))
        missing = missing[1:]
    for p, chunk in _chunks(space, grid, missing, "gauss"):
        a = grid.nodes[chunk]
        moments = space.to_eigenbasis(_load(data, space, a, grid.nodes[chunk + 1] - a,
                                            reference_blocks(p)["gauss_load"]))
        for n, slab_moments in zip(chunk, moments):
            loads[n] = slab_moments
    kept.clear()
    for key, load in zip(keys, loads):
        load.flags.writeable = False
        kept[key] = load
    return loads


@dataclass(frozen=True)
class SlabSolution:
    """March result: nodal-in-time coefficient blocks, one per interval.

    blocks[n] has shape (p_n + 1, n_dofs); row k holds the spatial
    coefficients at the k-th equispaced time node of interval n.  The first
    row of block 0 is the projected initial value and consecutive blocks
    share their junction row; `u1h` is the projected initial velocity.  The
    error norms and the stability check read a chunk of intervals of one
    degree through `modes`, its Legendre coefficients in time.

    A solution is a finished value: `blocks` is a tuple, and the blocks and
    `u1h` are made read-only at construction, so `jumps`, computed on first
    use, stays in step with them.
    """

    grid: TimeGrid
    space: TensorSpace
    blocks: tuple
    u1h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        _freeze((self.blocks, self.u1h))

    def poly(self, n: int) -> IntervalPoly:
        return IntervalPoly.from_nodal(self.grid.interval(n), self.blocks[n])

    def modes(self, slabs) -> np.ndarray:
        """Legendre coefficients in time of intervals of one degree p.

        Returns shape (S, p + 1, n_dofs) for the S interval indices `slabs`:
        row k of interval s holds the spatial coefficients of its k-th
        Legendre mode in the reference variable.  With `leg`, `dleg` of a
        point set of `reference_blocks`, `leg @ modes[s]` are its values at
        those points and `(2 / tau_s) * dleg @ modes[s]` its time
        derivatives, so the space kernel runs on the p + 1 modes of a slab,
        not on each of its samples.
        """
        slabs = np.asarray(slabs, dtype=int)
        p = int(self.grid.degrees[slabs[0]])
        return nodal_to_modal(p) @ np.stack([self.blocks[n] for n in slabs])

    @cached_property
    def jumps(self) -> np.ndarray:
        """Derivative jumps at the left node of every interval, shape (N, n_dofs).

        Row n is the one-sided time derivative of interval n at t_n minus
        that of interval n - 1; for n = 0 the prescribed projected velocity
        acts as the incoming derivative.  Computed once per solution and
        read-only: the estimator, error norms and stability check share it.
        """
        out = np.empty((self.grid.n_intervals, self.space.n_dofs))
        incoming = self.u1h
        for n in range(self.grid.n_intervals):
            ref = reference_blocks(int(self.grid.degrees[n]))
            scale = 2.0 / self.grid.tau(n)
            out[n] = scale * (ref["dphi_left"] @ self.blocks[n]) - incoming
            incoming = scale * (ref["dphi_right"] @ self.blocks[n])
        out.flags.writeable = False
        return out

    @cached_property
    def jump_sq(self) -> np.ndarray:
        """Squared mass norms of the rows of `jumps`, shape (N,), read-only.

        Computed once per solution: the estimator's eta1, the error norms'
        jump term and the stability check's jump sum all read it.
        """
        out = self.space.m_inner(self.jumps, self.jumps)
        out.flags.writeable = False
        return out


def _check_finite(values: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"non-finite values in the {where}")


def march(data: ProblemData, space: TensorSpace, grid: TimeGrid, *,
          loads: dict | None = None) -> SlabSolution:
    """Solve the wave problem slab by slab over the whole grid.

    The initial displacement is projected in the Dirichlet inner product and
    the initial velocity in L2.  Every slab's load is formed before the
    sequential solves, a chunk of slabs of one degree at a time.  The
    factorized slab operator is reused whenever the degree repeats and the
    length agrees to 12 significant digits, so slabs of a uniform or
    bisected grid share it.  The factorizations are kept on the space
    (`space.slab_lu`), so a later march on the same space reuses them too,
    as the nested grids of adaptive bisection do; each march first drops
    every kept factorization its own grid does not use, so at most one
    grid's distinct (degree, length) pairs stay factorized.

    The march runs in the eigenbasis V of `TensorSpace` (V^T M V = I,
    V^T K V = diag(s)): the loads and the previous slab's end values enter
    in its coordinates, where a slab's operator `slab_operator`,
    A' (x) I + B' (x) diag(s), couples each eigenmode only to itself in
    time.  It is factorized in its natural, time-major column order, which
    leaves p (p + 1) factor entries per mode, as a fill-reducing ordering
    does, and makes the solves several times cheaper.  Each slab's
    coefficients return to the nodal basis through V, into one array of
    nodal rows for the whole march: `blocks[n]` is a view of its p_n + 1
    rows, sharing the junction rows with its neighbours.

    `loads`, a dict the caller keeps across marches of one `data` and
    `space`, keeps the slab loads between them.  It maps (p, t_n, t_{n+1}),
    a slab's degree and its exact float end nodes, to the slab's read-only
    load moments in eigen-coordinates, shape (p, n_dofs).  The march reads
    every slab it finds there, assembles only the others (slab 0 of a
    singular load by the graded rule, as always) and leaves the dict holding
    exactly its own grid's loads, the keys its grid does not use dropped.
    A load depends only on f, the space and (p, t_n, t_{n+1}), and each
    slab's moments come from the same operations whichever chunk of slabs
    it is assembled with, so a kept load has the bits a fresh march would
    compute.  `run_adaptive` passes one dict to all of its marches; without
    one, nothing is kept.  Either way, every slab's load is checked for
    finiteness on every march.

    Raises FloatingPointError at the first non-finite value, naming the
    projected initial displacement or velocity, or the slab and the stage
    ("load" or "solve").
    """
    gx, gy = data.grad_u0
    u0h = space.elliptic_project(gx, gy)
    _check_finite(u0h, "projected initial displacement")
    u1h = space.l2_project(data.u1)
    _check_finite(u1h, "projected initial velocity")
    d, s = space.n_dofs, space.stiffness_eigs
    slab_loads = _slab_loads(data, space, grid, loads)
    keys = [(int(p), f"{tau:.11e}") for p, tau in zip(grid.degrees, np.diff(grid.nodes))]
    factors = space.slab_lu
    for key in set(factors) - set(keys):
        del factors[key]
    # previous slab's end derivative and value, in eigen-coordinates
    deriv, value = space.eigen_coords(np.stack((u1h, u0h)))
    # nodal rows of the march: row 0 is u0h, slab n fills rows
    # starts[n] + 1 .. starts[n + 1] and reads row starts[n] as its first node
    starts = np.concatenate(([0], np.cumsum(grid.degrees)))
    values = np.empty((starts[-1] + 1, d))
    values[0] = u0h

    for n, key in enumerate(keys):
        p, tau = key[0], grid.tau(n)
        ref = reference_blocks(p)
        if key not in factors:
            factors[key] = spla.splu(slab_operator(p, tau, s), permc_spec="NATURAL")

        _check_finite(slab_loads[n], f"load of slab {n}")
        history = np.stack((deriv, value, s * value))  # V^T of M u', M u and K u
        rhs = slab_loads[n] + (ref["history"] * (1.0, 2.0 / tau, 0.5 * tau)) @ history

        modes = np.empty((p + 1, d))
        modes[0] = value
        modes[1:] = factors[key].solve(rhs.ravel()).reshape(p, d) if d else 0.0
        rows = values[starts[n] + 1:starts[n + 1] + 1]
        rows[:] = space.from_eigenbasis(modes[1:])
        _check_finite(rows, f"solve of slab {n}")

        deriv = (2.0 / tau) * (ref["dphi_right"] @ modes)
        value = modes[-1]

    blocks = [values[a:b + 1] for a, b in zip(starts[:-1], starts[1:])]
    return SlabSolution(grid=grid, space=space, blocks=blocks, u1h=u1h)


@dataclass(frozen=True)
class StabilityReport:
    satisfied: bool
    lhs: float
    rhs: float
    m: int
    slab_energy: np.ndarray


def stability_check(sol: SlabSolution, data: ProblemData) -> StabilityReport:
    """Evaluate the unconditional stability bound on a computed solution.

    The left side weights the worst slab energy by its degree-dependent
    factor and adds the accumulated squared derivative jumps; the right side
    holds the data norms.  The flag reports plain lhs <= rhs.

    A slab's energy is the max over the slab of squared L2 velocity plus
    squared H1 seminorm, sampled at 2p + 3 equispaced times, endpoints
    included.  At the reference point x it is (2 / tau)^2 dleg(x) G_M
    dleg(x)^T + leg(x) G_K leg(x)^T, with the Gram matrices G_M = E E^T and
    G_K = (E s) E^T of the eigen-coordinates E (`TensorSpace.eigen_coords`)
    of the slab's p + 1 temporal modes (`SlabSolution.modes`).
    """
    space, grid = sol.space, sol.grid
    energies = np.empty(grid.n_intervals)
    for p, slabs in _chunks(space, grid, range(grid.n_intervals), "equispaced"):
        _, _, leg, dleg = reference_blocks(p)["equispaced"]
        coords = space.eigen_coords(sol.modes(slabs))
        gram_m = coords @ coords.swapaxes(1, 2)
        gram_k = (coords * space.stiffness_eigs) @ coords.swapaxes(1, 2)
        tau = grid.nodes[slabs + 1] - grid.nodes[slabs]
        energy = (2.0 / tau[:, None]) ** 2 * np.sum((dleg @ gram_m) * dleg, axis=-1)
        energy += np.sum((leg @ gram_k) * leg, axis=-1)
        energies[slabs] = np.maximum(np.max(energy, axis=1), 0.0)
    m = int(np.argmax(energies))
    p_m = int(grid.degrees[m])
    mu = mu_n(p_m)
    t_m = grid.nodes[m + 1]

    lhs = mu * energies[m] + 0.25 * float(np.sum(sol.jump_sq[: m + 1]))

    gx, gy = data.grad_u0
    h1_u0 = space.h1_semi_norm(space.grid_eval(gx), space.grid_eval(gy))
    l2_u1 = space.l2_norm(space.grid_eval(data.u1))
    f_sq = 0.0
    for p, slabs in _chunks(space, grid, range(m + 1), "gauss"):
        x, w, _, _ = reference_blocks(p)["gauss"]
        tq = _sample_times(grid, slabs, x)
        weights = 0.5 * (grid.nodes[slabs + 1] - grid.nodes[slabs])[:, None] * w
        f_sq += float(weights.ravel() @ space.l2_norm(space.grid_eval(data.f, tq.ravel())) ** 2)
    rhs = 0.5 * (h1_u0**2 + l2_u1**2) + (t_m / mu) * f_sq

    return StabilityReport(
        satisfied=bool(lhs <= rhs), lhs=float(lhs), rhs=float(rhs),
        m=m, slab_energy=energies,
    )
