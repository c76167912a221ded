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
the modal sense and well conditioned for degrees up to ten, the most a
`TimeGrid` takes (`MAX_TIME_DEGREE`).

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
from .spacefem import TensorSpace, _sqrt_pos
from .timebasis import IntervalPoly, gauss_legendre, mu_n, nodal_to_modal


# The most intervals a uniform grid can have: its n + 1 nodes must be an
# array numpy can index.
MAX_INTERVALS = int(np.iinfo(np.intp).max) - 1

# The highest temporal degree, up to which the method is well conditioned:
# on case1 (`TensorSpace(5, 5, 2)`, 5 slabs) Linf_L2 is 1.8e-12 at degree
# 10, 4.1e-9 at 20 and 2.3e-6 at 30, as the condition number of
# `nodal_to_modal` grows from 41 to 1.4e4 and 7.8e6.
MAX_TIME_DEGREE = 10


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
        if np.any((degrees < 2) | (degrees > MAX_TIME_DEGREE)):
            raise ValueError(f"temporal degrees must lie in [2, {MAX_TIME_DEGREE}]")

    @classmethod
    def uniform(cls, T: float, n: int, degree: int) -> "TimeGrid":
        """n equal intervals of (0, T]; n may be an integer-valued float."""
        T, n = number(T, "T"), number(n, "the interval count", integer=True)
        if T <= 0 or n < 1:
            raise ValueError(f"need T > 0 and n >= 1, got T={T}, n={n}")
        if n > MAX_INTERVALS:
            raise ValueError(f"the interval count must be at most {MAX_INTERVALS}, got {n}")
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

        Adaptive runs keep what they know of a slab under this key across
        iterations (`SlabRecord`).
        """
        return list(zip(self.degrees.tolist(), self.nodes[:-1].tolist(), self.nodes[1:].tolist()))


@dataclass(frozen=True)
class ProblemData:
    """Wave equation data on (-1, 1)^2 with homogeneous Dirichlet walls.

    All callables are vectorized over numpy arrays.  `f` takes (t, x, y)
    and must broadcast over an array t of shape (nt, 1, 1) against x and y
    of shapes (nx, 1) and (1, ny): the time samples of a run of slabs of
    one degree (see `STACK_BUDGET`) are evaluated in one call.  `exact` may
    hold a manufactured solution for error studies.

    `singular_load` declares that f has limited smoothness at t = 0 (a
    fractional power of t, say).  The slab touching t = 0 then takes its
    load from the "graded_load" rule of `reference_blocks`; a single
    fixed-order Gauss rule there would cap the convergence rate of the
    whole march at the quadrature's own algebraic rate.

    The data are frozen: `march`, `estimator.osc_terms` and
    `stability_check` reuse values computed for a problem only for the same
    data object (`SlabSolution.data`), so its fields must not change.
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


@lru_cache(maxsize=None)
def _defect_projector(p: int, points: str) -> np.ndarray:
    """I minus the temporal L2 projection onto degree p - 1, shape (nq, nq), read-only.

    It maps samples of a function at the nq points of the point set
    `points` of `reference_blocks(p)` to the samples of its defect against
    that projection, taken with the set's own weights.
    """
    x, w, leg, _ = reference_blocks(p)[points]
    vander = leg[:, :p]  # (nq, p)
    scale = 0.5 * (2.0 * np.arange(p) + 1.0)
    out = np.eye(len(x)) - vander @ (scale[:, None] * (vander * w[:, None]).T)
    out.flags.writeable = False
    return out


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


# Values per stacked array in the batched passes over slabs.  Every pass
# sends the slabs through in runs (`_runs`): stretches of one degree whose
# stacked values, `cost(p)` per slab, fit in this budget, or a single slab.
# The loads, error norms and oscillation stack samples on the Gauss grid
# (`_sample_cost`), the stability check a slab's p + 1 modes, and the
# march and the jumps its 2 p + 2 Gram rows.  On the d = 81 acceptance-
# study levels (1 400 slabs, p = 2 to 10) budgets from 2**14 to 2**20 ran
# within noise of each other, while peak memory rose from 77 MB at 2**16
# to 86 MB at 2**18 and 109 MB at 2**20.
STACK_BUDGET = 1 << 16


def _runs(grid: TimeGrid, slabs, cost):
    """The runs of `slabs`: (p, indices) per stretch of one degree p.

    `slabs` is an ascending array of slab indices and `cost(p)` the number
    of values a slab of degree p adds to a stack.  A run is a stretch of
    consecutive entries of `slabs` of one degree p, with at most
    `STACK_BUDGET // cost(p)` slabs and always at least one.
    """
    slabs = np.asarray(slabs, dtype=int)
    if not len(slabs):
        return
    degrees = grid.degrees[slabs]
    # the first entry of each stretch of one degree, and the end
    edges = [0, *(np.flatnonzero(degrees[1:] != degrees[:-1]) + 1).tolist(), len(slabs)]
    for a, b in zip(edges[:-1], edges[1:]):
        p = int(degrees[a])
        size = max(1, STACK_BUDGET // max(cost(p), 1))
        for first in range(a, b, size):
            yield p, slabs[first:min(first + size, b)]


def _sample_cost(space: TensorSpace, *points: str):
    """A run's `cost` of stacking samples on the Gauss grid at the point sets
    `points` of `reference_blocks`, all of them together."""
    values = space.gauss_x.size * space.gauss_y.size
    return lambda p: values * sum(len(reference_blocks(p)[name][0]) for name in points)


def _sample_times(grid: TimeGrid, slabs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Times of the reference points x on each of the slabs, shape (S, len(x))."""
    a = grid.nodes[slabs][:, None]
    return a + 0.5 * (grid.nodes[slabs + 1][:, None] - a) * (x + 1.0)


def _forcing_terms(space: TensorSpace, samples: np.ndarray, p: int, tau: np.ndarray,
                   points: str = "gauss") -> np.ndarray:
    """Forcing terms of S slabs of degree p from samples of f, shape (2, S).

    `samples` has shape (S * nq, ngx, ngy): f on the Gauss grid at the nq
    times of the point set `points` of `reference_blocks(p)` on each slab,
    slab-major; `tau` holds the slab lengths.  Row 0 is the time L1 norm of
    the defect of f against its temporal L2 projection onto degree p - 1,
    taken per spatial quadrature point (`SlabSolution.osc_l1`), and row 1
    the squared time L2 norm 0.5 tau sum_q w_q |f(t_q)|^2
    (`SlabSolution.f_sq`).  Each slab's terms are summed on its own row, so
    they have the same bits in any stack.  The samples are overwritten.
    """
    x, w, _, _ = reference_blocks(p)[points]
    defect = _defect_projector(p, points) @ samples.reshape(len(tau), len(x), -1)
    # squared in place, so that no third array of the samples' size is made
    norms = _sqrt_pos(space.integrate(np.square(defect, out=defect).reshape(samples.shape)))
    squares = space.integrate(np.square(samples, out=samples))
    rows = np.stack((norms, squares)).reshape(2, len(tau), len(x))
    return 0.5 * tau * np.sum(rows * w, axis=2)


def _forcing_rows(data: ProblemData, sol: SlabSolution, slabs, points: str = "gauss"):
    """Forcing terms (`_forcing_terms`) of `slabs` of `sol`, shape (2, N), NaN elsewhere.

    f is sampled at the point set `points` of `reference_blocks`, a run
    of slabs at a time (`_runs`).  When `data` is the problem `sol` solved
    (`SlabSolution.data`) and `points` is "gauss", both rows are also
    written to the solution's tables `osc_l1` and `f_sq`, so that neither
    of their readers (`estimator.osc_terms`, `stability_check`) samples
    these slabs again.
    """
    grid, space = sol.grid, sol.space
    out = np.full((2, grid.n_intervals), np.nan)
    for p, run in _runs(grid, slabs, _sample_cost(space, points)):
        x = reference_blocks(p)[points][0]
        samples = space.grid_eval(data.f, _sample_times(grid, run, x).ravel())
        tau = grid.nodes[run + 1] - grid.nodes[run]
        out[:, run] = _forcing_terms(space, samples, p, tau, points)
    if data is sol.data and points == "gauss":
        sol.osc_l1[slabs], sol.f_sq[slabs] = out[:, slabs]
    return out


def _load(data: ProblemData, space: TensorSpace, a: np.ndarray, tau: np.ndarray, rule):
    """Load moments (f, psi_k phi_i) on S slabs (a, a + tau) of one degree by a load rule.

    `a` and `tau` are arrays over the slabs.  Returns the moments, shape
    (S, p, n_dofs), and the slabs' forcing terms, shape (2, S): those
    `_forcing_terms` takes from the samples of a one-panel rule, whose
    panel is the "gauss" point set (the times are bitwise those of
    `_sample_times`), and NaN for another rule.  Time moments of f are
    formed on the Gauss grid and summed one panel at a time, in rule
    order; one call of f samples as many panels for all slabs as
    `STACK_BUDGET` holds, at least one, so a slab's moments have the same
    bits under any budget.  One load_vector call assembles them all.
    """
    a, tau = a[:, None], tau[:, None]
    grid_shape = (space.gauss_x.size, space.gauss_y.size)
    p, nq = rule[0][1].shape  # test functions, points per panel
    per_call = max(1, STACK_BUDGET // (len(a) * nq * grid_shape[0] * grid_shape[1]))
    moments = 0.0
    for start in range(0, len(rule), per_call):
        panels = rule[start:start + per_call]
        times = np.stack([a + tau * theta for theta, _ in panels])  # (panels, S, nq)
        samples = space.grid_eval(data.f, times.ravel()).reshape((len(panels), -1) + grid_shape)
        for j, (_, weights) in enumerate(panels):
            moments = moments + weights @ samples[j].reshape(len(a), nq, -1)
    forcing = (_forcing_terms(space, samples[0], p, tau[:, 0]) if len(rule) == 1
               else np.full((2, len(a)), np.nan))
    del samples
    values = (tau[:, :, None] * moments).reshape((-1,) + grid_shape)
    return space.load_vector(values).reshape((len(a), p, space.n_dofs)), forcing


def _slab_loads(data: ProblemData, space: TensorSpace, grid: TimeGrid,
                known: list) -> tuple[list, np.ndarray]:
    """Load moments of every slab in the spatial eigenbasis, (p_n, n_dofs) each.

    `known` holds the last march's load or None per slab (see `march`);
    only the None slabs are assembled.  The first slab of a singular load
    takes the graded rule on its own; every other slab is loaded with the
    one-panel Gauss rule, a run of slabs (`_runs`) at a time (that panel
    is the "gauss" point set).  Each load is read-only, and checked for
    finiteness once per run.

    Returns the loads and the forcing terms of `_load`, shape (2, N):
    those of every slab assembled by the Gauss rule, NaN for the others.
    """
    loads = list(known)
    forcing = np.full((2, grid.n_intervals), np.nan)
    missing = np.array([n for n, load in enumerate(loads) if load is None], dtype=int)
    jobs = []
    if data.singular_load and loads[0] is None:
        jobs.append((reference_blocks(int(grid.degrees[0]))["graded_load"], missing[:1]))
        missing = missing[1:]
    jobs += [(reference_blocks(p)["gauss_load"], run)
             for p, run in _runs(grid, missing, _sample_cost(space, "gauss"))]
    for rule, run in jobs:
        a = grid.nodes[run]
        moments, forcing[:, run] = _load(data, space, a, grid.nodes[run + 1] - a, rule)
        moments = space.to_eigenbasis(moments)
        finite = np.isfinite(moments).all(axis=(1, 2))
        if not finite.all():
            raise FloatingPointError(
                f"non-finite values in the load of slab {run[np.argmin(finite)]}")
        moments.flags.writeable = False
        for n, slab_moments in zip(run, moments):
            loads[n] = slab_moments
    return loads, forcing


@dataclass(frozen=True)
class SlabSolution:
    """March result: nodal-in-time coefficient blocks, one per interval.

    blocks[n] has shape (p_n + 1, n_dofs); row k holds the spatial
    coefficients at the k-th equispaced time node of interval n.  The first
    row of block 0 is the projected initial value and consecutive blocks
    share their junction row; `u1h` is the projected initial velocity.  The
    error norms and the stability check read a run of intervals of one
    degree through `modes`, its Legendre coefficients in time.

    `data` is the problem the march solved.

    A solution is a finished value: `blocks` is a tuple, and the blocks and
    `u1h` are made read-only at construction, so `jumps`, computed on first
    use, stays in step with them.

    Every solution carries its per-slab values from construction, NaN
    until known, as attributes that are not fields (`dataclasses.replace`
    gives the copy tables of its own): `lap` (N, 2), the broken-Laplacian
    norms of each slab's top mode and jump (`estimator.laplacian_norms`),
    `osc_l1` (N,), the time L1 norm of each slab's forcing defect
    (`estimator.osc_terms`), `f_sq` (N,), each slab's squared time L2 norm
    of the forcing (`stability_check`), `grams` (N, 2, q, q) for the
    grid's highest degree q - 1, the Gram matrices E E^T and (E s) E^T of
    each slab's temporal modes in eigen-coordinates, in the top-left
    (p + 1) x (p + 1) corner (`stability_check`), `partials` (N, 5), each
    slab's five error partials for `data.exact` (`errors.compute_errors`),
    and a private column of the squared jump norms (`jump_sq`).  Their
    readers take the known rows and fill in the others in place, so a
    second read computes nothing.  The march fills `osc_l1` and `f_sq`
    from its load's samples and `grams` from its solves; a reader that
    samples a slab's forcing fills both of its forcing terms.  A march given
    the last march's records (`kept`) seeds the rest from the last
    solution (see `march`).
    """

    grid: TimeGrid
    space: TensorSpace
    blocks: tuple
    u1h: np.ndarray
    data: ProblemData | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for block in self.blocks:
            block.flags.writeable = False
        self.u1h.flags.writeable = False
        count = self.grid.n_intervals
        size = int(self.grid.degrees.max()) + 1
        for name, shape in (("lap", (count, 2)), ("osc_l1", count), ("f_sq", count),
                            ("grams", (count, 2, size, size)), ("partials", (count, 5)),
                            ("_jump_sq", count)):
            object.__setattr__(self, name, np.full(shape, np.nan))
        object.__setattr__(self, "_jump_sq_view", self._jump_sq.view())  # what jump_sq returns
        self._jump_sq_view.flags.writeable = False

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
        acts as the incoming derivative.  The intervals go through the
        march's runs of one degree (`_runs`): one product per run gives
        every left and every right derivative, and each row is the same
        one subtraction whatever the runs.  Computed once per solution and
        read-only: the estimator, error norms and stability check share it.
        """
        grid, d = self.grid, self.space.n_dofs
        out = np.empty((grid.n_intervals, d))
        scale = (2.0 / np.diff(grid.nodes))[:, None]
        incoming = self.u1h
        for p, slabs in _runs(grid, range(grid.n_intervals), lambda p: (2 * p + 2) * d):
            ref = reference_blocks(p)
            first, stop = int(slabs[0]), int(slabs[-1]) + 1
            # a run of one slab reads its block in place
            stack = (np.stack(self.blocks[first:stop]) if stop - first > 1
                     else self.blocks[first][None])
            out[first:stop] = scale[first:stop] * (ref["dphi_left"] @ stack)
            right = scale[first:stop] * (ref["dphi_right"] @ stack)
            out[first] -= incoming
            out[first + 1:stop] -= right[:-1]
            incoming = right[-1]
        out.flags.writeable = False
        return out

    @property
    def jump_sq(self) -> np.ndarray:
        """Squared mass norms of the rows of `jumps`, shape (N,), read-only.

        The same array on every read: the estimator's eta1, the error norms'
        jump term and the stability check's jump sum all read it.  The
        unknown rows are a suffix (a resumed march knows those of its copied
        slabs), filled on first read by one `m_inner` of those rows of
        `jumps`, a view, so a fresh solution takes one product of all of
        them, without a copy.
        """
        if np.isnan(self._jump_sq[-1]):
            start = int(np.argmax(np.isnan(self._jump_sq)))
            rows = self.jumps[start:]
            self._jump_sq[start:] = self.space.m_inner(rows, rows)
        return self._jump_sq_view


@dataclass
class SlabRecord:
    """What a march keeps of one slab for the next march (see `march`).

    The dict a caller passes to its marches maps each slab's key
    (p, t_n, t_{n+1}) (`TimeGrid.slab_keys`) to its record.  `load` is
    the slab's read-only load moments in
    eigen-coordinates, which depend only on the data, the space and the
    key; `end` is the eigen-coordinate derivative and value, shape
    (2, n_dofs), that the slab hands to the next one; `solution` is the
    march's result, which carries the slab's other values (see
    `SlabSolution`).  The march leaves the dict holding exactly its own
    grid's records.
    """

    load: np.ndarray
    end: np.ndarray
    solution: SlabSolution


def _check_finite(values: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"non-finite values in the {where}")


def _resumable(last: SlabSolution, keys: list, u0h: np.ndarray, u1h: np.ndarray) -> int:
    """Length of the prefix of slabs a march can copy from the last solution.

    That is the number of leading slabs whose keys are those of `last` at
    the same indices, or zero unless the projected initial data are
    those of `last`, bit for bit.
    """
    if not (np.array_equal(last.blocks[0][0], u0h) and np.array_equal(last.u1h, u1h)):
        return 0
    count = 0
    for key, old in zip(keys, last.grid.slab_keys()):
        if key != old:
            break
        count += 1
    return count


def _grams(coords: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gram matrices E E^T and (E s) E^T of eigen-coordinate rows E, shape (..., 2, k, k).

    `coords` has shape (..., 2 k, d) and holds E in its first k rows; s
    holds the d stiffness eigenvalues.  The last k rows are overwritten
    with E s, and one product of all 2 k rows with E^T gives the mass and
    stiffness Grams of the k vectors behind E (see
    `TensorSpace.eigen_coords`).
    """
    k = coords.shape[-2] // 2
    np.multiply(coords[..., :k, :], s, out=coords[..., k:, :])
    grams = coords @ coords[..., :k, :].swapaxes(-1, -2)
    return grams.reshape(grams.shape[:-2] + (2, k, k))


def _carry_values(sol: SlabSolution, last: SlabSolution, keys: list, resumed: int) -> None:
    """Seed the per-slab values of `sol` with those `last` knows.

    The copied slabs keep their Laplacian norms, Grams, error partials and
    squared jump norms, and every slab whose key `last` has keeps its
    forcing terms (`osc_l1`, `f_sq`), which depend only on f, the space
    and the key.
    """
    for name in ("lap", "partials", "_jump_sq"):
        getattr(sol, name)[:resumed] = getattr(last, name)[:resumed]
    size = min(sol.grams.shape[-1], last.grams.shape[-1])  # a copied slab's corner fits
    sol.grams[:resumed, :, :size, :size] = last.grams[:resumed, :, :size, :size]
    known = dict(zip(last.grid.slab_keys(), zip(last.osc_l1, last.f_sq)))
    for n, key in enumerate(keys):
        if key in known:
            sol.osc_l1[n], sol.f_sq[n] = known[key]


def march(data: ProblemData, space: TensorSpace, grid: TimeGrid, *,
          kept: dict | None = None) -> SlabSolution:
    """Solve the wave problem slab by slab over the whole grid.

    The initial displacement is projected in the Dirichlet inner product and
    the initial velocity in L2.  Every slab's load is formed before the
    sequential solves, a run of slabs of one degree at a time, and checked
    for finiteness (`_slab_loads`).  The factorized slab operator is reused
    whenever the degree repeats and the length agrees to 12 significant
    digits, so slabs of a uniform or bisected grid share it.  The factorizations are kept on
    the space (`space.slab_lu`), so a later march on the same space reuses
    them too, as the nested grids of adaptive bisection do; each march
    first drops every kept factorization its own grid does not use, so at
    most one grid's distinct (degree, length) pairs stay factorized.

    The march runs in the eigenbasis V of `TensorSpace` (V^T M V = I,
    V^T K V = diag(s)): the loads and the previous slab's end values enter
    in its coordinates, where a slab's operator `slab_operator`,
    A' (x) I + B' (x) diag(s), couples each eigenmode only to itself in
    time.  It is factorized in its natural, time-major column order, which
    leaves p (p + 1) factor entries per mode, as a fill-reducing ordering
    does, and makes the solves several times cheaper.

    The slabs go through the march in runs (`_runs`): stretches of
    consecutive slabs of one degree p whose Gram rows, 2 p + 2 of n_dofs
    values per slab, stay under `STACK_BUDGET`, or a single slab.  Per slab
    the loop does only the sequential work: the right-hand side from the
    load and the previous slab's end derivative and value, the solve, and
    the slab's own end derivative.  It writes the slab's nodal
    eigen-coordinates into the run's buffer, whose rows the slabs share at
    their junctions as their nodal rows do.  Each run then takes three
    stacked steps: one return through V into the march's array of nodal
    rows (`blocks[n]` is a view of its p_n + 1 rows, sharing the junction
    rows with its neighbours), one finiteness check, which names the first
    slab with a non-finite value, and the Grams of its slabs from their
    modal eigen-coordinates E = nodal_to_modal(p) @ (nodal
    eigen-coordinates).  Each of these has a slab's bits in any run.

    The march hands on what it computed on the way (see `SlabSolution`):
    the forcing terms `osc_l1` and `f_sq` of every slab its Gauss rule
    loads, from that load's samples, and the Grams of every slab it
    solves, so the estimator and the stability check neither sample f nor
    take eigen-coordinates again.

    `kept` is the one way to reuse work between marches: a dict of
    `SlabRecord` that the caller passes to each of them, as `run_adaptive`
    does.  A march reuses nothing from it unless the last march given it
    solved the same `data` object on the same `space`.  Then a slab whose
    key is there takes its load from it, so only the others are assembled
    (slab 0 of a singular load by the graded rule, as always).  If the
    grid starts with slabs of the last march, at the same indices and from
    the same projected initial data, bit for bit, their rows are copied
    and the solves start at the first slab that differs, from the end
    state the last march kept for the slab before it.  That is the
    computation the last march made: a slab's rows depend only on its key,
    load, factorization and incoming state, and a load depends only on f,
    the space and the key, with the same bits whichever run of slabs it
    is assembled with.  So the solution has the bits a march without
    `kept` computes.  Its other per-slab values are seeded from the last
    solution: the copied slabs' Laplacian norms, Grams, error partials and
    squared jump norms, and the forcing terms of every slab whose key the
    dict holds; the rest are unknown.  The dict is then left holding
    exactly this grid's records.  Without `kept`, nothing is kept.

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
    keys = grid.slab_keys()
    last = next(iter(kept.values())).solution if kept else None
    if last is not None and (last.data is not data or last.space is not space):
        last = None
    records = [None if last is None else kept.get(key) for key in keys]
    slab_loads, forcing = _slab_loads(
        data, space, grid, [None if record is None else record.load for record in records])
    resumed = 0 if last is None else _resumable(last, keys, u0h, u1h)
    taus = np.diff(grid.nodes)
    lu_keys = [(int(p), f"{tau:.11e}") for p, tau in zip(grid.degrees, taus.tolist())]
    factors = space.slab_lu
    for key in set(factors) - set(lu_keys):
        del factors[key]
    # nodal rows of the march: row 0 is u0h, slab n fills rows
    # starts[n] + 1 .. starts[n + 1] and reads row starts[n] as its first node
    starts = np.concatenate(([0], np.cumsum(grid.degrees)))
    values = np.empty((starts[-1] + 1, d))
    values[0] = u0h
    for n in range(resumed):
        values[starts[n] + 1:starts[n + 1] + 1] = last.blocks[n][1:]
    ends = [record.end for record in records[:resumed]]
    history = np.empty((3, d))  # V^T of M u', M u and K u at the slab's left end
    # previous slab's end derivative and value, in eigen-coordinates
    history[0], value = ends[-1] if resumed else space.eigen_coords(np.stack((u1h, u0h)))
    size = int(grid.degrees.max()) + 1
    grams = np.full((grid.n_intervals, 2, size, size), np.nan)
    runs = list(_runs(grid, range(resumed, grid.n_intervals), lambda p: (2 * p + 2) * d))
    # a run's nodal eigen-coordinates, junction rows shared, and its Gram
    # rows: each slab's modal eigen-coordinates E, then E s
    run_rows = np.empty((max((len(slabs) * p + 1 for p, slabs in runs), default=0), d))
    gram_rows = np.empty((max((len(slabs) * (2 * p + 2) for p, slabs in runs), default=0), d))

    for p, slabs in runs:
        ref = reference_blocks(p)
        count, first, stop = len(slabs), int(slabs[0]), int(slabs[-1]) + 1
        run = run_rows[:count * p + 1]
        run[0] = value
        # per slab of the run: 2 / tau and its history weights, whose
        # columns scale by 1, 2 / tau and tau / 2 (`reference_blocks`)
        tau = taus[first:stop]
        inverse = 2.0 / tau
        weights = ref["history"] * np.stack((np.ones(count), inverse, 0.5 * tau), axis=1)[:, None]
        for j, n in enumerate(range(first, stop)):
            key = lu_keys[n]
            if key not in factors:
                factors[key] = spla.splu(slab_operator(p, float(tau[j]), s),
                                         permc_spec="NATURAL")
            nodal = run[j * p:(j + 1) * p + 1]

            history[1] = nodal[0]
            np.multiply(s, nodal[0], out=history[2])
            rhs = weights[j] @ history
            rhs += slab_loads[n]
            nodal[1:] = factors[key].solve(rhs.ravel()).reshape(p, d) if d else 0.0
            # the slab's end derivative, which the next slab takes in
            np.multiply(inverse[j], ref["dphi_right"] @ nodal, out=history[0])
            if kept is not None:
                ends.append(np.stack((history[0], nodal[-1])))
        value = run[-1]

        rows = values[starts[first] + 1:starts[stop] + 1]
        rows[:] = space.from_eigenbasis(run[1:])
        finite = np.isfinite(rows).reshape(count, -1).all(axis=1)
        if not finite.all():
            raise FloatingPointError(
                f"non-finite values in the solve of slab {first + int(np.argmin(finite))}")
        # each slab's p + 1 nodal rows, overlapping at the junctions
        windows = np.lib.stride_tricks.as_strided(
            run, (count, p + 1, d), (p * run.strides[0],) + run.strides, writeable=False)
        coords = gram_rows[:count * (2 * p + 2)].reshape(count, 2 * p + 2, d)
        np.matmul(nodal_to_modal(p), windows, out=coords[:, :p + 1])
        grams[first:stop, :, :p + 1, :p + 1] = _grams(coords, s)

    blocks = [values[a:b + 1] for a, b in zip(starts[:-1], starts[1:])]
    sol = SlabSolution(grid=grid, space=space, blocks=blocks, u1h=u1h, data=data)
    sol.grams[:], sol.osc_l1[:], sol.f_sq[:] = grams, *forcing
    if last is not None:
        _carry_values(sol, last, keys, resumed)
    if kept is not None:
        kept.clear()
        kept.update((key, SlabRecord(load=load, end=end, solution=sol))
                    for key, load, end in zip(keys, slab_loads, ends))
    return sol


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
    G_K = (E s) E^T of the eigen-coordinates E of the slab's p + 1 temporal
    modes.  They are the rows of the solution's table `SlabSolution.grams`,
    which the march fills from its solves; the unknown rows (a solution
    the march did not build) are computed and written there from
    `TensorSpace.eigen_coords` of `SlabSolution.modes`.

    The forcing enters through each slab's 0.5 tau sum_q w_q |f(t_q)|^2 on
    the "gauss" points.  When `data` is the problem `sol` solved
    (`SlabSolution.data`), these are the rows of `SlabSolution.f_sq`, which
    the march fills from its load's samples: the known ones are read and
    the others (slab 0 of a singular load) computed and written there, with
    their `SlabSolution.osc_l1` (`_forcing_rows`), so the estimator does
    not sample them again.
    """
    space, grid = sol.space, sol.grid
    grams = sol.grams
    missing = np.flatnonzero(np.isnan(grams[:, 0, 0, 0]))
    for p, slabs in _runs(grid, missing, lambda p: (p + 1) * space.n_dofs):
        coords = np.empty((len(slabs), 2 * p + 2, space.n_dofs))
        coords[:, :p + 1] = space.eigen_coords(sol.modes(slabs))
        grams[slabs, :, :p + 1, :p + 1] = _grams(coords, space.stiffness_eigs)
    energies = np.empty(grid.n_intervals)
    for p in np.unique(grid.degrees).tolist():
        slabs = np.flatnonzero(grid.degrees == p)
        _, _, leg, dleg = reference_blocks(p)["equispaced"]
        gram_m, gram_k = grams[slabs, :, :p + 1, :p + 1].swapaxes(0, 1)
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
    f_sq = sol.f_sq if data is sol.data else np.full(grid.n_intervals, np.nan)
    missing = np.flatnonzero(np.isnan(f_sq[:m + 1]))
    f_sq[missing] = _forcing_rows(data, sol, missing)[1, missing]
    rhs = 0.5 * (h1_u0**2 + l2_u1**2) + (t_m / mu) * float(np.sum(f_sq[:m + 1]))

    return StabilityReport(
        satisfied=bool(lhs <= rhs), lhs=float(lhs), rhs=float(rhs),
        m=m, slab_energy=energies,
    )
