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
default COLAMD ordering.  No two of its columns share a sparsity pattern,
so the factorization runs with one-column panels and no relaxed
supernodes: the same factors bit for bit as the default panels, in
3.6 ms against 8.8 ms at that size and with a quarter of the work memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

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


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Partition of (0, T] with a temporal degree per interval.

    Grids compare and hash by identity: `slab_keys()` compares two grids
    slab by slab, and `np.array_equal` compares their `nodes` and
    `degrees`.
    """

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

    All callables are vectorized over numpy arrays.  The initial
    displacement u0 enters through its gradient `grad_u0`, a pair of
    callables (du0/dx, du0/dy) of (x, y), from which the march takes its
    projection in the Dirichlet inner product
    (`TensorSpace.elliptic_project`) and the stability check its H1
    seminorm; `u1`, the initial velocity, takes (x, y).  `f` takes (t, x, y)
    and must broadcast over an array t of shape (nt, 1, 1) against x and y
    of shapes (nx, 1) and (1, ny): the time samples of a run of slabs of
    one degree (see `STACK_BUDGET`) are evaluated in one call.  `exact` may
    hold a manufactured solution for error studies.

    The callables run inside the passes that sample them (`march`,
    `stability_check`, `estimator.estimate`, `estimator.quadrature_check`,
    `errors.compute_errors`), with NumPy's ufunc buffer at `UFUNC_BUFFER`
    values; the caller's size is set back when the pass returns or raises.
    Buffering only moves values, so their elementwise results, like the
    package's own float64 results, have the same bits at any buffer size.

    `singular_load` declares that f has limited smoothness at t = 0 (a
    fractional power of t, say).  The slab touching t = 0 then takes its
    load from the "graded_load" rule of `reference_blocks`; a single
    fixed-order Gauss rule there would cap the convergence rate of the
    whole march at the quadrature's own algebraic rate.

    The data are frozen: `march` and the readers of the forcing tables
    (`_forcing_rows`) reuse values computed for a problem only for the same
    data object (`SlabSolution.data`), so its fields must not change.
    """

    grad_u0: tuple  # (du0/dx, du0/dy)
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

# Values in NumPy's ufunc buffer while the pipeline runs (`_short_buffer`).
# A product (nt, 1, 1) x (ngx, ngy), as a time-dependent callable forms on
# the Gauss grid, goes through the buffer when its rows of ngx * ngy values
# are shorter than about a third of it.  At NumPy's default of 8 192, with
# numpy 2.4 on a 2-vCPU Xeon VM, rows of 400 to 2 704 values cost 1.0-1.9
# ns per value; at 1 024 they cost 0.25-0.55 ns, as rows of 3 136 values or
# more do at either size (0.27-0.41 ns).  Buffering only moves values, so
# every result keeps its bits.
UFUNC_BUFFER = 1024


def _short_buffer(fn):
    """Run `fn` with a ufunc buffer of `UFUNC_BUFFER` values, then the caller's.

    The size is set inside `np.errstate()`, which scopes it on numpy 2, and
    set back explicitly, since numpy 1 keeps it outside that state.
    """

    @wraps(fn)
    def wrapped(*args, **kwargs):
        with np.errstate():
            old = np.setbufsize(UFUNC_BUFFER)
            try:
                return fn(*args, **kwargs)
            finally:
                np.setbufsize(old)

    return wrapped


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


def _forcing_rows(data: ProblemData, sol: SlabSolution, m: int, points: str = "gauss"):
    """Forcing terms (`_forcing_terms`) of slabs 0..m of `sol`, shape (2, m + 1).

    This is the one reader and writer of the solution's forcing tables
    `osc_l1` and `f_sq`.  When `data` is the problem `sol` solved
    (`SlabSolution.data`) and `points` is "gauss", the known rows are read
    there and the others computed and written there, so that neither of
    their readers (`estimator.osc_terms`, `stability_check`) samples these
    slabs again; otherwise every row is computed and nothing is stored.  f
    is sampled at the point set `points` of `reference_blocks`, a run of
    slabs at a time (`_runs`).
    """
    grid, space = sol.grid, sol.space
    own = data is sol.data and points == "gauss"
    out = np.stack((sol.osc_l1[:m + 1], sol.f_sq[:m + 1])) if own else np.full((2, m + 1), np.nan)
    missing = np.flatnonzero(np.isnan(out).any(axis=0))
    for p, run in _runs(grid, missing, _sample_cost(space, points)):
        x = reference_blocks(p)[points][0]
        samples = space.grid_eval(data.f, _sample_times(grid, run, x).ravel())
        tau = grid.nodes[run + 1] - grid.nodes[run]
        out[:, run] = _forcing_terms(space, samples, p, tau, points)
    if own:
        sol.osc_l1[missing], sol.f_sq[missing] = out[:, missing]
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
    thetas = np.stack([theta for theta, _ in rule])
    moments = 0.0
    for start in range(0, len(rule), per_call):
        panels = rule[start:start + per_call]
        times = a + tau * thetas[start:start + per_call, None]  # (panels, S, nq)
        samples = space.grid_eval(data.f, times.ravel()).reshape((len(panels), -1) + grid_shape)
        for j, (_, weights) in enumerate(panels):
            moments = moments + weights @ samples[j].reshape(len(a), nq, -1)
    forcing = (_forcing_terms(space, samples[0], p, tau[:, 0]) if len(rule) == 1
               else np.full((2, len(a)), np.nan))
    del samples
    values = (tau[:, :, None] * moments).reshape((-1,) + grid_shape)
    return space.load_vector(values).reshape((len(a), p, space.n_dofs)), forcing


def _slab_loads(data: ProblemData, space: TensorSpace, grid: TimeGrid,
                known: dict, values: np.ndarray) -> np.ndarray:
    """Write slabs' load moments, in eigen-coordinates, into their rows of `values`.

    `values` is the march's array of nodal rows (see `march`).  Slab n's
    solve overwrites its rows starts[n] + 1 .. starts[n + 1], where starts
    holds the cumulative degrees; until then they hold its p_n load rows,
    in eigen-coordinates.  `known` maps each slab to be loaded, in
    ascending order, to its load from the last march, which is copied in,
    or to None (see `march`).  The None slabs are assembled: the first
    slab of a singular load by the graded rule on its own, every other one
    by the one-panel Gauss rule, a run of slabs (`_runs`) at a time (that
    panel is the "gauss" point set), checked for finiteness once per run.

    Returns the forcing terms of `_load`, shape (2, N): those of every slab
    assembled by the Gauss rule, NaN for the others.
    """
    starts = np.concatenate(([0], np.cumsum(grid.degrees)))
    forcing = np.full((2, grid.n_intervals), np.nan)
    for n, load in known.items():
        if load is not None:
            values[starts[n] + 1:starts[n + 1] + 1] = load
    missing = np.array([n for n, load in known.items() if load is None], dtype=int)
    jobs = []
    if data.singular_load and len(missing) and missing[0] == 0:
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
        values[starts[run, None] + np.arange(1, moments.shape[1] + 1)] = moments
    return forcing


@dataclass(frozen=True, eq=False)
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
    `u1h` are made read-only at construction, so the derivative jumps stay
    in step with them.  Its passes take the jumps a run and a chunk at a
    time (`_jump_rows`), so none holds an N x n_dofs table of them.
    Solutions compare and hash by identity.

    Every solution carries its per-slab values from construction, NaN
    until known, as attributes that are not fields (`dataclasses.replace`
    gives the copy tables of its own): `lap` (N, 2), the broken-Laplacian
    norms of each slab's top mode and jump (`_fill_laplacians`, read by
    `estimator.laplacian_norms`), `osc_l1` (N,), the time L1 norm of each
    slab's forcing defect (`estimator.osc_terms`), `f_sq` (N,), each slab's
    squared time L2 norm of the forcing (`stability_check`), both read and
    filled by `_forcing_rows` alone, `energy` (N,), each slab's energy, the
    max of |u'|^2 + |u|_H1^2 at its 2 p + 3 equispaced times (`_energies`,
    `stability_check`), `partials` (N, 5), each slab's five error partials
    for `data.exact` (`errors.compute_errors`), and a private column of the
    squared jump norms (`jump_sq`), which `_fill_laplacians` fills too
    wherever it derives a jump.  Their readers take the known rows and
    fill in the others in place, so a second read computes nothing.  The
    march fills `osc_l1` and `f_sq` from its load's samples and `energy`
    from its solves; a reader that samples a slab's forcing fills both of
    its forcing terms.  A march given the last march's records (`kept`)
    seeds the rest from the last solution (see `march`).
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
        for name, shape in (("lap", (count, 2)), ("osc_l1", count), ("f_sq", count),
                            ("energy", count), ("partials", (count, 5)), ("_jump_sq", count)):
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

    def _jump_rows(self, first: int, stop: int, size: int):
        """Derivative jumps of slabs first..stop-1, in chunks of at most `size` rows.

        Yields (a, b, rows) for the slabs a..b-1 of each chunk, in order,
        rows of shape (b - a, n_dofs): a view of one buffer, which the next
        chunk overwrites.  Row n is the one-sided time derivative of slab n
        at t_n minus that of slab n - 1; for n = 0 the prescribed projected
        velocity acts as the incoming derivative.  A chunk's slabs go
        through the march's runs of one degree (`_runs`): one product per
        run gives every left and every right derivative, each row is the
        same one subtraction whatever the runs and chunks, and each run
        hands its last right derivative to the next.  For first > 0, slab
        first - 1 gives it from a product of its own.
        """
        grid, d = self.grid, self.space.n_dofs
        scale = (2.0 / np.diff(grid.nodes))[:, None]

        def derivatives(p, a, b):
            # left and right derivatives of slabs a..b-1, of degree p; a run
            # of one slab reads its block in place
            ref = reference_blocks(p)
            stack = np.stack(self.blocks[a:b]) if b - a > 1 else self.blocks[a][None]
            return (scale[a:b] * (ref["dphi_left"] @ stack),
                    scale[a:b] * (ref["dphi_right"] @ stack))

        incoming = (self.u1h if first == 0
                    else derivatives(int(grid.degrees[first - 1]), first - 1, first)[1][0])
        chunk = np.empty((min(size, stop - first), d))
        for start in range(first, stop, size):
            end = min(start + size, stop)
            for p, slabs in _runs(grid, range(start, end), lambda p: (2 * p + 2) * d):
                a, b = int(slabs[0]), int(slabs[-1]) + 1
                rows, right = derivatives(p, a, b)
                rows[0] -= incoming
                rows[1:] -= right[:-1]
                incoming = right[-1]
                chunk[a - start:b - start] = rows
            yield start, end, chunk[:end - start]

    def _fill_laplacians(self, stop: int) -> None:
        """Fill the unknown rows of `lap` among slabs 0..stop-1, and their jump norms.

        This is the one writer of `lap`.  Its unknown rows go through
        `_jump_rows` in chunks of at most `STACK_BUDGET` Gauss-grid values,
        at least one slab each, whatever their degrees.  Each chunk writes
        its Laplacian norms and the squared norms of its jumps that
        `jump_sq` does not know yet, so each of these jumps is derived
        once.  The known rows of `lap` and of the squared jump norms are
        thus each a prefix, and that of `lap` is never the longer.  A
        chunk's top modes take one product per stretch of one degree, which
        gives each slab the bits of its own product; every row of either
        table has the bits of one product of all of them.
        """
        lap, squares, space = self.lap, self._jump_sq, self.space
        # the known rows of either table are a prefix
        start = stop - int(np.count_nonzero(np.isnan(lap[:stop, 0])))
        if start == stop:
            return
        known = len(squares) - int(np.count_nonzero(np.isnan(squares)))
        size = max(1, STACK_BUDGET // (space.gauss_x.size * space.gauss_y.size))
        for a, b, jumps in self._jump_rows(start, stop, size):
            # the chunk's stretches of one degree, uncut: it is within the budget
            tops = np.concatenate([nodal_to_modal(p)[p] @ np.stack(self.blocks[run[0]:run[-1] + 1])
                                   for p, run in _runs(self.grid, range(a, b), lambda p: 0)])
            lap[a:b, 0] = space.l2_norm(space.eval_laplacian_gauss(tops))
            lap[a:b, 1] = space.l2_norm(space.eval_laplacian_gauss(jumps))
            unknown = jumps[max(known - a, 0):]
            if len(unknown):
                squares[b - len(unknown):b] = space.m_inner(unknown, unknown)

    @property
    def jump_sq(self) -> np.ndarray:
        """Squared mass norms of the derivative jumps, shape (N,), read-only.

        The same array on every read: the estimator's eta1, the error norms'
        jump term and the stability check's jump sum all read it.  The
        unknown rows are a suffix (a resumed march knows those of its copied
        slabs, and `_fill_laplacians` fills a prefix), filled on first read
        from `_jump_rows` in chunks of at most `STACK_BUDGET // n_dofs`
        rows, one `m_inner` per chunk; a row has the bits of one product of
        all of them.
        """
        if np.isnan(self._jump_sq[-1]):
            start = int(np.argmax(np.isnan(self._jump_sq)))
            size = max(1, STACK_BUDGET // max(self.space.n_dofs, 1))
            for a, b, rows in self._jump_rows(start, len(self._jump_sq), size):
                self._jump_sq[a:b] = self.space.m_inner(rows, rows)
        return self._jump_sq_view


@dataclass
class SlabRecord:
    """What a march keeps of one slab for the next march (see `march`).

    The dict a caller passes to its marches maps each slab's key
    (p, t_n, t_{n+1}) (`TimeGrid.slab_keys`) to its record.  `load` is
    the slab's read-only load moments in eigen-coordinates, shape
    (p, n_dofs), which depend only on the data, the space and the key: an
    array of the record's own, never a view of a solution's rows, which
    held the load until the slab's solve overwrote them; `end` is the
    eigen-coordinate derivative and value, shape
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


def _energies(coords: np.ndarray, s: np.ndarray, p: int, tau: np.ndarray) -> np.ndarray:
    """Energies of S slabs of degree p from their modal eigen-coordinates, shape (S,).

    `coords` has shape (S, 2 p + 2, d) and holds in its first p + 1 rows
    the eigen-coordinates E of a slab's temporal modes (see
    `TensorSpace.eigen_coords`); s holds the d stiffness eigenvalues and
    `tau` the slab lengths.  The last p + 1 rows are overwritten with E s,
    and one product of all 2 p + 2 rows with E^T gives the mass and
    stiffness Grams G_M = E E^T and G_K = (E s) E^T.  A slab's energy is
    the max over the "equispaced" points x of `reference_blocks(p)` of
    (2 / tau)^2 dleg(x) G_M dleg(x)^T + leg(x) G_K leg(x)^T, clipped at 0:
    its squared L2 velocity plus squared H1 seminorm at 2 p + 3 times.
    """
    k = p + 1
    np.multiply(coords[:, :k], s, out=coords[:, k:])
    products = coords @ coords[:, :k].swapaxes(-1, -2)  # G_M over G_K, per slab
    gram_m, gram_k = products.reshape(-1, 2, k, k).swapaxes(0, 1)
    _, _, leg, dleg = reference_blocks(p)["equispaced"]
    energy = (2.0 / tau[:, None]) ** 2 * np.sum((dleg @ gram_m) * dleg, axis=-1)
    energy += np.sum((leg @ gram_k) * leg, axis=-1)
    return np.maximum(np.max(energy, axis=1), 0.0)


def _carry_values(sol: SlabSolution, last: SlabSolution, keys: list, resumed: int) -> None:
    """Seed the per-slab values of `sol` with those `last` knows.

    The copied slabs keep their Laplacian norms, energies, error partials
    and squared jump norms, and every slab whose key `last` has keeps its
    forcing terms (`osc_l1`, `f_sq`), which depend only on f, the space
    and the key.
    """
    for name in ("lap", "energy", "partials", "_jump_sq"):
        getattr(sol, name)[:resumed] = getattr(last, name)[:resumed]
    known = dict(zip(last.grid.slab_keys(), zip(last.osc_l1, last.f_sq)))
    for n, key in enumerate(keys):
        if key in known:
            sol.osc_l1[n], sol.f_sq[n] = known[key]


@_short_buffer
def march(data: ProblemData, space: TensorSpace, grid: TimeGrid, *,
          kept: dict | None = None) -> SlabSolution:
    """Solve the wave problem slab by slab over the whole grid.

    The initial displacement is projected in the Dirichlet inner product,
    from its gradient (`TensorSpace.elliptic_project`), and the initial
    velocity in L2 (`TensorSpace.l2_project`).  The load of every slab it
    solves is formed before the sequential solves, a run of slabs of one
    degree at a time, checked for finiteness and written, in
    eigen-coordinates, into the slab's rows of the march's array of nodal
    rows, the rows its solve then overwrites (`_slab_loads`): the loads
    take no array of their own.  The factorized slab operator is reused
    whenever the degree repeats and the length agrees to 12 significant
    digits, so slabs of a uniform or bisected grid share it.  Once the
    loads are in the rows, each key the space lacks is factorized from the
    first slab in grid order that the march solves with it, before the run
    buffers below are made, so the factorization's work memory and those
    buffers are never held at once.  The factorizations are kept on
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
    load rows and the previous slab's end derivative and value, the solve, and
    the slab's own end derivative.  It writes the slab's nodal
    eigen-coordinates into the run's buffer, whose rows the slabs share at
    their junctions as their nodal rows do.  Each run then takes three
    stacked steps: one return through V into the march's array of nodal
    rows (`blocks[n]` is a view of its p_n + 1 rows, sharing the junction
    rows with its neighbours), one finiteness check, which names the first
    slab with a non-finite value, and the energies of its slabs
    (`_energies`) from their modal eigen-coordinates
    E = nodal_to_modal(p) @ (nodal eigen-coordinates).  Each of these has a
    slab's bits in any run.

    The march hands on what it computed on the way (see `SlabSolution`):
    the forcing terms `osc_l1` and `f_sq` of every slab its Gauss rule
    loads, from that load's samples, and the energy of every slab it
    solves, so the estimator and the stability check neither sample f
    there nor take eigen-coordinates again.

    `kept` is the one way to reuse work between marches: a dict of
    `SlabRecord` that the caller passes to each of them, as `run_adaptive`
    does.  A march reuses nothing from it unless the last march given it
    solved the same `data` object on the same `space`.  Then a solved slab
    whose key is there takes its load from it, copied into its rows, so
    only the others are assembled (slab 0 of a singular load by the graded
    rule, as always).  If the
    grid starts with slabs of the last march, at the same indices and from
    the same projected initial data, bit for bit, their rows are copied
    and the solves start at the first slab that differs, from the end
    state the last march kept for the slab before it.  That is the
    computation the last march made: a slab's rows depend only on its key,
    load, factorization and incoming state, and a load depends only on f,
    the space and the key, with the same bits whichever run of slabs it
    is assembled with.  So the solution has the bits a march without
    `kept` computes.  Its other per-slab values are seeded from the last
    solution: the copied slabs' Laplacian norms, energies, error partials
    and squared jump norms, and the forcing terms of every slab whose key
    the dict holds; the rest are unknown.  The dict is then left holding
    exactly this grid's records: a known load stays its record's array,
    and a new one is a read-only copy taken from the rows before the solve
    overwrites them, so no record shares memory with the solution.
    Without `kept`, nothing is kept.

    Raises FloatingPointError at the first non-finite value, naming the
    projected initial displacement or velocity, or the slab and the stage
    ("load" or "solve").
    """
    u0h = space.elliptic_project(*data.grad_u0)
    _check_finite(u0h, "projected initial displacement")
    u1h = space.l2_project(data.u1)
    _check_finite(u1h, "projected initial velocity")
    d, s = space.n_dofs, space.stiffness_eigs
    keys = grid.slab_keys()
    last = next(iter(kept.values())).solution if kept else None
    if last is not None and (last.data is not data or last.space is not space):
        last = None
    records = [None if last is None else kept.get(key) for key in keys]
    resumed = 0 if last is None else _resumable(last, keys, u0h, u1h)
    # nodal rows of the march: row 0 is u0h, slab n fills rows
    # starts[n] + 1 .. starts[n + 1] and reads row starts[n] as its first
    # node; until its solve, a solved slab's rows hold its load
    starts = np.concatenate(([0], np.cumsum(grid.degrees)))
    values = np.empty((starts[-1] + 1, d))
    values[0] = u0h
    for n in range(resumed):
        values[starts[n] + 1:starts[n + 1] + 1] = last.blocks[n][1:]
    forcing = _slab_loads(data, space, grid, {
        n: None if records[n] is None else records[n].load
        for n in range(resumed, grid.n_intervals)}, values)
    loads = []  # the records' loads: a new one is copied out before its solve
    for n, record in enumerate(records if kept is not None else ()):
        load = (record.load if record is not None
                else values[starts[n] + 1:starts[n + 1] + 1].copy())
        load.flags.writeable = False
        loads.append(load)
    taus = np.diff(grid.nodes)
    lu_keys = [(int(p), f"{tau:.11e}") for p, tau in zip(grid.degrees, taus.tolist())]
    factors = space.slab_lu
    for key in set(factors) - set(lu_keys):
        del factors[key]
    # every missing key from its first solved slab in grid order, before
    # the run buffers below exist: no two columns share a pattern, so
    # supernodal panels have nothing to group, and one-column panels give
    # the same factors bit for bit, at d = 7 921, p = 3 in 3.6 ms against
    # 8.8 ms with +2.6 MB of work memory against +9.5 MB, and at
    # d = 128 881 in 69 against 189 ms, +36 against +148 MB (2-core x86-64
    # VM, one BLAS thread)
    for n in range(resumed, grid.n_intervals):
        key = lu_keys[n]
        if key not in factors:
            factors[key] = spla.splu(slab_operator(int(grid.degrees[n]), float(taus[n]), s),
                                     permc_spec="NATURAL", panel_size=1, relax=1)
    ends = [record.end for record in records[:resumed]]
    history = np.empty((3, d))  # V^T of M u', M u and K u at the slab's left end
    # previous slab's end derivative and value, in eigen-coordinates
    history[0], value = ends[-1] if resumed else space.eigen_coords(np.stack((u1h, u0h)))
    energy = np.full(grid.n_intervals, np.nan)
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
            nodal = run[j * p:(j + 1) * p + 1]

            history[1] = nodal[0]
            np.multiply(s, nodal[0], out=history[2])
            rhs = weights[j] @ history
            rhs += values[starts[n] + 1:starts[n + 1] + 1]
            nodal[1:] = factors[lu_keys[n]].solve(rhs.ravel()).reshape(p, d) if d else 0.0
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
        energy[first:stop] = _energies(coords, s, p, tau)

    blocks = [values[a:b + 1] for a, b in zip(starts[:-1], starts[1:])]
    sol = SlabSolution(grid=grid, space=space, blocks=blocks, u1h=u1h, data=data)
    sol.energy[:], sol.osc_l1[:], sol.f_sq[:] = energy, *forcing
    if last is not None:
        _carry_values(sol, last, keys, resumed)
    if kept is not None:
        kept.clear()
        kept.update((key, SlabRecord(load=load, end=end, solution=sol))
                    for key, load, end in zip(keys, loads, ends))
    return sol


@dataclass(frozen=True, eq=False)
class StabilityReport:
    satisfied: bool
    lhs: float
    rhs: float
    m: int
    slab_energy: np.ndarray


@_short_buffer
def stability_check(sol: SlabSolution, data: ProblemData) -> StabilityReport:
    """Evaluate the unconditional stability bound on a computed solution.

    The left side weights the worst slab energy by its degree-dependent
    factor and adds the accumulated squared derivative jumps; the right side
    holds the data norms.  The flag reports plain lhs <= rhs.

    A slab's energy is the max over the slab of squared L2 velocity plus
    squared H1 seminorm, sampled at 2p + 3 equispaced times, endpoints
    included (`_energies`).  The energies are the solution's table
    `SlabSolution.energy`, which the march fills from its solves; the
    unknown rows (a solution the march did not build) are computed and
    written there from `TensorSpace.eigen_coords` of `SlabSolution.modes`.
    The report's `slab_energy` is a copy of that table.

    The forcing enters through each slab's 0.5 tau sum_q w_q |f(t_q)|^2 on
    the "gauss" points, row 1 of `_forcing_rows`: for the problem `sol`
    solved these are the rows of `SlabSolution.f_sq`, which the march fills
    from its load's samples.  The initial data enter through
    `TensorSpace.h1_semi_norm` of the gradient of u0 and
    `TensorSpace.l2_norm` of u1, sampled on each call.
    """
    space, grid = sol.space, sol.grid
    energies = sol.energy
    for p, slabs in _runs(grid, np.flatnonzero(np.isnan(energies)),
                          lambda p: (p + 1) * space.n_dofs):
        coords = np.empty((len(slabs), 2 * p + 2, space.n_dofs))
        coords[:, :p + 1] = space.eigen_coords(sol.modes(slabs))
        tau = grid.nodes[slabs + 1] - grid.nodes[slabs]
        energies[slabs] = _energies(coords, space.stiffness_eigs, p, tau)
    m = int(np.argmax(energies))
    p_m = int(grid.degrees[m])
    mu = mu_n(p_m)
    t_m = grid.nodes[m + 1]

    lhs = mu * energies[m] + 0.25 * float(np.sum(sol.jump_sq[: m + 1]))

    gx, gy = data.grad_u0
    h1_u0 = space.h1_semi_norm(space.grid_eval(gx), space.grid_eval(gy))
    l2_u1 = space.l2_norm(space.grid_eval(data.u1))
    f_sq = _forcing_rows(data, sol, m)[1]
    rhs = 0.5 * (h1_u0**2 + l2_u1**2) + (t_m / mu) * float(np.sum(f_sq))

    return StabilityReport(
        satisfied=bool(lhs <= rhs), lhs=float(lhs), rhs=float(rhs),
        m=m, slab_energy=energies.copy(),
    )
