"""Tensor-product finite elements on a rectangle.

Continuous Lagrange elements of equal degree in x and y on a uniform
rectangular mesh, with homogeneous Dirichlet conditions eliminated from the
algebraic system.  The element degree is kept small (at most 5) and nodes are
equispaced within each element, so no special point distributions are needed.

All of it is built from the 1D basis and its first two derivatives at the
global Gauss points of each direction (rules exact to order 2 * degree + 3).
The 1D mass and stiffness matrices are their Gram matrices in the Gauss
weights.  The 1D generalized eigenbases of each direction give
V = Vx (x) Vy with V^T M V = I and V^T K V = diag(s) (fast
diagonalization), the one form in which M and K are used: the mass and
stiffness solves go through V, mass and stiffness products pair the
eigen-coordinates V^-1 u = V^T M u (`eigen_coords`), and the slab march
runs in them, where a slab splits into one small temporal system per
eigenmode.  No sparse matrix is assembled.  Values, gradients and broken
Laplacians at the Gauss points, load vectors and the changes of basis are
two 1D matrix products per term (sum factorization), each accepting a
leading axis of time samples so many slabs are handled in one call.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from numpy.polynomial import legendre as npleg

from ._numbers import number_array
from .timebasis import gauss_legendre, nodal_to_modal

MAX_DEGREE = 5

# Element sizes a space accepts.  The set-up forms squared inverse sizes
# (second derivatives, stiffness eigenvalues) times degree factors up to
# about 1e4, which these bounds keep far inside the float range.  Beyond
# them it breaks: a width of 2e308 overflows `np.linspace`, a size below
# about 1e-154 overflows `(2 / h) ** 2`, and sizes of 1e200 in both
# directions make every stiffness eigenvalue underflow to zero.
ELEMENT_SIZES = (1e-50, 1e50)


def _reference_basis(degree: int, points: np.ndarray):
    """Values and first two derivatives of the nodal basis at given points.

    Returns three arrays of shape (degree + 1, len(points)); row i belongs to
    the basis polynomial of node i on [-1, 1].
    """
    to_modal = nodal_to_modal(degree)
    vals = npleg.legval(points, to_modal)
    der = npleg.legval(points, npleg.legder(to_modal, axis=0))
    if degree >= 2:
        der2 = npleg.legval(points, npleg.legder(to_modal, m=2, axis=0))
    else:
        der2 = np.zeros_like(vals)
    return vals, der, der2


def _sqrt_pos(value):
    out = np.sqrt(np.maximum(value, 0.0))
    return float(out) if np.ndim(out) == 0 else out


class TensorSpace:
    """Q_p Lagrange space on a uniform nx-by-ny mesh of a rectangle.

    Parameters
    ----------
    nx, ny : int
        Number of elements per direction.
    degree : int
        Polynomial degree per direction, between 1 and 5.
    domain : ((x0, x1), (y0, y1))
        Bounding box with finite x0 < x1 and y0 < y1, default (-1, 1) squared,
        whose element sizes lie within `ELEMENT_SIZES`.
    """

    def __init__(self, nx: int, ny: int, degree: int, domain=((-1.0, 1.0), (-1.0, 1.0))):
        nx, ny, degree = number_array((nx, ny, degree), "nx, ny and degree", integer=True).tolist()
        (x0, x1), (y0, y1) = number_array(domain, "the domain bounds").tolist()
        if not (1 <= degree <= MAX_DEGREE):
            raise ValueError(f"spatial degree must be in [1, {MAX_DEGREE}], got {degree}")
        if nx < 1 or ny < 1:
            raise ValueError(f"need at least one element per direction, got {nx}x{ny}")
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"the domain needs x0 < x1 and y0 < y1, got {domain}")
        self.nx, self.ny, self.degree = nx, ny, degree
        self.domain = (x0, x1), (y0, y1)
        self.hx = (x1 - x0) / nx
        self.hy = (y1 - y0) / ny
        low, high = ELEMENT_SIZES
        if not (low <= self.hx <= high and low <= self.hy <= high):
            raise ValueError(f"element sizes must lie in [{low:g}, {high:g}], got "
                             f"{self.hx:g} by {self.hy:g} on the domain {domain}")

        p = degree
        self.nodes_x = np.linspace(x0, x1, nx * p + 1)
        self.nodes_y = np.linspace(y0, y1, ny * p + 1)
        self.n_int_x = nx * p - 1
        self.n_int_y = ny * p - 1

        xg, wg = gauss_legendre(2 * p + 3)
        self.ref_gauss, self.ref_weights = xg, wg
        self.basis_val, self.basis_der, self.basis_der2 = _reference_basis(p, xg)
        # global 1D Gauss points and weights, x index runs over (element, node)
        self.gauss_x = (
            x0 + 0.5 * self.hx * (2.0 * np.repeat(np.arange(nx), len(xg)) + np.tile(xg + 1.0, nx))
        )
        self.gauss_y = (
            y0 + 0.5 * self.hy * (2.0 * np.repeat(np.arange(ny), len(xg)) + np.tile(xg + 1.0, ny))
        )
        self.gauss_wx = np.tile(0.5 * self.hx * wg, nx)
        self.gauss_wy = np.tile(0.5 * self.hy * wg, ny)

        # basis, first and second derivative at the global Gauss points of each
        # direction (rows are points, columns nodes); the 1D mass and stiffness
        # on all nodes are their Gram matrices in the Gauss weights
        Ex, Dx, DDx = self._gauss_matrices(nx, self.hx)
        Ey, Dy, DDy = self._gauss_matrices(ny, self.hy)
        wx, wy = self.gauss_wx[:, None], self.gauss_wy[:, None]
        self.M1x, self.K1x = Ex.T @ (wx * Ex), Dx.T @ (wx * Dx)
        self.M1y, self.K1y = Ey.T @ (wy * Ey), Dy.T @ (wy * Dy)

        # interior dofs are a product of the per-direction interior ranges
        self.Ex, self.Dx, self.DDx = Ex[:, 1:-1], Dx[:, 1:-1], DDx[:, 1:-1]
        self.Ey, self.Dy, self.DDy = Ey[:, 1:-1], Dy[:, 1:-1], DDy[:, 1:-1]
        # M = Mix (x) Miy and K = Kix (x) Miy + Mix (x) Kiy on the interior
        # dofs; K1 V = M1 V diag(lam), V^T M1 V = I per direction, so with
        # V = Vx (x) Vy, V^T M V = I and V^T K V = diag(lam_x + lam_y),
        # flattened in the order of the dofs, and V^-1 = Vx^T Mix (x) Vy^T Miy
        Mix, Kix = self.M1x[1:-1, 1:-1], self.K1x[1:-1, 1:-1]
        Miy, Kiy = self.M1y[1:-1, 1:-1], self.K1y[1:-1, 1:-1]
        lam_x, self.Vx = sla.eigh(Kix, Mix)
        lam_y, self.Vy = sla.eigh(Kiy, Miy)
        self.Vx_inv, self.Vy_inv = self.Vx.T @ Mix, self.Vy.T @ Miy
        self.stiffness_eigs = (lam_x[:, None] + lam_y[None, :]).ravel()

        # slab factorizations by (p, tau key), kept across marches on this
        # space; only slabsolver.march fills and prunes it
        self.slab_lu: dict[tuple[int, str], object] = {}

    def _gauss_matrices(self, n_elem: int, h: float):
        p, ng = self.degree, len(self.ref_gauss)
        mats = []
        for basis, scale in ((self.basis_val, 1.0), (self.basis_der, 2.0 / h),
                             (self.basis_der2, (2.0 / h) ** 2)):
            full = np.zeros((n_elem * ng, n_elem * p + 1))
            for e in range(n_elem):
                full[e * ng:(e + 1) * ng, e * p:e * p + p + 1] = scale * basis.T
            mats.append(full)
        return mats

    @property
    def n_dofs(self) -> int:
        return self.n_int_x * self.n_int_y

    def zero(self) -> np.ndarray:
        return np.zeros(self.n_dofs)

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Interior coefficients to the full node grid, zero on the boundary."""
        full = np.zeros((len(self.nodes_x), len(self.nodes_y)))
        if self.n_dofs:
            full[1:-1, 1:-1] = np.asarray(vec).reshape(self.n_int_x, self.n_int_y)
        return full

    def grid_eval(self, f, t=None) -> np.ndarray:
        """Sample a callable on the global Gauss grid.

        Without `t`, f is called as f(x, y) and the result has shape
        (ngx, ngy).  With a 1D array of times, f is called once as
        f(t, x, y) with t of shape (nt, 1, 1) and the result has shape
        (nt, ngx, ngy).
        """
        shape = (len(self.gauss_x), len(self.gauss_y))
        X, Y = self.gauss_x[:, None], self.gauss_y[None, :]
        if t is None:
            vals = f(X, Y)
        else:
            t = np.asarray(t, dtype=float)
            shape = t.shape + shape
            vals = f(t[:, None, None], X, Y)
        vals = np.asarray(vals, dtype=float)
        if vals.shape != shape:
            vals = np.broadcast_to(vals, shape).copy()
        return vals

    # Evaluation and assembly below act on one coefficient vector of shape
    # (n_dofs,) or on a stack (nt, n_dofs), and on one Gauss-grid array of
    # shape (ngx, ngy) or a stack (nt, ngx, ngy).  Each is one 1D matrix
    # product per direction.

    def _eval(self, vec, bx, by):
        vec = np.asarray(vec, dtype=float)
        U = vec.reshape(vec.shape[:-1] + (self.n_int_x, self.n_int_y))
        return bx @ U @ by.T

    def _assemble(self, values, bx, by):
        load = (self.gauss_wx[:, None] * bx).T @ values @ (self.gauss_wy[:, None] * by)
        return load.reshape(load.shape[:-2] + (self.n_dofs,))

    def eval_gauss(self, vec: np.ndarray) -> np.ndarray:
        """Finite element function values on the global Gauss grid."""
        return self._eval(vec, self.Ex, self.Ey)

    def eval_grad_gauss(self, vec: np.ndarray):
        return self._eval(vec, self.Dx, self.Ey), self._eval(vec, self.Ex, self.Dy)

    def eval_laplacian_gauss(self, vec: np.ndarray) -> np.ndarray:
        """Elementwise second derivatives summed, on the global Gauss grid.

        This is the broken Laplacian: no continuity across element faces is
        implied or required.
        """
        return self._eval(vec, self.DDx, self.Ey) + self._eval(vec, self.Ex, self.DDy)

    def integrate(self, values: np.ndarray):
        """Integrate Gauss-grid values over the domain (one per time sample)."""
        out = self.gauss_wx @ values @ self.gauss_wy
        return float(out) if np.ndim(out) == 0 else out

    def l2_norm(self, values: np.ndarray):
        return _sqrt_pos(self.integrate(values * values))

    def h1_semi_norm(self, vx: np.ndarray, vy: np.ndarray):
        return _sqrt_pos(self.integrate(vx * vx + vy * vy))

    def load_vector(self, values: np.ndarray) -> np.ndarray:
        """Assemble (f, phi_a) for interior basis functions from Gauss values."""
        return self._assemble(values, self.Ex, self.Ey)

    def load_vector_grad(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Assemble (v, grad phi_a) for interior basis functions."""
        return self._assemble(vx, self.Dx, self.Ey) + self._assemble(vy, self.Ex, self.Dy)

    def to_eigenbasis(self, rhs: np.ndarray) -> np.ndarray:
        """V^T rhs, for one vector or a stack (..., n_dofs).

        Loads go to the eigenbasis this way; coefficient vectors go through
        `eigen_coords`.
        """
        rhs = np.asarray(rhs, dtype=float)
        return self._eval(rhs, self.Vx.T, self.Vy.T).reshape(rhs.shape)

    def from_eigenbasis(self, coeffs: np.ndarray) -> np.ndarray:
        """V coeffs: coefficient vectors from eigen-coordinates, one or a stack."""
        coeffs = np.asarray(coeffs, dtype=float)
        return self._eval(coeffs, self.Vx, self.Vy).reshape(coeffs.shape)

    def eigen_coords(self, vec: np.ndarray) -> np.ndarray:
        """V^-1 vec = V^T M vec, for one coefficient vector or a stack (..., n_dofs).

        With c = V^-1 u, e = V^-1 v: u^T M v = c . e, u^T K v = c . (stiffness_eigs e).
        """
        vec = np.asarray(vec, dtype=float)
        return self._eval(vec, self.Vx_inv, self.Vy_inv).reshape(vec.shape)

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 rhs = V V^T rhs, for one right-hand side or a stack (nt, n_dofs)."""
        return self.from_eigenbasis(self.to_eigenbasis(rhs))

    def solve_stiffness(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs = V diag(1 / stiffness_eigs) V^T rhs, for one vector or a stack."""
        return self.from_eigenbasis(self.to_eigenbasis(rhs) / self.stiffness_eigs)

    def l2_project(self, f) -> np.ndarray:
        """Coefficients of the L2-orthogonal projection of f(x, y)."""
        return self.solve_mass(self.load_vector(self.grid_eval(f)))

    def elliptic_project(self, fx, fy) -> np.ndarray:
        """Projection in the Dirichlet inner product, gradient given analytically."""
        vx = self.grid_eval(fx)
        vy = self.grid_eval(fy)
        return self.solve_stiffness(self.load_vector_grad(vx, vy))

    def interpolate(self, f) -> np.ndarray:
        """Values of f at the interior nodes, as a coefficient vector."""
        return np.asarray(
            f(self.nodes_x[1:-1, None], self.nodes_y[None, 1:-1]), dtype=float
        ).ravel()

    def m_inner(self, u: np.ndarray, v: np.ndarray):
        """Mass inner product of two vectors or matching rows, from their eigen-coordinates."""
        cu = self.eigen_coords(u)
        cv = cu if v is u else self.eigen_coords(v)
        out = np.sum(cu * cv, axis=-1)
        return float(out) if np.ndim(out) == 0 else out

    def m_norm(self, v: np.ndarray):
        return _sqrt_pos(self.m_inner(v, v))
