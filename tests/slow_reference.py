"""Slow reference implementations of the batched evaluation kernel.

These are the element-by-element space contractions and the per-time-point
loops that `spacefem`, `slabsolver`, `estimator` and `errors` used before
their evaluation was batched, the element loop that assembled the 1D
mass and stiffness matrices before they became Gram matrices of the Gauss
matrices, and the sparse 2D mass and stiffness matrices, which the package
never assembles (it works in their eigen-coordinates).  Nodal
interpolation and the embedding of interior coefficients in the full node
grid, which only tests use, are kept here too.  They exist only to
check the fast paths on small problems: every function here evaluates one
time sample or one slab at a time, gathers element coefficients with index
arrays and scatters loads with `np.add.at`.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import legendre as npleg

from waveslab import (
    IntervalPoly,
    SlabSolution,
    c3_constant,
    c4_constant,
    gauss_legendre,
    mu_n,
    reconstruction_constants,
)
from waveslab.slabsolver import reference_blocks, time_matrices


# ------------------------------------------------------------------ space

def embed(space, vec):
    """Interior coefficients to the full node grid, zero on the boundary."""
    full = np.zeros((len(space.nodes_x), len(space.nodes_y)))
    if space.n_dofs:
        full[1:-1, 1:-1] = np.asarray(vec).reshape(space.n_int_x, space.n_int_y)
    return full


def interpolate(space, f):
    """Values of f at the interior nodes, as a coefficient vector."""
    return np.asarray(f(space.nodes_x[1:-1, None], space.nodes_y[None, 1:-1]),
                      dtype=float).ravel()


def _element_index(space):
    p = space.degree
    ix = np.arange(space.nx)[:, None] * p + np.arange(p + 1)[None, :]
    iy = np.arange(space.ny)[:, None] * p + np.arange(p + 1)[None, :]
    return ix[:, :, None, None], iy[None, None, :, :]


def _contract(space, vec, bx, by, scale):
    local = embed(space, vec)[_element_index(space)]
    vals = np.einsum("aibj,iq,jr->aqbr", local, bx, by)
    ng = len(space.ref_gauss)
    return scale * vals.reshape(space.nx * ng, space.ny * ng)


def _scatter(space, local):
    full = np.zeros((len(space.nodes_x), len(space.nodes_y)))
    np.add.at(full, _element_index(space), local)
    return full[1:-1, 1:-1].ravel()


def assemble_1d(space, n_elem, h):
    """1D mass and stiffness on all nodes, summed one element matrix at a time."""
    p, wg = space.degree, space.ref_weights
    Me = 0.5 * h * (space.basis_val * wg) @ space.basis_val.T
    Ke = (2.0 / h) * (space.basis_der * wg) @ space.basis_der.T
    n = n_elem * p + 1
    M = np.zeros((n, n))
    K = np.zeros((n, n))
    for e in range(n_elem):
        idx = slice(e * p, e * p + p + 1)
        M[idx, idx] += Me
        K[idx, idx] += Ke
    return M, K


def mass_stiffness(space):
    """Sparse M = Mix (x) Miy and K = Kix (x) Miy + Mix (x) Kiy on the interior dofs."""
    Mix, Kix = space.M1x[1:-1, 1:-1], space.K1x[1:-1, 1:-1]
    Miy, Kiy = space.M1y[1:-1, 1:-1], space.K1y[1:-1, 1:-1]
    M = sp.kron(Mix, Miy, format="csr")
    K = sp.kron(Kix, Miy, format="csr") + sp.kron(Mix, Kiy, format="csr")
    return M, K


def eval_gauss(space, vec):
    return _contract(space, vec, space.basis_val, space.basis_val, 1.0)


def eval_grad_gauss(space, vec):
    ux = _contract(space, vec, space.basis_der, space.basis_val, 2.0 / space.hx)
    uy = _contract(space, vec, space.basis_val, space.basis_der, 2.0 / space.hy)
    return ux, uy


def eval_laplacian_gauss(space, vec):
    uxx = _contract(space, vec, space.basis_der2, space.basis_val, (2.0 / space.hx) ** 2)
    uyy = _contract(space, vec, space.basis_val, space.basis_der2, (2.0 / space.hy) ** 2)
    return uxx + uyy


def integrate(space, values):
    return float(space.gauss_wx @ values @ space.gauss_wy)


def l2_norm(space, values):
    return float(np.sqrt(max(integrate(space, values * values), 0.0)))


def h1_semi_norm(space, vx, vy):
    return float(np.sqrt(max(integrate(space, vx * vx + vy * vy), 0.0)))


def _local_moments(space, values, bx, by, scale):
    ng = len(space.ref_gauss)
    F = values.reshape(space.nx, ng, space.ny, ng)
    w = space.ref_weights
    return scale * np.einsum("aqbr,iq,jr,q,r->aibj", F, bx, by, w, w)


def load_vector(space, values):
    local = _local_moments(space, values, space.basis_val, space.basis_val,
                           0.25 * space.hx * space.hy)
    return _scatter(space, local)


def load_vector_grad(space, vx, vy):
    local = _local_moments(space, vx, space.basis_der, space.basis_val, 0.5 * space.hy)
    local += _local_moments(space, vy, space.basis_val, space.basis_der, 0.5 * space.hx)
    return _scatter(space, local)


def grid_eval_at(space, f, t):
    """f(t, x, y) at one scalar time on the Gauss grid."""
    X, Y = space.gauss_x[:, None], space.gauss_y[None, :]
    shape = (len(space.gauss_x), len(space.gauss_y))
    return np.broadcast_to(np.asarray(f(t, X, Y), dtype=float), shape).copy()


# ------------------------------------------------------------------- time

def end_deriv(sol, n):
    """One-sided time derivative at the right endpoint of interval n."""
    ref = reference_blocks(int(sol.grid.degrees[n]))
    return (2.0 / sol.grid.tau(n)) * (ref["dphi_right"] @ sol.blocks[n])


def jump(sol, n):
    """Derivative jump at the left node of interval n, one slab at a time."""
    ref = reference_blocks(int(sol.grid.degrees[n]))
    incoming = sol.u1h if n == 0 else end_deriv(sol, n - 1)
    return (2.0 / sol.grid.tau(n)) * (ref["dphi_left"] @ sol.blocks[n]) - incoming


def jump_sq(sol, stop):
    """Sum of the squared mass norms of the jumps of intervals 0..stop-1."""
    M, _ = mass_stiffness(sol.space)
    return sum(float(jump(sol, n) @ (M @ jump(sol, n))) for n in range(stop))


def _graded_load(data, space, p, a, b):
    sigma, levels = 0.3, 45
    cuts = [a + (b - a) * sigma**k for k in range(levels, 0, -1)]
    panels = [(a, cuts[0])] + list(zip(cuts[:-1], cuts[1:])) + [(cuts[-1], b)]
    xq, wq = gauss_legendre(max(2 * p + 3, 23))
    F = np.zeros((p, space.n_dofs))
    for pa, pb in panels:
        tq = pa + 0.5 * (pb - pa) * (xq + 1.0)
        s = 2.0 * (tq - a) / (b - a) - 1.0
        psi = npleg.legvander(s, p - 1).T
        loads = np.stack([load_vector(space, grid_eval_at(space, data.f, t)) for t in tq])
        F += (0.5 * (pb - pa)) * (psi * wq) @ loads
    return F


def march(data, space, grid):
    """The slab march with per-time-point loads and one factorization per slab."""
    gx, gy = data.grad_u0
    u0h = space.solve_stiffness(load_vector_grad(
        space, space.grid_eval(gx), space.grid_eval(gy)))
    u1h = space.solve_mass(load_vector(space, space.grid_eval(data.u1)))
    blocks = []
    d = space.n_dofs
    M, K = mass_stiffness(space)
    prev_value, prev_deriv = u0h, u1h
    for n in range(grid.n_intervals):
        p = int(grid.degrees[n])
        tau = grid.tau(n)
        a, b = grid.interval(n)
        ref = reference_blocks(p)
        A, B = time_matrices(p, tau)
        system = sp.kron(sp.csc_matrix(A[:, 1:]), M) + sp.kron(sp.csc_matrix(B[:, 1:]), K)
        if data.singular_load and n == 0:
            rhs = _graded_load(data, space, p, a, b)
        else:
            xq, wq, leg, _ = ref["gauss"]
            tq = a + 0.5 * tau * (xq + 1.0)
            loads = np.stack([load_vector(space, grid_eval_at(space, data.f, t)) for t in tq])
            rhs = (0.5 * tau) * (leg[:, :p].T * wq) @ loads
        rhs += np.outer(ref["psi_left"], M @ prev_deriv)
        rhs -= np.outer(A[:, 0], M @ prev_value) + np.outer(B[:, 0], K @ prev_value)
        block = np.empty((p + 1, d))
        block[0] = prev_value
        block[1:] = spla.splu(system.tocsc()).solve(rhs.ravel()).reshape(p, d)
        blocks.append(block)
        prev_value = block[-1]
        prev_deriv = (2.0 / tau) * (ref["dphi_right"] @ block)
    return SlabSolution(grid=grid, space=space, blocks=blocks, u1h=u1h)


def compute_errors(sol, case):
    """The six error norms of `errors.compute_errors`, one time point at a time."""
    space, grid = sol.space, sol.grid
    sq_h1 = sq_dl2 = max_w1inf = max_h1 = max_l2 = 0.0
    for n in range(grid.n_intervals):
        p = int(grid.degrees[n])
        a, b = grid.interval(n)
        tau = grid.tau(n)
        poly = sol.poly(n)
        dpoly = poly.derivative()
        xq, wq = gauss_legendre(2 * p + 3)
        for x, w in zip(xq, wq):
            t = a + 0.5 * tau * (x + 1.0)
            gx, gy = eval_grad_gauss(space, poly.eval(t))
            ex = grid_eval_at(space, case.ux, t) - gx
            ey = grid_eval_at(space, case.uy, t) - gy
            sq_h1 += 0.5 * tau * w * integrate(space, ex * ex + ey * ey)
            ed = grid_eval_at(space, case.du, t) - eval_gauss(space, dpoly.eval(t))
            sq_dl2 += 0.5 * tau * w * integrate(space, ed * ed)
        for t in np.linspace(a, b, 2 * p + 3):
            coeff = poly.eval(t)
            ev = grid_eval_at(space, case.u, t) - eval_gauss(space, coeff)
            max_l2 = max(max_l2, l2_norm(space, ev))
            ed = grid_eval_at(space, case.du, t) - eval_gauss(space, dpoly.eval(t))
            max_w1inf = max(max_w1inf, l2_norm(space, ed))
            gx, gy = eval_grad_gauss(space, coeff)
            ex = grid_eval_at(space, case.ux, t) - gx
            ey = grid_eval_at(space, case.uy, t) - gy
            max_h1 = max(max_h1, h1_semi_norm(space, ex, ey))
    return {
        "max_W1inf_L2": max_w1inf, "max_Linf_H1": max_h1,
        "L2_H1": float(np.sqrt(sq_h1)), "H1deriv_L2L2": float(np.sqrt(sq_dl2)),
        "Linf_L2": max_l2, "jump": float(np.sqrt(jump_sq(sol, grid.n_intervals))),
    }


def eta1(sol):
    """Jump estimator of `estimator.eta1`, one slab at a time."""
    best, arg = -1.0, 0
    M, _ = mass_stiffness(sol.space)
    for n in range(sol.grid.n_intervals):
        c1_sq, c2_sq, _ = reconstruction_constants(int(sol.grid.degrees[n]))
        j = jump(sol, n)
        m_norm = float(np.sqrt(max(float(j @ (M @ j)), 0.0)))
        val = sol.grid.tau(n) * (c1_sq * c2_sq) ** 0.25 * m_norm
        if val > best * (1.0 + 1e-14):
            best, arg = val, n
    return best, arg


def _top_mode_l1(sol, n, order):
    """Time L1 norm of the broken-Laplacian L2 norm of the top temporal mode."""
    p = int(sol.grid.degrees[n])
    top = sol.poly(n).modes[p]
    lap_norm = l2_norm(sol.space, eval_laplacian_gauss(sol.space, top))
    xq, wq = gauss_legendre(order)
    coeff = np.zeros(p + 1)
    coeff[p] = 1.0
    leg_l1 = 0.5 * sol.grid.tau(n) * float(wq @ np.abs(npleg.legval(xq, coeff)))
    return leg_l1 * lap_norm


def eta2_terms(sol, m, order_fn=lambda p: 2 * p + 3):
    """Consistency terms of `estimator.eta2_terms`, one slab at a time."""
    grid, space = sol.grid, sol.space
    t_m = float(grid.nodes[m + 1])
    out = np.zeros(grid.n_intervals)
    for n in range(m + 1):
        p = int(grid.degrees[n])
        tau = grid.tau(n)
        _, c2_sq, _ = reconstruction_constants(p)
        lap_l1 = _top_mode_l1(sol, n, order_fn(p))
        jump_lap = l2_norm(space, eval_laplacian_gauss(space, jump(sol, n)))
        if n == m:
            out[n] = 2.0 * (tau * lap_l1 + np.sqrt(c2_sq) * tau**3 * jump_lap)
        else:
            c4 = c4_constant(p, t_m, float(grid.nodes[n]), tau)
            out[n] = (2.0 / np.pi) * (
                tau * c3_constant(p - 1) * lap_l1
                + tau**3 * np.sqrt(c2_sq) * c4 * jump_lap
            )
    return out


def osc_terms(data, sol, m):
    """Per-slab data oscillation of `estimator.osc_terms`, one sample at a time."""
    grid, space = sol.grid, sol.space
    out = np.zeros(grid.n_intervals)
    for n in range(m + 1):
        p = int(grid.degrees[n])
        tau = grid.tau(n)
        a, _ = grid.interval(n)
        xq, wq = gauss_legendre(2 * p + 3)
        samples = np.stack([grid_eval_at(space, data.f, a + 0.5 * tau * (x + 1.0))
                            for x in xq])
        vander = npleg.legvander(xq, p - 1)
        scale = 0.5 * (2.0 * np.arange(p) + 1.0)
        modes = np.einsum("q,qk,qij->kij", wq, vander, samples) * scale[:, None, None]
        defect = samples - np.einsum("qk,kij->qij", vander, modes)
        l1 = 0.5 * tau * float(wq @ np.array([l2_norm(space, d) for d in defect]))
        if n == m:
            out[n] = 2.0 * tau * l1
        else:
            out[n] = (2.0 * tau / np.pi) * c3_constant(p - 1) * l1
    return out


def slab_energy(sol, n):
    p = int(sol.grid.degrees[n])
    a, b = sol.grid.interval(n)
    ts = np.linspace(a, b, 2 * p + 3)
    poly = IntervalPoly.from_nodal((a, b), sol.blocks[n])
    vals, ders = poly.eval(ts), poly.deriv(ts)
    M, K = mass_stiffness(sol.space)
    return max(0.0, max(float(ders[k] @ (M @ ders[k])) + float(vals[k] @ (K @ vals[k]))
                        for k in range(len(ts))))


def forcing_sq(data, sol, n):
    """0.5 tau sum_q w_q |f(t_q)|^2 of slab n (`SlabSolution.f_sq`), one sample at a time."""
    grid, space = sol.grid, sol.space
    p = int(grid.degrees[n])
    tau = grid.tau(n)
    a, _ = grid.interval(n)
    xq, wq = gauss_legendre(2 * p + 3)
    f_sq = 0.0
    for x, w in zip(xq, wq):
        fv = grid_eval_at(space, data.f, a + 0.5 * tau * (x + 1.0))
        f_sq += 0.5 * tau * w * l2_norm(space, fv) ** 2
    return f_sq


def stability_check(sol, data):
    """(lhs, rhs, m, slab energies) of `slabsolver.stability_check`."""
    space, grid = sol.space, sol.grid
    energies = np.array([slab_energy(sol, n) for n in range(grid.n_intervals)])
    m = int(np.argmax(energies))
    mu = mu_n(int(grid.degrees[m]))
    lhs = mu * energies[m] + 0.25 * jump_sq(sol, m + 1)
    gx, gy = data.grad_u0
    h1_u0 = h1_semi_norm(space, space.grid_eval(gx), space.grid_eval(gy))
    l2_u1 = l2_norm(space, space.grid_eval(data.u1))
    f_sq = sum(forcing_sq(data, sol, n) for n in range(m + 1))
    rhs = 0.5 * (h1_u0**2 + l2_u1**2) + (float(grid.nodes[m + 1]) / mu) * f_sq
    return lhs, rhs, m, energies
