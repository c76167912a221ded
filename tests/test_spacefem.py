"""Tensor-product Lagrange spaces: assembly, projections, broken Laplacian."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import slow_reference as slow
from waveslab import TensorSpace

rng = np.random.default_rng(20240812)

bump = lambda x, y: (1.0 - x**2) * (1.0 - y**2)
bump_x = lambda x, y: -2.0 * x * (1.0 - y**2)
bump_y = lambda x, y: -2.0 * y * (1.0 - x**2)


def full_operators(space):
    """Mass and stiffness on all nodes, boundary included, from the 1D factors."""
    M1x, M1y = sp.csr_matrix(space.M1x), sp.csr_matrix(space.M1y)
    K1x, K1y = sp.csr_matrix(space.K1x), sp.csr_matrix(space.K1y)
    kron = lambda a, b: sp.kron(a, b, format="csr")
    return kron(M1x, M1y), kron(K1x, M1y) + kron(M1x, K1y)


def test_degenerate_space_is_empty():
    # a single bilinear element has no interior nodes
    space = TensorSpace(1, 1, 1)
    assert space.n_dofs == 0
    assert space.l2_project(lambda x, y: x * y).shape == (0,)


def test_smallest_interior_space():
    space = TensorSpace(2, 2, 1)
    assert space.n_dofs == 1
    # hat x hat: mass (2/3)^2, stiffness 2*(2*(2/3))
    M, K = slow.mass_stiffness(space)
    assert abs(M.toarray()[0, 0] - 4.0 / 9.0) < 1e-14
    assert abs(K.toarray()[0, 0] - 8.0 / 3.0) < 1e-14


def test_constructor_rejections():
    with pytest.raises(ValueError):
        TensorSpace(2, 2, 0)
    with pytest.raises(ValueError):
        TensorSpace(2, 2, 6)
    with pytest.raises(ValueError):
        TensorSpace(0, 2, 1)


@pytest.mark.parametrize("args", [(2, 2, True), (True, 2, 1), (2, np.True_, 1),
                                  (2, 2, 1.5), (4.5, 2, 1), (2, 2.5, 1), (2, np.inf, 1)],
                         ids=["degree-True", "nx-True", "ny-np.True_", "degree-1.5",
                              "nx-4.5", "ny-2.5", "ny-inf"])
def test_booleans_and_fractional_sizes_are_refused(args):
    # True would run as Q1 or one element; 1.5 would be truncated or fail in numpy
    with pytest.raises(ValueError, match="integers"):
        TensorSpace(*args)


def test_integral_float_sizes_are_accepted():
    space = TensorSpace(4.0, np.float64(3.0), 2.0)
    assert (space.nx, space.ny, space.degree) == (4, 3, 2)
    assert all(type(v) is int for v in (space.nx, space.ny, space.degree))
    assert space.n_dofs == TensorSpace(4, 3, 2).n_dofs


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_assembled_operators_structure(degree):
    space = TensorSpace(3, 2, degree)
    M, K = (matrix.toarray() for matrix in slow.mass_stiffness(space))
    assert np.allclose(M, M.T, atol=1e-13)
    assert np.allclose(K, K.T, atol=1e-13)
    assert np.all(np.linalg.eigvalsh(M) > 0.0)
    assert np.all(np.linalg.eigvalsh(K) > 0.0)
    M_full, K_full = full_operators(space)
    # before boundary elimination constants lie in the stiffness kernel
    row_sums = np.asarray(K_full.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) < 1e-12
    # full mass totals the domain area
    assert abs(M_full.sum() - 4.0) < 1e-12


def test_member_function_is_reproduced():
    # the bump is a member of every Q2 space on (-1,1)^2
    space = TensorSpace(3, 4, 2)
    coeffs = slow.interpolate(space, bump)
    assert np.allclose(space.l2_project(bump), coeffs, atol=1e-11)
    assert np.allclose(space.elliptic_project(bump_x, bump_y), coeffs, atol=1e-10)
    assert np.allclose(space.eval_gauss(coeffs), space.grid_eval(bump), atol=1e-12)
    gx, gy = space.eval_grad_gauss(coeffs)
    assert np.allclose(gx, space.grid_eval(bump_x), atol=1e-11)
    assert np.allclose(gy, space.grid_eval(bump_y), atol=1e-11)


def test_projections_match_dense_solves():
    space = TensorSpace(5, 4, 3, domain=((0.0, 2.0), (-0.5, 0.5)))
    f = lambda x, y: np.sin(2.0 * x) * np.exp(y)
    fx = lambda x, y: 2.0 * np.cos(2.0 * x) * np.exp(y)
    fy = f
    M, K = slow.mass_stiffness(space)
    for got, matrix, load in [
        (space.l2_project(f), M, space.load_vector(space.grid_eval(f))),
        (
            space.elliptic_project(fx, fy),
            K,
            space.load_vector_grad(space.grid_eval(fx), space.grid_eval(fy)),
        ),
    ]:
        dense = np.linalg.solve(matrix.toarray(), load)
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


ANISOTROPIC = ((0.0, 2.0), (-0.5, 0.5))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_solves_match_dense_solves_for_vectors_and_stacks(degree):
    space = TensorSpace(3, 2, degree, domain=ANISOTROPIC)
    rhs = rng.standard_normal((4, space.n_dofs))
    M, K = slow.mass_stiffness(space)
    for solve, matrix in ((space.solve_mass, M), (space.solve_stiffness, K)):
        dense = np.linalg.solve(matrix.toarray(), rhs.T).T
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(solve(rhs) - dense)) <= 1e-12 * scale
        assert np.max(np.abs(solve(rhs[1]) - dense[1])) <= 1e-12 * scale


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_1d_matrices_match_element_loop(degree):
    space = TensorSpace(3, 2, degree, domain=ANISOTROPIC)
    for got, ref in zip(
        (space.M1x, space.K1x, space.M1y, space.K1y),
        slow.assemble_1d(space, space.nx, space.hx) + slow.assemble_1d(space, space.ny, space.hy),
    ):
        assert np.array_equal(got != 0.0, ref != 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_projections_need_no_sparse_factorization(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sparse LU called")

    monkeypatch.setattr(spla, "splu", refuse)
    space = TensorSpace(3, 4, 2)
    coeffs = slow.interpolate(space, bump)
    assert np.allclose(space.l2_project(bump), coeffs, atol=1e-11)
    assert np.allclose(space.elliptic_project(bump_x, bump_y), coeffs, atol=1e-10)


def test_building_a_space_assembles_no_sparse_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.sparse constructor called")

    for name in ("kron", "kronsum", "diags", "eye", "identity", "bmat", "block_diag",
                 "hstack", "vstack", "csr_matrix", "csc_matrix", "coo_matrix",
                 "lil_matrix", "dok_matrix", "dia_matrix", "bsr_matrix", "csr_array",
                 "csc_array", "coo_array"):
        monkeypatch.setattr(sp, name, refuse)
    space = TensorSpace(3, 4, 2)
    coeffs = slow.interpolate(space, bump)
    assert np.allclose(space.l2_project(bump), coeffs, atol=1e-11)
    assert space.m_norm(coeffs) > 0.0


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_eigen_coords_are_the_inverse_eigenbasis(degree):
    space = TensorSpace(3, 2, degree, domain=ANISOTROPIC)
    M, K = (matrix.toarray() for matrix in slow.mass_stiffness(space))
    V = np.kron(space.Vx, space.Vy)
    u = np.random.default_rng(degree).standard_normal((4, space.n_dofs))
    coords = space.eigen_coords(u)
    expect = (V.T @ M @ u.T).T
    assert np.max(np.abs(coords - expect)) <= 1e-12 * np.max(np.abs(expect))
    assert np.array_equal(space.eigen_coords(u[1]), coords[1])
    assert np.max(np.abs(space.from_eigenbasis(coords) - u)) <= 1e-12 * np.max(np.abs(u))
    # mass and stiffness products in eigen-coordinates
    gram_m = coords @ coords.T
    gram_k = (coords * space.stiffness_eigs) @ coords.T
    assert np.max(np.abs(gram_m - u @ M @ u.T)) <= 1e-12 * np.max(np.abs(gram_m))
    assert np.max(np.abs(gram_k - u @ K @ u.T)) <= 1e-12 * np.max(np.abs(gram_k))
    cross = space.m_inner(u, u[::-1]) - np.diag(u @ M @ u[::-1].T)
    assert np.max(np.abs(cross)) <= 1e-12 * np.max(np.abs(gram_m))


def test_mass_norm_maps_its_argument_once(monkeypatch):
    space = TensorSpace(3, 3, 2)
    u = rng.standard_normal((3, space.n_dofs))
    calls = []
    real = TensorSpace.eigen_coords

    def counted(self, vec):
        calls.append(vec)
        return real(self, vec)

    monkeypatch.setattr(TensorSpace, "eigen_coords", counted)
    space.m_norm(u)
    assert len(calls) == 1
    # two equal arrays are mapped one by one, to the same bits
    assert np.array_equal(space.m_inner(u, u), space.m_inner(u, u.copy()))
    assert len(calls) == 4


def test_mass_solve_round_trip():
    space = TensorSpace(3, 3, 2)
    v = rng.standard_normal(space.n_dofs)
    M, K = slow.mass_stiffness(space)
    assert np.allclose(M @ space.solve_mass(v), v, atol=1e-11)
    assert np.allclose(K @ space.solve_stiffness(v), v, atol=1e-10)


def test_broken_laplacian_of_member():
    space = TensorSpace(4, 3, 2)
    coeffs = slow.interpolate(space, bump)
    lap = space.eval_laplacian_gauss(coeffs)
    exact = space.grid_eval(lambda x, y: -2.0 * (1.0 - y**2) - 2.0 * (1.0 - x**2))
    assert np.allclose(lap, exact, atol=1e-10)
    assert abs(space.l2_norm(lap) ** 2 - 1408.0 / 45.0) < 1e-9


def test_quadrature_norms_of_trig_function():
    space = TensorSpace(4, 4, 2)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    fx = lambda x, y: np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    fy = lambda x, y: np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    assert abs(space.l2_norm(space.grid_eval(f)) - 1.0) < 1e-8
    got = space.h1_semi_norm(space.grid_eval(fx), space.grid_eval(fy))
    assert abs(got - np.pi * np.sqrt(2.0)) < 1e-8


def test_embed_layout():
    space = TensorSpace(2, 3, 1)
    v = np.arange(1.0, 1.0 + space.n_dofs)
    full = slow.embed(space, v)
    assert full.shape == (len(space.nodes_x), len(space.nodes_y))
    assert np.all(full[0, :] == 0.0) and np.all(full[-1, :] == 0.0)
    assert np.all(full[:, 0] == 0.0) and np.all(full[:, -1] == 0.0)
    assert np.allclose(full[1:-1, 1:-1].ravel(), v)


def test_load_vector_matches_mass_action():
    # for a member function the load vector is exactly M times the coefficients
    space = TensorSpace(3, 3, 3)
    v = rng.standard_normal(space.n_dofs)
    M, K = slow.mass_stiffness(space)
    load = space.load_vector(space.eval_gauss(v))
    assert np.allclose(load, M @ v, atol=1e-12)
    gx, gy = space.eval_grad_gauss(v)
    assert np.allclose(space.load_vector_grad(gx, gy), K @ v, atol=1e-11)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_interpolation_h1_rate(degree):
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    fx = lambda x, y: np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    fy = lambda x, y: np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    sizes = [4, 8, 16]
    errs = []
    for n in sizes:
        space = TensorSpace(n, n, degree)
        coeffs = slow.interpolate(space, f)
        gx, gy = space.eval_grad_gauss(coeffs)
        dx = gx - space.grid_eval(fx)
        dy = gy - space.grid_eval(fy)
        errs.append(space.h1_semi_norm(dx, dy))
    slope = np.polyfit(np.log(1.0 / np.asarray(sizes)), np.log(errs), 1)[0]
    assert abs(slope - degree) < 0.2, slope


def test_anisotropic_domain_and_mesh():
    space = TensorSpace(3, 2, 2, domain=((0.0, 2.0), (0.0, 1.0)))
    assert abs(space.hx - 2.0 / 3.0) < 1e-15
    assert abs(space.hy - 0.5) < 1e-15
    f = lambda x, y: x * (2.0 - x) * y * (1.0 - y)
    coeffs = slow.interpolate(space, f)
    assert np.allclose(space.eval_gauss(coeffs), space.grid_eval(f), atol=1e-12)
    assert abs(full_operators(space)[0].sum() - 2.0) < 1e-12
