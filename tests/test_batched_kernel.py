"""The batched space-time evaluation kernel against slow references.

`slow_reference` keeps the element-by-element contractions and the
per-time-point loops; every fast path must agree with them to 1e-12
relative to the size of the compared quantity.
"""

import dataclasses

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import slow_reference as slow
from waveslab import (
    ProblemData,
    TensorSpace,
    TimeGrid,
    compute_errors,
    gauss_legendre,
    make_case,
    march,
    problem_data,
    stability_check,
)
import waveslab.adaptive
from waveslab import slabsolver, spacefem
from waveslab.adaptive import bisect, run_adaptive
from waveslab.estimator import (
    estimate,
    eta1,
    eta2_terms,
    laplacian_norms,
    osc_terms,
    quadrature_check,
)
from waveslab.slabsolver import reference_blocks

rng = np.random.default_rng(20261018)

RTOL = 1e-12


def assert_close(fast, ref, rtol=RTOL):
    fast, ref = np.asarray(fast, dtype=float), np.asarray(ref, dtype=float)
    assert fast.shape == ref.shape, (fast.shape, ref.shape)
    scale = max(float(np.max(np.abs(ref))), 1e-300) if ref.size else 1.0
    assert float(np.max(np.abs(fast - ref), initial=0.0)) <= rtol * scale


def anisotropic_space(degree):
    return TensorSpace(3, 2, degree, domain=((0.0, 2.0), (-0.5, 0.5)))


# ------------------------------------------------------------------ space

@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_space_kernel_matches_element_loops(degree):
    space = anisotropic_space(degree)
    assert space.n_int_x != space.n_int_y
    nt = 3
    vecs = rng.standard_normal((nt, space.n_dofs))
    vals = rng.standard_normal((nt, len(space.gauss_x), len(space.gauss_y)))
    wals = rng.standard_normal(vals.shape)

    batched = {
        "eval": space.eval_gauss(vecs),
        "grad": np.stack(space.eval_grad_gauss(vecs), axis=1),
        "lap": space.eval_laplacian_gauss(vecs),
        "load": space.load_vector(vals),
        "load_grad": space.load_vector_grad(vals, wals),
        "integrate": space.integrate(vals),
        "l2": space.l2_norm(vals),
        "h1": space.h1_semi_norm(vals, wals),
    }
    for k in range(nt):
        v, f, g = vecs[k], vals[k], wals[k]
        single = {
            "eval": space.eval_gauss(v),
            "grad": np.stack(space.eval_grad_gauss(v)),
            "lap": space.eval_laplacian_gauss(v),
            "load": space.load_vector(f),
            "load_grad": space.load_vector_grad(f, g),
            "integrate": space.integrate(f),
            "l2": space.l2_norm(f),
            "h1": space.h1_semi_norm(f, g),
        }
        ref = {
            "eval": slow.eval_gauss(space, v),
            "grad": np.stack(slow.eval_grad_gauss(space, v)),
            "lap": slow.eval_laplacian_gauss(space, v),
            "load": slow.load_vector(space, f),
            "load_grad": slow.load_vector_grad(space, f, g),
            "integrate": slow.integrate(space, f),
            "l2": slow.l2_norm(space, f),
            "h1": slow.h1_semi_norm(space, f, g),
        }
        for key in ref:
            assert_close(single[key], ref[key])
            assert_close(batched[key][k], ref[key])
            # a sample has the same bits alone and in a stack
            assert np.array_equal(batched[key][k], single[key])
    for key in ("integrate", "l2", "h1"):
        assert isinstance(single[key], float)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_space_kernel_matches_element_loops_in_the_local_form(monkeypatch, degree):
    monkeypatch.setattr(spacefem, "_LOCAL_KERNEL_DOFS", 0)
    assert anisotropic_space(degree)._local
    test_space_kernel_matches_element_loops(degree)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("nx, ny, domain", [(1, 1, ((-1.0, 1.0), (-1.0, 1.0))),
                                            (4, 3, ((0.0, 2.0), (-0.5, 0.5))),
                                            (2, 5, ((-3.0, 1e-3), (1.0, 1.25)))])
def test_dense_and_local_forms_agree(monkeypatch, nx, ny, domain, degree):
    def build(first_local):
        monkeypatch.setattr(spacefem, "_LOCAL_KERNEL_DOFS", first_local)
        return TensorSpace(nx, ny, degree, domain=domain)

    dense, local = build(np.inf), build(0)
    assert not dense._local and local._local
    vecs = rng.standard_normal((3, dense.n_dofs))
    vals = rng.standard_normal((3, len(dense.gauss_x), len(dense.gauss_y)))
    wals = rng.standard_normal(vals.shape)
    terms = (
        lambda s, k: s.eval_gauss(vecs[k]),
        lambda s, k: np.stack(s.eval_grad_gauss(vecs[k])),
        lambda s, k: s.eval_laplacian_gauss(vecs[k]),
        lambda s, k: s.load_vector(vals[k]),
        lambda s, k: s.load_vector_grad(vals[k], wals[k]),
    )
    # one sample, and a stack of three
    for k in (1, slice(None)):
        for term in terms:
            assert_close(term(local, k), term(dense, k), rtol=1e-13)


def test_the_kernel_form_changes_at_its_size():
    # 1 999 dofs, one fewer than the constant, is prime: only a mesh one
    # interior node wide has it
    below, at = TensorSpace(28, 75, 1), TensorSpace(41, 51, 1)
    assert (below.n_dofs, at.n_dofs) == (spacefem._LOCAL_KERNEL_DOFS - 2,
                                         spacefem._LOCAL_KERNEL_DOFS)
    assert not below._local and at._local
    assert below._kx[0] is below.Ex and at._kx[0].shape == (len(at.ref_gauss), 2)


def test_grid_eval_over_times():
    space = anisotropic_space(2)
    f = lambda t, x, y: np.cos(3.0 * t) * x * (2.0 - x) + t**2 * y
    ts = np.array([0.0, 0.3, 1.7])
    got = space.grid_eval(f, ts)
    assert got.shape == (3, len(space.gauss_x), len(space.gauss_y))
    for k, t in enumerate(ts):
        assert np.array_equal(got[k], slow.grid_eval_at(space, f, t))
    # a callable that ignores t is broadcast over the time axis
    flat = space.grid_eval(lambda t, x, y: x + 0.0 * y, ts)
    assert flat.shape == got.shape and np.all(flat[0] == flat[2])


def test_grid_eval_copies_only_arrays_the_callable_may_still_hold():
    # the package's cases return fresh arrays, which are handed on as they
    # are; an array the callable keeps is copied, so the caller may write
    # into what grid_eval returns
    space = anisotropic_space(2)
    ts = np.array([0.0, 0.3, 1.7])
    for case in (make_case("case1"), make_case("case2", alpha=1.75), make_case("case3")):
        for fn, t in [(case.u, ts), (case.du, ts), (case.ux, ts), (case.uy, ts),
                      (case.f, ts[1:]), (case.u0, None), (case.u1, None)]:
            returned = []

            def tracked(*args):
                out = fn(*args)
                returned.append(id(out))
                return out

            assert id(space.grid_eval(tracked, t)) == returned[0]
    stored = space.grid_eval(case.u, ts)
    got = space.grid_eval(lambda t, x, y: stored, ts)
    assert got is not stored and np.array_equal(got, stored)
    assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata


# ------------------------------------------------------------------- time

def mixed_degree_run():
    """case2 on a mixed-degree grid with the graded singular first slab, on a
    Q1 mesh whose spatial error keeps every norm well above round-off."""
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    assert data.singular_load
    space = TensorSpace(4, 3, 1)
    grid = TimeGrid(np.array([0.0, 0.15, 0.4, 0.55, 1.0]), np.array([2, 5, 3, 10]))
    return case, data, space, grid


def test_march_matches_per_point_loads():
    case, data, space, grid = mixed_degree_run()
    fast = march(data, space, grid)
    ref = slow.march(data, space, grid)
    assert_close(fast.blocks[0][0], ref.blocks[0][0])
    assert_close(fast.u1h, ref.u1h)
    for n in range(grid.n_intervals):
        assert_close(fast.blocks[n], ref.blocks[n])


def test_errors_osc_and_stability_match_per_point_loops():
    case, data, space, grid = mixed_degree_run()
    sol = march(data, space, grid)

    errs = compute_errors(sol, case).as_dict()
    ref = slow.compute_errors(sol, case)
    for key in ref:
        assert_close(errs[key], ref[key])

    for m in (grid.n_intervals - 1, 1):
        assert_close(osc_terms(data, sol, m), slow.osc_terms(data, sol, m))

    report = stability_check(sol, data)
    lhs, rhs, m, energies = slow.stability_check(sol, data)
    assert report.m == m
    assert_close(report.slab_energy, energies)
    assert_close(report.lhs, lhs)
    assert_close(report.rhs, rhs)


@pytest.mark.parametrize("singular", [True, False])
def test_the_march_keeps_forcing_terms_and_grams_of_the_slow_reference(singular):
    # the march takes each slab's forcing terms from its load's samples, all
    # but those of a graded first slab, and each slab's Grams from its solve
    case, data, space, grid = mixed_degree_run()
    data = dataclasses.replace(data, singular_load=singular)
    sol = march(data, space, grid)
    M, K = slow.mass_stiffness(space)
    for n, p in enumerate(grid.degrees.tolist()):
        if n == 0 and singular:
            assert np.isnan(sol.f_sq[n]) and np.isnan(sol.osc_l1[n])
        else:
            assert_close(sol.f_sq[n], slow.forcing_sq(data, sol, n))
        modes = sol.modes([n])[0]
        coords = space.eigen_coords(modes)
        gram_m, gram_k = sol.grams[n, :, :p + 1, :p + 1]
        assert_close(gram_m, modes @ (M @ modes.T))
        assert_close(gram_k, modes @ (K @ modes.T))
        assert_close(gram_m, coords @ coords.T)
        assert_close(gram_k, (coords * space.stiffness_eigs) @ coords.T)
        padding = np.ones(sol.grams.shape[1:], dtype=bool)
        padding[:, :p + 1, :p + 1] = False
        assert np.isnan(sol.grams[n][padding]).all()
    osc = osc_terms(data, sol, grid.n_intervals - 1)
    assert_close(osc, slow.osc_terms(data, sol, grid.n_intervals - 1))


@pytest.mark.parametrize("singular", [True, False])
def test_the_march_forcing_terms_have_the_bits_of_a_fresh_evaluation(monkeypatch, singular):
    # chunks of two or three slabs, so that the load, which leaves out a
    # graded first slab, stacks the slabs otherwise than a fresh evaluation
    case, data, space, grid = repeated_degree_run()
    data = dataclasses.replace(data, singular_load=singular)
    monkeypatch.setattr(slabsolver, "STACK_BUDGET", 14 * 108)
    sol = march(data, space, grid)
    fresh = dataclasses.replace(sol)
    assert np.isnan(fresh.osc_l1).all() and np.isnan(fresh.f_sq).all()
    rows = slabsolver._forcing_rows(data, dataclasses.replace(sol), np.arange(grid.n_intervals))
    start = int(singular)
    assert sol.osc_l1[start:].tobytes() == rows[0, start:].tobytes()
    assert sol.f_sq[start:].tobytes() == rows[1, start:].tobytes()
    m = grid.n_intervals - 1
    assert osc_terms(data, sol, m).tobytes() == osc_terms(data, fresh, m).tobytes()
    assert sol.osc_l1.tobytes() == fresh.osc_l1.tobytes()
    assert stability_check(sol, data).rhs == stability_check(fresh, data).rhs


def repeated_degree_run():
    """case2 with the graded first slab on a non-uniform grid whose degrees
    repeat, so slabs of one degree are batched."""
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = TensorSpace(4, 3, 1)
    nodes = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.8, 1.0])
    grid = TimeGrid(nodes, np.array([2, 2, 3, 2, 3, 3, 2]))
    return case, data, space, grid


def test_repeated_degrees_in_split_chunks_match_per_point_loops(monkeypatch):
    case, data, space, grid = repeated_degree_run()
    # 14 time samples of the 12 x 9 Gauss grid: two or three slabs per run
    # at the 4 and 5 "gauss" points of degrees 2 and 3, and one at the 7 and
    # 9 "equispaced" points; the degrees 2, 2, 3, 2, 3, 3, 2 split each
    # degree's slabs into several runs, and the budget cuts slabs 4 and 5
    monkeypatch.setattr(slabsolver, "STACK_BUDGET", 14 * 108)
    for points, expected in [("gauss", [[0, 1], [2], [3], [4, 5], [6]]),
                             ("equispaced", [[0, 1], [2], [3], [4], [5], [6]])]:
        cost = slabsolver._sample_cost(space, points)
        runs = slabsolver._runs(grid, range(grid.n_intervals), cost)
        assert [slabs.tolist() for _, slabs in runs] == expected

    sol = march(data, space, grid)
    ref = slow.march(data, space, grid)
    for n in range(grid.n_intervals):
        assert_close(sol.blocks[n], ref.blocks[n])

    errs = compute_errors(sol, case).as_dict()
    for key, value in slow.compute_errors(sol, case).items():
        assert_close(errs[key], value)
    for m in (grid.n_intervals - 1, 3):
        assert_close(osc_terms(data, sol, m), slow.osc_terms(data, sol, m))
    report = stability_check(sol, data)
    lhs, rhs, m, energies = slow.stability_check(sol, data)
    assert report.m == m
    assert_close(report.slab_energy, energies)
    assert_close(report.lhs, lhs)
    assert_close(report.rhs, rhs)


@pytest.mark.parametrize("degree", range(2, 11))
def test_single_degree_errors_and_energies_match_per_point_loops(degree):
    case = make_case("case1")
    data = problem_data(case)
    space = TensorSpace(4, 3, 1)
    grid = TimeGrid.uniform(2.0, 4, degree)
    sol = march(data, space, grid)

    errs = compute_errors(sol, case).as_dict()
    for key, value in slow.compute_errors(sol, case).items():
        assert_close(errs[key], value)
    energies = [slow.slab_energy(sol, n) for n in range(grid.n_intervals)]
    assert_close(stability_check(sol, data).slab_energy, energies)


def test_the_h1_max_counts_the_initial_sample():
    # a standing wave on a coarse mesh: the spatial error dominates, so the
    # H1 error peaks where |cos(omega pi t)| = 1, at t = 0, the first
    # equispaced sample of slab 0 and of no other slab
    case = make_case("case3")
    sol = march(problem_data(case), TensorSpace(2, 2, 2), TimeGrid.uniform(1.0, 8, 3))
    errs = compute_errors(sol, case).as_dict()
    for key, value in slow.compute_errors(sol, case).items():
        assert_close(errs[key], value)


def test_runs_are_stretches_of_one_degree_within_the_budget(monkeypatch):
    # a run takes consecutive entries of the slab array, gaps included, of
    # one degree, at most STACK_BUDGET // cost(p) of them and at least one
    grid = TimeGrid(np.linspace(0.0, 1.0, 11), np.array([2, 2, 3, 3, 3, 2, 2, 2, 2, 4]))
    monkeypatch.setattr(slabsolver, "STACK_BUDGET", 6)

    def runs(slabs, cost):
        return [(p, run.tolist()) for p, run in slabsolver._runs(grid, slabs, cost)]

    assert runs(range(10), lambda p: p) == [
        (2, [0, 1]), (3, [2, 3]), (3, [4]), (2, [5, 6, 7]), (2, [8]), (4, [9])]
    assert runs([0, 1, 5, 6, 9], lambda p: 0) == [(2, [0, 1, 5, 6]), (4, [9])]
    assert runs([1, 2, 8], lambda p: 7) == [(2, [1]), (3, [2]), (2, [8])]
    assert runs([], lambda p: 1) == []


def test_runs_cut_where_the_degree_changes(monkeypatch):
    # the runs of random degree sequences and ascending slab subsets, empty
    # and single-slab ones included, are those cut at the degree changes
    # np.diff(degrees, prepend=0, append=0) marks (a degree is at least 2)
    def expected(grid, slabs, cost):
        degrees = grid.degrees[slabs]
        edges = np.flatnonzero(np.diff(degrees, prepend=0, append=0)).tolist()
        out = []
        for a, b in zip(edges[:-1], edges[1:]):
            p = int(degrees[a])
            size = max(1, slabsolver.STACK_BUDGET // max(cost(p), 1))
            out += [(p, slabs[first:min(first + size, b)].tolist())
                    for first in range(a, b, size)]
        return out

    monkeypatch.setattr(slabsolver, "STACK_BUDGET", 12)
    local = np.random.default_rng(11)
    for trial in range(300):
        n = int(local.integers(1, 30))
        degrees = local.integers(2, 5, size=n) if trial % 3 else np.full(n, 3)
        grid = TimeGrid(np.linspace(0.0, 1.0, n + 1), degrees)
        keep = local.random(n) < local.random()
        slabs = np.flatnonzero(keep) if trial % 4 else np.arange(n)
        if trial % 7 == 0:
            slabs = slabs[:1]
        cost = (lambda p: 0) if trial % 5 == 0 else (lambda p: p)
        got = [(p, run.tolist()) for p, run in slabsolver._runs(grid, slabs, cost)]
        assert got == expected(grid, slabs, cost)
    grid = TimeGrid(np.linspace(0.0, 1.0, 4), np.array([2, 3, 3]))
    assert list(slabsolver._runs(grid, np.array([], dtype=int), lambda p: 1)) == []
    assert [(p, run.tolist()) for p, run in slabsolver._runs(grid, [2], lambda p: 1)] == [
        (3, [2])]


@pytest.mark.parametrize("run", [mixed_degree_run, repeated_degree_run])
def test_space_kernel_evaluates_temporal_modes_once_per_chunk(monkeypatch, run):
    case, data, space, grid = run()
    monkeypatch.setattr(slabsolver, "STACK_BUDGET", 14 * 108)
    sol = march(data, space, grid)
    calls = []
    for name in ("eval_gauss", "eval_grad_gauss"):
        def counted(self, vec, name=name, real=getattr(TensorSpace, name)):
            calls.append((name, np.shape(vec)))
            return real(self, vec)
        monkeypatch.setattr(TensorSpace, name, counted)

    compute_errors(sol, case)
    expected = []
    cost = slabsolver._sample_cost(space, "gauss", "equispaced")
    for p, slabs in slabsolver._runs(grid, range(grid.n_intervals), cost):
        rows = (len(slabs) * (p + 1), space.n_dofs)
        expected += [("eval_gauss", rows), ("eval_grad_gauss", rows)]
    assert calls == expected
    calls.clear()
    stability_check(sol, data)
    assert calls == []


@pytest.mark.parametrize("samples", [14, 28])
@pytest.mark.parametrize("run", [mixed_degree_run, repeated_degree_run])
def test_error_norms_sample_within_the_stack_budget(monkeypatch, run, samples):
    case, data, space, grid = run()
    # `samples` time samples of the 12 x 9 Gauss grid per stacked array
    monkeypatch.setattr(slabsolver, "STACK_BUDGET", samples * 108)
    sol = march(data, space, grid)
    chunk_sizes, sizes = [], []
    real_modes, real_eval = slabsolver.SlabSolution.modes, TensorSpace.grid_eval

    def modes(self, slabs):
        chunk_sizes.append(len(slabs))
        return real_modes(self, slabs)

    def grid_eval(self, fn, t):
        out = real_eval(self, fn, t)
        sizes.append((out.size, chunk_sizes[-1]))
        return out

    monkeypatch.setattr(slabsolver.SlabSolution, "modes", modes)
    monkeypatch.setattr(TensorSpace, "grid_eval", grid_eval)
    errs = compute_errors(sol, case).as_dict()
    assert sizes
    for size, slabs in sizes:
        assert size <= slabsolver.STACK_BUDGET or slabs == 1
    if samples == 28 and run is repeated_degree_run:
        assert max(chunk_sizes) > 1
    for key, value in slow.compute_errors(sol, case).items():
        assert_close(errs[key], value)


def test_one_jump_evaluation_serves_a_whole_level(monkeypatch):
    # the jumps and their squared mass norms are each computed once, and
    # the norms take the level's only mass product of the jumps
    case, data, space, grid = mixed_degree_run()
    sol = march(data, space, grid)
    calls = []
    real = slabsolver.SlabSolution.jumps.func
    real_inner = TensorSpace.m_inner

    def counted(self):
        calls.append(self)
        return real(self)

    def counted_inner(self, u, v):
        calls.append("m_inner")
        return real_inner(self, u, v)

    monkeypatch.setattr(slabsolver.SlabSolution.jumps, "func", counted)
    monkeypatch.setattr(TensorSpace, "m_inner", counted_inner)
    report = estimate(sol, data)
    compute_errors(sol, case)
    stability_check(sol, data)
    quadrature_check(sol, data, report, tol=np.inf)
    assert calls == [sol, "m_inner"]


def test_jumps_and_estimator_match_per_slab_loops():
    case, data, space, grid = mixed_degree_run()
    sol = march(data, space, grid)

    jumps = sol.jumps
    assert jumps.shape == (grid.n_intervals, space.n_dofs)
    norms = space.m_norm(jumps)
    for n in range(grid.n_intervals):
        assert np.array_equal(jumps[n], slow.jump(sol, n))
        assert_close(norms[n], space.m_norm(jumps[n]))
        # each cached squared norm is the same product, to the bit
        assert sol.jump_sq[n] == space.m_inner(jumps[n], jumps[n])
    assert sol.jump_sq is sol.jump_sq
    with pytest.raises(ValueError, match="read-only"):
        sol.jump_sq[0] = 0.0

    value, arg = eta1(sol)
    ref_value, ref_arg = slow.eta1(sol)
    assert arg == ref_arg
    assert_close(value, ref_value)

    doubled = lambda p: 4 * p + 6
    for m in (grid.n_intervals - 1, 1):
        assert_close(eta2_terms(sol, m), slow.eta2_terms(sol, m))
        assert_close(eta2_terms(sol, m, points="gauss_doubled"),
                     slow.eta2_terms(sol, m, order_fn=doubled))


def test_eta2_makes_two_laplacian_evaluations(monkeypatch):
    case, data, space, grid = mixed_degree_run()
    sol = march(data, space, grid)
    calls = []
    real = TensorSpace.eval_laplacian_gauss

    def counted(self, vec):
        calls.append(np.shape(vec))
        return real(self, vec)

    monkeypatch.setattr(TensorSpace, "eval_laplacian_gauss", counted)
    for m in range(grid.n_intervals):
        # each m on a copy of the solution that knows no norms yet
        calls.clear()
        eta2_terms(dataclasses.replace(sol), m)
        assert calls == [(m + 1, space.n_dofs)] * 2


@pytest.mark.parametrize("degree, n_slabs", [(2, 12), (3, 13)])
def test_per_slab_estimator_terms_do_not_depend_on_the_chunks(monkeypatch, degree, n_slabs):
    # an adaptive run keeps each slab's terms, computed in other stacks than
    # a fresh evaluation uses, so a slab's terms must have the same bits in
    # any chunk: compare one slab per chunk with all slabs in one chunk
    data = problem_data(make_case("case2", alpha=1.75))
    space = TensorSpace(4, 4, 2)
    grid = TimeGrid.uniform(1.0, n_slabs, degree)
    sol = march(data, space, grid)

    def terms(budget, chunks):
        # on a copy of the solution that knows no terms yet, so that every
        # value is computed in this budget's chunks
        monkeypatch.setattr(slabsolver, "STACK_BUDGET", budget)
        cost = slabsolver._sample_cost(space, "gauss")
        assert len(list(slabsolver._runs(grid, range(n_slabs), cost))) == chunks
        fresh = dataclasses.replace(sol)
        return [(laplacian_norms(fresh, m), eta2_terms(fresh, m), osc_terms(data, fresh, m))
                for m in (n_slabs - 1, 5)]

    for single, together in zip(terms(1, n_slabs), terms(1 << 40, 1)):
        for one, all_ in zip(single, together):
            assert np.array_equal(one, all_)


@pytest.mark.parametrize("degree, n_slabs", [(2, 12), (3, 13)])
def test_per_slab_estimator_terms_do_not_depend_on_the_chunks_in_the_local_form(
        monkeypatch, degree, n_slabs):
    monkeypatch.setattr(spacefem, "_LOCAL_KERNEL_DOFS", 0)
    test_per_slab_estimator_terms_do_not_depend_on_the_chunks(monkeypatch, degree, n_slabs)


@pytest.mark.parametrize("degree, n_slabs", [(2, 12), (3, 13)])
def test_per_slab_error_partials_do_not_depend_on_the_chunks(monkeypatch, degree, n_slabs):
    # an adaptive run keeps each slab's error partials and reduces them with
    # those of slabs scored in other chunks, so a slab's partials must have
    # the same bits in any chunk: compare one slab per chunk with all slabs
    # in one chunk
    case = make_case("case2", alpha=1.75)
    space = TensorSpace(4, 4, 2)
    grid = TimeGrid.uniform(1.0, n_slabs, degree)
    sol = march(problem_data(case), space, grid, kept={})

    def partials(budget, chunks):
        monkeypatch.setattr(slabsolver, "STACK_BUDGET", budget)
        cost = slabsolver._sample_cost(space, "gauss", "equispaced")
        assert len(list(slabsolver._runs(grid, range(n_slabs), cost))) == chunks
        sol.partials[:] = np.nan
        compute_errors(sol, case)
        return sol.partials.copy()

    assert np.array_equal(partials(1, n_slabs), partials(1 << 40, 1))


@pytest.mark.parametrize("degree, n_slabs", [(2, 12), (3, 13)])
def test_per_slab_error_partials_do_not_depend_on_the_chunks_in_the_local_form(
        monkeypatch, degree, n_slabs):
    monkeypatch.setattr(spacefem, "_LOCAL_KERNEL_DOFS", 0)
    test_per_slab_error_partials_do_not_depend_on_the_chunks(monkeypatch, degree, n_slabs)


def test_runs_and_stacks_never_change_bits(monkeypatch):
    # the march solves and checks slabs in runs of one degree cut to
    # `STACK_BUDGET`, and the jumps go through the same runs; every value,
    # the estimate's included, must have the same bits under any cut.
    # The grid mixes degrees and has a long stretch of degree 2: a budget of
    # 300 values on this space (d = 25) cuts it into runs of two slabs
    # (2 p + 2 rows of d each), and a budget of 1 makes every run one
    # slab.  The adaptive history resumes a march at slab 3, inside a
    # fresh march's run of slabs 2 and 3, so its runs are cut elsewhere.
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = TensorSpace(3, 3, 2)
    degrees = [2] * 7 + [3, 3] + [2] * 4 + [4]
    grid = TimeGrid(np.linspace(0.0, 1.0, len(degrees) + 1), np.array(degrees))
    middle, default = 300, slabsolver.STACK_BUDGET
    real_resumable = slabsolver._resumable

    def values(budget):
        monkeypatch.setattr(slabsolver, "STACK_BUDGET", budget)
        solutions, resumed = [], []

        def recording_march(*args, **kwargs):
            solutions.append(slabsolver.march(*args, **kwargs))
            return solutions[-1]

        def recording_resumable(*args):
            resumed.append(real_resumable(*args))
            return resumed[-1]

        monkeypatch.setattr(waveslab.adaptive, "march", recording_march)
        monkeypatch.setattr(slabsolver, "_resumable", recording_resumable)
        fresh = march(data, space, grid)
        result = run_adaptive(data, space, grid, max_iters=6)
        assert 3 in resumed
        out = []
        for sol, report in [(fresh, estimate(fresh, data))] + [
                (sol, record.report) for sol, record in zip(solutions, result.history)]:
            e1, arg = eta1(sol)
            out += [np.concatenate(sol.blocks), sol.grams, sol.jumps, report.eta2_n,
                    np.array([report.eta, report.eta1, e1, arg])]
        return out

    monkeypatch.setattr(slabsolver, "STACK_BUDGET", middle)
    runs = slabsolver._runs(grid, range(len(degrees)), lambda p: (2 * p + 2) * space.n_dofs)
    assert [len(slabs) for _, slabs in runs] == [
        2, 2, 2, 1, 1, 1, 2, 2, 1]
    single = values(1)
    for budget in (middle, default):
        regrouped = values(budget)
        assert len(regrouped) == len(single)
        for one, other in zip(single, regrouped):
            # the Gram corners past a slab's degree are nan in both
            assert np.array_equal(one, other, equal_nan=True)

    # a bisected grid of one degree whose slab lengths differ in their last
    # bits: in one run, each slab must take its own history weights and
    # 2 / tau from the run's tables
    bisected = bisect(bisect(TimeGrid.uniform(1.0, 5, 2), range(5)), [0, 3, 4, 7])
    lengths = np.diff(bisected.nodes)
    assert lengths[2] != lengths[3] and abs(lengths[2] - lengths[3]) < 1e-15

    def marched(budget):
        monkeypatch.setattr(slabsolver, "STACK_BUDGET", budget)
        fresh = march(data, TensorSpace(3, 3, 2), bisected)
        return [np.concatenate(fresh.blocks), fresh.grams, fresh.jumps,
                estimate(fresh, data).eta2_n]

    monkeypatch.setattr(slabsolver, "STACK_BUDGET", default)
    assert len(list(slabsolver._runs(
        bisected, range(bisected.n_intervals), lambda p: (2 * p + 2) * space.n_dofs))) == 1
    for one, other in zip(marched(1), marched(default)):
        assert np.array_equal(one, other, equal_nan=True)


def test_gauss_rule_is_shared_and_read_only():
    x, w = gauss_legendre(7)
    again = gauss_legendre(7)
    assert again[0] is x and again[1] is w
    assert len(x) == 4
    for arr in (x, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_reference_tables_are_read_only():
    ref = reference_blocks(4)
    leg = ref["gauss"][2]
    for arr in (ref["A0"], ref["B0"], leg):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    theta, weights = ref["graded_load"][0]
    for arr in (theta, weights, ref["equispaced"][0], ref["psi_left"]):
        assert not arr.flags.writeable


@pytest.mark.parametrize("budget", [None, 1000])
def test_callables_are_called_once_per_chunk(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(slabsolver, "STACK_BUDGET", budget)
    case = make_case("case1")
    space = TensorSpace(2, 2, 1)  # 6 x 6 Gauss grid
    grid = TimeGrid.uniform(1.0, 40, 2)
    calls = {}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    counted_case = type(case)(**{
        **vars(case),
        **{key: counted(key, getattr(case, key)) for key in ("u", "du", "ux", "uy", "f")},
    })
    data = problem_data(counted_case)

    def n_chunks(slabs, *points):
        per_slab = sum(len(reference_blocks(2)[name][0]) for name in points) * 36
        return -(-slabs // max(1, slabsolver.STACK_BUDGET // per_slab))

    gauss, both = n_chunks(40, "gauss"), n_chunks(40, "gauss", "equispaced")
    assert (gauss, both) == ((1, 1) if budget is None else (7, 20))

    monkeypatch.setattr(TensorSpace, "load_vector",
                        counted("load_vector", TensorSpace.load_vector))
    sol = march(data, space, grid)
    # one load_vector per chunk, and one for the initial velocity's projection
    assert calls == {"f": gauss, "load_vector": gauss + 1}
    calls.clear()
    compute_errors(sol, counted_case)
    assert calls == {"u": both, "du": both, "ux": both, "uy": both}
    calls.clear()
    # the oscillation and the stability check read the forcing terms the
    # march took from its load's samples, and sample f only for another
    # forcing, once per chunk
    osc_terms(data, sol, grid.n_intervals - 1)
    stability_check(sol, data)
    assert calls == {}
    other = dataclasses.replace(data)
    osc_terms(other, sol, grid.n_intervals - 1)
    assert calls == {"f": gauss}
    calls.clear()
    report = stability_check(sol, other)
    assert calls == {"f": n_chunks(report.m + 1, "gauss")}


def test_callables_are_called_once_per_slab_or_panel():
    case, data, space, grid = mixed_degree_run()
    calls = {}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    counted_case = type(case)(**{
        **vars(case),
        **{key: counted(key, getattr(case, key)) for key in ("u", "du", "ux", "uy", "f")},
    })
    counted_data = ProblemData(u0=data.u0, grad_u0=data.grad_u0, u1=data.u1,
                               f=counted_case.f, exact=counted_case, singular_load=True)
    n_slabs = grid.n_intervals
    # the graded first slab's 46 panels, as many per call as the stack
    # budget holds
    panels = reference_blocks(int(grid.degrees[0]))["graded_load"]
    assert len(panels) == 46
    values = len(panels[0][0]) * space.gauss_x.size * space.gauss_y.size
    per_call = max(1, slabsolver.STACK_BUDGET // values)
    assert per_call > 1

    sol = march(counted_data, space, grid)
    assert calls == {"f": -(-46 // per_call) + n_slabs - 1}
    calls.clear()
    compute_errors(sol, counted_case)
    assert calls == {"u": n_slabs, "du": n_slabs, "ux": n_slabs, "uy": n_slabs}
    calls.clear()
    # the march's load samples give every slab's forcing terms but those
    # of the graded first slab, which keeps its plain Gauss rule; the
    # first reader to sample it stores both of its terms for the other
    osc_terms(counted_data, sol, n_slabs - 1)
    assert calls == {"f": 1}
    calls.clear()
    stability_check(sol, counted_data)
    assert calls == {}

    sol = march(counted_data, space, grid)
    calls.clear()
    stability_check(sol, counted_data)
    assert calls == {"f": 1}
    calls.clear()
    osc_terms(counted_data, sol, n_slabs - 1)
    assert calls == {}


@pytest.mark.parametrize("osc_first", [True, False])
def test_the_graded_slab_forcing_terms_are_those_of_a_fresh_evaluation(osc_first):
    # whichever reader samples the graded first slab stores both of its
    # forcing terms, with the bits a fresh evaluation gives them
    case, data, space, grid = mixed_degree_run()
    m = grid.n_intervals - 1
    sol = march(data, space, grid)
    assert np.isnan(sol.osc_l1[0]) and np.isnan(sol.f_sq[0])
    # another data object with the same forcing: computed, never stored
    fresh = slabsolver._forcing_rows(dataclasses.replace(data), sol, np.array([0]))[:, 0]
    assert np.isnan(sol.osc_l1[0]) and np.isnan(sol.f_sq[0])
    readers = [lambda: osc_terms(data, sol, m), lambda: stability_check(sol, data).rhs]
    first, second = readers if osc_first else readers[::-1]
    first()
    assert sol.osc_l1[0].tobytes() == fresh[0].tobytes()
    assert sol.f_sq[0].tobytes() == fresh[1].tobytes()
    second()
    other = march(data, space, grid)
    assert osc_terms(data, sol, m).tobytes() == osc_terms(data, other, m).tobytes()
    assert stability_check(sol, data).rhs == stability_check(other, data).rhs


def test_other_data_and_other_points_store_no_forcing_terms():
    case, data, space, grid = mixed_degree_run()
    sol = march(data, space, grid)
    before = sol.osc_l1.tobytes(), sol.f_sq.tobytes()
    assert np.isnan(sol.osc_l1[0]) and np.isnan(sol.f_sq[0])
    other = dataclasses.replace(data)
    report = estimate(sol, other)
    stability_check(sol, other)
    quadrature_check(sol, data, report, tol=np.inf)  # the "gauss_doubled" points
    assert (sol.osc_l1.tobytes(), sol.f_sq.tobytes()) == before


def test_one_load_assembly_per_slab_and_no_rule_rebuilt_when_warm(monkeypatch):
    case, data, space, grid = mixed_degree_run()

    def run_all():
        sol = march(data, space, grid)
        report = estimate(sol, data)
        compute_errors(sol, case)
        stability_check(sol, data)
        quadrature_check(sol, data, report, tol=np.inf)

    run_all()  # builds the per-degree tables
    calls = {}

    def counted(name, owner):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    counted("load_vector", TensorSpace)
    counted("legvander", npleg)
    counted("leggauss", npleg)

    # one per slab, the graded one included, plus the initial velocity
    march(data, space, grid)
    assert calls == {"load_vector": grid.n_intervals + 1}
    calls.clear()
    run_all()
    assert calls.get("legvander", 0) == 0 and calls.get("leggauss", 0) == 0
