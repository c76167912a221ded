"""Estimator terms against closed forms on fabricated slab solutions, plus
report structure on real runs."""

import dataclasses
import warnings

import numpy as np
import pytest

import slow_reference as slow
from waveslab import (
    ProblemData,
    SlabSolution,
    TensorSpace,
    TimeGrid,
    c3_constant,
    c4_constant,
    compute_errors,
    effectivity,
    estimate,
    make_case,
    march,
    problem_data,
    reconstruction_constants,
)
from waveslab.estimator import eta1, eta2_terms, laplacian_norms, osc_terms, quadrature_check

bump = lambda x, y: (1.0 - x**2) * (1.0 - y**2)
zero2 = lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
zero3 = lambda t, x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))

LAP_BUMP = np.sqrt(1408.0 / 45.0)  # L2 norm of the broken Laplacian of the bump

# The consistency terms integrate |L_2| in time with the production 4-point
# rule.  The rule is not exact for the kinked integrand: from the closed-form
# nodes +-sqrt(3/7 -+ 2/7 sqrt(6/5)) and weights (18 +- sqrt(30))/36 the rule
# assigns 7 sqrt(30)/45, a 10.7% overestimate of the true 4 sqrt(3)/9.  The
# closed forms below follow the rule, since that is what the terms are
# defined to compute.
L1_LEG2 = 7.0 * np.sqrt(30.0) / 45.0


def quadratic_in_time_solution(tau, slabs=1, kink=0.0, kink_at=1):
    """U(t) = t^2 * bump with an optional derivative kink added at one node."""
    space = TensorSpace(2, 2, 2)
    c = slow.interpolate(space, bump)
    grid = TimeGrid.uniform(slabs * tau, slabs, 2)
    blocks = []
    for n in range(slabs):
        a, b = grid.interval(n)
        ts = np.linspace(a, b, 3)
        vals = ts**2
        if kink and n >= kink_at:
            vals = vals + kink * (ts - grid.nodes[kink_at])
        blocks.append(np.outer(vals, c))
    sol = SlabSolution(grid=grid, space=space, blocks=blocks, u1h=np.zeros(space.n_dofs))
    return sol, space, c


def test_zero_solution_zero_report():
    space = TensorSpace(2, 2, 2)
    grid = TimeGrid.uniform(1.0, 3, 2)
    sol = SlabSolution(grid=grid, space=space,
                       blocks=[np.zeros((3, space.n_dofs)) for _ in range(3)],
                       u1h=np.zeros(space.n_dofs))
    data = ProblemData(u0=zero2, grad_u0=(zero2, zero2), u1=zero2, f=zero3)
    report = estimate(sol, data)
    assert report.eta1 == 0.0
    assert report.eta == 0.0
    assert report.osc == 0.0
    assert report.total == 0.0
    assert report.m == 2


def test_bilinear_space_has_no_consistency_terms():
    # the broken Laplacian vanishes identically on bilinear elements
    case = make_case("case1")
    space = TensorSpace(4, 4, 1)
    sol = march(problem_data(case), space, TimeGrid.uniform(1.0, 4, 2))
    assert np.all(eta2_terms(sol, 3) == 0.0)


def test_single_slab_consistency_term_closed_form():
    # U = t^2 bump on one slab with zero incoming data: no jumps, and the
    # top temporal mode is (tau^2/6) L_2, so the target-slab term is
    # 2 tau * (tau/2)(tau^2/6)|L_2|_1 * |Lap bump|
    tau = 0.7
    sol, space, c = quadratic_in_time_solution(tau)
    assert np.max(np.abs(sol.jumps[0])) < 1e-14
    terms = eta2_terms(sol, 0)
    expect = 2.0 * tau * (0.5 * tau * tau**2 / 6.0 * L1_LEG2) * LAP_BUMP
    assert abs(terms[0] - expect) < 1e-12 * expect


def test_two_slab_branch_weights():
    # away from the target slab the same quantity is weighted by
    # (2/pi) c3(p-1) instead of the plain factor 2
    tau = 0.4
    sol, space, c = quadratic_in_time_solution(tau, slabs=2)
    terms = eta2_terms(sol, 1)
    l1 = 0.5 * tau * tau**2 / 6.0 * L1_LEG2 * LAP_BUMP
    expect_far = (2.0 / np.pi) * tau * c3_constant(1) * l1
    expect_target = 2.0 * tau * l1
    assert abs(terms[0] - expect_far) < 1e-12 * expect_far
    assert abs(terms[1] - expect_target) < 1e-12 * expect_target
    # nothing is charged past the target slab
    assert np.all(eta2_terms(sol, 0)[1:] == 0.0)


def test_kinked_solution_jump_terms():
    # a derivative kink of size beta at the middle node contributes the
    # c4-weighted jump of the broken Laplacian on the middle slab
    tau, beta = 0.3, 0.9
    sol, space, c = quadratic_in_time_solution(tau, slabs=3, kink=beta, kink_at=1)
    jumps = sol.jumps
    assert np.allclose(jumps[1], beta * c, atol=1e-10)
    assert np.max(np.abs(jumps[2])) < 1e-10

    _, c2_sq, _ = reconstruction_constants(2)
    l1 = 0.5 * tau * tau**2 / 6.0 * L1_LEG2 * LAP_BUMP
    c4 = c4_constant(2, 3.0 * tau, 1.0 * tau, tau)
    assert abs(c4 - 2.0 * np.pi) < 1e-14
    expect_mid = (2.0 / np.pi) * (
        tau * c3_constant(1) * l1 + tau**3 * np.sqrt(c2_sq) * c4 * beta * LAP_BUMP
    )
    terms = eta2_terms(sol, 2)
    assert abs(terms[1] - expect_mid) < 1e-11 * expect_mid

    # the jump part of eta1: tau (c1^2 c2^2)^(1/4) times the mass norm
    c1_sq, _, _ = reconstruction_constants(2)
    val, arg = eta1(sol)
    expect = tau * (c1_sq * c2_sq) ** 0.25 * beta * space.m_norm(c)
    assert arg == 1
    assert abs(val - expect) < 1e-12 * expect


def test_eta1_scales_linearly_with_the_jump():
    tau = 0.3
    a, *_ = quadratic_in_time_solution(tau, slabs=3, kink=0.4)
    b, *_ = quadratic_in_time_solution(tau, slabs=3, kink=0.8)
    va, _ = eta1(a)
    vb, _ = eta1(b)
    assert abs(vb - 2.0 * va) < 1e-12 * vb
    # and so does the jump part of the target-slab consistency term
    base, *_ = quadratic_in_time_solution(tau, slabs=2, kink=0.0)
    ka, *_ = quadratic_in_time_solution(tau, slabs=2, kink=0.4, kink_at=1)
    kb, *_ = quadratic_in_time_solution(tau, slabs=2, kink=0.8, kink_at=1)
    da = eta2_terms(ka, 1)[1] - eta2_terms(base, 1)[1]
    db = eta2_terms(kb, 1)[1] - eta2_terms(base, 1)[1]
    assert abs(db - 2.0 * da) < 1e-10 * abs(db)


def test_equal_jumps_pick_the_first_slab():
    space = TensorSpace(2, 2, 2)
    c = slow.interpolate(space, bump)
    tau, beta = 0.5, 0.7
    grid = TimeGrid.uniform(2 * tau, 2, 2)
    ts = np.linspace(tau, 2 * tau, 3)
    blocks = [np.zeros((3, space.n_dofs)), np.outer(beta * (ts - tau), c)]
    sol = SlabSolution(grid=grid, space=space, blocks=blocks, u1h=-beta * c)
    jumps = sol.jumps
    assert np.allclose(jumps[0], beta * c, atol=1e-12)
    assert np.allclose(jumps[1], beta * c, atol=1e-12)
    _, arg = eta1(sol)
    assert arg == 0


def test_near_equal_jumps_pick_the_first_slab():
    # the later jump is larger by a few ulps, within the relative 1e-14 that
    # counts as a tie: a plain argmax would pick slab 1
    space = TensorSpace(2, 2, 2)
    c = slow.interpolate(space, bump)
    tau, beta = 0.5, 0.7
    grid = TimeGrid.uniform(2 * tau, 2, 2)
    ts = np.linspace(tau, 2 * tau, 3)
    later = beta * (1.0 + 16 * np.finfo(float).eps)
    blocks = [np.zeros((3, space.n_dofs)), np.outer(later * (ts - tau), c)]
    sol = SlabSolution(grid=grid, space=space, blocks=blocks, u1h=-beta * c)
    norms = np.sqrt(sol.jump_sq)
    assert norms[0] < norms[1] <= norms[0] * (1.0 + 1e-14)
    _, arg = eta1(sol)
    assert arg == 0


def test_oscillation_closed_form_and_degenerate_cases():
    tau = 0.6
    sol, space, _ = quadratic_in_time_solution(tau)
    flat = ProblemData(u0=zero2, grad_u0=(zero2, zero2), u1=zero2,
                       f=lambda t, x, y: (0.3 + 0.2 * t) * np.ones_like(x * y))
    assert np.max(np.abs(osc_terms(flat, sol, 0))) < 1e-14

    quad = ProblemData(u0=zero2, grad_u0=(zero2, zero2), u1=zero2,
                       f=lambda t, x, y: t**2 * np.ones_like(x * y))
    got = osc_terms(quad, sol, 0)[0]
    # defect = (tau^2/6) L_2 in time, constant 1 in space with L2 norm 2
    expect = 2.0 * tau * (0.5 * tau * tau**2 / 6.0 * L1_LEG2) * 2.0
    assert abs(got - expect) < 1e-12 * expect


def test_report_structure_on_a_singular_run():
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = TensorSpace(5, 5, 2)
    sol = march(data, space, TimeGrid.uniform(1.0, 5, 2))

    report = estimate(sol, data, localized=True)
    # the worst jump sits on the first slab, where the solution is rough
    assert report.eta1_argmax == 0
    assert report.m == 0
    assert np.all(report.local_n[1:] == 0.0)
    assert abs(np.sum(report.local_n) - report.eta) < 1e-12 * report.eta

    full = estimate(sol, data)
    assert full.m == 4
    assert abs(np.sum(full.local_n) - full.eta) < 1e-12 * full.eta
    # deterministic: identical inputs, identical report, on a copy of the
    # solution that knows none of the first report's terms
    again = estimate(dataclasses.replace(sol), data)
    assert again.m == full.m and again.eta1 == full.eta1
    assert np.array_equal(again.eta2_n, full.eta2_n)
    assert np.array_equal(again.osc_n, full.osc_n)


def test_include_osc_changes_only_the_total():
    case = make_case("case1")
    data = problem_data(case)
    space = TensorSpace(3, 3, 2)
    sol = march(data, space, TimeGrid.uniform(1.0, 4, 2))
    bare = estimate(sol, data)
    withosc = estimate(sol, data, include_osc=True)
    assert bare.eta == withosc.eta
    assert bare.total == bare.eta
    assert withosc.total == withosc.eta + withosc.osc
    assert withosc.osc > 0.0


def test_effectivity_and_reliability_small_run():
    case = make_case("case1")
    data = problem_data(case)
    space = TensorSpace(5, 5, 2)
    sol = march(data, space, TimeGrid.uniform(1.0, 5, 2))
    report = estimate(sol, data)
    errs = compute_errors(sol, case)
    kappa = effectivity(report, errs.Linf_L2)
    assert kappa == report.eta / errs.Linf_L2
    assert report.eta + report.osc >= errs.Linf_L2
    assert effectivity(report, 0.0) == float("inf")


def test_estimator_tracks_error_decay():
    # eta falls at the same order as the max-in-time L2 error
    case = make_case("case1")
    data = problem_data(case)
    space = TensorSpace(5, 5, 2)
    taus = np.array([0.2, 0.1, 0.05])
    etas, errs = [], []
    for tau in taus:
        sol = march(data, space, TimeGrid.uniform(1.0, round(1.0 / tau), 2))
        etas.append(estimate(sol, data).eta)
        errs.append(compute_errors(sol, case).Linf_L2)
    s_eta = np.polyfit(np.log(taus), np.log(etas), 1)[0]
    s_err = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert abs(s_eta - s_err) < 0.3, (s_eta, s_err)


def test_quadrature_check_reports_rule_sensitivity():
    # |L_2| integrated by the 4-point rule vs the doubled 8-point rule
    # differ structurally, and the check is there to surface exactly that
    tau = 0.7
    sol, space, _ = quadratic_in_time_solution(tau)
    data = ProblemData(u0=zero2, grad_u0=(zero2, zero2), u1=zero2, f=zero3)
    report = estimate(sol, data)
    e_std = eta2_terms(sol, 0)[0]
    e_dbl = eta2_terms(sol, 0, points="gauss_doubled")[0]
    expect = abs(e_dbl - e_std) / max(e_std, e_dbl)
    with pytest.warns(UserWarning, match="quadrature sensitivity"):
        worst = quadrature_check(sol, data, report)
    assert abs(worst - expect) < 1e-14
    assert 0.05 < worst < 0.2

    # with no consistency or oscillation content there is nothing to warn on
    zgrid = TimeGrid.uniform(1.0, 3, 2)
    zsol = SlabSolution(grid=zgrid, space=space,
                        blocks=[np.zeros((3, space.n_dofs)) for _ in range(3)],
                        u1h=np.zeros(space.n_dofs))
    zreport = estimate(zsol, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quadrature_check(zsol, data, zreport) == 0.0


def test_quadrature_check_reuses_the_laplacian_norms(monkeypatch):
    # one pair of broken-Laplacian evaluations per level, the top modes and
    # the jumps, serves the estimate and the doubled rule of the check
    data = problem_data(make_case("case2", alpha=1.75))
    space = TensorSpace(3, 3, 2)
    calls = []
    real = TensorSpace.eval_laplacian_gauss

    def counted(self, vec):
        calls.append(np.shape(vec))
        return real(self, vec)

    monkeypatch.setattr(TensorSpace, "eval_laplacian_gauss", counted)
    grids = (TimeGrid.uniform(1.0, 4, 2), TimeGrid.uniform(1.0, 6, 3),
             TimeGrid(np.array([0.0, 0.1, 0.4, 1.0]), np.array([4, 2, 3])))
    for grid in grids:
        marched = march(data, space, grid)
        for localized in (False, True):
            sol = dataclasses.replace(marched)  # a copy that knows no norms yet
            calls.clear()
            report = estimate(sol, data, localized=localized)
            worst = quadrature_check(sol, data, report, tol=np.inf)
            assert calls == [(report.m + 1, space.n_dofs)] * 2
            # the doubled eta2 terms and norms equal those of a fresh copy,
            # which computes its norms, and so does the sensitivity, to the bit
            m = report.m
            fresh = dataclasses.replace(marched)
            doubled = eta2_terms(fresh, m, points="gauss_doubled")
            assert np.array_equal(eta2_terms(sol, m, points="gauss_doubled"), doubled)
            assert np.array_equal(laplacian_norms(sol, m), laplacian_norms(fresh, m))
            ref = np.concatenate([report.eta2_n, report.osc_n])
            new = np.concatenate([doubled, osc_terms(data, sol, m, points="gauss_doubled")])
            denom = np.maximum(np.maximum(np.abs(ref), np.abs(new)), 1e-300)
            assert worst == float(np.max(np.abs(new - ref) / denom))


def test_estimator_reliable_on_geometric_variable_degree_grids():
    # case2 (alpha 1.75, singular at t = 0) on a space that is exact for it:
    # nodes 0, 0.2^L, ..., 0.2, 1 with degrees 2, ..., L + 2
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = TensorSpace(5, 5, 2)
    kappas, dofs, errors = [], [], []
    for levels in range(1, 9):
        nodes = np.concatenate(([0.0], 0.2 ** np.arange(levels, 0, -1), [1.0]))
        grid = TimeGrid(nodes, np.arange(2, levels + 3))
        sol = march(data, space, grid)
        error = compute_errors(sol, case).Linf_L2
        report = estimate(sol, data)
        assert report.eta >= error, (levels, report.eta, error)
        kappas.append(effectivity(report, error))
        dofs.append(grid.degrees.sum())
        errors.append(error)
    assert max(kappas) / min(kappas) <= 2.0, kappas
    # exponential decay exp(-b sqrt(DoF)) in the temporal DoFs, fitted from
    # L = 3 on (5 to 54 DoFs over all levels); measured b = 1.92
    b = np.polyfit(np.sqrt(dofs[2:]), -np.log(errors[2:]), 1)[0]
    assert b >= 1.8, b
    # 54 temporal DoFs beat 160 uniform ones of degree 2
    assert grid.degrees.sum() == 54
    uniform = march(data, space, TimeGrid.uniform(1.0, 80, 2))
    assert error < compute_errors(uniform, case).Linf_L2
