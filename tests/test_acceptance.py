"""Release gate: end-to-end checks the package must pass before its numbers
are trusted.  Each test records one verdict line for the terminal summary.

Gates compare against fixed targets and frozen baselines.  Each target
follows from the method's approximation orders, and each comment next to a
check names the order it enforces and why: the displacement's H1 error
converges one order above the velocity, the singular degree study decays at
the rate set by the velocity's endpoint singularity, and the long-time
references describe the temporal error on a space-resolved mesh.
"""

import os
import time

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from conftest import record_criterion
from waveslab import (
    IntervalPoly,
    TensorSpace,
    TimeGrid,
    c3_constant,
    compute_errors,
    estimate,
    integrated_thomee,
    make_case,
    march,
    mu_n,
    problem_data,
    project_H1,
    project_L2,
    rate,
    reconstruct_slab,
    reconstruction_constants,
    stability_check,
    thomee_project,
    wihler_identities,
)
from waveslab.adaptive import run_adaptive, total_dofs

rng = np.random.default_rng(20240817)

TAUS_MAIN = (0.2, 0.1, 0.05, 0.025, 0.0125)
TAUS_KAPPA_P4 = (0.2, 0.125, 0.0909, 0.0715, 0.0588)
TAUS_SINGULAR = {
    1.75: (0.2, 0.1, 0.05, 0.025, 0.0125, 6.13e-3, 3.06e-3, 1.53e-3),
    2.5: (0.2, 0.1, 0.05, 0.025, 0.0125),
}
# tau-slopes of the velocity and jump errors for the singular case, frozen
# from the first verified run of this pipeline; locked to +-0.05
SLOPE_BASELINES = {1.75: (0.7497, 0.7495), 2.5: (1.4989, 1.4068)}

LONG_T = (6.0, 8.0, 10.0)
LONG_REF = {
    "error": (1.12e-1, 1.46e-1, 1.84e-1),
    "jump": (2.06, 2.32, 2.58),
    "eta": (3.16, 4.18, 5.23),
}
LONG_GROWTH = {
    "error": (0.93, 1.01),
    "jump": (0.42, 0.47),
    "eta": (0.97, 1.00),
}

MAIN_GROUPS = ("smooth_tau", "smooth_p", "singular_tau", "singular_p", "long_time")


def _conclude(number: int, checks: list[tuple[bool, str]]) -> None:
    failed = [msg for ok, msg in checks if not ok]
    detail = "; ".join(msg if ok else "FAIL " + msg for ok, msg in checks)
    record_criterion(number, not failed, detail)
    assert not failed, failed


def _fit(values, steps) -> float:
    return float(np.polyfit(np.log(steps), np.log(values), 1)[0])


@pytest.fixture(scope="session")
def study():
    """All uniform-grid runs the gates share, computed once."""
    space = TensorSpace(5, 5, 2)  # h = 0.4 on (-1, 1)^2
    runs = []
    times = {}

    def execute(group, label, case, n_slabs, p_t, T=1.0, space=space):
        data = problem_data(case)
        sol = march(data, space, TimeGrid.uniform(T, n_slabs, p_t))
        entry = {
            "group": group, "label": label, "data": data, "sol": sol,
            "errs": compute_errors(sol, case), "report": estimate(sol, data),
        }
        runs.append(entry)
        return entry

    case1 = make_case("case1")

    started = time.perf_counter()
    smooth_tau = {
        p: [execute("smooth_tau", f"case1 p={p} tau={tau}", case1, round(1.0 / tau), p)
            for tau in TAUS_MAIN]
        for p in (2, 3)
    }
    times["smooth_tau"] = time.perf_counter() - started

    started = time.perf_counter()
    smooth_p = [execute("smooth_p", f"case1 p={p} tau=0.2", case1, 5, p)
                for p in range(2, 7)]
    times["smooth_p"] = time.perf_counter() - started

    started = time.perf_counter()
    singular_tau, singular_p = {}, {}
    for alpha, taus in TAUS_SINGULAR.items():
        case2 = make_case("case2", alpha=alpha)
        singular_tau[alpha] = [
            execute("singular_tau", f"case2 a={alpha} tau={tau}", case2,
                    round(1.0 / tau), 2)
            for tau in taus
        ]
        singular_p[alpha] = [
            execute("singular_p", f"case2 a={alpha} p={p}", case2, 5, p)
            for p in range(2, 11)
        ]
    times["singular"] = time.perf_counter() - started

    # LONG_REF and LONG_GROWTH describe the temporal error with space
    # resolved.  sin(pi x) sin(pi y) is not in Q2, and on the shared h = 0.4
    # mesh its spatial error adds 5-7% to Linf_L2 and moves the steps of the
    # running maximum (error growth[1] 0.83 there).  From h = 0.25 on, the
    # errors no longer depend on the mesh: 0.1122 / 0.1467 / 0.1843-0.1852 on
    # nx = 8 and 16 at Q2 and on nx = 5 at Q3 and Q4.  The T=6 run on the
    # once-refined mesh lets criterion 7 check that this still holds.
    started = time.perf_counter()
    case3 = make_case("case3", m=1, n=1, omega=float(np.sqrt(2.0)))
    long_space = TensorSpace(8, 8, 2)  # h = 0.25
    long_time = [
        execute("long_time", f"case3 T={T:g}", case3, round(T / 0.2), 2, T=T,
                space=long_space)
        for T in LONG_T
    ]
    long_refined = execute("long_time_refined", f"case3 T={LONG_T[0]:g} nx=16", case3,
                           round(LONG_T[0] / 0.2), 2, T=LONG_T[0],
                           space=TensorSpace(16, 16, 2))
    times["long_time"] = time.perf_counter() - started

    kappa_p4 = [
        execute("kappa_p4", f"case1 p=4 tau={tau}", case1, round(1.0 / tau), 4)
        for tau in TAUS_KAPPA_P4
    ]

    return {
        "space": space, "runs": runs, "times": times,
        "smooth_tau": smooth_tau, "smooth_p": smooth_p,
        "singular_tau": singular_tau, "singular_p": singular_p,
        "long_time": long_time, "long_refined": long_refined, "kappa_p4": kappa_p4,
    }


def test_criterion_1_lift_identities_on_random_slabs():
    started = time.perf_counter()
    worst_l2, worst_sup, worst_slack = 0.0, 0.0, 1.0
    for p in range(2, 7):
        for _ in range(100):
            a = float(rng.uniform(-2.0, 2.0))
            tau = float(rng.uniform(0.05, 2.0))
            v = IntervalPoly((a, a + tau), rng.standard_normal(p + 1))
            jump = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0]))
            lifted = reconstruct_slab(v, v.deriv(a) - jump)
            ids = wihler_identities(v, lifted, jump)
            l, r = ids["deriv_l2"]
            worst_l2 = max(worst_l2, abs(l - r) / r)
            l, r = ids["deriv_linf"]
            worst_sup = max(worst_sup, abs(l - r) / r)
            l, r = ids["value_l2"]
            worst_slack = max(worst_slack, l / r)
    elapsed = time.perf_counter() - started
    _conclude(1, [
        (worst_l2 <= 1e-9, f"derivative L2 identity rel {worst_l2:.1e} <= 1e-9"),
        (worst_sup <= 1e-6, f"sampled sup identity rel {worst_sup:.1e} <= 1e-6"),
        (worst_slack <= 1.0 + 1e-9, f"value bound slack {worst_slack - 1.0:+.1e}"),
        (elapsed <= 10.0, f"runtime {elapsed:.1f}s <= 10s"),
    ])


def test_criterion_2_constants_exact():
    c1_2, c2_2, _ = reconstruction_constants(2)
    _, c2_3, _ = reconstruction_constants(3)
    _conclude(2, [
        (c1_2 == 2.0 / 15.0, "c1^2(2) = 2/15"),
        (c2_2 == 2.0 / (15.0 * np.pi**2), "c2^2(2) = 2/(15 pi^2)"),
        (c2_3 == 3.0 / 280.0, "c2^2(3) = 3/280"),
        (c3_constant(2) == float(np.sqrt(np.pi)), "c3(2) = sqrt(pi)"),
        (c3_constant(3) == 1.0, "c3(3) = 1"),
        (mu_n(2) == 1.0 / 20480.0, "mu_2 = 1/20480"),
    ])


def test_criterion_3_projector_suite():
    started = time.perf_counter()
    interval = (0.3, 1.1)
    a, b = interval
    xq = np.linspace(a, b, 17)

    reproduce = 0.0
    for p in range(2, 7):
        q = IntervalPoly(interval, rng.standard_normal(p + 1))
        scale = float(np.max(np.abs(q.eval(xq)))) or 1.0
        for out in (
            project_L2(q.eval, p, interval),
            project_H1(q.eval, q.deriv, p, interval),
            thomee_project(q.eval, p, interval),
            integrated_thomee(q.eval, q.deriv, p, interval),
        ):
            reproduce = max(reproduce, float(np.max(np.abs(out.eval(xq) - q.eval(xq)))) / scale)

    w, dw, d2w = np.exp, np.exp, np.exp
    relation = identity = 0.0
    for p in range(2, 7):
        P = integrated_thomee(w, dw, p, interval)
        Pt = thomee_project(dw, p - 1, interval)
        relation = max(relation, float(np.max(np.abs(P.deriv(xq) - Pt.eval(xq)))))
        proj = project_L2(w, p, interval)
        defect = float(w(b) - proj.eval(b))
        modes = proj.modes.copy()
        modes[p] += defect
        rebuilt = IntervalPoly(interval, modes)
        tp = thomee_project(w, p, interval)
        identity = max(identity, float(np.max(np.abs(tp.eval(xq) - rebuilt.eval(xq)))))

    # the moment identity is a property of the exact operator, so both the
    # operator and the moments get quadrature well beyond the integrands
    from waveslab import gauss_legendre
    gx, gw = gauss_legendre(61)
    tq = a + 0.5 * (b - a) * (gx + 1.0)
    variational = 0.0
    for p in (2, 3, 4):
        P = integrated_thomee(w, dw, p, interval, quad_order=61)
        d2P = P.deriv(tq, 2)
        for k in range(p):
            qpoly = IntervalPoly(interval, np.eye(p)[k])
            lhs = 0.5 * (b - a) * float(gw @ ((d2w(tq) - d2P) * qpoly.eval(tq)))
            rhs = float((P.deriv(a) - dw(a)) * qpoly.eval(a))
            variational = max(variational, abs(lhs - rhs) / max(abs(rhs), 1.0))

    elapsed = time.perf_counter() - started
    _conclude(3, [
        (reproduce <= 1e-12, f"polynomial reproduction {reproduce:.1e} <= 1e-12"),
        (relation <= 1e-11, f"derivative relation {relation:.1e} <= 1e-11"),
        (identity <= 1e-11, f"endpoint-defect identity {identity:.1e} <= 1e-11"),
        (variational <= 1e-9, f"second-derivative moments {variational:.1e} <= 1e-9"),
        (elapsed <= 5.0, f"runtime {elapsed:.1f}s <= 5s"),
    ])


def test_criterion_4_smooth_convergence_orders(study):
    checks = []
    for p in (2, 3):
        entries = study["smooth_tau"][p]
        w1 = _fit([e["errs"].max_W1inf_L2 for e in entries], TAUS_MAIN)
        h1 = _fit([e["errs"].max_Linf_H1 for e in entries], TAUS_MAIN)
        ju = _fit([e["errs"].jump for e in entries], TAUS_MAIN)
        checks.append((abs(w1 - p) <= 0.2, f"p={p} velocity slope {w1:.2f} in {p}+-0.2"))
        # only the velocity is limited to order p (u'_tau has degree p-1);
        # the displacement has degree p, so its best L_inf(H1) order is p+1,
        # and case1 has no spatial error on Q2 to hide it.  Local rates tend
        # to p+1: 2.79 -> 2.98 at p=2, 3.94 -> 4.00 at p=3.  The order p of
        # the a priori bound still holds, since p+1 >= p.
        checks.append(
            (abs(h1 - (p + 1)) <= 0.2, f"p={p} H1 slope {h1:.2f} in {p + 1}+-0.2")
        )
        checks.append(
            (abs(ju - (p - 0.5)) <= 0.2, f"p={p} jump slope {ju:.2f} in {p - 0.5}+-0.2")
        )
    elapsed = study["times"]["smooth_tau"]
    checks.append((elapsed <= 120.0, f"runtime {elapsed:.1f}s <= 120s"))
    _conclude(4, checks)


def test_criterion_5_spectral_decay_in_degree(study):
    entries = study["smooth_p"]
    fields = ("max_W1inf_L2", "max_Linf_H1", "L2_H1", "H1deriv_L2L2", "Linf_L2", "jump")
    drop_ok = True
    worst_second = -np.inf
    for field in fields:
        lnv = np.log([getattr(e["errs"], field) for e in entries])
        drop_ok = drop_ok and bool(np.all(np.diff(lnv) < 0.0))
        worst_second = max(worst_second, float(np.max(np.diff(lnv, 2))))
    elapsed = study["times"]["smooth_p"]
    _conclude(5, [
        (drop_ok, "all six error norms decrease strictly for p=2..6"),
        # near-linear log decay wobbles slightly; 0.25 absorbs the wobble
        # without letting genuine convexity through
        (worst_second <= 0.25, f"log-decay concavity defect {worst_second:+.2f} <= 0.25"),
        (elapsed <= 60.0, f"runtime {elapsed:.1f}s <= 60s"),
    ])


def test_criterion_6_singular_case_rates(study):
    checks = []
    for alpha, (base_w1, base_ju) in SLOPE_BASELINES.items():
        entries = study["singular_tau"][alpha]
        taus = TAUS_SINGULAR[alpha]
        w1 = _fit([e["errs"].max_W1inf_L2 for e in entries], taus)
        ju = _fit([e["errs"].jump for e in entries], taus)
        checks.append((
            w1 > 0 and abs(w1 - base_w1) <= 0.05,
            f"a={alpha} velocity tau-slope {w1:.4f} locked {base_w1}+-0.05",
        ))
        checks.append((
            ju > 0 and abs(ju - base_ju) <= 0.05,
            f"a={alpha} jump tau-slope {ju:.4f} locked {base_ju}+-0.05",
        ))
        # `jump` measures jumps of u'_tau, and u' = alpha t^(alpha-1), so the
        # endpoint singularity t^(alpha-1) sets the degree rate
        # p^(-2(alpha-1)) (Bernstein; Schwab 1998, ch. 3), as the velocity
        # tau-slopes of alpha-1 above also show.  The fit starts at p=4: at
        # p=2,3 the smooth slabs still carry part of the jump norm (the t=0
        # node holds 62% and 98% of its square at alpha=2.5), from p=4 on more
        # than 99.9% for both alphas.  Local rates fall toward the target,
        # 1.97 -> 1.59 at alpha=1.75 and 5.36 -> 3.19 at alpha=2.5.
        target = 2.0 * (alpha - 1.0)
        pentries = study["singular_p"][alpha][2:]
        decay = -_fit([e["errs"].jump for e in pentries], np.arange(4, 11))
        checks.append((
            abs(decay - target) <= 0.4,
            f"a={alpha} jump degree-decay p=4..10 {decay:.2f} vs {target:g}+-0.4",
        ))
    elapsed = study["times"]["singular"]
    checks.append((elapsed <= 180.0, f"runtime {elapsed:.1f}s <= 180s"))
    _conclude(6, checks)


def test_criterion_7_long_run_reference_values(study):
    entries = study["long_time"]
    measured = {
        "error": [e["errs"].Linf_L2 for e in entries],
        "jump": [e["errs"].jump for e in entries],
        "eta": [e["report"].eta for e in entries],
    }
    checks = []
    for name, ref in LONG_REF.items():
        for T, got, want in zip(LONG_T, measured[name], ref):
            checks.append((
                abs(got - want) <= 0.10 * want,
                f"{name} T={T:g}: {got:.3g} vs {want:g} +-10%",
            ))
    for name, ref in LONG_GROWTH.items():
        grew = rate(measured[name], LONG_T)
        for k, (got, want) in enumerate(zip(grew, ref)):
            checks.append((
                abs(got - want) <= 0.15,
                f"{name} growth[{k}] {got:.2f} vs {want:g} +-0.15",
            ))
    # the references hold only with space resolved (see the study fixture);
    # a once-refined mesh must leave the T=6 error within 1%
    coarse, fine = measured["error"][0], study["long_refined"]["errs"].Linf_L2
    checks.append((
        abs(coarse - fine) <= 0.01 * fine,
        f"error T={LONG_T[0]:g}: {coarse:.4g} on h=0.25 vs {fine:.4g} on h=0.125 +-1%",
    ))
    elapsed = study["times"]["long_time"]
    checks.append((elapsed <= 60.0, f"runtime {elapsed:.1f}s <= 60s"))
    _conclude(7, checks)


def test_criterion_8_reliability_on_every_run(study):
    entries = [e for e in study["runs"] if e["group"] in MAIN_GROUPS]
    worst, bad = np.inf, []
    for e in entries:
        ratio = (e["report"].eta + e["report"].osc) / e["errs"].Linf_L2
        worst = min(worst, ratio)
        if ratio < 1.0:
            bad.append(e["label"])
    _conclude(8, [(
        not bad,
        f"{len(entries)} runs, min (eta+osc)/error {worst:.2f} >= 1"
        + (f", violated by {bad}" if bad else ""),
    )])


def test_estimator_bounds_the_error_sampled_at_257_times_per_slab(study):
    # Linf_L2 samples 2p + 3 equispaced times per slab, which reads the
    # maximum up to 10.6% low (case2, N = 5, p = 6): criterion 8's bound must
    # hold for 257 equispaced samples per slab as well.  Each slab is sampled
    # through its temporal modes; no CSV column changes its sampling
    x = np.linspace(-1.0, 1.0, 257)
    entries = [e for e in study["runs"] if e["group"] in MAIN_GROUPS]
    worst = np.inf
    for e in entries:
        sol, case = e["sol"], e["data"].exact
        space, grid = sol.space, sol.grid
        error = 0.0
        for n in range(grid.n_intervals):
            a, b = grid.interval(n)
            values = npleg.legvander(x, int(grid.degrees[n])) @ sol.modes([n])[0]
            times = a + 0.5 * (b - a) * (x + 1.0)
            misfit = space.eval_gauss(values) - space.grid_eval(case.u, times)
            error = max(error, float(np.max(space.integrate(misfit * misfit))))
        worst = min(worst, (e["report"].eta + e["report"].osc) / np.sqrt(error))
    assert worst >= 1.0, (
        f"{len(entries)} runs, min (eta+osc)/error at 257 samples per slab {worst:.2f} < 1")


def test_criterion_9_effectivity_stays_bounded(study):
    checks = []
    for p, entries in ((2, study["smooth_tau"][2]), (3, study["smooth_tau"][3]),
                       (4, study["kappa_p4"])):
        kappas = [e["report"].eta / e["errs"].Linf_L2 for e in entries]
        ratio = max(kappas) / min(kappas)
        checks.append((
            ratio <= 10.0,
            f"p={p} kappa spread {ratio:.2f} <= 10 (range {min(kappas):.2f}-{max(kappas):.2f})",
        ))
    _conclude(9, checks)


def test_criterion_10_adaptive_beats_uniform(study):
    started = time.perf_counter()
    case = make_case("case2", alpha=1.75)
    data = problem_data(case)
    space = study["space"]
    result = run_adaptive(data, space, TimeGrid.uniform(1.0, 5, 2),
                          theta=0.5, max_iters=25)
    elapsed = time.perf_counter() - started

    taus = np.diff(result.final.grid.nodes)
    a_dofs = np.array([rec.dofs for rec in result.history], dtype=float)
    a_errs = np.array([rec.errors.Linf_L2 for rec in result.history])
    a_kappa = np.array([rec.kappa for rec in result.history])
    a_decay = -_fit(a_errs, a_dofs)

    uniform = study["singular_tau"][1.75][:4]
    u_dofs = np.array([total_dofs(e["sol"].grid, space) for e in uniform], dtype=float)
    u_errs = np.array([e["errs"].Linf_L2 for e in uniform])
    u_kappa = np.array([e["report"].eta / e["errs"].Linf_L2 for e in uniform])
    u_decay = -_fit(u_errs, u_dofs)

    # uniform kappa at the adaptive DoF counts, log-log interpolated
    matched = np.exp(np.interp(np.log(a_dofs[-2:]), np.log(u_dofs), np.log(u_kappa)))

    _conclude(10, [
        (taus.argmin() == 0, f"smallest interval ({taus.min():.2e}) abuts t=0"),
        (taus.min() < taus.max(), f"grid graded up to {taus.max() / taus.min():.0f}x"),
        (a_decay >= u_decay,
         f"error-vs-DoFs decay {a_decay:.2f} >= uniform {u_decay:.2f}"),
        (a_kappa[-1] <= u_kappa[-1],
         f"final kappa {a_kappa[-1]:.2f} <= final uniform {u_kappa[-1]:.2f}"),
        (bool(np.all(a_kappa[-2:] <= matched)),
         f"last kappas {np.round(a_kappa[-2:], 2)} <= uniform at matched DoFs {np.round(matched, 2)}"),
        (elapsed <= 180.0, f"runtime {elapsed:.1f}s <= 180s"),
    ])


def test_criterion_11_stability_bound_on_every_run(study):
    entries = [e for e in study["runs"] if e["group"] in MAIN_GROUPS]
    worst, bad = 0.0, []
    for e in entries:
        rep = stability_check(e["sol"], e["data"])
        worst = max(worst, rep.lhs / rep.rhs)
        if not rep.satisfied:
            bad.append(e["label"])
    _conclude(11, [(
        not bad,
        f"{len(entries)} runs, max lhs/rhs {worst:.2e} <= 1"
        + (f", violated by {bad}" if bad else ""),
    )])


@pytest.mark.skipif(os.environ.get("WAVESLAB_EXTENDED") != "1",
                    reason="set WAVESLAB_EXTENDED=1 for the high-mode study")
def test_extended_high_mode_degrees_tame_coarse_error():
    # coarse-grid error for the 10x10-mode standing wave drops with degree
    # under the coupled pairing h = 2 tau, p_x = p_t + 1
    case = make_case("case3", m=10, n=10, omega=float(10.0 * np.sqrt(2.0)))
    data = problem_data(case)
    errs = []
    for p_t in (2, 3, 4):
        space = TensorSpace(10, 10, p_t + 1)
        sol = march(data, space, TimeGrid.uniform(1.0, 10, p_t))
        errs.append(compute_errors(sol, case).Linf_L2)
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
