"""The benchmark's workloads, written against waveslab's public API.

Each workload has a `setup` that builds everything the benchmark constructs
before the first march, and a `run` that executes one full pass and returns
one `(label, outputs, size)` triple per operation.  An operation is one
level (march, estimate, errors, stability) or one adaptive iteration; its
outputs are checked against the recorded reference.

Package functions are always reached through their module objects
(`ws.march`, `experiments.run_suite`), never bound to local names, so the
tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import math
import random
from pathlib import Path

import numpy as np

import waveslab as ws
from waveslab import experiments

NORMS = ("max_W1inf_L2", "max_Linf_H1", "L2_H1", "H1deriv_L2L2", "Linf_L2", "jump")

CASES = {
    "case1": ("case1", {}),
    "case2a1.75": ("case2", {"alpha": 1.75}),
    "case2a2.5": ("case2", {"alpha": 2.5}),
    "case3": ("case3", {"m": 1, "n": 1, "omega": float(np.sqrt(2.0))}),
}


def _study_levels():
    """Acceptance-study levels on the h = 0.4 mesh: (label, case, slabs, p_t, T).

    The fixture's 654-slab level (tau = 1.53e-3) is left out to keep a pass
    near ten seconds.
    """
    levels = []
    for p in (2, 3):
        for tau in (0.2, 0.1, 0.05, 0.025, 0.0125):
            levels.append((f"smooth_tau p={p} tau={tau}", "case1", round(1.0 / tau), p, 1.0))
    for p in range(2, 7):
        levels.append((f"smooth_p p={p}", "case1", 5, p, 1.0))
    singular_taus = {
        "1.75": (0.2, 0.1, 0.05, 0.025, 0.0125, 6.13e-3, 3.06e-3),
        "2.5": (0.2, 0.1, 0.05, 0.025, 0.0125),
    }
    for alpha, taus in singular_taus.items():
        for tau in taus:
            levels.append((f"singular_tau a={alpha} tau={tau}", f"case2a{alpha}",
                           round(1.0 / tau), 2, 1.0))
        for p in range(2, 11):
            levels.append((f"singular_p a={alpha} p={p}", f"case2a{alpha}", 5, p, 1.0))
    for T in (6.0, 8.0, 10.0):
        levels.append((f"long_time T={T:g}", "case3", round(T / 0.2), 2, T))
    for tau in (0.2, 0.125, 0.0909, 0.0715, 0.0588):
        levels.append((f"kappa_p4 tau={tau}", "case1", round(1.0 / tau), 4, 1.0))
    return levels


STUDY_LEVELS = _study_levels()
SMOKE_LEVELS = [
    ("smooth_tau p=2 tau=0.2", "case1", 5, 2, 1.0),
    ("singular_tau a=1.75 tau=0.1", "case2a1.75", 10, 2, 1.0),
    ("singular_p a=2.5 p=4", "case2a2.5", 5, 4, 1.0),
    ("long_time T=2", "case3", 10, 2, 2.0),
]

ADAPTIVE_CONFIG = {
    "suite": "adaptive", "case": "case2", "alpha": 1.75, "h": 0.2,
    "theta": 0.5, "initial_n": 5, "eta_tol": 1e-5,
}
SMOKE_ADAPTIVE_CONFIG = dict(ADAPTIVE_CONFIG, h=0.4, initial_n=3, eta_tol=1e-3)


def _grid_size(space_dofs: int, grid) -> dict:
    degrees = [int(p) for p in grid.degrees]
    return {
        "d": int(space_dofs), "N": len(degrees), "p_min": min(degrees),
        "p_max": max(degrees), "dofs": int(space_dofs) * sum(degrees),
    }


def _level_outputs(sol, data, case, space):
    """Estimate, error norms and stability of a marched level, and its size."""
    report = ws.estimate(sol, data)
    errs = ws.compute_errors(sol, case)
    stab = ws.stability_check(sol, data)
    size = _grid_size(space.n_dofs, sol.grid)
    out = {key: float(val) for key, val in errs.as_dict().items()}
    out.update(
        eta=float(report.eta), eta1=float(report.eta1), osc=float(report.osc),
        kappa=float(report.eta / errs.Linf_L2),
        stability_lhs=stab.lhs, stability_rhs=stab.rhs,
        N=size["N"], dofs=size["dofs"],
    )
    return out, size


# -- fine_space --------------------------------------------------------------

def setup_fine_space(smoke: bool, seed: int, out_dir: Path):
    nx, slabs = (4, 4) if smoke else (30, 20)
    space = ws.TensorSpace(nx, nx, 3)
    name, params = CASES["case3"]
    case = ws.make_case(name, **params)
    return {
        "space": space, "case": case, "data": ws.problem_data(case),
        "grid": ws.TimeGrid.uniform(1.0, slabs, 3),
    }


def run_fine_space(state, region):
    space, case, data, grid = state["space"], state["case"], state["data"], state["grid"]
    with region("bench.op"):
        sol = ws.march(data, space, grid)
        out, size = _level_outputs(sol, data, case, space)
    yield "fine_space", out, size


# -- many_slabs --------------------------------------------------------------

def setup_many_slabs(smoke: bool, seed: int, out_dir: Path):
    levels = list(SMOKE_LEVELS if smoke else STUDY_LEVELS)
    random.Random(seed).shuffle(levels)
    space = ws.TensorSpace(5, 5, 2)  # h = 0.4 on (-1, 1)^2
    cases = {key: ws.make_case(name, **params) for key, (name, params) in CASES.items()}
    data = {key: ws.problem_data(case) for key, case in cases.items()}
    runs = [
        (label, cases[key], data[key], ws.TimeGrid.uniform(T, slabs, p))
        for label, key, slabs, p, T in levels
    ]
    return {"space": space, "runs": runs}


def run_many_slabs(state, region):
    space = state["space"]
    for label, case, data, grid in state["runs"]:
        with region("bench.op"):
            sol = ws.march(data, space, grid)
            out, size = _level_outputs(sol, data, case, space)
        yield label, out, size


# -- adaptive ----------------------------------------------------------------

def setup_adaptive(smoke: bool, seed: int, out_dir: Path):
    raw = dict(SMOKE_ADAPTIVE_CONFIG if smoke else ADAPTIVE_CONFIG, seed=seed)
    return {
        "raw": raw, "config": experiments.parse_config(raw),
        "csv": out_dir / f"adaptive{'-smoke' if smoke else ''}-seed{seed}.csv",
    }


@contextlib.contextmanager
def _keep_adaptive_result():
    """Hold on to what `run_suite` gets back from `run_adaptive`, whose
    grids the CSV rows do not carry."""
    inner = experiments.run_adaptive
    kept = []

    def keeping(*args, **kwargs):
        kept.append(inner(*args, **kwargs))
        return kept[-1]

    experiments.run_adaptive = keeping
    try:
        yield kept
    finally:
        experiments.run_adaptive = inner


def run_adaptive(state, region):
    with region("bench.op"), _keep_adaptive_result() as kept:
        config = experiments.parse_config(state["raw"])
        result = experiments.run_suite(config)
        path = experiments.emit_csv(result, state["csv"])
    rows_written = len(path.read_text(encoding="utf-8").splitlines()) - 1
    if rows_written != len(result.rows):
        raise RuntimeError(f"CSV holds {rows_written} rows, run gave {len(result.rows)}")
    history = kept[0].history
    for level, (row, record) in enumerate(zip(result.rows, history)):
        d = record.dofs // int(np.sum(record.grid.degrees))
        out = {key: float(row[key]) for key in NORMS}
        out.update(
            eta=float(row["eta"]), eta1=float(row["eta1"]), osc=float(row["osc"]),
            kappa=float(row["kappa"]), N=int(row["N"]), dofs=int(row["dofs"]),
            nodes=[float(t) for t in record.grid.nodes],
            degrees=[int(p) for p in record.grid.degrees],
        )
        yield f"iteration {level}", out, _grid_size(d, record.grid)


WORKLOADS = {
    "fine_space": (setup_fine_space, run_fine_space),
    "many_slabs": (setup_many_slabs, run_many_slabs),
    "adaptive": (setup_adaptive, run_adaptive),
}


# -- checking ------------------------------------------------------------------

def check(outputs: dict, reference: dict, tolerance: dict) -> list[str]:
    """Every way `outputs` differs from `reference`; empty when they agree.

    Floats agree when |x - ref| <= rtol * |ref| + atol; integers and grid
    degrees must match exactly, grid nodes to `nodes_rtol`.
    """
    problems = []
    if set(outputs) != set(reference):
        problems.append(f"keys {sorted(outputs)} != {sorted(reference)}")
        return problems
    rtol, atol = tolerance["rtol"], tolerance["atol"]
    for key, ref in reference.items():
        val = outputs[key]
        if key == "degrees" or isinstance(ref, int):
            if val != ref:
                problems.append(f"{key} {val} != {ref}")
        elif key == "nodes":
            if len(val) != len(ref) or not np.allclose(val, ref, rtol=tolerance["nodes_rtol"], atol=0.0):
                problems.append(f"{key} differ from the reference grid")
        elif not math.isfinite(val):
            problems.append(f"{key} is {val}")
        elif abs(val - ref) > rtol * abs(ref) + atol:
            problems.append(f"{key} {val!r} != {ref!r}")
    return problems
