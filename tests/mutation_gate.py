"""Mutation gate: the tests must fail on every known fault planted in the code.

    python tests/mutation_gate.py

Each mutant below is one text substitution in one file under `src/`, and
its text must occur there exactly once, so a mutant that no longer matches
the code fails the gate instead of passing unnoticed.  The runner copies
`src/`, `tests/`, `demos/` and `pyproject.toml` to a temporary directory
(under $TMPDIR, removed afterwards), checks that the unchanged copy passes
`python -m pytest -x -q tests`, and then, one mutant at a time, plants the
substitution in the copy and requires that run to fail with failing tests
(exit status 1).  The checkout itself is never written.

A mutant with an `equivalent` reason computes the same numbers, or only
changes speed, so no test can fail on it: the gate checks that its text
still matches and does not run it.  Marking a mutant equivalent, or
removing one, changes what the gate checks; do neither to get a pass.

pytest does not collect this file (it is not named `test_*.py`).  It takes
about as long as the tier-1 suite per mutant, at most, since `-x` stops at
the first failure: a few minutes in all.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")
# Without hypothesis's pytest plugin: on a failing example it imports its
# patch writer, whose optional dependency libcst raises a DeprecationWarning
# on import in some environments, which the project's warning filters turn
# into an internal error (exit 3) in place of the test failure (exit 1).
# Without the tier-1 check that every mutant matches the code: a planted
# mutant no longer matches by construction, so that check would kill every
# mutant whatever the other tests do (`main` runs the check itself).
PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "-p", "no:hypothesispytest",
          "--deselect", "tests/test_mutation_gate.py::test_every_mutant_matches_the_code_once",
          "tests")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    equivalent: str | None = None  # why no test can fail on it


MUTANTS = [
    # the one rule for numeric arguments (`_numbers`)
    Mutant("number accepts booleans", "src/waveslab/_numbers.py",
           "if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):",
           "if not isinstance(value, numbers.Real):"),
    Mutant("number lets float() overflow", "src/waveslab/_numbers.py",
           "    try:\n        val = float(value)\n"
           "    except OverflowError:\n        val = math.inf\n",
           "    val = float(value)\n"),
    Mutant("number_array skips the sequence boolean scan", "src/waveslab/_numbers.py",
           "isinstance(v, (bool, np.bool_)) for v in", "False for v in"),
    Mutant("number_array accepts non-finite floats", "src/waveslab/_numbers.py",
           "ok = np.isfinite(arr).all() and not (", "ok = not ("),
    Mutant("number_array accepts fractional integers", "src/waveslab/_numbers.py",
           "if not ok or integer and not np.array_equal(out, arr):", "if not ok:"),
    # the space kernel
    Mutant("local kernel assigns the shared end node", "src/waveslab/spacefem.py",
           "nodes[..., p::p, :] += local[..., p, :]", "nodes[..., p::p, :] = local[..., p, :]"),
    Mutant("integrate by one matrix-vector product over the stack", "src/waveslab/spacefem.py",
           "out = ((self.gauss_wx @ values)[..., None, :] @ self.gauss_wy[:, None])[..., 0, 0]",
           "out = (self.gauss_wx @ values) @ self.gauss_wy"),
    # the march and its reuse between marches
    Mutant("LU key of 4 significant digits", "src/waveslab/slabsolver.py",
           'f"{tau:.11e}"', 'f"{tau:.3e}"'),
    Mutant("temporal degree above MAX_TIME_DEGREE accepted", "src/waveslab/slabsolver.py",
           "np.any((degrees < 2) | (degrees > MAX_TIME_DEGREE))", "np.any(degrees < 2)"),
    Mutant("resume ignores u0h", "src/waveslab/slabsolver.py",
           "np.array_equal(last.blocks[0][0], u0h) and ", ""),
    Mutant("resume ignores u1h", "src/waveslab/slabsolver.py",
           " and np.array_equal(last.u1h, u1h)", ""),
    Mutant("march reuses another data object's records", "src/waveslab/slabsolver.py",
           "(last.data is not data or last.space is not space)", "(last.space is not space)"),
    Mutant("march reuses another space's records", "src/waveslab/slabsolver.py",
           "(last.data is not data or last.space is not space)", "(last.data is not data)"),
    Mutant("carry drops lap", "src/waveslab/slabsolver.py",
           'for name in ("lap", "partials", "_jump_sq"):',
           'for name in ("partials", "_jump_sq"):'),
    Mutant("carry drops partials", "src/waveslab/slabsolver.py",
           'for name in ("lap", "partials", "_jump_sq"):', 'for name in ("lap", "_jump_sq"):'),
    Mutant("carry drops the squared jumps", "src/waveslab/slabsolver.py",
           'for name in ("lap", "partials", "_jump_sq"):', 'for name in ("lap", "partials"):'),
    Mutant("carry drops the Grams", "src/waveslab/slabsolver.py",
           "    sol.grams[:resumed, :, :size, :size] = last.grams[:resumed, :, :size, :size]\n",
           ""),
    Mutant("carry drops the forcing terms", "src/waveslab/slabsolver.py",
           "        if key in known:\n", "        if False:\n"),
    Mutant("carry lap of one slab too many", "src/waveslab/slabsolver.py",
           "getattr(sol, name)[:resumed] = getattr(last, name)[:resumed]",
           'stop = resumed + (name == "lap")\n'
           "        getattr(sol, name)[:stop] = getattr(last, name)[:stop]"),
    Mutant("carry partials of one slab too many", "src/waveslab/slabsolver.py",
           "getattr(sol, name)[:resumed] = getattr(last, name)[:resumed]",
           'stop = resumed + (name == "partials")\n'
           "        getattr(sol, name)[:stop] = getattr(last, name)[:stop]"),
    Mutant("carry Grams of one slab too many", "src/waveslab/slabsolver.py",
           "sol.grams[:resumed, :, :size, :size] = last.grams[:resumed, :, :size, :size]",
           "sol.grams[:resumed + 1, :, :size, :size] = last.grams[:resumed + 1, :, :size, :size]"),
    Mutant("carry squared jumps of one slab too many", "src/waveslab/slabsolver.py",
           "getattr(sol, name)[:resumed] = getattr(last, name)[:resumed]",
           'stop = resumed + (name == "_jump_sq")\n'
           "        getattr(sol, name)[:stop] = getattr(last, name)[:stop]"),
    Mutant("carry lap by key, whatever the slab's solution", "src/waveslab/slabsolver.py",
           "            sol.osc_l1[n], sol.f_sq[n] = known[key]\n",
           "            sol.osc_l1[n], sol.f_sq[n] = known[key]\n"
           "    rows = dict(zip(last.grid.slab_keys(), last.lap))\n"
           "    sol.lap[:] = [rows.get(key, (np.nan, np.nan)) for key in keys]\n"),
    Mutant("jump_sq filled from the slab after its first unknown one",
           "src/waveslab/slabsolver.py",
           "start = int(np.argmax(np.isnan(self._jump_sq)))",
           "start = int(np.argmax(np.isnan(self._jump_sq))) + 1"),
    Mutant("a slab reads its neighbour's history weights", "src/waveslab/slabsolver.py",
           "rhs = weights[j] @ history", "rhs = weights[j - 1] @ history"),
    Mutant("a slab reads its neighbour's 2 / tau", "src/waveslab/slabsolver.py",
           "np.multiply(inverse[j], ", "np.multiply(inverse[j - 1], "),
    Mutant("a run's first slab reads a wrong junction row", "src/waveslab/slabsolver.py",
           "        value = run[-1]\n", "        value = run[-2]\n"),
    Mutant("jumps subtract slab n's right derivative where slab n - 1's belongs",
           "src/waveslab/slabsolver.py",
           "out[first + 1:stop] -= right[:-1]", "out[first + 1:stop] -= right[1:]"),
    # the runs every stacked pass takes
    Mutant("a run crosses a degree change", "src/waveslab/slabsolver.py",
           "edges = [0, *(np.flatnonzero(degrees[1:] != degrees[:-1]) + 1).tolist(), len(slabs)]",
           "edges = [0, len(slabs)]"),
    Mutant("a run ignores its cost", "src/waveslab/slabsolver.py",
           "size = max(1, STACK_BUDGET // max(cost(p), 1))", "size = max(1, STACK_BUDGET)"),
    Mutant("stability jump weight 0.5", "src/waveslab/slabsolver.py",
           "lhs = mu * energies[m] + 0.25 * float(", "lhs = mu * energies[m] + 0.5 * float("),
    Mutant("stability reads the forcing norms of another forcing", "src/waveslab/slabsolver.py",
           "f_sq = sol.f_sq if data is sol.data else", "f_sq = sol.f_sq if True else"),
    # the loads and the forcing terms taken from their samples
    Mutant("a graded panel reads its neighbour's samples", "src/waveslab/slabsolver.py",
           "weights @ samples[j].reshape(", "weights @ samples[j - 1].reshape("),
    Mutant("slab 0 of a singular load takes its forcing terms from the graded samples",
           "src/waveslab/slabsolver.py",
           "if len(rule) == 1\n", "if True\n"),
    Mutant("forcing row sum by a matrix-vector product", "src/waveslab/slabsolver.py",
           "np.sum(rows * w, axis=2)", "(rows @ w)"),
    # the forcing terms a reader samples, stored for the other reader
    Mutant("the stored f_sq taken from the osc_l1 row", "src/waveslab/slabsolver.py",
           "sol.osc_l1[slabs], sol.f_sq[slabs] = out[:, slabs]",
           "sol.osc_l1[slabs], sol.f_sq[slabs] = out[0, slabs], out[0, slabs]"),
    Mutant("forcing terms stored for another data object", "src/waveslab/slabsolver.py",
           'if data is sol.data and points == "gauss":', 'if points == "gauss":'),
    Mutant("forcing terms stored for other points", "src/waveslab/slabsolver.py",
           'if data is sol.data and points == "gauss":', "if data is sol.data:"),
    # the estimator
    Mutant("a chunk's top modes overwrite those of its earlier degrees",
           "src/waveslab/estimator.py", "done += len(run)", "done += 0"),
    Mutant("eta1 takes a plain argmax", "src/waveslab/estimator.py",
           "arg = int(np.argmax(vals * (1.0 + 1e-14) >= np.max(vals)))",
           "arg = int(np.argmax(vals))"),
    Mutant("target slab index unchecked", "src/waveslab/estimator.py",
           "if not 0 <= m < sol.grid.n_intervals:", "if False:"),
    Mutant("point set unchecked", "src/waveslab/estimator.py",
           'if not isinstance(points, str) or points not in ("gauss", "gauss_doubled"):',
           "if False:"),
    Mutant("eta2 weight c3(p) for c3(p - 1)", "src/waveslab/estimator.py",
           "c3[slabs] = c3_constant(p - 1)", "c3[slabs] = c3_constant(p)"),
    Mutant("osc target slab weight tau for 2 tau", "src/waveslab/estimator.py",
           "np.where(last, 2.0 * tau,", "np.where(last, tau,"),
    Mutant("osc reads the defects of another forcing", "src/waveslab/estimator.py",
           'own = data is sol.data and points == "gauss"', 'own = points == "gauss"'),
    Mutant("osc reads the defects on other points", "src/waveslab/estimator.py",
           'own = data is sol.data and points == "gauss"', "own = data is sol.data"),
    Mutant("c4 distance factor without its sqrt(pi) cap", "src/waveslab/timebasis.py",
           "dist = np.minimum(np.abs(t_m - t_prev), float(np.sqrt(np.pi)))",
           "dist = np.abs(t_m - t_prev)"),
    # the error norms
    Mutant("case2 default alpha 2.75", "src/waveslab/errors.py",
           'alpha = number(params.get("alpha", 1.75), "alpha")',
           'alpha = number(params.get("alpha", 2.75), "alpha")'),
    Mutant("errors read the partials of another case", "src/waveslab/errors.py",
           "own = sol.data is not None and case is sol.data.exact", "own = sol.data is not None"),
    Mutant("errors assume every solution has data", "src/waveslab/errors.py",
           "own = sol.data is not None and case is sol.data.exact",
           "own = case is sol.data.exact"),
    Mutant("velocity max loses its first equispaced sample", "src/waveslab/errors.py",
           "np.max(dl2[:, ng:], axis=1)", "np.max(dl2[:, ng + 1:], axis=1)"),
    Mutant("H1 max loses its first equispaced sample", "src/waveslab/errors.py",
           "np.max(h1[:, ng:], axis=1)", "np.max(h1[:, ng + 1:], axis=1)"),
    # adaptivity and the time basis
    Mutant("Doerfler marking without its round-off tolerance", "src/waveslab/adaptive.py",
           "theta * total - 1e-14 * total", "theta * total"),
    Mutant("the adaptive loop stops without osc under include_osc", "src/waveslab/adaptive.py",
           "if report.eta + (report.osc if include_osc else 0.0) <= eta_tol:",
           "if report.eta <= eta_tol:"),
    # the study configuration
    Mutant("tau_refine takes a degree list", "src/waveslab/experiments.py",
           '"tau_refine": (("tau_list",), ("T", "h", "p_x", "p_t")),',
           '"tau_refine": (("tau_list",), ("T", "h", "p_x", "p_t", "p_t_list")),'),
    Mutant("a key its suite and case do not read is accepted", "src/waveslab/experiments.py",
           'for key in sorted(_KNOWN_KEYS.intersection(raw) - reads - {"suite", "case"}):',
           "for key in ():"),
    Mutant("long_time reads T", "src/waveslab/experiments.py",
           '"long_time": (("T_list", "tau"), ("h", "p_x", "p_t")),',
           '"long_time": (("T_list", "tau"), ("T", "h", "p_x", "p_t")),'),
    Mutant("long_time checks tau against T", "src/waveslab/experiments.py",
           'T is None or suite == "long_time" or _steps_per(T, t)',
           "T is None or _steps_per(T, t)"),
    Mutant("p_refine's tau made optional", "src/waveslab/experiments.py",
           '"p_refine": (("tau", "p_t_list"), ("T", "h", "p_x")),',
           '"p_refine": (("p_t_list",), ("tau", "T", "h", "p_x")),'),
    Mutant("seed 0 refused", "src/waveslab/experiments.py",
           'check_num("seed", lambda v: v >= 0,', 'check_num("seed", lambda v: v > 0,'),
    Mutant("project_L2 default rule of order 2 p + 4", "src/waveslab/timebasis.py",
           "gauss_legendre(quad_order if quad_order is not None else 2 * degree + 3)",
           "gauss_legendre(quad_order if quad_order is not None else 2 * degree + 4)"),
    Mutant("reconstruction_constants not cached", "src/waveslab/timebasis.py",
           "@lru_cache(maxsize=None, typed=True)\ndef reconstruction_constants(",
           "def reconstruction_constants(",
           equivalent="speed only: the constants are recomputed with the same operations"),
]


def copy_tree(workdir: Path) -> Path:
    tree = workdir / "tree"
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=ignore)
        else:
            shutil.copy2(source, tree / name)
    return tree


def run_tests(tree: Path) -> tuple[int, str, float]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    started = time.perf_counter()
    done = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=1200)
    return done.returncode, done.stdout + done.stderr, time.perf_counter() - started


def check_matches(mutants) -> list[str]:
    """The mutants whose text does not occur exactly once in their file."""
    bad = []
    for mutant in mutants:
        count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            bad.append(f"{mutant.name}: its text occurs {count} times in {mutant.path}")
    return bad


def main() -> int:
    problems = check_matches(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as workdir:
        tree = copy_tree(Path(workdir))
        status, output, seconds = run_tests(tree)
        if status != 0:
            print(output[-3000:])
            print(f"the unchanged copy does not pass its tests (exit {status})")
            return 1
        print(f"unchanged copy passes ({seconds:.1f} s)")
        for mutant in MUTANTS:
            if mutant.equivalent:
                print(f"  equivalent  {mutant.name}: {mutant.equivalent}")
                continue
            path = tree / mutant.path
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                continue  # reported by check_matches
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                status, output, seconds = run_tests(tree)
            finally:
                path.write_text(text, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (exit {status})")
            print(f"  {verdict:<10}  {mutant.name} ({seconds:.1f} s)")
            if status != 1:
                print(output[-2000:])
                problems.append(f"{mutant.name}: {verdict}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
