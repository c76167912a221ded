"""Mutation gate: the tests must fail on every known fault planted in the code.

    python tests/mutation_gate.py

Each mutant below is one text substitution in one file under `src/`, and
its text must occur there exactly once, so a mutant that no longer matches
the code fails the gate instead of passing unnoticed.  The runner copies
`src/`, `tests/`, `demos/` and `pyproject.toml` to a temporary directory
(under $TMPDIR, removed afterwards), checks that the unchanged copy passes
`python -m pytest -x -q tests`, and then, one mutant at a time, plants the
substitution in the copy and requires its tests to fail with failing tests
(exit status 1).  The checkout itself is never written.

Each mutant records its `killer`, the node id of the test that killed it
last.  That node runs first, on its own, and the mutant counts as killed
if it exits 1.  Otherwise, or without a recorded killer, the whole suite
runs under `-x` and the runner prints the node that failed first, the new
killer to record in the table.  A stale killer costs time only.

A mutant with an `equivalent` reason computes the same numbers, or only
changes speed, so no test can fail on it: the gate checks that its text
still matches and does not run it.  Marking a mutant equivalent, or
removing one, changes what the gate checks; do neither to get a pass.

pytest does not collect this file (it is not named `test_*.py`).  A
killer's own run takes a few seconds; a run of the whole suite as long as
the tier-1 suite, at most, since `-x` stops at the first failure.
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
          "--deselect", "tests/test_mutation_gate.py::test_every_mutant_matches_the_code_once")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    equivalent: str | None = None  # why no test can fail on it
    killer: str | None = None  # node id of the test that killed it last


MUTANTS = [
    # the one rule for numeric arguments (`_numbers`)
    Mutant("number accepts booleans", "src/waveslab/_numbers.py",
           "if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):",
           "if not isinstance(value, numbers.Real):",
           killer="tests/test_experiments.py::test_booleans_and_fractional_integers_are_refused[T-True-numeric]"),
    Mutant("number lets float() overflow", "src/waveslab/_numbers.py",
           "    try:\n        val = float(value)\n"
           "    except OverflowError:\n        val = math.inf\n",
           "    val = float(value)\n",
           killer="tests/test_numbers.py::test_uniform_grid"),
    Mutant("number_array skips the sequence boolean scan", "src/waveslab/_numbers.py",
           "isinstance(v, (bool, np.bool_)) for v in", "False for v in",
           killer="tests/test_errors.py::test_rate_examples"),
    Mutant("number_array accepts non-finite floats", "src/waveslab/_numbers.py",
           "ok = np.isfinite(arr).all() and not (", "ok = not (",
           killer="tests/test_adaptive.py::test_marking_refuses_non_finite_indicators[nan]"),
    Mutant("number_array accepts fractional integers", "src/waveslab/_numbers.py",
           "if not ok or integer and not np.array_equal(out, arr):", "if not ok:",
           killer="tests/test_adaptive.py::test_bisection_refuses_non_integer_marks[marks0]"),
    # the space kernel
    Mutant("local kernel assigns the shared end node", "src/waveslab/spacefem.py",
           "nodes[..., p::p, :] += local[..., p, :]", "nodes[..., p::p, :] = local[..., p, :]",
           killer="tests/test_batched_kernel.py::test_space_kernel_matches_element_loops_in_the_local_form[1]"),
    Mutant("integrate by one matrix-vector product over the stack", "src/waveslab/spacefem.py",
           "out = ((self.gauss_wx @ values)[..., None, :] @ self.gauss_wy[:, None])[..., 0, 0]",
           "out = (self.gauss_wx @ values) @ self.gauss_wy",
           killer="tests/test_batched_kernel.py::test_space_kernel_matches_element_loops[1]"),
    # the march and its reuse between marches
    Mutant("LU key of 4 significant digits", "src/waveslab/slabsolver.py",
           'f"{tau:.11e}"', 'f"{tau:.3e}"',
           killer="tests/test_slabsolver.py::test_factorizations_kept_across_marches_on_one_space"),
    Mutant("slab LU with SuperLU's default panels", "src/waveslab/slabsolver.py",
           'permc_spec="NATURAL", panel_size=1, relax=1)', 'permc_spec="NATURAL")',
           killer="tests/test_slabsolver.py::test_slab_operator_is_the_kronecker_sum_in_natural_order[2]"),
    Mutant("a key is factorized from a later slab's length", "src/waveslab/slabsolver.py",
           "    for n in range(resumed, grid.n_intervals):\n        key = lu_keys[n]\n",
           "    for n in reversed(range(resumed, grid.n_intervals)):\n        key = lu_keys[n]\n",
           killer="tests/test_slabsolver.py::test_each_key_is_factorized_from_its_first_solved_slab"),
    Mutant("temporal degree above MAX_TIME_DEGREE accepted", "src/waveslab/slabsolver.py",
           "np.any((degrees < 2) | (degrees > MAX_TIME_DEGREE))", "np.any(degrees < 2)",
           killer="tests/test_numbers.py::test_uniform_grid"),
    Mutant("resume ignores u0h", "src/waveslab/slabsolver.py",
           "np.array_equal(last.blocks[0][0], u0h) and ", "",
           killer="tests/test_slabsolver.py::test_march_resumes_only_an_unchanged_start[u0h-0]"),
    Mutant("resume ignores u1h", "src/waveslab/slabsolver.py",
           " and np.array_equal(last.u1h, u1h)", "",
           killer="tests/test_slabsolver.py::test_march_resumes_only_an_unchanged_start[u1h-0]"),
    Mutant("march reuses another data object's records", "src/waveslab/slabsolver.py",
           "(last.data is not data or last.space is not space)", "(last.space is not space)",
           killer="tests/test_slabsolver.py::test_a_march_of_another_problem_reuses_nothing[data]"),
    Mutant("march reuses another space's records", "src/waveslab/slabsolver.py",
           "(last.data is not data or last.space is not space)", "(last.data is not data)",
           killer="tests/test_slabsolver.py::test_a_march_of_another_problem_reuses_nothing[space]"),
    Mutant("carry drops lap", "src/waveslab/slabsolver.py",
           'for name in ("lap", "energy", "partials", "_jump_sq"):',
           'for name in ("energy", "partials", "_jump_sq"):',
           killer="tests/test_slabsolver.py::test_an_adaptive_march_knows_the_values_of_its_copied_slabs"),
    Mutant("carry drops partials", "src/waveslab/slabsolver.py",
           'for name in ("lap", "energy", "partials", "_jump_sq"):',
           'for name in ("lap", "energy", "_jump_sq"):',
           killer="tests/test_errors.py::test_kept_error_partials_are_read_only_for_the_same_block"),
    Mutant("carry drops the squared jumps", "src/waveslab/slabsolver.py",
           'for name in ("lap", "energy", "partials", "_jump_sq"):',
           'for name in ("lap", "energy", "partials"):',
           killer="tests/test_slabsolver.py::test_an_adaptive_march_knows_the_values_of_its_copied_slabs"),
    Mutant("carry drops the energies", "src/waveslab/slabsolver.py",
           'for name in ("lap", "energy", "partials", "_jump_sq"):',
           'for name in ("lap", "partials", "_jump_sq"):',
           killer="tests/test_slabsolver.py::test_a_resumed_march_carries_its_energies_and_forcing_terms"),
    Mutant("carry drops the forcing terms", "src/waveslab/slabsolver.py",
           "        if key in known:\n", "        if False:\n",
           killer="tests/test_slabsolver.py::test_an_adaptive_march_knows_the_values_of_its_copied_slabs"),
    Mutant("carry lap of one slab too many", "src/waveslab/slabsolver.py",
           "getattr(sol, name)[:resumed] = getattr(last, name)[:resumed]",
           'stop = resumed + (name == "lap")\n'
           "        getattr(sol, name)[:stop] = getattr(last, name)[:stop]",
           killer="tests/test_golden.py::test_demo_config_matches_its_golden[adaptive]"),
    Mutant("carry partials of one slab too many", "src/waveslab/slabsolver.py",
           "getattr(sol, name)[:resumed] = getattr(last, name)[:resumed]",
           'stop = resumed + (name == "partials")\n'
           "        getattr(sol, name)[:stop] = getattr(last, name)[:stop]",
           killer="tests/test_acceptance.py::test_criterion_10_adaptive_beats_uniform"),
    Mutant("carry energies of one slab too many", "src/waveslab/slabsolver.py",
           "getattr(sol, name)[:resumed] = getattr(last, name)[:resumed]",
           'stop = resumed + (name == "energy")\n'
           "        getattr(sol, name)[:stop] = getattr(last, name)[:stop]",
           killer="tests/test_slabsolver.py::test_a_resumed_march_carries_its_energies_and_forcing_terms"),
    Mutant("carry squared jumps of one slab too many", "src/waveslab/slabsolver.py",
           "getattr(sol, name)[:resumed] = getattr(last, name)[:resumed]",
           'stop = resumed + (name == "_jump_sq")\n'
           "        getattr(sol, name)[:stop] = getattr(last, name)[:stop]",
           killer="tests/test_acceptance.py::test_criterion_10_adaptive_beats_uniform"),
    Mutant("carry lap by key, whatever the slab's solution", "src/waveslab/slabsolver.py",
           "            sol.osc_l1[n], sol.f_sq[n] = known[key]\n",
           "            sol.osc_l1[n], sol.f_sq[n] = known[key]\n"
           "    rows = dict(zip(last.grid.slab_keys(), last.lap))\n"
           "    sol.lap[:] = [rows.get(key, (np.nan, np.nan)) for key in keys]\n",
           killer="tests/test_golden.py::test_demo_config_matches_its_golden[adaptive]"),
    Mutant("jump_sq filled from the slab after its first unknown one",
           "src/waveslab/slabsolver.py",
           "start = int(np.argmax(np.isnan(self._jump_sq)))",
           "start = int(np.argmax(np.isnan(self._jump_sq))) + 1",
           killer="tests/test_acceptance.py::test_criterion_4_smooth_convergence_orders"),
    Mutant("a slab reads its neighbour's history weights", "src/waveslab/slabsolver.py",
           "rhs = weights[j] @ history", "rhs = weights[j - 1] @ history",
           killer="tests/test_acceptance.py::test_criterion_10_adaptive_beats_uniform"),
    Mutant("a slab reads its neighbour's 2 / tau", "src/waveslab/slabsolver.py",
           "np.multiply(inverse[j], ", "np.multiply(inverse[j - 1], ",
           killer="tests/test_acceptance.py::test_criterion_10_adaptive_beats_uniform"),
    Mutant("a run's first slab reads a wrong junction row", "src/waveslab/slabsolver.py",
           "        value = run[-1]\n", "        value = run[-2]\n",
           killer="tests/test_acceptance.py::test_criterion_6_singular_case_rates"),
    # each slab's load, assembled into the rows its solve overwrites
    Mutant("a slab reads the load rows of its successor", "src/waveslab/slabsolver.py",
           "rhs += values[starts[n] + 1:starts[n + 1] + 1]",
           "rhs += values[starts[n + 1] + 1:starts[n + 2] + 1]",
           killer="tests/test_acceptance.py::test_criterion_4_smooth_convergence_orders"),
    Mutant("a slab's load rows start at its first node", "src/waveslab/slabsolver.py",
           "rhs += values[starts[n] + 1:starts[n + 1] + 1]",
           "rhs += values[starts[n]:starts[n + 1]]",
           killer="tests/test_acceptance.py::test_criterion_4_smooth_convergence_orders"),
    Mutant("a new record keeps a view of the rows its solve overwrites",
           "src/waveslab/slabsolver.py",
           "else values[starts[n] + 1:starts[n + 1] + 1].copy())",
           "else values[starts[n] + 1:starts[n + 1] + 1])",
           killer="tests/test_acceptance.py::test_criterion_10_adaptive_beats_uniform"),
    # the derivative jumps, a run and a chunk at a time
    Mutant("jumps subtract slab n's right derivative where slab n - 1's belongs",
           "src/waveslab/slabsolver.py",
           "rows[1:] -= right[:-1]", "rows[1:] -= right[1:]",
           killer="tests/test_batched_kernel.py::test_jump_rows_have_the_bits_of_one_table[repeated-1200]"),
    Mutant("a run's first jump row subtracts u1h for the previous slab's end derivative",
           "src/waveslab/slabsolver.py",
           "rows[0] -= incoming", "rows[0] -= self.u1h",
           killer="tests/test_batched_kernel.py::test_jump_rows_have_the_bits_of_one_table[mixed-None]"),
    Mutant("jumps from a later first slab take its predecessor's left derivative",
           "src/waveslab/slabsolver.py",
           "first - 1, first)[1][0])", "first - 1, first)[0][0])",
           killer="tests/test_batched_kernel.py::test_jump_rows_have_the_bits_of_one_table[mixed-None]"),
    # the runs every stacked pass takes
    Mutant("a run crosses a degree change", "src/waveslab/slabsolver.py",
           "edges = [0, *(np.flatnonzero(degrees[1:] != degrees[:-1]) + 1).tolist(), len(slabs)]",
           "edges = [0, len(slabs)]",
           killer="tests/test_batched_kernel.py::test_march_matches_per_point_loads"),
    Mutant("a run ignores its cost", "src/waveslab/slabsolver.py",
           "size = max(1, STACK_BUDGET // max(cost(p), 1))", "size = max(1, STACK_BUDGET)",
           killer="tests/test_batched_kernel.py::test_repeated_degrees_in_split_chunks_match_per_point_loops"),
    Mutant("stability jump weight 0.5", "src/waveslab/slabsolver.py",
           "lhs = mu * energies[m] + 0.25 * float(", "lhs = mu * energies[m] + 0.5 * float(",
           killer="tests/test_batched_kernel.py::test_errors_osc_and_stability_match_per_point_loops"),
    # the initial data, projected and measured by the space
    Mutant("march projects du0/dx as the initial velocity", "src/waveslab/slabsolver.py",
           "u1h = space.l2_project(data.u1)", "u1h = space.l2_project(data.grad_u0[0])",
           killer="tests/test_acceptance.py::test_criterion_4_smooth_convergence_orders"),
    Mutant("stability takes |u1| from du0/dx", "src/waveslab/slabsolver.py",
           "l2_u1 = space.l2_norm(space.grid_eval(data.u1))",
           "l2_u1 = space.l2_norm(space.grid_eval(gx))",
           killer="tests/test_batched_kernel.py::test_the_initial_data_go_through_the_spaces_projections_and_norms"),
    Mutant("stability takes |u0|_H1 from du0/dx alone", "src/waveslab/slabsolver.py",
           "space.h1_semi_norm(space.grid_eval(gx), space.grid_eval(gy))",
           "space.h1_semi_norm(space.grid_eval(gx), space.grid_eval(gx))",
           killer="tests/test_batched_kernel.py::test_the_initial_data_go_through_the_spaces_projections_and_norms"),
    # the short ufunc buffer of the pipeline's passes
    Mutant("compute_errors runs at the caller's ufunc buffer", "src/waveslab/errors.py",
           "@_short_buffer\ndef compute_errors(", "def compute_errors(",
           killer="tests/test_batched_kernel.py::test_the_short_buffer_never_changes_bits[shape0]"),
    Mutant("the caller's ufunc buffer size not restored", "src/waveslab/slabsolver.py",
           "            finally:\n                np.setbufsize(old)\n",
           "            finally:\n                pass\n",
           killer="tests/test_batched_kernel.py::test_the_callers_buffer_is_back_after_a_pass_returns_or_raises[False]"),
    # the loads and the forcing terms taken from their samples
    Mutant("a graded panel reads its neighbour's samples", "src/waveslab/slabsolver.py",
           "weights @ samples[j].reshape(", "weights @ samples[j - 1].reshape(",
           killer="tests/test_acceptance.py::test_criterion_6_singular_case_rates"),
    Mutant("slab 0 of a singular load takes its forcing terms from the graded samples",
           "src/waveslab/slabsolver.py",
           "if len(rule) == 1\n", "if True\n",
           killer="tests/test_acceptance.py::test_criterion_4_smooth_convergence_orders"),
    Mutant("forcing row sum by a matrix-vector product", "src/waveslab/slabsolver.py",
           "np.sum(rows * w, axis=2)", "(rows @ w)",
           killer="tests/test_batched_kernel.py::test_the_march_forcing_terms_have_the_bits_of_a_fresh_evaluation[True]"),
    # the forcing tables, read and filled by `_forcing_rows` alone
    Mutant("the stored f_sq taken from the osc_l1 row", "src/waveslab/slabsolver.py",
           "sol.osc_l1[missing], sol.f_sq[missing] = out[:, missing]",
           "sol.osc_l1[missing], sol.f_sq[missing] = out[0, missing], out[0, missing]",
           killer="tests/test_batched_kernel.py::test_errors_osc_and_stability_match_per_point_loops"),
    Mutant("the forcing terms a reader samples not stored", "src/waveslab/slabsolver.py",
           "    if own:\n        sol.osc_l1[missing]",
           "    if False:\n        sol.osc_l1[missing]",
           killer="tests/test_batched_kernel.py::test_the_march_forcing_terms_have_the_bits_of_a_fresh_evaluation[True]"),
    Mutant("forcing tables read and filled for another data object",
           "src/waveslab/slabsolver.py",
           'own = data is sol.data and points == "gauss"', 'own = points == "gauss"',
           killer="tests/test_batched_kernel.py::test_callables_are_called_once_per_chunk[None]"),
    Mutant("forcing tables read and filled on other points", "src/waveslab/slabsolver.py",
           'own = data is sol.data and points == "gauss"', "own = data is sol.data",
           killer="tests/test_batched_kernel.py::test_other_data_and_other_points_store_no_forcing_terms"),
    # the Laplacian norms and the squared jump norms, from one pass over the jumps
    Mutant("a chunk's top modes in reverse order of its degrees", "src/waveslab/slabsolver.py",
           "range(a, b), lambda p: 0)])", "range(a, b), lambda p: 0)][::-1])",
           killer="tests/test_batched_kernel.py::test_runs_and_stacks_never_change_bits"),
    Mutant("the top mode taken from row p - 1", "src/waveslab/slabsolver.py",
           "nodal_to_modal(p)[p] @ np.stack(", "nodal_to_modal(p)[p - 1] @ np.stack(",
           killer="tests/test_batched_kernel.py::test_jumps_and_estimator_match_per_slab_loops"),
    Mutant("a chunk's jump norms written one row off", "src/waveslab/slabsolver.py",
           "squares[b - len(unknown):b]", "squares[b - len(unknown) - 1:b - 1]",
           killer="tests/test_batched_kernel.py::test_the_passes_take_the_jumps_a_chunk_at_a_time[None]"),
    Mutant("the Laplacian pass recomputes the known rows", "src/waveslab/slabsolver.py",
           "start = stop - int(np.count_nonzero(np.isnan(lap[:stop, 0])))", "start = 0",
           killer="tests/test_batched_kernel.py::test_the_passes_take_the_jumps_a_chunk_at_a_time[None]"),
    Mutant("an estimate of the final slab derives each jump twice", "src/waveslab/estimator.py",
           "    if not localized:\n", "    if False:\n",
           killer="tests/test_batched_kernel.py::test_the_passes_take_the_jumps_a_chunk_at_a_time[None]"),
    # the estimator
    Mutant("eta1 takes a plain argmax", "src/waveslab/estimator.py",
           "arg = int(np.argmax(vals * (1.0 + 1e-14) >= np.max(vals)))",
           "arg = int(np.argmax(vals))",
           killer="tests/test_estimator.py::test_near_equal_jumps_pick_the_first_slab"),
    Mutant("target slab index unchecked", "src/waveslab/estimator.py",
           "if not 0 <= m < sol.grid.n_intervals:", "if False:",
           killer="tests/test_numbers.py::test_estimator_terms_check_the_target_and_the_points[laplacian_norms]"),
    Mutant("point set unchecked", "src/waveslab/estimator.py",
           'if not isinstance(points, str) or points not in ("gauss", "gauss_doubled"):',
           "if False:",
           killer="tests/test_numbers.py::test_estimator_terms_check_the_target_and_the_points[eta2_terms]"),
    Mutant("eta2 weight c3(p) for c3(p - 1)", "src/waveslab/estimator.py",
           "c3[slabs] = c3_constant(p - 1)", "c3[slabs] = c3_constant(p)",
           killer="tests/test_golden.py::test_demo_config_matches_its_golden[effectivity]"),
    Mutant("osc target slab weight tau for 2 tau", "src/waveslab/estimator.py",
           "np.where(last, 2.0 * tau,", "np.where(last, tau,",
           killer="tests/test_batched_kernel.py::test_errors_osc_and_stability_match_per_point_loops"),
    Mutant("c4 distance factor without its sqrt(pi) cap", "src/waveslab/timebasis.py",
           "dist = np.minimum(np.abs(t_m - t_prev), float(np.sqrt(np.pi)))",
           "dist = np.abs(t_m - t_prev)",
           killer="tests/test_acceptance.py::test_criterion_7_long_run_reference_values"),
    # the error norms
    Mutant("case2 default alpha 2.75", "src/waveslab/errors.py",
           'alpha = number(params.get("alpha", 1.75), "alpha")',
           'alpha = number(params.get("alpha", 2.75), "alpha")',
           killer="tests/test_errors.py::test_case2_default_alpha_is_the_studied_one"),
    Mutant("errors read the partials of another case", "src/waveslab/errors.py",
           "own = sol.data is not None and case is sol.data.exact", "own = sol.data is not None",
           killer="tests/test_errors.py::test_a_second_error_evaluation_of_the_solved_case_calls_no_exact_function"),
    Mutant("errors assume every solution has data", "src/waveslab/errors.py",
           "own = sol.data is not None and case is sol.data.exact",
           "own = case is sol.data.exact",
           killer="tests/test_errors.py::test_a_second_error_evaluation_of_the_solved_case_calls_no_exact_function"),
    Mutant("velocity max loses its first equispaced sample", "src/waveslab/errors.py",
           "np.max(dl2[:, ng:], axis=1)", "np.max(dl2[:, ng + 1:], axis=1)",
           killer="tests/test_batched_kernel.py::test_single_degree_errors_and_energies_match_per_point_loops[2]"),
    Mutant("H1 max loses its first equispaced sample", "src/waveslab/errors.py",
           "np.max(h1[:, ng:], axis=1)", "np.max(h1[:, ng + 1:], axis=1)",
           killer="tests/test_batched_kernel.py::test_the_h1_max_counts_the_initial_sample"),
    Mutant("an over-budget slab scored whole", "src/waveslab/errors.py",
           "split = len(run) == 1 and cost(p) > slabsolver.STACK_BUDGET", "split = False",
           killer="tests/test_batched_kernel.py::test_an_over_budget_slab_scored_in_halves_keeps_its_bits[mixed_degrees]"),
    Mutant("halves joined in swapped order", "src/waveslab/errors.py",
           "for a, b in zip(cuts[:-1], cuts[1:])], axis=1)",
           "for a, b in zip(cuts[:-1], cuts[1:])][::-1], axis=1)",
           killer="tests/test_batched_kernel.py::test_error_norms_sample_within_the_stack_budget[mixed_degree_run-14]"),
    Mutant("a second half starts one sample late", "src/waveslab/errors.py",
           "t[:, a:b], basis[..., a:b, :]",
           "t[:, a + (a > 0):b], basis[..., a + (a > 0):b, :]",
           killer="tests/test_batched_kernel.py::test_per_slab_error_partials_do_not_depend_on_the_chunks[2-12]"),
    Mutant("u cut where the Gauss rows are", "src/waveslab/errors.py",
           "[max(c - ng, 0) for c in cuts]", "cuts",
           killer="tests/test_batched_kernel.py::test_an_over_budget_slab_calls_each_exact_callable_once_per_half"),
    Mutant("uy scored against the x-derivative", "src/waveslab/errors.py",
           "misfit_sq(case.uy, t, leg, grad(1))", "misfit_sq(case.uy, t, leg, grad(0))",
           killer="tests/test_acceptance.py::test_criterion_4_smooth_convergence_orders"),
    Mutant("modes flattened with an inferred row count", "src/waveslab/errors.py",
           "modes.reshape(len(run) * (p + 1), space.n_dofs)", "modes.reshape(-1, space.n_dofs)",
           killer="tests/test_errors.py::test_a_space_without_interior_dofs_scores_the_exact_solution_alone[1-1-1]"),
    # adaptivity and the time basis
    Mutant("Doerfler marking without its round-off tolerance", "src/waveslab/adaptive.py",
           "theta * total - 1e-14 * total", "theta * total",
           killer="tests/test_adaptive.py::test_marking_examples"),
    Mutant("the adaptive loop stops without osc under include_osc", "src/waveslab/adaptive.py",
           "if report.eta + (report.osc if include_osc else 0.0) <= eta_tol:",
           "if report.eta <= eta_tol:",
           killer="tests/test_estimator.py::test_include_osc_changes_only_the_total"),
    # the study configuration
    Mutant("tau_refine takes a degree list", "src/waveslab/experiments.py",
           '"tau_refine": (("tau_list",), ("T", "h", "p_x", "p_t")),',
           '"tau_refine": (("tau_list",), ("T", "h", "p_x", "p_t", "p_t_list")),',
           killer="tests/test_experiments.py::test_a_config_holds_and_takes_only_the_keys_its_suite_and_case_read[tau_refine-case1]"),
    Mutant("a key its suite and case do not read is accepted", "src/waveslab/experiments.py",
           'for key in sorted(_KNOWN_KEYS.intersection(raw) - reads - {"suite", "case"}):',
           "for key in ():",
           killer="tests/test_experiments.py::test_a_config_holds_and_takes_only_the_keys_its_suite_and_case_read[adaptive-case1]"),
    Mutant("long_time reads T", "src/waveslab/experiments.py",
           '"long_time": (("T_list", "tau"), ("h", "p_x", "p_t")),',
           '"long_time": (("T_list", "tau"), ("T", "h", "p_x", "p_t")),',
           killer="tests/test_experiments.py::test_a_config_holds_and_takes_only_the_keys_its_suite_and_case_read[long_time-case1]"),
    Mutant("long_time checks tau against T", "src/waveslab/experiments.py",
           'T is None or suite == "long_time" or _steps_per(T, t)',
           "T is None or _steps_per(T, t)",
           killer="tests/test_experiments.py::test_long_time_checks_tau_only_against_its_final_times"),
    Mutant("p_refine's tau made optional", "src/waveslab/experiments.py",
           '"p_refine": (("tau", "p_t_list"), ("T", "h", "p_x")),',
           '"p_refine": (("p_t_list",), ("tau", "T", "h", "p_x")),',
           killer="tests/test_experiments.py::test_every_required_key_is_required[p_refine]"),
    Mutant("seed 0 refused", "src/waveslab/experiments.py",
           'check_num("seed", lambda v: v >= 0,', 'check_num("seed", lambda v: v > 0,',
           killer="tests/test_experiments.py::test_seed_zero_is_kept_and_a_negative_seed_refused"),
    Mutant("project_L2 default rule of order 2 p + 4", "src/waveslab/timebasis.py",
           "gauss_legendre(quad_order if quad_order is not None else 2 * degree + 3)",
           "gauss_legendre(quad_order if quad_order is not None else 2 * degree + 4)",
           killer="tests/test_timebasis.py::test_l2_projection_default_rule_has_order_2p_plus_3[0]"),
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


def run_tests(tree: Path, nodes=("tests",)) -> tuple[int, str, float]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    started = time.perf_counter()
    done = subprocess.run((*PYTEST, *nodes), cwd=tree, env=env, capture_output=True,
                          text=True, timeout=1200)
    return done.returncode, done.stdout + done.stderr, time.perf_counter() - started


def first_failure(output: str) -> str | None:
    """The node id of the first failed or erroring test in a pytest summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def kill(tree: Path, mutant: Mutant) -> tuple[int, str, float, str | None]:
    """Run the planted mutant's killer, then, unless it exits 1, the whole suite.

    Returns the exit status and output of the last run, the seconds of
    both, and the new killer when the whole suite ran and failed.
    """
    seconds = 0.0
    if mutant.killer:
        status, output, seconds = run_tests(tree, (mutant.killer,))
        if status == 1:
            return status, output, seconds, None
    status, output, more = run_tests(tree)
    return status, output, seconds + more, first_failure(output) if status == 1 else None


def check_matches(mutants) -> list[str]:
    """The mutants whose text does not occur exactly once in their file."""
    bad = []
    for mutant in mutants:
        count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            bad.append(f"{mutant.name}: its text occurs {count} times in {mutant.path}")
    return bad


def main() -> int:
    started = time.perf_counter()
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
                status, output, seconds, killer = kill(tree, mutant)
            finally:
                path.write_text(text, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (exit {status})")
            print(f"  {verdict:<10}  {mutant.name} ({seconds:.1f} s)")
            if killer:
                print(f"              new killer: {killer!r}")
            if status != 1:
                print(output[-2000:])
                problems.append(f"{mutant.name}: {verdict}")
    for problem in problems:
        print(problem)
    print(f"{time.perf_counter() - started:.0f} s in all")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
