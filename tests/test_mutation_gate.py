"""The mutation gate's table must match the code and the suite.

A mutant whose text no longer occurs exactly once in its file would fail
only the slow `tests/mutation_gate.py` run; this check fails the tier-1
suite instead.  The gate deselects it in its own runs, where a planted
mutant unmatches its text by construction.  A recorded killer that is no
longer a test node would only cost the gate a run of the whole suite per
mutant; the second check names it instead.
"""

import os
import subprocess
import sys

import mutation_gate


def test_every_mutant_matches_the_code_once():
    assert mutation_gate.check_matches(mutation_gate.MUTANTS) == []


def test_every_recorded_killer_is_a_test_node():
    killers = sorted({mutant.killer for mutant in mutation_gate.MUTANTS if mutant.killer})
    env = dict(os.environ, PYTHONPATH=str(mutation_gate.ROOT / "src"))
    done = subprocess.run(
        (sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *killers), cwd=mutation_gate.ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert set(killers) <= set(done.stdout.splitlines())
