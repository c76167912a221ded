"""The mutation gate's mutants must match the code they plant faults in.

A mutant whose text no longer occurs exactly once in its file would fail
only the slow `tests/mutation_gate.py` run; this check fails the tier-1
suite instead.  The gate deselects it in its own runs, where a planted
mutant unmatches its text by construction.
"""

import mutation_gate


def test_every_mutant_matches_the_code_once():
    assert mutation_gate.check_matches(mutation_gate.MUTANTS) == []
