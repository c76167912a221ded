"""Every demo config still writes its golden CSV (`golden_csv`), up to round-off,
and demo scripts 03 to 05 still print their golden text.  Every row of a
uniform demo suite is, bit for bit, the row its level gives run alone.

`tests/golden/<script>.txt` is what `demos/<script>.py` printed when that
golden was made.  The numbers there have 3 to 7 significant digits, so an
exact match of the text is far coarser than round-off; like the CSVs,
regenerate one only when a printed number is meant to change.

Demos 01 and 02 have no golden: they print round-off-sized numbers by
design, such as `worst interface mismatch: 1.1e-16`, which moves whenever
the order of the arithmetic does.  They must still run to the end under
the project's warning filters, which make a `RuntimeWarning` an error.
"""

import random
import runpy
from pathlib import Path

import pytest

from golden_csv import GOLDEN, csv_differences
from waveslab import TensorSpace, experiments
from waveslab.experiments import emit_csv, parse_config, run_suite

DEMOS = Path(__file__).resolve().parent.parent / "demos"
CONFIGS = DEMOS / "configs"


def test_every_demo_config_has_a_golden():
    assert sorted(p.stem for p in CONFIGS.glob("*.yaml")) == sorted(
        p.stem for p in GOLDEN.glob("*.csv"))


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_demo_config_matches_its_golden(name, tmp_path):
    config = parse_config(CONFIGS / f"{name}.yaml")
    result = run_suite(config)
    path = emit_csv(result, tmp_path / f"{name}.csv")
    assert csv_differences(path) == []
    if config.suite == "adaptive":
        return
    # the levels of a uniform suite share a space and its kept factorizations
    # (`TensorSpace.slab_lu`); every row must still be, to the bit, the one
    # its level gives alone on a fresh space, whatever ran before it
    case = experiments._build_case(config)
    levels = list(enumerate(experiments._level_specs(config)))
    assert len(levels) == len(result.rows)
    random.Random(7).shuffle(levels)
    for level, (h, tau, p_x, p_t, T) in levels:
        space = TensorSpace(round(2.0 / h), round(2.0 / h), p_x)
        grid, errs, report, wall = experiments._uniform_level(case, space, tau, p_t, T)
        alone = experiments._level_row(level, grid.T / grid.n_intervals, p_x, p_t,
                                       grid, space, errs, report, wall)
        for key in result.columns:
            if key != "wall_time":
                got, want = float(result.rows[level][key]).hex(), float(alone[key]).hex()
                assert got == want, (level, key)


def test_the_comparison_catches_a_moved_cell(tmp_path):
    gold = GOLDEN / "p_refine.csv"
    lines = gold.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    moved = tmp_path / gold.name

    def write_with(column, value):
        cells = lines[1].rstrip("\n").split(",")
        cells[header.index(column)] = value
        moved.write_text(lines[0] + ",".join(cells) + "\n" + "".join(lines[2:]),
                         encoding="utf-8")
        return csv_differences(moved)

    cells = dict(zip(header, lines[1].rstrip("\n").split(",")))
    eta = float(cells["eta"])
    assert write_with("wall_time", "1.0") == []
    assert write_with("eta", repr(eta * (1.0 + 5e-10))) == []
    assert len(write_with("eta", repr(eta * (1.0 + 2e-9)))) == 1
    assert len(write_with("tau", f"{float(cells['tau']):.11e}")) == 1
    assert len(write_with("dofs", cells["dofs"] + "0")) == 1


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.txt")))
def test_demo_script_prints_its_golden(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", ["01_time_projectors", "02_single_mode_march"])
def test_demo_script_without_a_golden_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
