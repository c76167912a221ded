"""Every demo config still writes its golden CSV (`golden_csv`), up to round-off."""

from pathlib import Path

import pytest

from golden_csv import GOLDEN, csv_differences
from waveslab.experiments import emit_csv, parse_config, run_suite

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def test_every_demo_config_has_a_golden():
    assert sorted(p.stem for p in CONFIGS.glob("*.yaml")) == sorted(
        p.stem for p in GOLDEN.glob("*.csv"))


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_demo_config_matches_its_golden(name, tmp_path):
    result = run_suite(parse_config(CONFIGS / f"{name}.yaml"))
    path = emit_csv(result, tmp_path / f"{name}.csv")
    assert csv_differences(path) == []


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
