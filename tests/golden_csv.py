"""Golden outputs of the demo configs, and the rule a fresh CSV must keep.

`tests/golden/<name>.csv` is the CSV that `demos/configs/<name>.yaml`
wrote when the goldens were made.  A fresh CSV matches its golden when the
headers and the number of rows agree and every cell but `wall_time` does:

- the norm columns, `eta`, `eta1`, `osc` and `kappa` (which is
  `eta / Linf_L2`) within 1e-9 |gold| + 1e-13, so round-off may move them
  but nothing larger;
- every other column (`level`, `p_x`, `p_t`, `N` and `dofs`, and `h` and
  `tau` as printed) character for character.

The goldens are the data of a correctness check: regenerate them only when
a column is meant to change, and list every cell that moved when you do.

Run as a script to check CSVs written by the command line, each against
the golden of the same file name; it prints every differing cell and exits
1 if there is one:

    PYTHONPATH=src python tests/golden_csv.py out/adaptive.csv out/p_refine.csv
"""

import csv
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

RTOL, ATOL = 1e-9, 1e-13
CLOSE = (
    "max_W1inf_L2", "max_Linf_H1", "L2_H1", "H1deriv_L2L2", "Linf_L2", "jump",
    "eta", "eta1", "osc", "kappa",
)
IGNORED = ("wall_time",)


def _read(path):
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return header, rows


def csv_differences(path, gold_path=None) -> list:
    """Every way the CSV at `path` departs from its golden, as text lines.

    The golden defaults to `tests/golden/` under the CSV's file name.  An
    empty list means the CSV matches.
    """
    path = Path(path)
    gold_path = GOLDEN / path.name if gold_path is None else Path(gold_path)
    gold_header, gold_rows = _read(gold_path)
    header, rows = _read(path)
    if header != gold_header:
        return [f"{path.name}: header {header} != {gold_header}"]
    if len(rows) != len(gold_rows):
        return [f"{path.name}: {len(rows)} rows != {len(gold_rows)}"]
    problems = []
    for number, (row, gold_row) in enumerate(zip(rows, gold_rows)):
        for column, cell, gold in zip(header, row, gold_row):
            if column in IGNORED:
                continue
            if column in CLOSE:
                new, old = float(cell), float(gold)
                same = new == old or abs(new - old) <= RTOL * abs(old) + ATOL
            else:
                same = cell == gold
            if not same:
                problems.append(f"{path.name}: row {number} {column} {cell} != {gold}")
    return problems


if __name__ == "__main__":
    status = 0
    for path in sys.argv[1:]:
        problems = csv_differences(path)
        print("\n".join(problems) or f"{path}: matches its golden")
        status |= bool(problems)
    sys.exit(status)
