"""Fast checks of the benchmark itself, on the smoke sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, check=True):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    if check:
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])
    return done


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = bench("--workload", workload, "--seed", "7", "--trace", "0", "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer_counts_repeat(workload):
    runs = [bench("--workload", workload, "--seed", str(seed), "--trace", "1", "--smoke")
            for seed in (1, 2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["metrics"]["slabsolver.factorizations"]["value"] >= 1
    assert runs[0]["metrics"]["trace.overhead_ratio"]["value"] > 0
    if workload == "adaptive":
        assert counts[0]["adaptive.iterations"] == 4


def _copy_checkout(dest: Path, with_package: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_package:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def test_perturbed_reference_is_caught(tmp_path):
    checkout = _copy_checkout(tmp_path, with_package=True)
    path = checkout / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    ops = reference["smoke"]["many_slabs"]
    ops[sorted(ops)[0]]["eta"] *= 1.0 + 1e-4
    path.write_text(json.dumps(reference))
    result = bench("--workload", "many_slabs", "--seed", "3", "--trace", "0", "--smoke",
                   cwd=checkout)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // len(ops) >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    checkout = _copy_checkout(tmp_path, with_package=False)
    done = bench("--workload", "adaptive", "--seed", "1", "--trace", "0",
                 cwd=checkout, check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
