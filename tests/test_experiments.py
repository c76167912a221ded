"""Config parsing, suite execution, CSV output, and the command line."""

import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import waveslab
import waveslab.adaptive
import waveslab.experiments as experiments
from waveslab import ErrorBundle
from waveslab.cli import main
from waveslab.slabsolver import MAX_INTERVALS
from waveslab.experiments import (
    COLUMNS,
    Config,
    ConfigError,
    ExperimentResult,
    emit_csv,
    parse_config,
    run_from_file,
    run_suite,
)


def test_defaults_fill_in():
    cfg = parse_config({"suite": "tau_refine", "case": "case1", "tau_list": [0.2]})
    assert cfg.suite == "tau_refine" and cfg.case == "case1"
    assert cfg.T == 1.0 and cfg.h == 0.4
    assert cfg.p_x == 2 and cfg.p_t == 2
    assert cfg.theta == 0.5 and cfg.include_osc is False
    assert cfg.alpha == 1.75 and cfg.max_iters == 25
    assert cfg.eta_tol == 0.0 and cfg.initial_n == 5
    assert cfg.out == "results.csv" and cfg.seed is None
    with pytest.raises(AttributeError):
        cfg.not_a_key


def test_all_problems_reported_at_once():
    with pytest.raises(ConfigError) as info:
        parse_config({
            "suite": "bogus",
            "case": "case2",
            "p_t": 1,
            "alpha": 1.2,
            "tau": 0.3,
            "mystery": 17,
        })
    text = str(info.value)
    assert len(info.value.problems) >= 5
    for fragment in ("unknown key 'mystery'", "suite must be", "p_t", "alpha", "tau"):
        assert fragment in text, fragment


@pytest.mark.parametrize("key, value, kind", [
    ("T", True, "numeric"),
    ("h", True, "numeric"),
    ("tau_list", [True], "numeric"),
    ("T", float("inf"), "finite"),
    ("alpha", float("inf"), "finite"),
    ("T_list", [1.0, float("nan")], "finite"),
    ("seed", True, "integer"),
    ("p_t", 2.7, "integer"),
    ("p_x", 1.5, "integer"),
    ("mode_m", 1.5, "integer"),
    ("mode_n", 2.5, "integer"),
    ("max_iters", 3.5, "integer"),
    ("max_iters", float("inf"), "integer"),
    ("initial_n", 4.5, "integer"),
    ("seed", 7.5, "integer"),
    ("p_t_list", [2, 3.5], "integer"),
])
def test_booleans_and_fractional_integers_are_refused(key, value, kind):
    # YAML reads `true` as a boolean, which float() and int() take as 1;
    # int() truncates 2.7 to 2 and raises OverflowError on .inf, and a
    # float .inf or .nan passes float().  None of them may run as a number.
    config = {"suite": "effectivity", "case": "case3", "tau_list": [0.5],
              "p_t_list": [2], "mystery": 1, key: value}
    with pytest.raises(ConfigError) as info:
        parse_config(config)
    problems = info.value.problems
    assert "unknown key 'mystery'" in problems
    assert any(p.startswith(f"{key} ") and f" {kind}, got " in p for p in problems)


def test_step_divisibility_allows_decimal_roundings():
    # 0.0909 is the usual rounding of 1/11 and must pass; 0.07 must not
    ok = parse_config({
        "suite": "tau_refine", "case": "case1", "tau_list": [0.2, 0.0909],
    })
    assert ok.tau_list == [0.2, 0.0909]
    with pytest.raises(ConfigError, match="tau_list entry must divide"):
        parse_config({"suite": "tau_refine", "case": "case1", "tau_list": [0.07]})
    with pytest.raises(ConfigError, match="h must divide"):
        parse_config({
            "suite": "tau_refine", "case": "case1", "tau_list": [0.2], "h": 0.3,
        })


@pytest.mark.parametrize("key, text", [
    ("tau_list", "[1.0e-320]"), ("tau", "1.0e-320"), ("h", "1.0e-320"),
])
def test_a_subnormal_step_is_a_config_error(key, text, tmp_path, capsys):
    # T / tau overflows to inf, and round(inf) raised OverflowError, so the
    # command line reported a failed run (exit 2) for a bad config
    cfg = _write_config(tmp_path, f"suite: tau_refine\ncase: case1\n"
                                  f"tau_list: [0.5]\n{key}: {text}\n")
    with pytest.raises(ConfigError, match=f"{key}( entry)? must divide"):
        parse_config(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("text", [
    "suite: adaptive\ncase: case2\ninitial_n: 1" + "0" * 400 + "\n",
    "suite: tau_refine\ncase: case1\ntau_list: [1.0e-300]\n",
    "suite: p_refine\ncase: case1\ntau: 1.0e-300\np_t_list: [2]\n",
    "suite: long_time\ncase: case3\nT_list: [1.0e+300]\ntau: 1.0\n",
], ids=["initial_n", "tau_list", "tau", "T_list"])
def test_a_count_numpy_cannot_index_is_a_config_error(text, tmp_path, capsys):
    # these parsed, and the run then failed inside numpy (exit 2)
    cfg = _write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=str(MAX_INTERVALS)):
        parse_config(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_suite_specific_requirements():
    with pytest.raises(ConfigError, match="requires key 'p_t_list'"):
        parse_config({"suite": "p_refine", "case": "case1", "tau": 0.2})
    with pytest.raises(ConfigError, match="meant for case3"):
        parse_config({
            "suite": "spacetime_refine", "case": "case2", "tau_list": [0.2],
        })
    with pytest.raises(ConfigError, match="p_t <="):
        parse_config({
            "suite": "spacetime_refine", "case": "case3", "tau_list": [0.2],
            "p_t": 5,
        })
    with pytest.raises(ConfigError, match="tau 0.5 must divide T=1.2"):
        parse_config({
            "suite": "long_time", "case": "case3", "T_list": [1.0, 1.2], "tau": 0.5,
        })


def test_parse_accepts_mapping_string_and_file(tmp_path):
    text = "suite: tau_refine\ncase: case1\ntau_list: [0.5]\nseed: 7\n"
    path = tmp_path / "study.yaml"
    path.write_text(text)
    from_text = parse_config(text)
    from_file = parse_config(path)
    assert from_text.values == from_file.values
    assert from_file.seed == 7
    with pytest.raises(ConfigError, match="flat mapping"):
        parse_config("- 1\n- 2\n")


def test_long_yaml_text_is_not_taken_for_a_path():
    text = (
        "# Smooth-case time refinement on the coarse mesh; this comment makes\n"
        "# the document longer than the 255 bytes a file name may have, so the\n"
        "# text must be parsed as YAML and never looked up on disk.\n"
        "suite: tau_refine\ncase: case1\nh: 1.0\np_t: 2\n"
        "tau_list: [0.5, 0.25, 0.125]\nseed: 7\n"
    )
    assert 256 <= len(text.encode()) <= 320
    cfg = parse_config(text)
    assert cfg.tau_list == [0.5, 0.25, 0.125] and cfg.seed == 7


def _tiny_tau_config():
    return parse_config({
        "suite": "tau_refine", "case": "case1",
        "h": 1.0, "tau_list": [0.5, 0.25],
    })


def test_tau_refine_rows():
    result = run_suite(_tiny_tau_config())
    assert result.columns == COLUMNS
    assert [row["level"] for row in result.rows] == [0, 1]
    assert [row["N"] for row in result.rows] == [2, 4]
    # 2x2 bi-quadratic grid has 9 interior unknowns
    assert [row["dofs"] for row in result.rows] == [2 * 2 * 9, 4 * 2 * 9]
    for row in result.rows:
        assert set(COLUMNS) <= set(row)
        assert row["eta"] > 0 and row["kappa"] > 0
        assert row["kappa"] == row["eta"] / row["Linf_L2"]
    assert result.rows[1]["Linf_L2"] < result.rows[0]["Linf_L2"]


def test_fixed_config_is_deterministic_up_to_wall_time():
    first = run_suite(_tiny_tau_config())
    second = run_suite(_tiny_tau_config())
    for a, b in zip(first.rows, second.rows):
        for key in COLUMNS:
            if key != "wall_time":
                assert a[key] == b[key], key


def test_remaining_suites_produce_sane_rows():
    prow = run_suite(parse_config({
        "suite": "p_refine", "case": "case1", "h": 1.0,
        "tau": 0.5, "p_t_list": [2, 3],
    })).rows
    assert [r["p_t"] for r in prow] == [2, 3]
    assert prow[1]["Linf_L2"] < prow[0]["Linf_L2"]

    strow = run_suite(parse_config({
        "suite": "spacetime_refine", "case": "case3", "tau_list": [0.5], "p_t": 2,
    })).rows
    assert strow[0]["p_x"] == 3 and strow[0]["h"] == 0.5

    ltrow = run_suite(parse_config({
        "suite": "long_time", "case": "case3", "h": 0.5,
        "T_list": [1.0, 2.0], "tau": 0.5,
    })).rows
    assert [r["N"] for r in ltrow] == [2, 4]
    assert ltrow[1]["jump"] > ltrow[0]["jump"]

    efrow = run_suite(parse_config({
        "suite": "effectivity", "case": "case1", "h": 1.0,
        "tau_list": [0.5, 0.25], "p_t_list": [2, 3],
    })).rows
    assert [r["level"] for r in efrow] == [0, 1, 2, 3]
    assert [(r["p_t"], r["tau"]) for r in efrow] == [
        (2, 0.5), (2, 0.25), (3, 0.5), (3, 0.25),
    ]

    adrow = run_suite(parse_config({
        "suite": "adaptive", "case": "case2", "h": 0.5,
        "initial_n": 3, "max_iters": 3,
    })).rows
    assert len(adrow) == 3
    assert adrow[-1]["N"] > adrow[0]["N"]
    assert adrow[-1]["tau"] < adrow[0]["tau"]


def test_reported_h_is_the_mesh_that_ran(tmp_path, capsys):
    # spacetime_refine sets h = tau: a tau that does not divide 2 would run
    # a 7x7 mesh (h = 2/7) while reporting h = 0.3
    bad = {"suite": "spacetime_refine", "case": "case3", "T": 0.9,
           "tau_list": [0.3], "p_t": 2}
    with pytest.raises(ConfigError, match="tau_list entry must divide the domain side 2"):
        parse_config(bad)
    cfg = _write_config(tmp_path, "".join(f"{k}: {v}\n" for k, v in bad.items()))
    assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "config error" in capsys.readouterr().err
    # h = 0.99 passes the 2 percent allowance and runs the 2x2 mesh, h = 1
    for extra in ({"suite": "tau_refine", "tau_list": [0.5]},
                  {"suite": "adaptive", "initial_n": 2, "max_iters": 2}):
        rows = run_suite(parse_config({"case": "case1", "h": 0.99, **extra})).rows
        assert rows and all(row["h"] == 1.0 for row in rows)


def test_levels_on_one_mesh_share_one_space(monkeypatch):
    built = []

    class Counting(waveslab.TensorSpace):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "TensorSpace", Counting)
    base = {"case": "case1", "h": 1.0, "tau": 0.5, "T_list": [0.5, 1.0]}
    rows = {}
    for suite, lists, spaces in [
        ("effectivity", {"tau_list": [0.5, 0.25], "p_t_list": [2, 3]}, [(2, 2, 2)]),
        ("tau_refine", {"tau_list": [0.5, 0.25]}, [(2, 2, 2)]),
        ("p_refine", {"p_t_list": [2, 3]}, [(2, 2, 2)]),
        ("long_time", {}, [(2, 2, 2)]),
        ("spacetime_refine", {"tau_list": [0.5, 0.25]}, [(4, 4, 3), (8, 8, 3)]),
    ]:
        built.clear()
        rows[suite] = run_suite(parse_config({**base, "suite": suite, **lists})).rows
        assert built == spaces, suite
    # a shared space gives the rows of a space built for the level alone
    for row in rows["effectivity"]:
        alone = run_suite(parse_config({
            "suite": "tau_refine", "case": "case1", "h": row["h"], "p_x": row["p_x"],
            "p_t": row["p_t"], "tau_list": [row["tau"]],
        })).rows[0]
        for key in COLUMNS:
            if key not in ("level", "wall_time"):
                assert row[key] == alone[key], key


def test_zero_error_gives_infinite_kappa_in_every_suite(monkeypatch):
    # no demo config reaches a zero error, so force one: both row builders
    # must write the same kappa
    exact = ErrorBundle(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    stub = lambda sol, case: exact
    monkeypatch.setattr(experiments, "compute_errors", stub)
    monkeypatch.setattr(waveslab.adaptive, "compute_errors", stub)
    for config in (
        {"suite": "tau_refine", "case": "case1", "h": 1.0, "tau_list": [0.5]},
        {"suite": "adaptive", "case": "case2", "h": 1.0, "initial_n": 2, "max_iters": 2},
    ):
        rows = run_suite(parse_config(config)).rows
        assert rows and all(r["eta"] > 0 for r in rows)
        assert all(r["kappa"] == float("inf") for r in rows), config


def test_csv_round_trip(tmp_path):
    result = run_suite(_tiny_tau_config())
    path = emit_csv(result, tmp_path / "out.csv")
    with open(path, newline="") as handle:
        reader = list(csv.reader(handle))
    assert reader[0] == list(COLUMNS)
    assert len(reader) == 3
    for row, parsed in zip(result.rows, reader[1:]):
        for key, cell in zip(COLUMNS, parsed):
            if key in ("level", "p_x", "p_t", "N", "dofs"):
                assert int(cell) == row[key]
            else:
                assert abs(float(cell) - row[key]) <= 1e-12 * max(1.0, abs(row[key]))


def test_csv_header_only_for_empty_rows(tmp_path):
    empty = ExperimentResult(columns=COLUMNS, rows=[], config=None)
    path = emit_csv(empty, tmp_path / "empty.csv")
    assert path.read_text().strip() == ",".join(COLUMNS)


def _write_config(tmp_path, text):
    path = tmp_path / "study.yaml"
    path.write_text(text)
    return path


def test_cli_success(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "suite: tau_refine\ncase: case1\nh: 1.0\ntau_list: [0.5]\n",
    )
    out = tmp_path / "rows.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    assert str(out) in capsys.readouterr().out


def test_cli_honors_config_out_key(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(
        tmp_path,
        "suite: tau_refine\ncase: case1\nh: 1.0\ntau_list: [0.5]\nout: here.csv\n",
    )
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "here.csv").exists()


def test_cli_config_problems_exit_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, "suite: tau_refine\ncase: case1\n")
    assert main(["run", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    truncated = _write_config(tmp_path, "suite: tau_refine\ncase: case1\n"
                              "tau_list: [0.5]\np_t: 2.7\nh: true\n")
    assert main(["run", str(truncated), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error: p_t must be an integer, got 2.7" in err
    assert "config error: h must be numeric, got True" in err
    assert not (tmp_path / "x.csv").exists()
    # suite override introduces the problem; file itself is fine otherwise
    good = _write_config(tmp_path, "suite: tau_refine\ncase: case1\ntau_list: [0.5]\n")
    assert main(["run", str(good), "--suite", "p_refine",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1
    assert main(["frobnicate"]) == 1


def test_run_takes_no_seed_option(tmp_path, capsys):
    # `--seed` only copied a number into a key that nothing reads; the
    # `seed` key itself still parses
    cfg = _write_config(tmp_path, "suite: tau_refine\ncase: case1\nh: 1.0\ntau_list: [0.5]\n")
    assert main(["run", str(cfg), "--seed", "3", "--out", str(tmp_path / "x.csv")]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_malformed_yaml_is_a_config_error(tmp_path, capsys):
    text = "suite: tau_refine\ncase: case1\ntau_list: [0.5, 0.25\n"
    cfg = _write_config(tmp_path, text)
    for source in (text, cfg):
        with pytest.raises(ConfigError, match="malformed YAML"):
            parse_config(source)
    with pytest.raises(ConfigError, match="malformed YAML"):
        run_from_file(cfg, out=tmp_path / "x.csv")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "config error: malformed YAML" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cli_runtime_failure_exits_2(tmp_path, capsys, monkeypatch):
    cfg = _write_config(
        tmp_path,
        "suite: tau_refine\ncase: case1\nh: 1.0\ntau_list: [0.5]\n",
    )

    def boom(*args, **kwargs):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(experiments, "run_from_file", boom)
    assert main(["run", str(cfg)]) == 2
    assert "run failed" in capsys.readouterr().err


def test_cli_non_finite_forcing_exits_2(tmp_path, capsys, monkeypatch):
    cfg = _write_config(
        tmp_path,
        "suite: tau_refine\ncase: case1\nh: 1.0\ntau_list: [0.5]\n",
    )
    build = experiments._build_case

    def nan_forcing(config):
        return dataclasses.replace(build(config), f=lambda t, x, y: np.nan * (t + x + y))

    monkeypatch.setattr(experiments, "_build_case", nan_forcing)
    out = tmp_path / "rows.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "non-finite values in the load of slab 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_non_finite_initial_velocity_exits_2(tmp_path, capsys, monkeypatch):
    cfg = _write_config(
        tmp_path,
        "suite: tau_refine\ncase: case1\nh: 1.0\ntau_list: [0.5]\n",
    )
    build = experiments._build_case

    def nan_velocity(config):
        return dataclasses.replace(build(config), u1=lambda x, y: np.nan * (x + y))

    monkeypatch.setattr(experiments, "_build_case", nan_velocity)
    out = tmp_path / "rows.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "non-finite values in the projected initial velocity" in capsys.readouterr().err
    assert not out.exists()


def _import_env(**overrides):
    env = {k: v for k, v in os.environ.items()
           if k not in ("WAVESLAB_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(waveslab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(overrides)
    done = subprocess.run(
        [sys.executable, "-c",
         "import os, waveslab; print(os.environ.get('OMP_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout.strip()


def test_waveslab_threads_caps_blas_on_import():
    assert _import_env() == "None"


def test_run_from_file_overrides(tmp_path):
    cfg = _write_config(
        tmp_path,
        "suite: tau_refine\ncase: case1\nh: 1.0\ntau_list: [0.5]\n",
    )
    out = run_from_file(cfg, out=tmp_path / "a.csv")
    assert out == tmp_path / "a.csv" and out.exists()
