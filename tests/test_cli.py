"""Command-line interface: subcommands, config plumbing, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from fanetsim.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DISCONNECTED,
    EXIT_NO_CONVERGENCE,
    TRACE_HEADER,
    TREE_DUMP_HEADER,
    main,
)
from fanetsim.harness import AGGREGATE_CSV_HEADER, CSV_HEADER


BASE = ["--n-uavs", "6", "--area-side", "8000", "--min-separation", "300",
        "--seed", "5", "--pb", "1.0", "--no-wall-time"]


def test_run_summary(capsys):
    assert main(["run", *BASE]) == 0
    out = capsys.readouterr().out
    assert "throughput_p11_bps" in out
    assert "throughput_p14_bps" in out
    assert "wall_ms              0.000" in out


def test_run_tree_dump(tmp_path, capsys):
    path = tmp_path / "tree.csv"
    assert main(["run", *BASE, "--tree-dump", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == TREE_DUMP_HEADER
    assert len(lines) == 1 + 6
    ids = [int(line.split(",")[0]) for line in lines[1:]]
    assert ids == sorted(ids)
    # every row parses and carries positive distance and gain
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert float(cells[2]) > 0.0 and float(cells[3]) > 0.0


def test_sweep_writes_both_csvs(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    agg = tmp_path / "agg.csv"
    rc = main(["sweep", *BASE, "--trials", "2",
               "--out", str(out), "--agg-out", str(agg)])
    capsys.readouterr()
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2
    aggs = agg.read_text().splitlines()
    assert aggs[0] == AGGREGATE_CSV_HEADER
    assert len(aggs) == 1 + 2


def test_sweep_stdout_default(capsys):
    rc = main(["sweep", *BASE, "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER + "\n")


def test_sweep_reruns_byte_identical(tmp_path, capsys):
    texts = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["sweep", *BASE, "--trials", "3", "--out", str(path)]) == 0
        texts.append(path.read_text())
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_trace_csv(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    assert main(["trace", *BASE, "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert float(cells[6]) <= 1e-8  # constraint residual


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {
        "n_uavs": 5,
        "area_side": 8000.0,
        "min_separation": 300.0,
        "seed": 9,
        "power_budget_Pb": 2.0,
        "measure_wall_time": False,
        "channel": {"freq_hz": 2e9, "noise_dbm_per_hz": -174.0},
        "solver": {"max_newton_iters": 80},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--seed", "12"]) == 0
    out = capsys.readouterr().out
    assert "seed                 12" in out  # flag wins over file
    assert "power_budget_w       2.0" in out


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["run", *BASE, "--trials", "0"]) == EXIT_CONFIG
    assert main(["run", "--n-uavs", "0"]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["run", *BASE, "--gamma-init", "-1"]) == EXIT_CONFIG
    assert main(["run", *BASE, "--gamma-growth", "1e300"]) == EXIT_CONFIG
    for flag, value in (("--pb", "nan"), ("--pb", "inf"), ("--area-side", "nan"),
                        ("--gs-x", "inf"), ("--bandwidth-hz", "nan"),
                        ("--epsilon", "inf"), ("--noise-dbm-hz", "5000")):
        assert main(["run", *BASE, flag, value]) == EXIT_CONFIG, (flag, value)
    assert main(["trace", *BASE, "--pb", "nan"]) == EXIT_CONFIG
    for flag, value in (("--n-uavs", "5.5"), ("--pb", "abc"), ("--seed", "-1")):
        assert main(["run", *BASE, flag, value]) == EXIT_CONFIG, (flag, value)
    assert main(["validate", "--seed", "-1"]) == EXIT_CONFIG
    assert main(["sweep", *BASE, "--n-uavs", ","]) == EXIT_CONFIG
    assert main(["sweep", *BASE, "--pb", ","]) == EXIT_CONFIG
    # config-file fields: non-integers and bools in integer fields, bools and
    # strings in real fields, and a non-bool wall-time switch, exit 2
    for fields in ({"n_uavs": math.nan}, {"n_uavs": 5.5}, {"n_uavs": True},
                   {"n_uavs": [6, 6.5]}, {"seed": 1.5}, {"seed": math.nan},
                   {"trials": 2.0}, {"placement_retry_budget": math.inf},
                   {"solver": {"max_newton_iters": math.nan}},
                   {"solver": {"max_newton_iters": 2.5}}, {"power_budget_Pb": "abc"},
                   {"power_budget_Pb": True}, {"power_budget_Pb": "2"},
                   {"power_budget_Pb": [1.0, True]}, {"altitude_H": True},
                   {"gs_x": True}, {"channel": {"bandwidth_B": True}},
                   {"channel": {"freq_hz": True}}, {"channel": {"noise_dbm_per_hz": "-174"}},
                   {"solver": {"gamma_growth": True}}, {"measure_wall_time": "no"}):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps(fields))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG, fields
    capsys.readouterr()


def test_exit_code_degenerate_channel(capsys):
    # At these path-loss exponents d**beta overflows on long links, whose gain
    # is then 0.0 and which therefore are not admissible.
    area = ["--n-uavs", "6", "--area-side", "8000", "--min-separation", "300"]
    assert main(["run", *area, "--pathloss-beta", "85"]) == EXIT_NO_CONVERGENCE
    assert main(["run", *BASE, "--pathloss-beta", "85"]) == EXIT_NO_CONVERGENCE
    assert main(["sweep", *area, "--trials", "1", "--pathloss-beta", "100"]) == EXIT_DISCONNECTED
    # a huge threshold keeps every link whose gain is positive
    assert main(["run", *area, "--d-th", "1e300"]) == 0
    capsys.readouterr()


def test_picowatt_budget_runs(capsys):
    # the clamp threshold is relative to the budget, so a 1 pW budget keeps
    # its best link active instead of clamping every link
    assert main(["run", "--n-uavs", "25", "--pb", "1e-12", "--seed", "1"]) == 0
    assert "throughput_p14_bps" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["run", *BASE, "--tree-dump", "{out}"],
    ["trace", *BASE, "--out", "{out}"],
])
def test_one_pipeline_pass_per_command(command, tmp_path, monkeypatch, capsys):
    import fanetsim.cli
    import fanetsim.harness
    import fanetsim.linksel

    calls = {"run_pipeline": 0, "newton_refine": 0}

    def counted(module, name):
        # wrap the name in every module that binds it, so no caller escapes
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for mod in (fanetsim.cli, fanetsim.harness, fanetsim.linksel):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)

    counted(fanetsim.harness, "run_pipeline")
    counted(fanetsim.linksel, "newton_refine")
    out = str(tmp_path / "out.csv")
    assert main([out if arg == "{out}" else arg for arg in command]) == 0
    capsys.readouterr()
    assert calls == {"run_pipeline": 1, "newton_refine": 1}


def test_exit_code_sweep_range_where_scalar_needed(capsys):
    assert main(["run", "--n-uavs", "4,5", "--pb", "1.0"]) == EXIT_CONFIG
    capsys.readouterr()


def test_exit_code_disconnected(capsys):
    # ground station parked far outside the square: no layout connects
    rc = main(["run", *BASE, "--gs-x", "1e9"])
    assert rc == EXIT_DISCONNECTED
    err = capsys.readouterr().err
    assert "connectivity error" in err


def test_exit_code_no_convergence(capsys):
    # n=200 on 40 km at 1 W, seed 10: UAV 55 spends its first barrier round's
    # 100 iterations and stops just above the 1e-8 decrement target
    rc = main(["run", "--n-uavs", "200", "--area-side", "40000", "--min-separation", "300",
               "--pb", "1", "--seed", "10"])
    assert rc == EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("solver error: UAV 55: Newton decrement 1.546e-08 after "
                            "100 iterations at barrier weight 10\n")


def test_validate_passes(capsys):
    assert main(["validate", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "fanetsim", "run", *BASE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "throughput_p14_bps" in proc.stdout


def test_usage_error_without_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "fanetsim"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
