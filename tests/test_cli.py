"""Command-line interface: subcommands, config plumbing, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fanetsim.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DISCONNECTED,
    EXIT_NO_CONVERGENCE,
    TRACE_HEADER,
    TREE_DUMP_HEADER,
    build_parser,
    main,
)
from fanetsim.harness import AGGREGATE_CSV_HEADER, CSV_HEADER, ScenarioConfig
from fanetsim.linksel import ConvergenceError
from fanetsim.model import noise_density_from_dbm_per_hz, reference_gain_from_frequency


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


# (flag, text, section, field, value the field takes): section None is a
# ScenarioConfig field, "channel" or "solver" a field of that section
FLAG_FIELDS = [
    ("--n-uavs", "7", None, "n_uavs", 7),
    ("--pb", "0.25", None, "power_budget_Pb", 0.25),
    ("--area-side", "9000", None, "area_side", 9000.0),
    ("--altitude", "120", None, "altitude_H", 120.0),
    ("--min-separation", "250", None, "min_separation", 250.0),
    ("--seed", "11", None, "seed", 11),
    ("--trials", "3", None, "trials", 3),
    ("--gs-x", "100", None, "gs_x", 100.0),
    ("--gs-y", "50", None, "gs_y", 50.0),
    ("--spt-weight", "hops", None, "spt_weight", "hops"),
    ("--no-wall-time", None, None, "measure_wall_time", False),
    ("--bandwidth-hz", "2e7", "channel", "bandwidth_B", 2e7),
    ("--noise-dbm-hz", "-170", "channel", "noise_density_sigma2",
     noise_density_from_dbm_per_hz(-170.0)),
    ("--freq-hz", "2e9", "channel", "ref_gain_alpha0", reference_gain_from_frequency(2e9)),
    ("--alpha0", "1e-4", "channel", "ref_gain_alpha0", 1e-4),
    ("--pathloss-beta", "2.5", "channel", "pathloss_beta", 2.5),
    ("--d-th", "5000", "channel", "link_threshold_dth", 5000.0),
    ("--gamma-init", "5", "solver", "gamma_init", 5.0),
    ("--gamma-growth", "20", "solver", "gamma_growth", 20.0),
    ("--epsilon", "1e-9", "solver", "epsilon_decrement", 1e-9),
    ("--backtrack-alpha", "0.2", "solver", "backtrack_alpha", 0.2),
    ("--backtrack-shrink", "0.6", "solver", "backtrack_tau_shrink", 0.6),
    ("--max-newton-iters", "50", "solver", "max_newton_iters", 50),
]


class _Parsed(Exception):
    """Raised in place of the first scenario to hand back its config."""


def _parsed_config(monkeypatch, tmp_path, command, flags, file_cfg=None):
    import fanetsim.cli

    def stop(cfg, *args, **kwargs):
        raise _Parsed(cfg)

    monkeypatch.setattr(fanetsim.cli, "sweep" if command == "sweep" else "generate_scenario", stop)
    argv = [command, *flags]
    if file_cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        argv += ["--config", str(path)]
    with pytest.raises(_Parsed) as caught:
        main(argv)
    return caught.value.args[0]


def _with_field(cfg, section, name, value):
    if section is None:
        return replace(cfg, **{name: value})
    return replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})


@pytest.mark.parametrize("command", ["run", "sweep", "trace"])
def test_every_scenario_flag_lands_on_its_field(command, monkeypatch, tmp_path):
    # each flag changes its own field and nothing else
    for flag, text, section, name, value in FLAG_FIELDS:
        argv = [flag] if text is None else [flag, text]
        got = _parsed_config(monkeypatch, tmp_path, command, argv)
        assert got == _with_field(ScenarioConfig(), section, name, value), flag
    # a comma list reaches a sweep as a list
    got = _parsed_config(monkeypatch, tmp_path, "sweep", ["--n-uavs", "4,5", "--pb", "1,2"])
    assert (got.n_uavs, got.power_budget_Pb) == ([4, 5], [1.0, 2.0])
    # every flag at once, over a file that sets every field to another value
    file_cfg = {
        "n_uavs": 9, "power_budget_Pb": 3.0, "area_side": 7000.0, "altitude_H": 90.0,
        "min_separation": 100.0, "seed": 4, "trials": 2, "gs_x": 1.0, "gs_y": 2.0,
        "spt_weight": "distance", "measure_wall_time": True,
        "channel": {"bandwidth_B": 3e7, "noise_dbm_per_hz": -160.0, "freq_hz": 3e9,
                    "pathloss_beta": 3.0, "link_threshold_dth": 4000.0},
        "solver": {"gamma_init": 2.0, "gamma_growth": 3.0, "epsilon_decrement": 1e-7,
                   "backtrack_alpha": 0.1, "backtrack_tau_shrink": 0.3, "max_newton_iters": 20},
    }
    flags, expected = [], ScenarioConfig()
    for flag, text, section, name, value in FLAG_FIELDS:
        flags += [flag] if text is None else [flag, text]
        expected = _with_field(expected, section, name, value)  # --alpha0 follows --freq-hz
    assert _parsed_config(monkeypatch, tmp_path, command, flags, file_cfg) == expected


def test_flag_and_file_precedence(monkeypatch, tmp_path):
    def channel(flags, file_channel=None):
        file_cfg = None if file_channel is None else {"channel": file_channel}
        return _parsed_config(monkeypatch, tmp_path, "run", flags, file_cfg).channel

    alpha_2ghz = reference_gain_from_frequency(2e9)
    alpha_3ghz = reference_gain_from_frequency(3e9)
    sigma_170 = noise_density_from_dbm_per_hz(-170.0)
    sigma_160 = noise_density_from_dbm_per_hz(-160.0)
    # in the file, a derived unit beats the raw field it defines
    assert channel([], {"ref_gain_alpha0": 1e-3, "freq_hz": 2e9}).ref_gain_alpha0 == alpha_2ghz
    assert channel([], {"freq_hz": 2e9, "ref_gain_alpha0": 1e-3}).ref_gain_alpha0 == alpha_2ghz
    assert channel([], {"noise_density_sigma2": 1e-18, "noise_dbm_per_hz": -170.0}) \
        .noise_density_sigma2 == sigma_170
    # among flags, --alpha0 beats --freq-hz, whatever their order
    assert channel(["--alpha0", "1e-4", "--freq-hz", "2e9"]).ref_gain_alpha0 == 1e-4
    assert channel(["--freq-hz", "2e9", "--alpha0", "1e-4"]).ref_gain_alpha0 == 1e-4
    # flags beat the file, in either unit
    for file_channel in ({"ref_gain_alpha0": 1e-3}, {"freq_hz": 3e9},
                         {"freq_hz": 3e9, "ref_gain_alpha0": 1e-3}):
        assert channel(["--freq-hz", "2e9"], file_channel).ref_gain_alpha0 == alpha_2ghz
        assert channel(["--alpha0", "1e-4"], file_channel).ref_gain_alpha0 == 1e-4
    assert channel(["--bandwidth-hz", "2e7"], {"freq_hz": 3e9}).ref_gain_alpha0 == alpha_3ghz
    for file_channel in ({"noise_density_sigma2": 1e-18}, {"noise_dbm_per_hz": -160.0},
                         {"noise_dbm_per_hz": -160.0, "noise_density_sigma2": 1e-18}):
        assert channel(["--noise-dbm-hz", "-170"], file_channel).noise_density_sigma2 == sigma_170
    assert channel(["--bandwidth-hz", "2e7"], {"noise_dbm_per_hz": -160.0}) \
        .noise_density_sigma2 == sigma_160
    # a file field no flag sets survives next to the flags
    cfg = _parsed_config(monkeypatch, tmp_path, "run", ["--seed", "3"],
                         {"seed": 8, "placement_retry_budget": 7, "solver": {"gamma_init": 2.0}})
    assert (cfg.seed, cfg.placement_retry_budget, cfg.solver.gamma_init) == (3, 7, 2.0)


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["run", *BASE, "--trials", "0"]) == EXIT_CONFIG
    assert main(["run", "--n-uavs", "0"]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    # bytes that are not UTF-8, and nesting deeper than the recursion limit
    for content in (b"\xff\xfe{", b"[" * 100000):
        bad.write_bytes(content)
        capsys.readouterr()
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG, content[:4]
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot read config file {bad}: ")
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
    # At beta=85 the noise floors are 1e264..1e293 W: the lowest-floor link
    # holds the whole budget, and its rate rounds to zero.
    assert main(["run", *area, "--pathloss-beta", "85"]) == 0
    assert main(["run", *BASE, "--pathloss-beta", "85"]) == 0
    out = capsys.readouterr().out
    assert out.count("throughput_p11_bps   0.000000e+00") == 2
    assert out.count("throughput_p14_bps   0.000000e+00") == 2
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


@pytest.mark.parametrize("argv", [
    ["run", *BASE, "--tree-dump", "{bad}"],
    ["trace", *BASE, "--out", "{bad}"],
    ["sweep", *BASE, "--trials", "1", "--out", "{bad}"],
    ["sweep", *BASE, "--trials", "1", "--out", "{good}", "--agg-out", "{bad}"],
])
def test_unwritable_output_is_a_config_error_before_any_work(argv, tmp_path, monkeypatch, capsys):
    import fanetsim.cli

    def placed(cfg):
        raise AssertionError("placement ran before the outputs were opened")

    monkeypatch.setattr(fanetsim.cli, "generate_scenario", placed)
    monkeypatch.setattr(fanetsim.cli, "sweep", placed)
    bad, good = tmp_path / "missing" / "out.csv", tmp_path / "good.csv"
    paths = {"{bad}": str(bad), "{good}": str(good)}
    assert main([paths.get(arg, arg) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: cannot write {bad}: No such file or directory\n"
    assert not bad.parent.exists()


def test_dash_writes_every_output_to_stdout(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tree.csv"
    assert main(["run", *BASE, "--tree-dump", str(path)]) == 0
    summary = capsys.readouterr().out
    assert main(["run", *BASE, "--tree-dump", "-"]) == 0
    assert capsys.readouterr().out == summary + path.read_text()
    assert not (tmp_path / "-").exists()
    agg = tmp_path / "agg.csv"
    assert main(["sweep", *BASE, "--trials", "2", "--agg-out", str(agg)]) == 0
    rows = capsys.readouterr().out
    assert main(["sweep", *BASE, "--trials", "2", "--out", "-", "--agg-out", "-"]) == 0
    assert capsys.readouterr().out == rows + agg.read_text()
    # a file given for both outputs, under one path or two, holds both, as stdout does
    both = tmp_path / "both.csv"
    assert main(["sweep", *BASE, "--trials", "2", "--out", str(both), "--agg-out", str(both)]) == 0
    assert both.read_text() == rows + agg.read_text()
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", *BASE, "--trials", "2", "--out", "alias.csv",
                 "--agg-out", "./alias.csv"]) == 0
    assert (tmp_path / "alias.csv").read_text() == rows + agg.read_text()


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


def test_exit_code_barrier_weight_out_of_range(capsys):
    # At gamma_init 1e300, gamma*scale overflows and the barrier term
    # vanishes; the error is the lowest failing UAV's, with its iteration count
    rc = main(["run", "--n-uavs", "6", "--area-side", "8000", "--min-separation", "300",
               "--gamma-init", "1e300"])
    assert rc == EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("solver error: UAV 1: Newton decrement 4.398e+152 after "
                            "0 iterations at barrier weight 1e+300\n")


def test_validate_passes(capsys):
    assert main(["validate", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)


def test_validate_reaches_no_newton_code(monkeypatch, capsys):
    # Rounding reads no Newton output, so validate skips Newton: a solve that
    # would fail (exit 4) changes nothing it prints.
    import fanetsim.harness
    import fanetsim.linksel

    def fails(*args, **kwargs):
        raise ConvergenceError(1, 10.0, math.nan, 0)

    for module, name in ((fanetsim.harness, "newton_refine"), (fanetsim.linksel, "newton_refine"),
                         (fanetsim.linksel, "_solve_rows")):
        monkeypatch.setattr(module, name, fails)
    assert main(["validate", "--seed", "0"]) == 0
    golden = (Path(__file__).resolve().parent / "golden" / "validate.txt").read_text()
    seed0 = golden[:golden.index("$ fanetsim validate --seed 1\n")]
    assert f"$ fanetsim validate --seed 0\n{capsys.readouterr().out}exit 0\n" == seed0


def test_commands_in_one_process_match_fresh_parsers(tmp_path, capsys):
    # main parses with one cached parser; no subcommand default or flag may
    # leak from one call into the next
    trace_out, tree_out = tmp_path / "trace.csv", tmp_path / "tree.csv"
    commands = [
        ["trace", "--seed", "2", "--out", str(trace_out)],
        ["run", "--seed", "1", "--no-wall-time", "--gamma-init", "-1"],
        ["run", "--seed", "1", "--tree-dump", str(tree_out)],
        ["validate", "--seed", "3"],
    ]

    def invoke(argv):
        for path in (trace_out, tree_out):
            path.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        # wall time is measured, so keep only whether it was recorded
        out = re.sub(r"(wall_ms +)(\S+)",
                     lambda m: m[1] + ("0" if float(m[2]) == 0.0 else "measured"), captured.out)
        files = {p.name: p.read_bytes() for p in (trace_out, tree_out) if p.exists()}
        return code, out, captured.err, files

    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(invoke(argv))
    build_parser.cache_clear()
    shared = [invoke(argv) for argv in commands]
    assert build_parser.cache_info().misses == 1
    assert [r[0] for r in fresh] == [0, EXIT_CONFIG, 0, 0]
    assert "wall_ms              measured" in fresh[2][1]
    assert shared == fresh


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "fanetsim", "run", *BASE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "throughput_p14_bps" in proc.stdout


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["run", "--n-uavs", "4"],
    ["sweep", "--n-uavs", "6", "--area-side", "8000", "--min-separation", "300",
     "--trials", "5", "--no-wall-time"],
])
def test_closed_stdout_exits_141_in_silence(argv, unbuffered):
    # buffered stdout fails at the last flush, unbuffered at the first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run([sys.executable, "-m", "fanetsim", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")


def test_usage_error_without_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "fanetsim"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("argv, code, message", [
    # sigma^2 * B underflows to zero: no SNR can be formed
    (["run", "--n-uavs", "4", "--bandwidth-hz", "5e-324"], EXIT_CONFIG,
     "configuration error: noise power sigma^2 * B underflows to zero"),
    # the strongest link's SNR overflows at the budget
    (["sweep", "--n-uavs", "4", "--alpha0", "1.7976931348623157e308"], EXIT_NO_CONVERGENCE,
     "solver error: a budget of 1.0 W overflows the SNR of the strongest link"),
    # the budget over a 1e-310 Hz band overflows, so the water level is 0
    (["run", "--n-uavs", "4", "--bandwidth-hz", "1e-310", "--noise-dbm-hz", "70"],
     EXIT_NO_CONVERGENCE,
     "solver error: a budget of 1.0 W over a bandwidth of 1e-310 Hz overflows the water level"),
    # the noise floors sum beyond the float range
    (["sweep", "--n-uavs", "2", "--pb", "1.7976931348623157e308", "--alpha0", "1e-300"],
     EXIT_NO_CONVERGENCE,
     "solver error: water-filling overflows the float range: intermediate overflow in fsum"),
    # every layout on a 1e-12 m square has an infinite gain at beta 4e4
    (["sweep", "--n-uavs", "4", "--area-side", "1e-12", "--gs-y", "1e-12",
      "--min-separation", "0", "--pathloss-beta", "4e4"], EXIT_DISCONNECTED,
     "connectivity error: no connected layout with 4 UAVs at separation 0.0 m"),
    # squared offsets to a far ground station overflow: out of range, not an error
    (["run", "--n-uavs", "2", "--gs-x", "1e300"], EXIT_DISCONNECTED,
     "connectivity error: no connected layout with 2 UAVs"),
    # p.p overflows at a 1e300 W budget, so Newton's projection is lost
    (["sweep", "--n-uavs", "6", "--pb", "1e300"], EXIT_NO_CONVERGENCE, "solver error: UAV"),
    # the water level overflows, or its denominator underflows to zero
    (["run", "--n-uavs", "4", "--pb", "1e-10", "--bandwidth-hz", "1e300",
      "--noise-dbm-hz", "-3170"], EXIT_NO_CONVERGENCE,
     "solver error: a budget of 1e-10 W over a bandwidth of 1e+300 Hz overflows the water level"),
    (["run", "--n-uavs", "4", "--pb", "1e-300", "--bandwidth-hz", "1e100",
      "--noise-dbm-hz", "-3070", "--alpha0", "1e300"], EXIT_NO_CONVERGENCE,
     "solver error: a budget of 1e-300 W over a bandwidth of 1e+100 Hz overflows the water level"),
    # a subnormal budget, and noise floors that all overflow
    (["run", "--n-uavs", "4", "--pb", "1e-320"], EXIT_NO_CONVERGENCE,
     "solver error: a budget of 1e-320 W against a lowest noise floor of "),
    (["run", "--n-uavs", "4", "--alpha0", "1e-292", "--noise-dbm-hz", "100"],
     EXIT_NO_CONVERGENCE,
     "solver error: a budget of 1.0 W against a lowest noise floor of inf W leaves the normal"),
    # a derived channel unit whose conversion leaves the float range
    (["run", "--n-uavs", "4", "--noise-dbm-hz", "5000"], EXIT_CONFIG,
     "configuration error: noise density 5000.0 dBm/Hz is beyond the float range in W/Hz\n"),
    (["run", "--n-uavs", "4", "--freq-hz", "1e-200"], EXIT_CONFIG,
     "configuration error: carrier frequency 1e-200 Hz gives a reference gain beyond the "
     "float range\n"),
    # rates near the float range: gamma*scale overflows, so Newton's Hessian
    # is zero and the UAV fails before its first iteration, without a warning
    (["run", "--n-uavs", "6", "--area-side", "8000", "--min-separation", "300",
      "--bandwidth-hz", "3e306", "--noise-dbm-hz", "-3100", "--alpha0", "1e3", "--seed", "0"],
     EXIT_NO_CONVERGENCE,
     "solver error: UAV 1: Newton decrement nan after 0 iterations at barrier weight 10\n"),
    # at a final barrier weight of 1.6e10 an iterate lands on the box
    # boundary: the row fails on its nan Newton system, without a warning
    (["sweep", "--n-uavs", "6", "--gamma-growth", "4e4"], EXIT_NO_CONVERGENCE,
     "solver error: UAV 2: Newton decrement nan after 15 iterations at barrier weight 1.6e+10"),
])
def test_float_range_edges_end_in_typed_errors(argv, code, message, capsys):
    # These used to end in a traceback (exit 1), in nan Newton iterates from
    # infinite rates, or, for the far ground station and the 1e300 W budget,
    # in an overflow warning; warnings are errors under the test settings.
    assert main([*argv, "--no-wall-time"]) == code
    assert capsys.readouterr().err.startswith(message)


def test_degenerate_newton_system_is_a_convergence_error(capsys):
    # At gamma_init 5e-324, 1/(gamma*scale) overflows and p.H^-1.p underflows
    # to zero: the UAV fails with a nan decrement instead of a bare
    # ZeroDivisionError. Newton warns on the way there.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["run", "--n-uavs", "4", "--altitude", "1e-300", "--alpha0", "0.5",
                   "--seed", "7", "--gamma-init", "5e-324", "--gs-x", "0"])
    assert rc == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == ("solver error: UAV 2: Newton decrement nan after "
                                       "0 iterations at barrier weight 4.94066e-324\n")


# Values that sit on or beyond the edge of each field's range, as flag text
# and as JSON; the fleet stays small so every draw runs in milliseconds.
EDGE_REALS = ["0", "-1", "1e-300", "5e-324", "1e-12", "0.5", "1", "2", "85", "300", "1e4",
              "4e4", "1e150", "1e300", "1.7976931348623157e308", "nan", "inf", "-inf"]
JSON_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 3, 6, -1, 0.5, 2.5, 300.0, 1e4, 1e300, math.nan, math.inf,
                     True, False, None, "2", "abc", [], [1, 2], {}]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 8),
)
SCENARIO_FLAGS = {
    "--n-uavs": st.sampled_from(["1", "2", "4", "6", "0", "-2", "3,5", "5.5", ","]),
    "--pb": st.sampled_from(EDGE_REALS + ["1,2", "abc"]),
    "--area-side": st.sampled_from(EDGE_REALS),
    "--altitude": st.sampled_from(EDGE_REALS),
    "--min-separation": st.sampled_from(EDGE_REALS),
    "--seed": st.sampled_from(["0", "1", "7", "-1", str(2**63)]),
    "--trials": st.sampled_from(["1", "2", "0", "-1"]),
    "--gs-x": st.sampled_from(EDGE_REALS),
    "--gs-y": st.sampled_from(EDGE_REALS),
    "--spt-weight": st.sampled_from(["distance", "hops"]),
    "--bandwidth-hz": st.sampled_from(EDGE_REALS),
    "--noise-dbm-hz": st.sampled_from(EDGE_REALS + ["-174", "-3000", "5000"]),
    "--freq-hz": st.sampled_from(EDGE_REALS),
    "--alpha0": st.sampled_from(EDGE_REALS),
    "--pathloss-beta": st.sampled_from(EDGE_REALS),
    "--d-th": st.sampled_from(EDGE_REALS),
    "--gamma-init": st.sampled_from(EDGE_REALS),
    "--gamma-growth": st.sampled_from(EDGE_REALS),
    "--epsilon": st.sampled_from(EDGE_REALS),
    "--backtrack-alpha": st.sampled_from(EDGE_REALS + ["0.25"]),
    "--backtrack-shrink": st.sampled_from(EDGE_REALS + ["0.9"]),
    "--max-newton-iters": st.sampled_from(["1", "3", "100", "0", "-1"]),
}
CONFIG_FIELDS = ("n_uavs", "area_side", "altitude_H", "min_separation", "seed",
                 "power_budget_Pb", "trials", "gs_x", "gs_y", "spt_weight",
                 "measure_wall_time", "placement_retry_budget", "unknown_field")
CHANNEL_FIELDS = ("bandwidth_B", "noise_density_sigma2", "ref_gain_alpha0", "pathloss_beta",
                  "link_threshold_dth", "noise_dbm_per_hz", "freq_hz", "bogus")
SOLVER_FIELDS = ("gamma_init", "gamma_growth", "epsilon_decrement", "backtrack_alpha",
                 "backtrack_tau_shrink", "max_newton_iters", "bogus")


@st.composite
def cli_invocations(draw):
    command = draw(st.sampled_from(["run", "sweep", "trace", "validate"]))
    if command == "validate":
        seed = draw(st.sampled_from([None, "0", "5", "-1", str(2**40)]))
        return ["validate"] + ([] if seed is None else ["--seed", seed]), None
    argv = [command, "--no-wall-time"]
    for flag in draw(st.sets(st.sampled_from(sorted(SCENARIO_FLAGS)), max_size=5)):
        argv += [flag, draw(SCENARIO_FLAGS[flag])]
    config = None
    if draw(st.booleans()):
        config = {name: draw(JSON_VALUES)
                  for name in draw(st.sets(st.sampled_from(CONFIG_FIELDS), max_size=3))}
        for section, names in (("channel", CHANNEL_FIELDS), ("solver", SOLVER_FIELDS)):
            if draw(st.booleans()):
                config[section] = {name: draw(JSON_VALUES)
                                   for name in draw(st.sets(st.sampled_from(names), max_size=2))}
        if isinstance(config.get("placement_retry_budget"), int):
            config["placement_retry_budget"] = min(config["placement_retry_budget"], 5)
        if isinstance(config.get("trials"), int):
            config["trials"] = min(config["trials"], 2)
        if draw(st.booleans()):
            config = draw(st.sampled_from([[], "text", 3]))  # not a JSON object
    # Small fleets unless a drawn flag or config field sets the size (the
    # JSON values above are all small or invalid).
    if "--n-uavs" not in argv and not (isinstance(config, dict) and "n_uavs" in config):
        argv += ["--n-uavs", draw(st.sampled_from(["2", "4", "6"]))]
    # an output file, stdout, or a path in a missing directory
    out_name = draw(st.sampled_from(["out.csv", "-", "missing/out.csv"]))
    argv += ["--tree-dump" if command == "run" else "--out", out_name]
    return argv, config


@settings(max_examples=150, deadline=None)
@given(cli_invocations())
def test_cli_ends_in_a_documented_exit_code(tmp_path_factory, invocation):
    argv, config = invocation
    out_dir = tmp_path_factory.mktemp("cli")
    if argv[0] != "validate" and argv[-1] != "-":
        argv = argv[:-1] + [str(out_dir / argv[-1])]
    if config is not None:
        path = out_dir / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    # A RuntimeWarning does not decide an exit code outside the tests, so it
    # is not raised here: Newton's nan iterates at barrier weights outside its
    # working range warn and then exit 4 (see CHANGES.md).
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, EXIT_CONFIG, EXIT_DISCONNECTED, EXIT_NO_CONVERGENCE), (argv, config)
    if code == EXIT_CONFIG:
        assert "error" in stderr.getvalue()
