"""Behaviour lock: CLI outputs regenerate byte for byte against committed goldens.

The files under tests/golden/ were written by the CLI commands below, and
validate.txt holds the standard output and exit code of `validate --seed s`
for s = 0..9. Any change that alters a single output byte (a throughput
digit, a tree edge, a solver trace row) fails here, so refactors prove they
keep behaviour instead of claiming it.
"""

from pathlib import Path

import pytest

from fanetsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (argv with {name} placeholders for output paths, golden files it writes)
CASES = {
    "sweep": (
        ["sweep", "--n-uavs", "20,25,30", "--pb", "0.5,1,2", "--trials", "20",
         "--seed", "0", "--no-wall-time",
         "--out", "{sweep_rows.csv}", "--agg-out", "{sweep_agg.csv}"],
        ("sweep_rows.csv", "sweep_agg.csv"),
    ),
    "run-tree-dump": (
        ["run", "--n-uavs", "25", "--pb", "1", "--seed", "7",
         "--tree-dump", "{tree_dump.csv}"],
        ("tree_dump.csv",),
    ),
    "run-large-fleet": (
        ["run", "--n-uavs", "200", "--area-side", "40000", "--min-separation", "300",
         "--pb", "0.001", "--seed", "0", "--tree-dump", "{large_fleet_tree_dump.csv}"],
        ("large_fleet_tree_dump.csv",),
    ),
    # hop counts tie constantly, so this locks the lowest-id parent tie-break
    "run-large-fleet-hops": (
        ["run", "--n-uavs", "200", "--area-side", "40000", "--min-separation", "300",
         "--pb", "0.001", "--seed", "0", "--spt-weight", "hops",
         "--tree-dump", "{large_fleet_hops_tree_dump.csv}"],
        ("large_fleet_hops_tree_dump.csv",),
    ),
    "trace": (
        ["trace", "--n-uavs", "10", "--pb", "1", "--seed", "3", "--out", "{trace.csv}"],
        ("trace.csv",),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, capsys):
    argv, files = CASES[case]
    paths = {f"{{{name}}}": str(tmp_path / name) for name in files}
    assert main([paths.get(arg, arg) for arg in argv]) == 0
    capsys.readouterr()
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_validate_output_matches_golden(capsys):
    runs = []
    for seed in range(10):
        code = main(["validate", "--seed", str(seed)])
        runs.append(f"$ fanetsim validate --seed {seed}\n{capsys.readouterr().out}exit {code}\n")
    assert "".join(runs).encode() == (GOLDEN / "validate.txt").read_bytes()
