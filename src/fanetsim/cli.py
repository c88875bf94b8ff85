"""Command-line front end.

Subcommands: `run` (single scenario summary, optional tree dump), `sweep`
(grid to CSV), `validate` (oracle cross-checks on small instances), and
`trace` (per-iteration solver rows). Scenario fields come from an optional
JSON config file with individual flags taking precedence. Output files are
opened before any scenario runs, and `-` names stdout. Exit codes:
0 success, 1 failed validation checks, 2 bad configuration (including an
unreadable config file or an unwritable output), 3 placement or connectivity
failure, 4 solver non-convergence or a budget too small or too large for
water-filling to resolve in floats, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import oracle
from .harness import (
    ConfigError,
    PlacementError,
    ScenarioConfig,
    generate_scenario,
    run_pipeline,
    select_links,
    sweep,
    write_aggregates_csv,
    write_rows_csv,
)
from .linksel import ConvergenceError, SolverConfig
from .model import (
    ChannelParams,
    noise_density_from_dbm_per_hz,
    reference_gain_from_frequency,
)
from .power import AllocationError, allocate_power, link_rates
from .routing import _WEIGHT_MODES, DisconnectedTopologyError, build_spt

TREE_DUMP_HEADER = "uav_id,parent_id,distance_m,gain,power_w,rate_bps"
TRACE_HEADER = "uav_id,gamma,iteration,phi,decrement,step_size,constraint_residual"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DISCONNECTED = 3
EXIT_NO_CONVERGENCE = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _parse_list(text: str, kind):
    """One value, or a comma list of values for a sweep."""
    try:
        values = [kind(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {text!r}: {exc}") from exc
    return values[0] if len(values) == 1 else values


_INTS = functools.partial(_parse_list, kind=int)
_FLOATS = functools.partial(_parse_list, kind=float)

# Every scenario flag: (flag, type, section, field, help). The type is an
# argparse type, a tuple of choices, bool for a switch that clears its field,
# or a comma-list parser, which runs after argparse so that bad text exits 2
# with a configuration error. The section is None for a ScenarioConfig field,
# else the --config file section ("channel" or "solver") the field lives in.
# Flags overlay the file in this order, so --alpha0 beats --freq-hz.
_SCENARIO_FLAGS = (
    ("--n-uavs", _INTS, None, "n_uavs", "fleet size; comma list sweeps it"),
    ("--pb", _FLOATS, None, "power_budget_Pb", "total power budget in watts; comma list sweeps it"),
    ("--area-side", float, None, "area_side", "square side in meters"),
    ("--altitude", float, None, "altitude_H",
     "shared UAV altitude in meters; link lengths are planar, so it changes no output"),
    ("--min-separation", float, None, "min_separation", "pairwise UAV spacing floor in meters"),
    ("--seed", int, None, "seed", "base RNG seed"),
    ("--trials", int, None, "trials", "seeds per sweep grid point"),
    ("--gs-x", float, None, "gs_x", "ground station x (default: mid side)"),
    ("--gs-y", float, None, "gs_y", "ground station y (default: 0)"),
    ("--spt-weight", _WEIGHT_MODES, None, "spt_weight", "tree edge weight"),
    ("--no-wall-time", bool, None, "measure_wall_time",
     "record wall_ms as 0 for byte-reproducible output"),
    ("--bandwidth-hz", float, "channel", "bandwidth_B", "system bandwidth B"),
    ("--noise-dbm-hz", float, "channel", "noise_dbm_per_hz", "noise density in dBm/Hz"),
    ("--freq-hz", float, "channel", "freq_hz", "carrier frequency defining the reference gain"),
    ("--alpha0", float, "channel", "ref_gain_alpha0",
     "reference gain at 1 m (overrides --freq-hz)"),
    ("--pathloss-beta", float, "channel", "pathloss_beta", "path-loss exponent"),
    ("--d-th", float, "channel", "link_threshold_dth", "link admissibility threshold in meters"),
    ("--gamma-init", float, "solver", "gamma_init", "initial barrier weight"),
    ("--gamma-growth", float, "solver", "gamma_growth", "barrier weight growth per round"),
    ("--epsilon", float, "solver", "epsilon_decrement", "Newton decrement stop target"),
    ("--backtrack-alpha", float, "solver", "backtrack_alpha", "Armijo slope fraction"),
    ("--backtrack-shrink", float, "solver", "backtrack_tau_shrink", "line search shrink factor"),
    ("--max-newton-iters", int, "solver", "max_newton_iters", "iteration cap per barrier round"),
)

# The derived channel units a file or flag may give, and the field each defines.
_DERIVED_UNITS = (
    ("noise_dbm_per_hz", "noise_density_sigma2", noise_density_from_dbm_per_hz),
    ("freq_hz", "ref_gain_alpha0", reference_gain_from_frequency),
)


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with ScenarioConfig fields")
    for flag, kind, _, _, text in _SCENARIO_FLAGS:
        if kind is bool:
            sub.add_argument(flag, action="store_const", const=False, help=text)
        elif isinstance(kind, tuple):
            sub.add_argument(flag, choices=kind, help=text)
        elif kind in (int, float):
            sub.add_argument(flag, type=kind, help=text)
        else:
            sub.add_argument(flag, help=text)


def _channel_units(fields: dict) -> dict:
    """Replace each derived channel unit with the field it defines; a derived
    unit beats that field."""
    for unit, name, convert in _DERIVED_UNITS:
        if unit in fields:
            fields[name] = convert(fields.pop(unit))
    return fields


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return file_cfg


def _config_from_args(args) -> ScenarioConfig:
    """The --config file's fields with every given flag overlaid."""
    file_cfg = _read_config(args.config) if args.config else {}
    try:
        sections = {
            None: {k: v for k, v in file_cfg.items() if k not in ("channel", "solver")},
            "channel": _channel_units(dict(file_cfg.get("channel", {}))),
            "solver": dict(file_cfg.get("solver", {})),
        }
        flags = vars(args)
        for flag, kind, section, name, _ in _SCENARIO_FLAGS:
            value = flags[flag[2:].replace("-", "_")]
            if value is None:
                continue
            if kind in (_INTS, _FLOATS):
                value = kind(value)
            sections[section].update(_channel_units({name: value}))
        return ScenarioConfig(
            **sections[None],
            channel=ChannelParams(**sections["channel"]),
            solver=SolverConfig(**sections["solver"]),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


# Destinations of the output-file flags. main opens those a command was given
# before the command runs, so an unwritable path fails before any scenario.
_OUTPUTS = ("tree_dump", "out", "agg_out")


def _open_out(path: str):
    """A context holding the file an output goes to: stdout for "-", else
    `path`, created empty."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_run(args, out: dict) -> int:
    cfg = _config_from_args(args)
    cfg = replace(cfg, n_uavs=cfg.scalar_n(), power_budget_Pb=cfg.scalar_pb())
    topo = generate_scenario(cfg)
    row = run_pipeline(topo, cfg)
    print(f"n_uavs               {row.n_uavs}")
    print(f"seed                 {row.seed}")
    print(f"power_budget_w       {row.pb_watts}")
    print(f"throughput_p11_bps   {row.throughput_p11_bps:.6e}")
    print(f"throughput_p14_bps   {row.throughput_p14_bps:.6e}")
    print(f"newton_iters         {row.newton_iters}")
    print(f"wall_ms              {row.wall_ms:.3f}")

    if "tree_dump" in out:
        fh = out["tree_dump"]
        fh.write(TREE_DUMP_HEADER + "\n")
        tree = row.refined_tree
        for i, d, h, rate in zip(topo.uav_ids, topo.distances[tree.parent_links].tolist(),
                                 topo.gains[tree.parent_links].tolist(),
                                 link_rates(row.allocation, tree, topo, cfg.channel)):
            watts = row.allocation.power[i]
            fh.write(f"{i},{tree.parent[i]},{d!r},{h!r},{watts!r},{rate!r}\n")
    return EXIT_OK


def _cmd_sweep(args, out: dict) -> int:
    result = sweep(_config_from_args(args))
    write_rows_csv(result.rows, out["out"])
    if "agg_out" in out:
        write_aggregates_csv(result.aggregates, out["agg_out"])
    return EXIT_OK


def _cmd_trace(args, out: dict) -> int:
    cfg = _config_from_args(args)
    cfg = replace(cfg, n_uavs=cfg.scalar_n(), power_budget_Pb=cfg.scalar_pb())
    rows: list[dict] = []
    run_pipeline(generate_scenario(cfg), cfg, trace=rows)
    out["out"].write(TRACE_HEADER + "\n" + "".join(
        f"{r['uav_id']},{r['gamma']!r},{r['iteration']},{r['phi']!r},"
        f"{r['decrement']!r},{r['step_size']!r},{r['constraint_residual']!r}\n"
        for r in rows
    ))
    return EXIT_OK


def _validate_power_against_grid(rng) -> str:
    from .model import Node, GROUND_STATION, UAV, build_topology

    p = ChannelParams()
    failures = 0
    trials = 10
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        nodes = []
        for i in range(n):
            nodes.append(Node(id=i + 1, x=float(rng.uniform(0, 4000)),
                              y=float(rng.uniform(0, 4000)), z=150.0, role=UAV))
        nodes.append(Node(id=n + 1, x=2000.0, y=-500.0, z=0.0, role=GROUND_STATION))
        topo = build_topology(nodes, p)
        tree = build_spt(topo)  # every UAV is within 4,924 m of the station, inside d_th
        gains = topo.gains[tree.parent_links].tolist()
        pb = float(rng.uniform(100, 1000)) * n * max(p.noise_power / h for h in gains)
        alloc = allocate_power(tree, topo, pb, p)
        ref = oracle.grid_power_oracle(tree, topo, pb, p)
        if abs(alloc.throughput_R - ref.best_value) > 1e-6 * ref.best_value:
            failures += 1
    status = "PASS" if failures == 0 else "FAIL"
    return f"{status} water-filling vs grid oracle ({trials - failures}/{trials} within 1e-6)"


def _validate_pipeline_bounds(rng) -> str:
    trials = 10
    failures = done = 0
    seed = 0
    while done < trials and seed < 10 * trials:
        cfg = ScenarioConfig(
            n_uavs=5, area_side=9000.0, min_separation=300.0, seed=int(rng.integers(0, 2**31)),
            power_budget_Pb=1.0, trials=1,
        )
        seed += 1
        try:
            topo = generate_scenario(cfg)
        except PlacementError:
            continue
        row = select_links(topo, cfg)
        ref = oracle.tree_enum_oracle(topo, 1.0, cfg.channel)
        ok = (
            row.throughput_p14_bps >= row.throughput_p11_bps
            and row.throughput_p14_bps <= ref.best_value * (1.0 + 1e-9)
        )
        failures += 0 if ok else 1
        done += 1
    status = "PASS" if failures == 0 and done == trials else "FAIL"
    return f"{status} pipeline bracketed by SPT value and tree-enumeration oracle ({done - failures}/{done})"


def _cmd_validate(args, out: dict) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    lines = [check(rng) for check in (_validate_power_against_grid, _validate_pipeline_bounds)]
    for line in lines:
        print(line)
    return EXIT_CHECK_FAILED if any(line.startswith("FAIL") for line in lines) else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fanetsim",
        description="Relay-tree throughput optimizer for UAV networks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="single scenario summary")
    _add_scenario_flags(run_p)
    run_p.add_argument("--tree-dump", help="write the refined tree as CSV to this path")
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = subs.add_parser("sweep", help="grid sweep to CSV")
    _add_scenario_flags(sweep_p)
    sweep_p.add_argument("--out", default="-", help="per-seed CSV path (default stdout)")
    sweep_p.add_argument("--agg-out", help="mean/std aggregate CSV path")
    sweep_p.set_defaults(fn=_cmd_sweep)

    val_p = subs.add_parser("validate", help="oracle comparison checks")
    val_p.add_argument("--seed", type=int, help="RNG seed for the check instances")
    val_p.set_defaults(fn=_cmd_validate)

    trace_p = subs.add_parser("trace", help="per-iteration solver rows for one scenario")
    _add_scenario_flags(trace_p)
    trace_p.add_argument("--out", default="-", help="trace CSV path (default stdout)")
    trace_p.set_defaults(fn=_cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with contextlib.ExitStack() as stack:
            # a file named twice, even by two paths, is opened once, so both
            # outputs land in it in order
            files, out = {}, {}
            for name in _OUTPUTS:
                if (path := getattr(args, name, None)) is not None:
                    key = path if path == "-" else os.path.realpath(path)
                    if key not in files:
                        files[key] = stack.enter_context(_open_out(path))
                    out[name] = files[key]
            code = args.fn(args, out)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit writes nothing
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PlacementError, DisconnectedTopologyError) as exc:
        print(f"connectivity error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (ConvergenceError, AllocationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
