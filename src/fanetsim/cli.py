"""Command-line front end.

Subcommands: `run` (single scenario summary, optional tree dump), `sweep`
(grid to CSV), `validate` (oracle cross-checks on small instances), and
`trace` (per-iteration solver rows). Scenario fields come from an optional
JSON config file with individual flags taking precedence. Exit codes:
0 success, 1 failed validation checks, 2 bad configuration, 3 placement or
connectivity failure, 4 solver non-convergence or a budget too small or too
large for water-filling to resolve in floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from . import harness, oracle
from .harness import (
    ConfigError,
    PlacementError,
    ScenarioConfig,
    generate_scenario,
    run_pipeline,
    run_pipelines,
    sweep,
    write_aggregates_csv,
    write_rows_csv,
)
from .linksel import ConvergenceError, SolverConfig
from .model import (
    ChannelParams,
    link_capacity,
    noise_density_from_dbm_per_hz,
    reference_gain_from_frequency,
)
from .power import AllocationError, allocate_power
from .routing import DisconnectedTopologyError, build_spt

TREE_DUMP_HEADER = "uav_id,parent_id,distance_m,gain,power_w,rate_bps"
TRACE_HEADER = "uav_id,gamma,iteration,phi,decrement,step_size,constraint_residual"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DISCONNECTED = 3
EXIT_NO_CONVERGENCE = 4


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with ScenarioConfig fields")
    sub.add_argument("--n-uavs", help="fleet size; comma list sweeps it")
    sub.add_argument("--pb", help="total power budget in watts; comma list sweeps it")
    sub.add_argument("--area-side", type=float, help="square side in meters")
    sub.add_argument("--altitude", type=float, help="shared UAV altitude in meters")
    sub.add_argument("--min-separation", type=float, help="pairwise UAV spacing floor in meters")
    sub.add_argument("--seed", type=int, help="base RNG seed")
    sub.add_argument("--trials", type=int, help="seeds per sweep grid point")
    sub.add_argument("--gs-x", type=float, help="ground station x (default: mid side)")
    sub.add_argument("--gs-y", type=float, help="ground station y (default: 0)")
    sub.add_argument("--spt-weight", choices=("distance", "hops"), help="tree edge weight")
    sub.add_argument("--no-wall-time", action="store_true",
                     help="record wall_ms as 0 for byte-reproducible output")
    sub.add_argument("--bandwidth-hz", type=float, help="system bandwidth B")
    sub.add_argument("--noise-dbm-hz", type=float, help="noise density in dBm/Hz")
    sub.add_argument("--freq-hz", type=float, help="carrier frequency defining the reference gain")
    sub.add_argument("--alpha0", type=float, help="reference gain at 1 m (overrides --freq-hz)")
    sub.add_argument("--pathloss-beta", type=float, help="path-loss exponent")
    sub.add_argument("--d-th", type=float, help="link admissibility threshold in meters")
    sub.add_argument("--gamma-init", type=float, help="initial barrier weight")
    sub.add_argument("--gamma-growth", type=float, help="barrier weight growth per round")
    sub.add_argument("--epsilon", type=float, help="Newton decrement stop target")
    sub.add_argument("--backtrack-alpha", type=float, help="Armijo slope fraction")
    sub.add_argument("--backtrack-shrink", type=float, help="line search shrink factor")
    sub.add_argument("--max-newton-iters", type=int, help="iteration cap per barrier round")


def _parse_list(text: str, kind):
    """One value, or a comma list of values for a sweep."""
    try:
        values = [kind(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {text!r}: {exc}") from exc
    return values[0] if len(values) == 1 else values


def _channel_from_sources(file_cfg: dict, args) -> ChannelParams:
    fields = dict(file_cfg.get("channel", {}))
    if "noise_dbm_per_hz" in fields:
        fields["noise_density_sigma2"] = noise_density_from_dbm_per_hz(
            fields.pop("noise_dbm_per_hz")
        )
    if "freq_hz" in fields:
        fields["ref_gain_alpha0"] = reference_gain_from_frequency(fields.pop("freq_hz"))
    if args.bandwidth_hz is not None:
        fields["bandwidth_B"] = args.bandwidth_hz
    if args.noise_dbm_hz is not None:
        fields["noise_density_sigma2"] = noise_density_from_dbm_per_hz(args.noise_dbm_hz)
    if args.freq_hz is not None:
        fields["ref_gain_alpha0"] = reference_gain_from_frequency(args.freq_hz)
    if args.alpha0 is not None:
        fields["ref_gain_alpha0"] = args.alpha0
    if args.pathloss_beta is not None:
        fields["pathloss_beta"] = args.pathloss_beta
    if args.d_th is not None:
        fields["link_threshold_dth"] = args.d_th
    return ChannelParams(**fields)


def _solver_from_sources(file_cfg: dict, args) -> SolverConfig:
    fields = dict(file_cfg.get("solver", {}))
    for flag, name in (
        (args.gamma_init, "gamma_init"),
        (args.gamma_growth, "gamma_growth"),
        (args.epsilon, "epsilon_decrement"),
        (args.backtrack_alpha, "backtrack_alpha"),
        (args.backtrack_shrink, "backtrack_tau_shrink"),
        (args.max_newton_iters, "max_newton_iters"),
    ):
        if flag is not None:
            fields[name] = flag
    return SolverConfig(**fields)


def _config_from_args(args) -> ScenarioConfig:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")

    try:
        channel = _channel_from_sources(file_cfg, args)
        solver = _solver_from_sources(file_cfg, args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc

    fields = {
        k: v
        for k, v in file_cfg.items()
        if k not in ("channel", "solver")
    }
    fields["channel"] = channel
    fields["solver"] = solver
    if args.n_uavs is not None:
        fields["n_uavs"] = _parse_list(args.n_uavs, int)
    if args.pb is not None:
        fields["power_budget_Pb"] = _parse_list(args.pb, float)
    for flag, name in (
        (args.area_side, "area_side"),
        (args.altitude, "altitude_H"),
        (args.min_separation, "min_separation"),
        (args.seed, "seed"),
        (args.trials, "trials"),
        (args.gs_x, "gs_x"),
        (args.gs_y, "gs_y"),
        (args.spt_weight, "spt_weight"),
    ):
        if flag is not None:
            fields[name] = flag
    if args.no_wall_time:
        fields["measure_wall_time"] = False
    try:
        return ScenarioConfig(**fields)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _cmd_run(args) -> int:
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

    if args.tree_dump:
        with open(args.tree_dump, "w") as fh:
            fh.write(TREE_DUMP_HEADER + "\n")
            for i, j in sorted(row.refined_tree.parent.items()):
                d = topo.distance(i, j)
                h = topo.gain(i, j)
                watts = row.allocation.power[i]
                rate = link_capacity(watts, h, cfg.channel)
                fh.write(f"{i},{j},{d!r},{h!r},{watts!r},{rate!r}\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    result = sweep(cfg)
    fh, close = _open_out(args.out)
    try:
        write_rows_csv(result.rows, fh)
    finally:
        if close:
            fh.close()
    if args.agg_out:
        with open(args.agg_out, "w") as fh:
            write_aggregates_csv(result.aggregates, fh)
    return EXIT_OK


def _cmd_trace(args) -> int:
    cfg = _config_from_args(args)
    cfg = replace(cfg, n_uavs=cfg.scalar_n(), power_budget_Pb=cfg.scalar_pb())
    rows: list[dict] = []
    run_pipeline(generate_scenario(cfg), cfg, trace=rows)
    fh, close = _open_out(args.out)
    try:
        fh.write(TRACE_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r['uav_id']},{r['gamma']!r},{r['iteration']},{r['phi']!r},"
                f"{r['decrement']!r},{r['step_size']!r},{r['constraint_residual']!r}\n"
            )
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _validate_power_against_grid(rng, checks: list[str]) -> None:
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
        try:
            tree = build_spt(topo)
        except DisconnectedTopologyError:
            continue
        floors = [p.noise_power / topo.gain(i, tree.parent[i]) for i in sorted(tree.parent)]
        pb = float(rng.uniform(100, 1000)) * n * max(floors)
        alloc = allocate_power(tree, topo, pb, p)
        ref = oracle.grid_power_oracle(tree, topo, pb, p)
        if abs(alloc.throughput_R - ref.best_value) > 1e-6 * ref.best_value:
            failures += 1
    status = "PASS" if failures == 0 else "FAIL"
    checks.append(f"{status} water-filling vs grid oracle ({trials - failures}/{trials} within 1e-6)")
    if failures:
        raise _CheckFailure


def _validate_pipeline_bounds(rng, checks: list[str]) -> None:
    trials = 10
    scenarios = []
    seed = 0
    while len(scenarios) < trials and seed < 10 * trials:
        cfg = ScenarioConfig(
            n_uavs=5, area_side=9000.0, min_separation=300.0, seed=int(rng.integers(0, 2**31)),
            power_budget_Pb=1.0, trials=1,
        )
        seed += 1
        try:
            scenarios.append((generate_scenario(cfg), cfg))
        except PlacementError:
            pass
    # one Newton loop solves the link selection of every scenario
    rows = run_pipelines(scenarios)
    failures = 0
    for (topo, cfg), row in zip(scenarios, rows):
        ref = oracle.tree_enum_oracle(topo, 1.0, cfg.channel)
        ok = (
            row.throughput_p14_bps >= row.throughput_p11_bps
            and row.throughput_p14_bps <= ref.best_value * (1.0 + 1e-9)
        )
        failures += 0 if ok else 1
    done = len(rows)
    status = "PASS" if failures == 0 and done == trials else "FAIL"
    checks.append(f"{status} pipeline bracketed by SPT value and tree-enumeration oracle ({done - failures}/{done})")
    if status == "FAIL":
        raise _CheckFailure


class _CheckFailure(Exception):
    pass


def _cmd_validate(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    checks: list[str] = []
    code = EXIT_OK
    for fn in (_validate_power_against_grid, _validate_pipeline_bounds):
        try:
            fn(rng, checks)
        except _CheckFailure:
            code = EXIT_CHECK_FAILED
    for line in checks:
        print(line)
    return code


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
    sweep_p.add_argument("--out", help="per-seed CSV path (default stdout)")
    sweep_p.add_argument("--agg-out", help="mean/std aggregate CSV path")
    sweep_p.set_defaults(fn=_cmd_sweep)

    val_p = subs.add_parser("validate", help="oracle comparison checks")
    val_p.add_argument("--seed", type=int, help="RNG seed for the check instances")
    val_p.set_defaults(fn=_cmd_validate)

    trace_p = subs.add_parser("trace", help="per-iteration solver rows for one scenario")
    _add_scenario_flags(trace_p)
    trace_p.add_argument("--out", help="trace CSV path (default stdout)")
    trace_p.set_defaults(fn=_cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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
