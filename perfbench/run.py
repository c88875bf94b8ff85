"""Benchmark launcher: run one fanetsim workload and print its metrics.

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The workload runs in a fresh worker process
(``bench.py``) with BLAS and OpenMP pinned to one thread, so ``peak_rss_mb``
and ``setup_s`` belong to that workload alone. ``setup_s`` is the median over
that worker and ``SETUP_PROBES`` more processes that only import and build
their inputs. Times in the metrics are at a reference host speed: each is
divided by the mean time of a fixed calibration kernel run right before and
right after it (see ``bench.calibration_seconds``); wall-clock figures are
printed alongside. With ``--trace 0`` the final line carries the end-to-end
metrics; with ``--trace 1`` the worker measures untraced for half the time,
replays the same ops traced, and the final line carries the per-layer
metrics. The last line of standard output is always the JSON result; any
failure to run exits nonzero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 6
# The whole run must end within 180 s.
WORKER_TIMEOUT_S = 140
PROBE_TIMEOUT_S = 8

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "refine_gain_pct": "%",
}


class WorkerError(RuntimeError):
    pass


def _worker(args: argparse.Namespace, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_layers(res: dict) -> None:
    print("per-function spans (traced ops):")
    print(f"  {'function':28} {'calls/op':>9} {'self ms/op':>11} {'incl ms/op':>11} {'share':>7}")
    for name, calls, self_ms, incl_ms, share in res["layer_rows"]:
        print(f"  {name:28} {calls:9.2f} {self_ms:11.3f} {incl_ms:11.3f} {share:7.1%}")
    print("stage table (ms per op; placement is generate_scenario self time, the rest inclusive):")
    print("  " + " | ".join(f"{stage} {ms:.1f}" for stage, ms in res["stages"]))
    counters = {k: v for k, v in res["per_layer"].items()
                if not k.endswith(("calls_per_op", "self_ms_per_op", "share"))}
    for name, value in counters.items():
        print(f"  {name:34} {value:.4g}")
    print(f"tracing overhead: traced {res['traced_ops_per_s']:.4g} ops/s vs untraced "
          f"{res['ops_per_s']:.4g} ops/s on the same ops")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setups = [_worker(args, "--setup-only", timeout=PROBE_TIMEOUT_S)
                  for _ in range(SETUP_PROBES)]
        res = _worker(args, timeout=WORKER_TIMEOUT_S)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res)

    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 caller, "
          f"{res['ops']} timed ops")
    print(f"  wall clock: {res['wall_ops_per_s']:.4g} ops/s, p50 {res['wall_op_ms_p50']:.4g} ms, "
          + (f"p90 {res['wall_op_ms_p90']:.4g} ms" if res["wall_op_ms_p90"] is not None
             else "p90 not reported (fewer than 100 ops)")
          + f", setup {statistics.median(s['setup_wall_s'] for s in setups):.4g} s, "
          f"calibration kernel p50 {res['calibration_ms_p50']:.4g} ms")
    print(f"  fail_frac {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4f}")
    for error in res["errors"][:10]:
        print(f"  FAILED {error}")
    for seed, error in res["excluded"].items():
        print(f"  not in the pool (failed when references.json was made): seed {seed}, {error}")
    if args.trace:
        _print_layers(res)
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in res["units"]}
    else:
        values = {**res, "setup_s": statistics.median(s["setup_s"] for s in setups)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        for name, m in metrics.items():
            print(f"  {name:16} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
