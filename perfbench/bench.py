"""Workloads, operations, output checks and layer tracing for the fanetsim benchmark.

Run as a script, this file is the worker process that ``run.py`` starts once
per workload: it imports fanetsim from the checkout's ``src/``, builds the
workload's operations from the base seed, runs them in a closed loop (one
caller; the next operation starts as soon as the last one ends) and prints
one JSON line of results. Imported, it serves the benchmark's tests and
``make_references.py``.

An operation (op) is either one scenario, ``generate_scenario(cfg)`` followed
by ``run_pipeline(topo, cfg)``, or one in-process ``fanetsim.cli.main([...])``
call with its standard output captured.
"""

from __future__ import annotations

import time

# setup_s counts from here: numpy and fanetsim imports plus input construction.
_T0 = time.perf_counter()

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import random
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fanetsim  # noqa: E402
from fanetsim import cli, harness, linksel, model, oracle, power, routing  # noqa: E402
from fanetsim.harness import ScenarioConfig  # noqa: E402

if Path(fanetsim.__file__).resolve().parent != SRC / "fanetsim":
    raise ImportError(f"fanetsim was imported from {fanetsim.__file__}, not from {SRC}")

REFERENCES = HERE / "references.json"
OUT_DIR = HERE / "out"

# The paper's Monte-Carlo grid: fleet sizes x power budgets (W).
PAPER_GRID = tuple((n, pb) for n in (20, 25, 30) for pb in (0.5, 1.0, 2.0))
LARGE_FLEET = {"n_uavs": 200, "area_side": 40000.0, "min_separation": 300.0}

# Scenario seeds 0 .. POOL_SEEDS-1 are candidates for each workload's pool;
# make_references.py keeps those on which every op succeeds at the commit it
# runs on. A run draws its window of WINDOW_SEEDS from the pool with the base
# seed and cycles through it, so the scenarios (and refine_gain_pct) depend on
# the base seed only, not on speed, and every op has a stored reference.
POOL_SEEDS = {
    "paper_grid": 64,
    "large_fleet_1w": 48,
    "large_fleet_1mw": 96,
    "cli_inspect": 64,
}
WINDOW_SEEDS = {
    "paper_grid": 32,  # x 9 grid points = 288 ops per cycle
    "large_fleet_1w": 24,
    # The whole pool: refine gains at 1 mW vary too much between scenarios
    # (CV 0.75) for a drawn window to give a steady refine_gain_pct.
    "large_fleet_1mw": 96,
    "cli_inspect": 48,  # x 3 commands = 144 ops per cycle
}
WORKLOADS = tuple(WINDOW_SEEDS)

# Wrapped public functions, named <module>.<function>.
TRACED = (
    "harness.generate_scenario",
    "harness.run_pipeline",
    "model.build_topology",
    "routing.build_spt",
    "routing.validate_tree",
    "power.allocate_power",
    "linksel.build_candidates",
    "linksel.newton_refine",
    "linksel.round_and_update",
    "oracle.grid_power_oracle",
    "oracle.tree_enum_oracle",
    "cli.main",
)
_MODULES = {
    "harness": harness, "model": model, "routing": routing, "power": power,
    "linksel": linksel, "oracle": oracle, "cli": cli,
}

COUNTERS = (
    ("harness.layout_attempts_per_op", "count", "lower"),
    ("power.active_frac", "fraction", "higher"),
    ("linksel.candidates_per_uav", "count", "lower"),
    ("linksel.newton_iters_per_op", "count", "lower"),
    ("linksel.pinned_per_op", "count", "higher"),
    ("linksel.swaps_accepted_per_op", "count", "higher"),
    ("linksel.swap_accept_ratio", "ratio", "higher"),
    ("oracle.trees_per_call", "count", "lower"),
    ("tracing.ops_per_s_ratio", "ratio", "higher"),
)
# Every per-layer metric the traced run reports: (name, unit, better).
PER_LAYER = tuple(
    (f"{fn}.{stat}", unit, "lower")
    for fn in TRACED
    for stat, unit in (("calls_per_op", "count"), ("self_ms_per_op", "ms"), ("share", "fraction"))
) + COUNTERS

# Stages of the ROADMAP baseline table, with the span time each is read from.
STAGES = (
    ("placement", "harness.generate_scenario", "self"),
    ("topology", "model.build_topology", "incl"),
    ("SPT", "routing.build_spt", "incl"),
    ("water-fill", "power.allocate_power", "incl"),
    ("candidates", "linksel.build_candidates", "incl"),
    ("Newton", "linksel.newton_refine", "incl"),
    ("rounding", "linksel.round_and_update", "incl"),
)


@dataclass(frozen=True)
class Op:
    """One operation: a scenario config, or a CLI argv with an optional output file."""

    key: str
    cfg: ScenarioConfig | None = None
    argv: tuple[str, ...] = ()
    output_file: Path | None = None


def build_ops(workload: str, seeds, workdir: Path = OUT_DIR) -> list[Op]:
    """The workload's ops for the given scenario seeds, in that order."""
    if workload not in WINDOW_SEEDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if workload == "paper_grid":
        return [
            Op(f"n{n}-pb{pb!r}-s{s}", cfg=ScenarioConfig(n_uavs=n, power_budget_Pb=pb, seed=s))
            for s in seeds
            for n, pb in PAPER_GRID
        ]
    if workload in ("large_fleet_1w", "large_fleet_1mw"):
        pb = 1.0 if workload == "large_fleet_1w" else 1e-3
        return [
            Op(f"s{s}", cfg=ScenarioConfig(seed=s, power_budget_Pb=pb, **LARGE_FLEET))
            for s in seeds
        ]
    tree_file, trace_file = workdir / "tree.csv", workdir / "trace.csv"
    ops = []
    for s in seeds:
        scenario = ("--n-uavs", "25", "--pb", "1", "--seed", str(s))
        ops += [
            Op(f"run-s{s}", argv=("run", *scenario, "--tree-dump", str(tree_file)),
               output_file=tree_file),
            Op(f"trace-s{s}", argv=("trace", *scenario, "--out", str(trace_file)),
               output_file=trace_file),
            Op(f"validate-s{s}", argv=("validate", "--seed", str(s))),
        ]
    return ops


def window_seeds(workload: str, base_seed: int, pool: list[int]) -> list[int]:
    """The scenario seeds of ``base_seed``'s window: a seeded draw from the pool."""
    return random.Random(base_seed).sample(pool, WINDOW_SEEDS[workload])


def load_references(workload: str) -> dict:
    """``{"pool": [...], "excluded": {seed: error}, "outputs": {op key: output}}``."""
    with open(REFERENCES) as fh:
        return json.load(fh)[workload]


def _parse_run_summary(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("throughput_p11_bps", "throughput_p14_bps"):
            values["p11" if parts[0].endswith("p11_bps") else "p14"] = repr(float(parts[1]))
    return values


def execute(op: Op, tracer: "Tracer | None" = None) -> tuple[float, dict]:
    """Run ``op``; returns its wall seconds and the output that checks compare.

    Only the calls into fanetsim are timed; reading and hashing the output
    file happen afterwards.
    """
    span = tracer.op_span() if tracer is not None else contextlib.nullcontext()
    if op.cfg is not None:
        with span:
            start = time.perf_counter()
            topo = harness.generate_scenario(op.cfg)
            row = harness.run_pipeline(topo, op.cfg)
            seconds = time.perf_counter() - start
        return seconds, {"p11": repr(row.throughput_p11_bps), "p14": repr(row.throughput_p14_bps)}

    if op.output_file is not None:
        op.output_file.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = cli.main(list(op.argv))
        seconds = time.perf_counter() - start
    if op.output_file is not None:
        payload = op.output_file.read_bytes()
    else:
        payload = stdout.getvalue().encode()
    out = {"exit": code, "digest": hashlib.sha256(payload).hexdigest()}
    if op.argv[0] == "run":
        out.update(_parse_run_summary(stdout.getvalue()))
    if code != 0:
        out["stderr"] = stderr.getvalue().strip()
    return seconds, out


def check(out: dict, ref: dict | None) -> str | None:
    """Why ``out`` is wrong, or None. References win; invariants always apply."""
    if out.get("exit", 0) != 0:
        return f"exit code {out['exit']}: {out.get('stderr', '')}"
    if "p11" in out or "p14" in out:
        p11, p14 = float(out.get("p11", "nan")), float(out.get("p14", "nan"))
        if not (math.isfinite(p11) and math.isfinite(p14)):
            return f"non-finite throughput p11={p11} p14={p14}"
        if p14 < p11:
            return f"refinement lost throughput: p14={p14!r} < p11={p11!r}"
    if ref is not None:
        differs = sorted(k for k, v in ref.items() if out.get(k) != v)
        if differs:
            return "differs from reference in " + ", ".join(
                f"{k} ({out.get(k)!r} != {ref[k]!r})" for k in differs
            )
    return None


class Tracer:
    """Spans and counters around fanetsim's public functions.

    Entering the context replaces each traced function in every fanetsim
    module that binds it, so callers pick the wrapper up where they look the
    name up (for example ``fanetsim.harness.newton_refine``); leaving it
    restores the originals. Spans are ``[name, start, end, parent, op]``
    lists kept in memory; ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pending: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple] = []
        self._validate_tree = routing.validate_tree

    def __enter__(self) -> "Tracer":
        modules = [fanetsim, *_MODULES.values()]
        for name in TRACED:
            module, fn_name = name.split(".")
            original = getattr(_MODULES[module], fn_name)
            hook = getattr(self, "_on_" + fn_name, None)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    self._patched.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def op_span(self):
        """Root span of one op; layer spans inside it get its op id."""
        self._op += 1
        self.pending.clear()
        idx = len(self.spans)
        self.spans.append(["op", time.perf_counter(), 0.0, -1, self._op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    # Counters read from returned objects. Hooks run after the span closes.
    def _on_allocate_power(self, args, alloc):
        self.counts["active_links"] += len(alloc.active_set)
        self.counts["links"] += len(alloc.power)
        self.pending.append(("budget", alloc, args["total_budget_w"]))

    def _on_build_candidates(self, args, cands):
        self.counts["candidates"] += sum(len(c) for c in cands.candidates.values())
        self.counts["candidate_uavs"] += len(args["tree"].parent)

    def _on_newton_refine(self, args, relaxed):
        self.counts["newton_iters"] += relaxed.iterations
        self.counts["pinned"] += len(relaxed.pinned)

    def _on_round_and_update(self, args, result):
        refined = result[0]
        before = args["tree"].parent
        self.counts["swaps_accepted"] += sum(refined.parent[i] != j for i, j in before.items())
        self.pending.append(("tree", refined, args["t"]))

    def _on_tree_enum_oracle(self, args, res):
        self.counts["trees"] += res.evaluations

    def check_invariants(self) -> str | None:
        """Budget conservation and refined-tree validity for the last op."""
        for kind, obj, ctx in self.pending:
            if kind == "budget":
                spent = math.fsum(obj.power.values())
                if not abs(spent - ctx) <= 1e-9 * ctx:
                    return f"power budget not conserved: {spent!r} of {ctx!r} W"
            else:
                report = self._validate_tree(obj, ctx)
                if not report.ok:
                    return f"refined tree is invalid: {report}"
        return None

    def layer_metrics(self) -> tuple[dict[str, float], list[tuple]]:
        """Per-layer metrics over the traced ops, and the per-function table rows."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        by_parent: dict[tuple[str, str], int] = defaultdict(int)
        for idx, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
            incl_s[name] += end - start
            if parent >= 0:
                by_parent[(spans[parent][0], name)] += 1
        n_ops = max(calls["op"], 1)
        op_s = incl_s["op"] or math.inf

        metrics: dict[str, float] = {}
        rows = []
        for name in TRACED:
            metrics[f"{name}.calls_per_op"] = calls[name] / n_ops
            metrics[f"{name}.self_ms_per_op"] = self_s[name] * 1e3 / n_ops
            metrics[f"{name}.share"] = self_s[name] / op_s
            rows.append((name, calls[name] / n_ops, self_s[name] * 1e3 / n_ops,
                         incl_s[name] * 1e3 / n_ops, self_s[name] / op_s))

        c = self.counts
        rounding_validations = by_parent[("linksel.round_and_update", "routing.validate_tree")]
        metrics["harness.layout_attempts_per_op"] = _ratio(
            by_parent[("harness.generate_scenario", "model.build_topology")],
            calls["harness.generate_scenario"])
        metrics["power.active_frac"] = _ratio(c["active_links"], c["links"])
        metrics["linksel.candidates_per_uav"] = _ratio(c["candidates"], c["candidate_uavs"])
        metrics["linksel.newton_iters_per_op"] = c["newton_iters"] / n_ops
        metrics["linksel.pinned_per_op"] = c["pinned"] / n_ops
        metrics["linksel.swaps_accepted_per_op"] = c["swaps_accepted"] / n_ops
        metrics["linksel.swap_accept_ratio"] = _ratio(c["swaps_accepted"], rounding_validations)
        metrics["oracle.trees_per_call"] = _ratio(c["trees"], calls["oracle.tree_enum_oracle"])
        return metrics, rows

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Timings are reported at the host speed on which calibration_seconds() is 1 ms.
CALIBRATION_REF_S = 1e-3


def calibration_seconds() -> float:
    """Fastest of three runs of a fixed kernel that does not touch fanetsim.

    Other tenants of a shared host change its speed by up to 2x within a run.
    The kernel mixes small numpy calls with dict and float work, as the
    pipeline does, and slows down with it. Timed right after each op, it
    turns the op's wall time into time at a fixed host speed.
    """
    x = np.linspace(0.01, 0.99, 24)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(150):
            y = x * (1.0 - 1e-4 * i)
            acc += float(y @ y) + float(np.sum(np.log(y)))
            acc += math.fsum({j: j + i for j in range(32)}.values())
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Phase:
    """What one pass over the op window produced."""

    seconds: list[float] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)
    outputs: list[dict | None] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def normalized(self) -> list[float]:
        """Op seconds at the reference host speed."""
        return [s / c * CALIBRATION_REF_S for s, c in zip(self.seconds, self.calibration)]


def run_ops(ops: list[Op], refs: dict, *, seconds: float = math.inf, count: int | None = None,
            tracer: Tracer | None = None) -> Phase:
    """Closed loop over ``ops`` (cycling) for ``seconds`` of wall time or ``count`` ops.

    Each op's calibration is the mean of the kernel timed just before and
    just after it; the kernel after one op is the kernel before the next.
    """
    phase = Phase()
    before = calibration_seconds()
    begin = time.perf_counter()
    i = 0
    while i < count if count is not None else time.perf_counter() - begin < seconds:
        op = ops[i % len(ops)]
        start = time.perf_counter()
        try:
            elapsed, out = execute(op, tracer)
        except (Exception, SystemExit) as exc:
            elapsed, out = time.perf_counter() - start, None
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = check(out, refs.get(op.key))
            if error is None and tracer is not None:
                error = tracer.check_invariants()
        after = calibration_seconds()
        phase.seconds.append(elapsed)
        phase.calibration.append((before + after) / 2)
        before = after
        phase.outputs.append(out)
        phase.ok.append(error is None)
        if error is not None:
            phase.errors.append(f"op {i} ({op.key}): {error}")
        i += 1
    return phase


def refine_gain_pct(ops: list[Op], outputs: list[dict | None]) -> float:
    """Mean of (p14/p11 - 1) x 100 over the distinct scenarios that ran."""
    gains = {}
    for i, out in enumerate(outputs):
        key = ops[i % len(ops)].key
        if out and "p11" in out and "p14" in out and key not in gains:
            gains[key] = (float(out["p14"]) / float(out["p11"]) - 1.0) * 100.0
    return statistics.fmean(gains.values()) if gains else math.nan


def _p50_ms_per_distinct_op(ops: list[Op], seconds: list[float], ok: list[bool]) -> float:
    """Median over the window's distinct ops of each one's median time, in ms.

    Weighting each distinct op once keeps the median off the gaps between op
    kinds (for example ``run``, ``trace`` and ``validate``) when a run ends
    part-way through a cycle.
    """
    per_op: dict[str, list[float]] = defaultdict(list)
    for i, (s, good) in enumerate(zip(seconds, ok)):
        per_op[ops[i % len(ops)].key].append(s if good else math.inf)
    return statistics.median(statistics.median(v) for v in per_op.values()) * 1e3


def _p90_ms(seconds: list[float]) -> float:
    return statistics.quantiles([s * 1e3 for s in seconds], n=10, method="inclusive")[8]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``workload`` in this process; returns raw results."""
    OUT_DIR.mkdir(exist_ok=True)
    references = load_references(workload)
    ops = build_ops(workload, window_seeds(workload, seed, references["pool"]))
    refs = references["outputs"]
    setup_wall_s = time.perf_counter() - _T0
    setup_s = setup_wall_s / calibration_seconds() * CALIBRATION_REF_S

    # Warm-up: one untimed op so lazy imports and allocator growth finish first.
    warm = run_ops(ops, refs, count=1)
    untraced = run_ops(ops, refs, seconds=seconds / 2 if trace else seconds)
    n = len(untraced.seconds)
    normalized = untraced.normalized()
    # A failed op is no work done, and it misses any latency limit.
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "ops": n,
        "ops_per_s": sum(untraced.ok) / math.fsum(normalized),
        "op_ms_p50": _p50_ms_per_distinct_op(ops, normalized, untraced.ok),
        "calibration_ms_p50": statistics.median(untraced.calibration) * 1e3,
        "wall_ops_per_s": n / math.fsum(untraced.seconds),
        "wall_op_ms_p50": statistics.median(untraced.seconds) * 1e3,
        # p90 needs at least ten ops beyond it to mean anything.
        "wall_op_ms_p90": _p90_ms(untraced.seconds) if n >= 100 else None,
        "refine_gain_pct": refine_gain_pct(ops, untraced.outputs),
        "errors": warm.errors + untraced.errors,
        "attempted": 1 + n,
        "excluded": references["excluded"],
    }
    if trace:
        with Tracer() as tracer:
            traced = run_ops(ops, refs, count=n, tracer=tracer)
        for i, (a, b) in enumerate(zip(untraced.outputs, traced.outputs)):
            if a != b:
                traced.errors.append(f"op {i}: traced output {b} != untraced {a}")
        metrics, rows = tracer.layer_metrics()
        traced_ops_per_s = sum(traced.ok) / math.fsum(traced.normalized())
        metrics["tracing.ops_per_s_ratio"] = traced_ops_per_s / result["ops_per_s"]
        tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.csv")
        result.update(per_layer=metrics, units=[(name, unit) for name, unit, _ in PER_LAYER],
                      layer_rows=rows, stages=_stage_rows(rows), traced_ops_per_s=traced_ops_per_s)
        result["errors"] += traced.errors
        result["attempted"] += n
    result["failed"] = len(result["errors"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def _stage_rows(rows: list[tuple]) -> list[tuple]:
    by_name = {r[0]: r for r in rows}
    out = []
    for stage, name, kind in STAGES:
        _, _, self_ms, incl_ms, _ = by_name[name]
        out.append((stage, self_ms if kind == "self" else incl_ms))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark worker: one workload, one process")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after imports and input construction; print setup_s")
    args = parser.parse_args(argv)
    if args.setup_only:
        references = load_references(args.workload)
        build_ops(args.workload, window_seeds(args.workload, args.seed, references["pool"]))
        setup_wall_s = time.perf_counter() - _T0
        print(json.dumps({"setup_s": setup_wall_s / calibration_seconds() * CALIBRATION_REF_S,
                          "setup_wall_s": setup_wall_s}))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
