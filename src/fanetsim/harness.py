"""Scenario generation, the end-to-end pipeline, and seed-averaged sweeps.

Placements are a pure function of the seed: UAVs are drawn sequentially and
uniformly over the square, rejecting draws closer than the minimum
separation to an already-placed UAV, and whole layouts are redrawn (within a
bounded retry budget) until the ground station can reach every UAV. Sweeps
run a seed batch per (budget, fleet-size) grid point and emit canonical
per-seed CSV rows plus mean/std aggregates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .linksel import (
    CandidateSet,
    SolverConfig,
    build_candidates,
    newton_refine,
    round_and_update,
)
from .model import (
    ChannelParams,
    CoincidentNodesError,
    Node,
    Topology,
    GROUND_STATION,
    UAV,
    build_topology,
    is_integer,
    is_real,
)
from .power import PowerAllocation, allocate_power
from .routing import _WEIGHT_MODES, RoutingTree, build_spt, connected_to_gs

# The measured columns, shared by the per-seed and the aggregate sweep CSV.
_MEASURED = ("throughput_p11_bps", "throughput_p14_bps", "newton_iters", "wall_ms")
_ROW_COLUMNS = ("pb_watts", "n_uavs", "seed", *_MEASURED)
_AGGREGATE_COLUMNS = ("pb_watts", "n_uavs", "stat", *_MEASURED)
CSV_HEADER = ",".join(_ROW_COLUMNS)
AGGREGATE_CSV_HEADER = ",".join(_AGGREGATE_COLUMNS)

# Distinct draws of a single coordinate before a layout attempt is abandoned.
_POINT_TRIES = 200
# Placement draws per batch beyond the UAVs still to place; draws a batch
# does not use are rewound.
_BATCH = 32
# Squared separations within this relative distance of the threshold are
# decided again with libm pow (see _far_enough).
_SEP_BAND = 1e-12
_TINY = float(np.finfo(float).tiny)


def _entries(value) -> list:
    """A sweep field's values: the items of a list or tuple, else the value."""
    return list(value) if isinstance(value, (list, tuple)) else [value]


class ConfigError(ValueError):
    """A scenario configuration field is out of range or inconsistent."""


class PlacementError(RuntimeError):
    """Rejection sampling could not produce a connected, separated layout
    with a finite gain on every link."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs for one experiment; list-valued budget/fleet fields define sweeps."""

    n_uavs: int | Sequence[int] = 25
    area_side: float = 20000.0
    altitude_H: float = 150.0
    min_separation: float = 500.0
    seed: int = 0
    channel: ChannelParams = field(default_factory=ChannelParams)
    power_budget_Pb: float | Sequence[float] = 1.0
    trials: int = 100
    solver: SolverConfig = field(default_factory=SolverConfig)
    gs_x: float | None = None
    gs_y: float = 0.0
    spt_weight: str = "distance"
    measure_wall_time: bool = True
    placement_retry_budget: int = 100

    def __post_init__(self):
        for name, value in (
            *(("n_uavs", n) for n in _entries(self.n_uavs)),
            ("seed", self.seed),
            ("trials", self.trials),
            ("placement_retry_budget", self.placement_retry_budget),
        ):
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name, value in (
            ("area_side", self.area_side),
            ("altitude_H", self.altitude_H),
            ("min_separation", self.min_separation),
            *(("power_budget_Pb", pb) for pb in _entries(self.power_budget_Pb)),
            *(() if self.gs_x is None else (("gs_x", self.gs_x),)),
            ("gs_y", self.gs_y),
        ):
            if not is_real(value):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not isinstance(self.measure_wall_time, bool):
            raise ConfigError(
                f"measure_wall_time must be true or false, got {self.measure_wall_time!r}"
            )
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not 0.0 < self.area_side < math.inf:
            raise ConfigError("area_side must be positive and finite")
        if not self.n_values():
            raise ConfigError("n_uavs needs at least one value")
        if min(self.n_values()) < 1:
            raise ConfigError("n_uavs must be at least 1")
        if not 0.0 <= self.min_separation < self.area_side:
            raise ConfigError("min_separation must lie in [0, area_side)")
        try:
            float(self.min_separation**2)  # placement compares squared separations
        except OverflowError:
            raise ConfigError(
                f"min_separation {self.min_separation!r} squared is beyond the float range"
            ) from None
        if not 0.0 < self.altitude_H < math.inf:
            raise ConfigError("altitude_H must be positive and finite")
        if not self.pb_values():
            raise ConfigError("power_budget_Pb needs at least one value")
        for pb in self.pb_values():
            if not 0.0 < pb < math.inf:
                raise ConfigError("power_budget_Pb values must be positive and finite")
        if (self.gs_x is not None and not math.isfinite(self.gs_x)) or not math.isfinite(self.gs_y):
            raise ConfigError("gs_x and gs_y must be finite")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.placement_retry_budget < 1:
            raise ConfigError("placement_retry_budget must be at least 1")
        if self.spt_weight not in _WEIGHT_MODES:
            raise ConfigError(f"spt_weight must be {' or '.join(map(repr, _WEIGHT_MODES))}")

    def n_values(self) -> list[int]:
        return [int(n) for n in _entries(self.n_uavs)]

    def pb_values(self) -> list[float]:
        return [float(pb) for pb in _entries(self.power_budget_Pb)]

    def scalar_n(self) -> int:
        values = self.n_values()
        if len(values) != 1:
            raise ConfigError("this operation needs a single n_uavs, not a sweep range")
        return values[0]

    def scalar_pb(self) -> float:
        values = self.pb_values()
        if len(values) != 1:
            raise ConfigError("this operation needs a single power budget, not a sweep range")
        return values[0]


@dataclass
class PipelineRow:
    """One pipeline execution: both throughput stages, solver effort, the
    water-filled allocation and the refined tree (which keeps its powers)."""

    pb_watts: float
    n_uavs: int
    seed: int
    throughput_p11_bps: float
    throughput_p14_bps: float
    newton_iters: int
    wall_ms: float
    allocation: PowerAllocation
    refined_tree: RoutingTree


@dataclass
class SweepResult:
    rows: list[PipelineRow]
    aggregates: list[dict]


def _gs_position(cfg: ScenarioConfig) -> tuple[float, float]:
    x = cfg.area_side / 2.0 if cfg.gs_x is None else cfg.gs_x
    return x, cfg.gs_y


def _far_enough(dx: np.ndarray, dy: np.ndarray, min_sep_sq: float) -> np.ndarray:
    """Elementwise ``dx**2 + dy**2 >= min_sep_sq``, decided as libm pow decides it.

    float_power(., 2.0) is the libm pow behind np.float64 ** 2. The products
    dx*dx and dy*dy are within 1 ulp of its squares, so the two sums can
    disagree only within a few ulps of the threshold; entries inside a band
    around it (relative, plus the smallest normal float for subnormal
    squares) are decided again with float_power.
    """
    with np.errstate(over="ignore"):  # an overflowing square is inf: far enough
        sep_sq = dx * dx + dy * dy
        far = sep_sq >= min_sep_sq
        near = np.abs(sep_sq - min_sep_sq) <= _SEP_BAND * min_sep_sq + _TINY
        if near.any():
            far[near] = np.float_power(dx[near], 2.0) + np.float_power(dy[near], 2.0) >= min_sep_sq
    return far


def _close_pairs(x: np.ndarray, y: np.ndarray, min_separation: float, min_sep_sq: float,
                 first: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j and j >= first, of points that _far_enough
    calls too close at min_sep_sq (min_separation**2), ordered by j.

    Only pairs within a reach of min_separation in x, widened by _SEP_BAND,
    are tested: a stable sort by x and one searchsorted list them (sweep and
    prune). The window misses no clash. A float above fl(x + reach) is above
    x + reach, so a pair left out lies at least min_separation apart in x,
    its rounded difference too; libm pow is monotone, so its square alone
    reaches min_sep_sq and _far_enough calls the pair far. With min_sep_sq
    of 0.0 every pair is far.
    """
    if min_sep_sq == 0.0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    order = np.argsort(x, kind="stable")
    sx = x[order]
    with np.errstate(over="ignore"):  # an end past the float range is inf: no bound
        ends = np.searchsorted(sx, sx + min_separation * (1.0 + _SEP_BAND), side="right")
    # Sorted position p pairs with positions p + 1 .. ends[p] - 1.
    counts = ends - np.arange(1, x.size + 1)
    last = np.cumsum(counts)
    a = np.repeat(order, counts)
    b = order[np.arange(last[-1]) + np.repeat(ends - last, counts)]
    i, j = np.minimum(a, b), np.maximum(a, b)
    keep = j >= first
    i, j = i[keep], j[keep]
    near = ~_far_enough(x[j] - x[i], y[j] - y[i], min_sep_sq)
    i, j = i[near], j[near]
    by_j = np.argsort(j, kind="stable")
    return i[by_j], j[by_j]


def _sample_connected(cfg: ScenarioConfig) -> tuple[Topology, int]:
    """Draw layouts until one is separated and GS-connected; returns attempts used.

    UAV k takes the first uniform draw at least min_separation from UAVs
    1..k-1, with at most _POINT_TRIES draws per UAV. Draws are made in
    batches of the UAVs still to place plus _BATCH more. Each batch is
    checked against the placed UAVs and itself on the pairs that
    _close_pairs finds within min_separation in x, a window that misses no
    pair _far_enough calls too close. Its clashes are settled greedily in
    draw order: a draw is rejected when it is too close to a placed UAV or
    to an earlier accepted draw of the batch. The runs of rejected draws
    between accepted ones are the tries, and the first run that reaches
    _POINT_TRIES ends the attempt. The stream is then rewound to just after
    the last draw used, so every layout is the one that drawing one point
    at a time gives.
    """
    n = cfg.scalar_n()
    rng = np.random.default_rng(cfg.seed)
    bitgen = rng.bit_generator
    gs_x, gs_y = _gs_position(cfg)
    min_sep_sq = cfg.min_separation**2
    # The placed UAVs, then the batch: together always n + _BATCH points.
    xs = np.empty(n + _BATCH)
    ys = np.empty(n + _BATCH)

    for attempt in range(1, cfg.placement_retry_budget + 1):
        k = 0  # UAVs placed
        tries = 0  # rejected draws for UAV k
        while k < n and tries < _POINT_TRIES:
            state = bitgen.state
            size = n - k + _BATCH
            draws = rng.uniform(0.0, cfg.area_side, size=2 * size)
            xs[k:] = draws[0::2]
            ys[k:] = draws[1::2]
            earlier, later = _close_pairs(xs, ys, cfg.min_separation, min_sep_sq, k)
            rejected = bytearray(size)
            for i, j in zip(earlier.tolist(), later.tolist()):
                if i < k or not rejected[i - k]:
                    rejected[j - k] = True
            # Stops: the draw before the batch that UAV k's tries go back to,
            # the accepted draws, and the batch's end while UAVs are left to
            # place. The rejected draws between two stops are one run of tries.
            accepted = np.flatnonzero(~np.frombuffer(rejected, dtype=bool))[:n - k]
            stops = np.concatenate(([-1 - tries], accepted, [size][:n - k - accepted.size]))
            runs = stops[1:] - stops[:-1] - 1
            over = np.flatnonzero(runs >= _POINT_TRIES)
            if over.size:
                used = int(stops[over[0]]) + 1 + _POINT_TRIES
                tries = _POINT_TRIES
            else:
                xs[k:k + accepted.size] = xs[k + accepted]
                ys[k:k + accepted.size] = ys[k + accepted]
                k += accepted.size
                used = int(stops[-1]) + 1 if k == n else size
                tries = int(runs[-1])
            if used < size:
                bitgen.state = state
                bitgen.advance(2 * used)
        if k < n:
            continue
        nodes = [Node(i, x, y, cfg.altitude_H, UAV)
                 for i, (x, y) in enumerate(zip(xs[:n], ys[:n]), 1)]
        nodes.append(Node(id=n + 1, x=gs_x, y=gs_y, z=0.0, role=GROUND_STATION))
        try:
            topo = build_topology(nodes, cfg.channel)
        except CoincidentNodesError:
            continue  # no finite gain between two nodes: not a usable layout
        if connected_to_gs(topo):
            return topo, attempt
    raise PlacementError(
        f"no connected layout with {n} UAVs at separation {cfg.min_separation} m "
        f"within {cfg.placement_retry_budget} attempts; lower n_uavs, min_separation, "
        f"or raise the link threshold"
    )


def generate_scenario(cfg: ScenarioConfig) -> Topology:
    """Seed-deterministic UAV placement over the square, connected to the GS."""
    topo, _ = _sample_connected(cfg)
    return topo


def _select(t: Topology, cfg: ScenarioConfig,
            refine: Callable[[CandidateSet, PowerAllocation], int]) -> PipelineRow:
    """The pipeline's stages in order: SPT, water-filling, candidates,
    ``refine`` (which returns Newton's iteration count) and rounding. The
    row's wall_ms is 0.0."""
    pb = cfg.scalar_pb()
    tree = build_spt(t, weight=cfg.spt_weight)
    alloc = allocate_power(tree, t, pb, cfg.channel)
    cands = build_candidates(tree, t, alloc, cfg.channel)
    newton_iters = refine(cands, alloc)
    refined, refined_throughput = round_and_update(cands, tree, alloc, t, cfg.channel)
    return PipelineRow(
        pb_watts=pb,
        n_uavs=t.n_uavs,
        seed=cfg.seed,
        throughput_p11_bps=alloc.throughput_R,
        throughput_p14_bps=refined_throughput,
        newton_iters=newton_iters,
        wall_ms=0.0,
        allocation=alloc,
        refined_tree=refined,
    )


def run_pipeline(t: Topology, cfg: ScenarioConfig, trace: list | None = None) -> PipelineRow:
    """Route, water-fill, refine the link choices, and record both throughputs;
    a ``trace`` list collects Newton's per-iteration rows (see newton_refine)."""
    start = time.perf_counter() if cfg.measure_wall_time else None
    row = _select(t, cfg, lambda cands, alloc:
                  newton_refine(cands, alloc, cfg.solver, trace=trace).iterations)
    if start is not None:
        row.wall_ms = (time.perf_counter() - start) * 1e3
    return row


def select_links(t: Topology, cfg: ScenarioConfig) -> PipelineRow:
    """``run_pipeline``'s row without the Newton stage. Rounding reads the
    candidate rates, not Newton's solve, so every field equals
    ``run_pipeline``'s except newton_iters, which is 0, and wall_ms (0.0)."""
    return _select(t, cfg, lambda cands, alloc: 0)


def _aggregate(rows: list[PipelineRow], pb: float, n: int) -> list[dict]:
    out = []
    for stat, fn in (("mean", np.mean), ("std", np.std)):
        entry = {"pb_watts": pb, "n_uavs": n, "stat": stat}
        for name in _MEASURED:
            entry[name] = float(fn([getattr(r, name) for r in rows]))
        out.append(entry)
    return out


def sweep(cfg: ScenarioConfig) -> SweepResult:
    """Run the pipeline over the (budget, fleet-size) grid, `trials` seeds each.

    Seeds are cfg.seed + trial index. Rows come back sorted by (budget, n,
    seed); aggregates carry mean and population std per grid point.
    """
    rows: list[PipelineRow] = []
    aggregates: list[dict] = []
    for pb in sorted(cfg.pb_values()):
        for n in sorted(cfg.n_values()):
            grid_rows = []
            for trial in range(cfg.trials):
                run_cfg = replace(
                    cfg, n_uavs=n, power_budget_Pb=pb, seed=cfg.seed + trial
                )
                topo = generate_scenario(run_cfg)
                grid_rows.append(run_pipeline(topo, run_cfg))
            rows.extend(grid_rows)
            aggregates.extend(_aggregate(grid_rows, pb, n))
    return SweepResult(rows=rows, aggregates=aggregates)


def _write_csv(columns: tuple[str, ...], records, fh) -> None:
    """A header line, then one line per record (a mapping over `columns`);
    floats are written with repr so that parsing reproduces them exactly."""
    fh.write(",".join(columns) + "\n")
    for record in records:
        cells = (record[c] for c in columns)
        fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in cells) + "\n")


def write_rows_csv(rows: list[PipelineRow], fh) -> None:
    _write_csv(_ROW_COLUMNS, ({**vars(r), "wall_ms": round(r.wall_ms, 3)} for r in rows), fh)


def write_aggregates_csv(aggregates: list[dict], fh) -> None:
    _write_csv(_AGGREGATE_COLUMNS, aggregates, fh)
