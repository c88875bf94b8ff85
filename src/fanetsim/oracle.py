"""Brute-force reference optimizers for validating the analytic solvers.

These deliberately avoid the closed-form machinery under test: power splits
are optimized over an exhaustive budget grid (grid_power_oracle) or by
monotone bisection on the shared water level (inside tree_enum_oracle), and
relay trees are enumerated outright. Feasible only at desk scale, which is
the point.

Both run as array code. The grid's dynamic program fills blocks of budget
levels at once from a sliding window over the previous links' best values,
and the bisection stops at the first step that leaves every tree's bracket
unchanged; each gives the same bits as one level or one fixed step at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import ChannelParams, Topology
from .routing import DisconnectedTopologyError, RoutingTree

# Refuse grids whose dynamic program would exceed this many cell updates.
_GRID_BUDGET = 2 ** 28
# Budget levels per block of the grid's dynamic program; a block holds
# _DP_BLOCK x (steps + 1) sums.
_DP_BLOCK = 64
# Cap on bisection steps; the loop ends earlier once a step changes nothing.
_BISECTION_ITERS = 200


@dataclass
class OracleResult:
    best_value: float
    best_configuration: dict
    evaluations: int


def grid_power_oracle(tree: RoutingTree, t: Topology, total_budget_w: float,
                      p: ChannelParams, resolution: float = 1e-3) -> OracleResult:
    """Best summed rate over the exhaustive discretized budget simplex.

    Powers are restricted to integer multiples of ``resolution * budget``
    that sum to the full budget. The maximum over all such splits is found
    exactly with a per-link dynamic program over the budget lattice, which
    reaches the same optimum as literal enumeration of the simplex (the
    objective is separable across links) at a fraction of the cost.

    Link ``row`` at budget level b takes the level m maximising
    ``rate[row, m] + best[b - m]`` over m <= b, the first such m on ties.
    Levels are filled in blocks of up to ``_DP_BLOCK``: one reversed sliding
    window over the previous best values lines ``best[b - m]`` up under
    ``rate[row, m]`` for a whole block, the few pairs with m > b in the
    block's last columns are set to -inf, and one argmax per level picks m.
    The backtrack reads the last link at the full budget only, so that link
    fills that one level.
    Each sum is the same two-operand add as a level-at-a-time loop, and the
    rate table is ``link_capacity``'s arithmetic element by element
    (``math.log2``, not ``np.log2``, which differs in the last bit), so the
    result is bit-identical to it. ``evaluations`` counts the simplex grid
    points covered.
    """
    if not 0.0 < total_budget_w < math.inf:
        raise ValueError("total power budget must be positive and finite")
    if not 0.0 < resolution <= 1.0:
        raise ValueError("resolution must be a step fraction in (0, 1]")
    uavs = sorted(tree.parent)
    n = len(uavs)
    steps = round(1.0 / resolution)
    if n * (steps + 1) ** 2 > _GRID_BUDGET:
        raise ValueError(
            f"grid of {steps + 1} levels across {n} links exceeds the enumeration budget"
        )
    step_w = total_budget_w * resolution
    levels = np.arange(steps + 1) * step_w

    # Per-link rate at every grid level: B * log2(1 + P*h / (sigma^2 B)).
    # Python floats overflow to inf silently; so do these.
    rate_table = np.empty((n, steps + 1))
    for row, i in enumerate(uavs):
        gain = t.gain(i, tree.parent[i])
        if gain <= 0.0:
            raise ValueError("link gain must be strictly positive")
        with np.errstate(over="ignore", invalid="ignore"):
            one_plus_snr = 1.0 + levels * gain / p.noise_power
            rate_table[row] = np.fromiter(map(math.log2, one_plus_snr.tolist()), float, steps + 1)
            rate_table[row] *= p.bandwidth_B

    # best[b] = max summed rate of the first row+1 links using budget b*step.
    best = rate_table[0].copy()
    choice = np.zeros((n, steps + 1), dtype=np.int64)
    choice[0] = np.arange(steps + 1)
    # padded = [0]*steps ++ best, so window[b, m] = best[b - m] for m <= b.
    padded = np.zeros(2 * steps + 1)
    window = sliding_window_view(padded, steps + 1)[:, ::-1]
    block = min(_DP_BLOCK, steps + 1)
    totals = np.empty(block * (steps + 1))  # each block's sums, C-contiguous
    beyond = np.triu(np.ones((block, block), dtype=bool), k=1)  # m > b
    for row in range(1, n):
        padded[steps:] = best
        # The last link is read at the full budget only; levels below
        # ``first`` are left unset and never read.
        first = steps if row == n - 1 else 0
        new_best = np.empty(steps + 1)
        for lo in range(first, steps + 1, block):
            hi = min(lo + block, steps + 1)
            k = hi - lo
            sums = totals[:k * hi].reshape(k, hi)
            np.add(rate_table[row, :hi], window[lo:hi, :hi], out=sums)
            np.copyto(sums[:, lo:], -math.inf, where=beyond[:k, :k])
            m = np.argmax(sums, axis=1)
            choice[row, lo:hi] = m
            new_best[lo:hi] = sums[np.arange(k), m]
        best = new_best

    powers = {}
    b = steps
    for row in range(n - 1, -1, -1):
        m = int(choice[row, b])
        powers[uavs[row]] = float(levels[m])
        b -= m
    evaluations = math.comb(steps + n - 1, n - 1)
    return OracleResult(
        best_value=float(best[steps]),
        best_configuration={"powers": powers},
        evaluations=evaluations,
    )


def _valid_assignment_mask(parents: np.ndarray, gs_id: int) -> np.ndarray:
    """Rows whose parent pointers form a GS-rooted tree (no cycles).

    ``parents[r, i - 1]`` is UAV i's parent in row r; UAVs are 1..n and the
    ground station is ``gs_id`` = n + 1. Pointer doubling runs on every row
    at once, with node ids made flat indices into one (rows, n + 1) table
    and the ground station its own parent: after k passes ``up`` holds the
    node 2**k parent links above each node. A tree is at most n deep and
    2**n.bit_length() > n, so a row is a tree exactly when every UAV then
    sits at the ground station.
    """
    rows, n = parents.shape
    base = np.arange(rows, dtype=np.int64)[:, None] * (n + 1) - 1
    root = base + gs_id
    up = np.empty((rows, n + 1), dtype=np.int64)
    np.add(parents, base, out=up[:, :n])
    up[:, n:] = root
    for _ in range(n.bit_length()):
        up = up.ravel()[up]
    return (up[:, :n] == root).all(axis=1)


def tree_enum_oracle(t: Topology, total_budget_w: float, p: ChannelParams) -> OracleResult:
    """Throughput of the best relay tree over all valid parent assignments.

    Every combination of per-UAV parent choices over admissible links is
    enumerated; assignments that loop or strand a UAV are filtered out. Each
    surviving tree's budget split is optimized independently of the analytic
    solver by bisecting the common water level W in

        sum_i max(0, W - sigma^2 B / h_i) = P_b,

    a monotone scalar equation, run in parallel across trees. Each step is a
    function of the brackets (lo, hi) alone, so the loop stops at the first
    step that leaves every bracket unchanged: the remaining steps of the
    ``_BISECTION_ITERS`` cap would repeat it, and the result is the capped
    loop's bit for bit. A bracket holding NaN never compares equal and runs
    to the cap. Returns the best tree with its powers; ``evaluations``
    counts the valid trees.
    """
    if not 0.0 < total_budget_w < math.inf:
        raise ValueError("total power budget must be positive and finite")
    n = t.n_uavs
    gs_id = t.gs.id
    neighbor_lists = []
    for i in t.uav_ids:
        adm = t.admissible_neighbors(i)
        if not adm:
            raise DisconnectedTopologyError([i])
        neighbor_lists.append(np.array(adm, dtype=np.int64))

    # Every combination of choices, in itertools.product's order: the last
    # UAV's choice varies fastest.
    grids = np.meshgrid(*neighbor_lists, indexing="ij")
    parents = np.stack(grids, axis=-1).reshape(-1, n)
    mask = _valid_assignment_mask(parents, gs_id)
    if not np.any(mask):
        raise DisconnectedTopologyError(list(t.uav_ids))
    trees = parents[mask]

    # Noise floor of each link, in power units, per tree: sigma^2 B / h.
    floors = p.noise_power / t.gains[np.arange(n), trees - 1]

    lo = np.min(floors, axis=1)
    hi = np.max(floors, axis=1) + total_budget_w
    gap = np.empty_like(floors)
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        np.subtract(mid[:, None], floors, out=gap)
        np.maximum(0.0, gap, out=gap)
        over = np.add.reduce(gap, axis=1) > total_budget_w
        new_hi = np.where(over, mid, hi)
        new_lo = np.where(over, lo, mid)
        if (new_hi == hi).all() and (new_lo == lo).all():
            break
        hi, lo = new_hi, new_lo
    water = 0.5 * (lo + hi)
    powers = np.maximum(0.0, water[:, None] - floors)
    values = p.bandwidth_B * np.sum(np.log2(1.0 + powers / floors), axis=1)

    best_row = int(np.argmax(values))
    best_parents = {i: int(trees[best_row, i - 1]) for i in t.uav_ids}
    best_powers = {i: float(powers[best_row, i - 1]) for i in t.uav_ids}
    return OracleResult(
        best_value=float(values[best_row]),
        best_configuration={"parent": best_parents, "powers": best_powers},
        evaluations=int(trees.shape[0]),
    )
