"""Brute-force reference optimizers for validating the analytic solvers.

These deliberately avoid the closed-form machinery under test: power splits
are optimized over an exhaustive budget grid (grid_power_oracle) or by
monotone bisection on the shared water level (inside tree_enum_oracle), and
relay trees are enumerated outright. Feasible only at desk scale, which is
the point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelParams, Topology, link_capacity
from .routing import DisconnectedTopologyError, RoutingTree

# Refuse grids whose dynamic program would exceed this many cell updates.
_GRID_BUDGET = 2 ** 28
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
    ``evaluations`` counts the simplex grid points covered.
    """
    if total_budget_w <= 0.0:
        raise ValueError("total power budget must be strictly positive")
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

    # Per-link rate at every grid level.
    rate_table = np.empty((n, steps + 1))
    for row, i in enumerate(uavs):
        gain = t.gain(i, tree.parent[i])
        rate_table[row] = [link_capacity(w, gain, p) for w in levels]

    # best[b] = max summed rate of the first row+1 links using budget b*step.
    best = rate_table[0].copy()
    choice = np.zeros((n, steps + 1), dtype=np.int64)
    choice[0] = np.arange(steps + 1)
    for row in range(1, n):
        new_best = np.empty(steps + 1)
        for b in range(steps + 1):
            totals = rate_table[row, : b + 1] + best[b::-1]
            m = int(np.argmax(totals))
            new_best[b] = totals[m]
            choice[row, b] = m
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
    """Rows whose parent pointers form a GS-rooted tree (no cycles)."""
    n = parents.shape[1]
    # Pointer jumping: after n hops every node of a valid tree sits at the GS.
    current = parents.copy()
    rows = np.arange(parents.shape[0])[:, None]
    for _ in range(n):
        is_uav = current <= n
        idx = np.where(is_uav, current - 1, 0)
        hopped = parents[rows, idx]
        current = np.where(is_uav, hopped, current)
    return np.all(current == gs_id, axis=1)


def tree_enum_oracle(t: Topology, total_budget_w: float, p: ChannelParams) -> OracleResult:
    """Throughput of the best relay tree over all valid parent assignments.

    Every combination of per-UAV parent choices over admissible links is
    enumerated; assignments that loop or strand a UAV are filtered out. Each
    surviving tree's budget split is optimized independently of the analytic
    solver by bisecting the common water level W in

        sum_i max(0, W - sigma^2 B / h_i) = P_b,

    a monotone scalar equation, run in parallel across trees. Returns the
    best tree with its powers; ``evaluations`` counts the valid trees.
    """
    if total_budget_w <= 0.0:
        raise ValueError("total power budget must be strictly positive")
    n = t.n_uavs
    gs_id = t.gs.id
    neighbor_lists = []
    for i in t.uav_ids:
        adm = t.admissible_neighbors(i)
        if not adm:
            raise DisconnectedTopologyError([i])
        neighbor_lists.append(adm)

    parents = np.array(list(itertools.product(*neighbor_lists)), dtype=np.int64)
    mask = _valid_assignment_mask(parents, gs_id)
    if not np.any(mask):
        raise DisconnectedTopologyError(list(t.uav_ids))
    trees = parents[mask]

    # Noise floor of each link, in power units, per tree: sigma^2 B / h.
    cols = np.repeat(np.arange(n)[None, :], trees.shape[0], axis=0)
    floors = p.noise_power / t.gains[cols, trees - 1]

    lo = np.min(floors, axis=1)
    hi = np.max(floors, axis=1) + total_budget_w
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        spent = np.sum(np.maximum(0.0, mid[:, None] - floors), axis=1)
        over = spent > total_budget_w
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
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
