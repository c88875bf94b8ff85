"""Brute-force reference optimizers for validating the analytic solvers.

These deliberately avoid the closed-form machinery under test: power splits
are optimized over an exhaustive budget grid (grid_power_oracle) or by
monotone bisection on the shared water level (inside tree_enum_oracle), and
relay trees are enumerated outright. The grid prices its links with
``model.link_capacities``, the same kernel as the rates it checks; only the
search over splits is its own. The bisection starts from a bracket around
each tree's closed-form water level, computed here and not by
``power.allocate_power``, and confirmed by the bisection's own test, so its
result does not depend on that level. Feasible only at desk scale, which is
the point.

Both run as array code and give the same bits as one level or one fixed
step at a time. The grid's dynamic program fills blocks of budget levels at
once from a sliding window over the previous link's best values, keeps each
link's best values and recovers the split from them. The bisection runs on a
link-major table of noise floors, so each step's spend per tree is one
running sum down its columns. Each tree's bracket starts within 2**-44 of
its closed-form level wherever the loop's test confirms it, and it stops
once a step leaves every tree's bracket unchanged: 12 steps on
``validate``'s draws, not 56 to 64.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import ChannelParams, Topology, link_capacities
from .routing import DisconnectedTopologyError, RoutingTree

# Refuse grids whose dynamic program would exceed this many cell updates.
_GRID_BUDGET = 2 ** 28
# A resolution r is accepted when r * round(1 / r) is within this much of 1,
# so that the grid's levels sum to the budget.
_STEP_TOLERANCE = 1e-12
# Refuse tree enumerations of more parent combinations than this. A full mesh
# of 7 UAVs, 823,543 combinations, takes about 0.6 s and 210 MB.
_TREE_BUDGET = 2 ** 20
# Budget levels per block of the grid's dynamic program; a block holds
# _DP_BLOCK x (steps + 1) sums.
_DP_BLOCK = 64
# Cap on bisection steps; the loop ends earlier once a step changes nothing.
_BISECTION_ITERS = 200
# The bisection tests whether its brackets have settled every this many steps.
_SETTLE_CHECK = 4
# Each tree's bisection starts from W * (1 -/+ _SEED_WIDTH) around its
# closed-form water level W where the loop's own test confirms that the
# flip lies between them: about 10 halvings then reach adjacent floats.
_SEED_WIDTH = 2.0 ** -44
# A bracket [lo, hi] with lo positive and normal and hi - lo at most
# lo * _SETTLE_SPAN halves down to adjacent floats within about 128 + 53
# steps, inside _BISECTION_ITERS. Only such trees are narrowed, so a tree
# whose bisection stops at the cap runs the same steps as from its own
# bracket.
_SETTLE_SPAN = 2.0 ** 128
# numpy sums a contiguous row of this many terms or more pairwise, not left
# to right.
_PAIRWISE_TERMS = 8


@dataclass
class OracleResult:
    best_value: float
    best_configuration: dict
    evaluations: int


def grid_power_oracle(tree: RoutingTree, t: Topology, total_budget_w: float,
                      p: ChannelParams, resolution: float = 1e-3) -> OracleResult:
    """Best summed rate over the exhaustive discretized budget simplex.

    Powers are restricted to integer multiples of ``resolution * budget``
    that sum to the full budget; a resolution that is not 1/k for a whole
    number k, to within ``_STEP_TOLERANCE``, raises ValueError. The maximum
    over all such splits is found exactly with a per-link dynamic program
    over the budget lattice, which reaches the same optimum as literal
    enumeration of the simplex (the objective is separable across links) at
    a fraction of the cost.

    Link ``row`` at budget level b takes the level m maximising
    ``rate[row, m] + best[row - 1, b - m]`` over m <= b, the first such m on
    ties. Levels are filled in blocks of up to ``_DP_BLOCK``: a sliding
    window over a reversed copy of ``best[row - 1]`` lines ``best[row - 1,
    b - m]`` up under ``rate[row, m]`` for a whole block, reading both
    forward in memory; the few pairs with m > b in the block's last columns
    are set to -inf, and one max per level gives ``best[row, b]``. No choice
    matrix is kept: the backtrack recovers each link's m with one argmax
    over the same sums at the level the links after it left, so ties still
    go to the first m. The last link is read at the full budget only, so it
    fills that one level.
    Each sum is the same two-operand add as a level-at-a-time loop, and the
    rate table is one ``link_capacities`` call over every (level, link)
    pair, ``link_capacity``'s bits element by element, so the result is
    bit-identical to it. A parent link whose gain is not positive and
    finite, nan included, raises ``link_capacity``'s error, and an empty
    fleet raises ValueError. ``evaluations`` counts the simplex grid points
    covered.
    """
    if not 0.0 < total_budget_w < math.inf:
        raise ValueError("total power budget must be positive and finite")
    if not 0.0 < resolution <= 1.0:
        raise ValueError("resolution must be a step fraction in (0, 1]")
    inverse = 1.0 / resolution
    steps = round(inverse) if inverse < math.inf else 0
    if not abs(steps * resolution - 1.0) <= _STEP_TOLERANCE:
        raise ValueError(f"resolution {resolution!r} is not 1/k for a whole number of steps k")
    uavs = sorted(tree.parent)
    n = len(uavs)
    if not n:
        raise ValueError("the fleet is empty: there are no UAV links to split the budget across")
    if n * (steps + 1) ** 2 > _GRID_BUDGET:
        raise ValueError(
            f"grid of {steps + 1} levels across {n} links exceeds the enumeration budget"
        )
    step_w = total_budget_w * resolution
    levels = np.arange(steps + 1) * step_w

    # Per-link rate at every grid level, row-major by link; a rate beyond
    # the float range is inf, as in link_capacity.
    gains = t.gains[tree.parent_links]
    rate_table = link_capacities(np.tile(levels, n), gains.repeat(steps + 1),
                                 p).reshape(n, steps + 1)

    # best[row, b] = max summed rate of links 0..row using budget b*step.
    best = np.empty((n, steps + 1))
    best[0] = rate_table[0]
    # reverse = best[row - 1] backwards ++ [0]*steps, so window[b, m] =
    # best[row - 1, b - m] for m <= b, each window row forward in memory.
    reverse = np.zeros(2 * steps + 1)
    window = sliding_window_view(reverse, steps + 1)[::-1]
    block = min(_DP_BLOCK, steps + 1)
    totals = np.empty(block * (steps + 1))  # each block's sums, C-contiguous
    beyond = np.triu(np.ones((block, block), dtype=bool), k=1)  # m > b
    for row in range(1, n):
        reverse[:steps + 1] = best[row - 1, ::-1]
        # The last link is read at the full budget only; levels below
        # ``first`` are left unset and never read.
        first = steps if row == n - 1 else 0
        for lo in range(first, steps + 1, block):
            hi = min(lo + block, steps + 1)
            k = hi - lo
            sums = totals[:k * hi].reshape(k, hi)
            np.add(rate_table[row, :hi], window[lo:hi, :hi], out=sums)
            np.copyto(sums[:, lo:], -math.inf, where=beyond[:k, :k])
            np.max(sums, axis=1, out=best[row, lo:hi])

    # Each link's level is the first m reaching the best sum at what the
    # links after it left over: the same adds as its block, without the
    # m > b pairs.
    powers = {}
    b = steps
    for row in range(n - 1, 0, -1):
        m = int(np.argmax(rate_table[row, :b + 1] + best[row - 1, b::-1]))
        powers[uavs[row]] = float(levels[m])
        b -= m
    powers[uavs[0]] = float(levels[b])
    evaluations = math.comb(steps + n - 1, n - 1)
    return OracleResult(
        best_value=float(best[n - 1, steps]),
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


def _tree_sums(table: np.ndarray) -> np.ndarray:
    """Per-tree sums of a C-ordered link-major table, with the bits numpy
    gives each tree's row of the tree-major table. Rows of fewer than
    ``_PAIRWISE_TERMS`` links sum left to right, as a running sum down axis
    0 does; longer ones are copied tree-major for numpy's pairwise order."""
    if table.shape[0] < _PAIRWISE_TERMS:
        return np.add.reduce(table, axis=0)
    return np.add.reduce(table.T.copy(), axis=1)


def _midpoint_rule(hi: np.ndarray):
    """The bisection's midpoint, chosen once from the initial bracket tops:
    ``0.5 * (lo + hi)`` while every ``hi + hi`` is finite, which the
    brackets keep since they only shrink, else ``lo + 0.5 * (hi - lo)``,
    which cannot overflow on a finite bracket."""
    with np.errstate(over="ignore"):
        if (hi + hi).max() < math.inf:
            return lambda lo, hi: 0.5 * (lo + hi)
    return lambda lo, hi: lo + 0.5 * (hi - lo)


def _seeded_brackets(floors: np.ndarray, total_budget_w: float, lo: np.ndarray,
                     hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The brackets (lo, hi) narrowed around each tree's closed-form water
    level W = min over k of (P_b + f_(1) + ... + f_(k)) / k, with f_(k) the
    tree's k-th lowest noise floor: the level of the k lowest floors falls
    while the next floor lies below it (Boyd & Vandenberghe, *Convex
    Optimization*, Example 5.2).

    The loop's own test, ``_tree_sums(max(0, w - floors)) > P_b``, runs at
    w = W * (1 -/+ _SEED_WIDTH) for every tree in one call. A side moves in
    only where the test confirms it: the new lo is not over budget, the new
    hi is, and each lies strictly inside the initial bracket. The spend is
    monotone in w in float arithmetic, so the test flips once, at the least
    float it puts over budget (the initial hi where there is none). A
    bisection that settles from any bracket around that float reaches the
    same pair of adjacent floats below it, and takes the same steps from
    there. Only trees whose initial bracket is known to settle within
    ``_BISECTION_ITERS`` steps (``_SETTLE_SPAN``) are narrowed; every other
    tree keeps its bracket and runs the same steps as before.
    """
    n = floors.shape[0]
    levels = np.cumsum(np.sort(floors, axis=0), axis=0)
    levels += total_budget_w
    levels /= np.arange(1, n + 1)[:, None]
    probes = levels.min(axis=0) * np.array([[1.0 - _SEED_WIDTH], [1.0 + _SEED_WIDTH]])
    # Link-major, one column per (probe, tree): the rows _tree_sums sums
    # have the loop's length, so each column's test has the loop's bits.
    gap = np.maximum(0.0, probes - floors[:, None, :]).reshape(n, -1)
    low_over, high_over = (_tree_sums(gap) > total_budget_w).reshape(2, -1)
    low, high = probes
    settles = (lo >= sys.float_info.min) & (hi - lo <= lo * _SETTLE_SPAN)
    raise_lo = settles & ~low_over & (lo < low) & (low < hi)
    lower_hi = settles & high_over & (lo < high) & (high < hi)
    return np.where(raise_lo, low, lo), np.where(lower_hi, high, hi)


def tree_enum_oracle(t: Topology, total_budget_w: float, p: ChannelParams) -> OracleResult:
    """Throughput of the best relay tree over all valid parent assignments.

    Every combination of per-UAV parent choices over admissible links is
    enumerated; assignments that loop or strand a UAV are filtered out. Each
    surviving tree's budget split is optimized independently of the analytic
    solver by bisecting the common water level W in

        sum_i max(0, W - sigma^2 B / h_i) = P_b,

    a monotone scalar equation, run in parallel across trees. The floors sit
    link-major, one column per tree, and each step's spend per tree is summed
    down a column. That running sum has the bits of numpy's sum of the tree's
    row only below ``_PAIRWISE_TERMS`` links; trees of more links are summed
    as contiguous rows (``_tree_sums``). Before the loop, each tree's bracket
    is narrowed to within 2**-44 of its closed-form water level on each side
    the loop's own test confirms (``_seeded_brackets``); a bisection that
    settles ends on the same pair of floats from either bracket. Each step is
    a function of the brackets (lo, hi) alone, so once a step leaves every
    bracket unchanged all later ones do too; the loop tests for that every
    ``_SETTLE_CHECK`` steps and stops, and the result is the
    ``_BISECTION_ITERS``-step loop's from the initial brackets, bit for bit. A
    call on ``validate``'s n = 5 draws runs 12 steps, not 56 to 64. A bracket
    holding NaN never compares equal and runs to the cap. Where a bracket top
    is so near the float maximum that ``lo + hi`` could overflow, every
    bracket takes its midpoint as ``lo + 0.5 * (hi - lo)``
    (``_midpoint_rule``), so the powers stay finite and within the budget. A
    link whose noise floor overflows to inf gets no power, and a tree whose
    floors all overflow scores 0.0. A budget near the float range makes the
    rates overflow to inf, silently, as Python floats do: ``best_value`` is
    then inf. An admissible link whose gain is not positive and finite, nan
    included, raises ``link_capacity``'s error; an empty fleet raises
    ValueError, and so does a fleet whose parent combinations, the product
    of the UAVs' admissible link counts, exceed ``_TREE_BUDGET``.
    Returns the best tree with its powers; ``evaluations`` counts the valid
    trees.
    """
    if not 0.0 < total_budget_w < math.inf:
        raise ValueError("total power budget must be positive and finite")
    n = t.n_uavs
    if not n:
        raise ValueError("the fleet is empty: there are no UAVs to build a tree from")
    links, rows, cols, starts = t.links
    # Pricing the admissible gains raises for the first one it rejects.
    gains = t.gains.take(links)
    link_capacities(np.zeros(gains.size), gains, p)
    if starts.size < n:  # name the first UAV without links
        raise DisconnectedTopologyError([int(np.argmin(np.bincount(rows, minlength=n))) + 1])
    combinations = math.prod(np.diff(starts, append=cols.size).tolist())
    if combinations > _TREE_BUDGET:
        raise ValueError(
            f"{combinations} parent combinations across {n} UAVs exceed the enumeration budget"
        )
    neighbor_lists = np.split(cols + 1, starts[1:])

    # Every combination of choices, in itertools.product's order: the last
    # UAV's choice varies fastest.
    grids = np.meshgrid(*neighbor_lists, indexing="ij")
    parents = np.stack(grids, axis=-1).reshape(-1, n)
    mask = _valid_assignment_mask(parents, t.gs.id)
    if not np.any(mask):
        raise DisconnectedTopologyError(list(t.uav_ids))
    trees = parents[mask]

    # Noise floor of each link, in power units, link-major and C-ordered:
    # floors[i - 1, r] = sigma^2 B / h for UAV i's link in tree r. A floor
    # that overflows to inf takes no power at any finite level.
    with np.errstate(over="ignore"):
        floors = p.noise_power / t.gains[np.arange(n)[:, None], trees.T.copy() - 1]

    # Each bracket tops out above the tree's finite floors; a tree with none
    # gets the empty bracket [P_b, P_b] and spends nothing.
    hi = np.max(floors, axis=0, where=floors < math.inf, initial=0.0) + total_budget_w
    lo = np.minimum(np.min(floors, axis=0), hi)
    midpoint = _midpoint_rule(hi)
    # A tree whose floors all overflow probes at inf, where inf - inf is nan.
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = _seeded_brackets(floors, total_budget_w, lo, hi)
    gap = np.empty_like(floors)
    with np.errstate(over="ignore"):
        for step in range(1, _BISECTION_ITERS + 1):
            mid = midpoint(lo, hi)
            np.subtract(mid, floors, out=gap)
            np.maximum(0.0, gap, out=gap)
            over = _tree_sums(gap) > total_budget_w
            if step % _SETTLE_CHECK == 0 and (np.where(over, hi, lo) == mid).all():
                break
            hi = np.where(over, mid, hi)
            lo = np.where(over, lo, mid)
        water = midpoint(lo, hi)
        powers = np.maximum(0.0, water - floors)
        values = p.bandwidth_B * _tree_sums(np.log2(1.0 + powers / floors))

    best_row = int(np.argmax(values))
    best_parents = {i: int(trees[best_row, i - 1]) for i in t.uav_ids}
    best_powers = {i: float(powers[i - 1, best_row]) for i in t.uav_ids}
    return OracleResult(
        best_value=float(values[best_row]),
        best_configuration={"parent": best_parents, "powers": best_powers},
        evaluations=int(trees.shape[0]),
    )
