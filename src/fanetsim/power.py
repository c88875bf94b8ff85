"""Closed-form water-filling of a shared power budget across the tree links.

Maximizing the summed link rates subject to the total budget has a
stationarity condition per link,

    B * h_i / (sigma^2 * B + P_i * h_i) = lambda,

whose positive solution is P_i = B/lambda - sigma^2*B/h_i with the water
level fixed by the budget: lambda = m / (P_b/B + sum_i sigma^2/h_i) over the
m links left active. Links whose closed-form power comes out nonpositive are
clamped to zero and the water level is recomputed over the survivors, which
terminates in at most n passes because the active set only shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ChannelParams, Topology, link_capacity
from .routing import RoutingTree, validate_tree

# Anything at or below this fraction of the budget is treated as a clamped link.
CLAMP_TOLERANCE = 1e-12


class AllocationError(ArithmeticError):
    """Water-filling cannot place the budget within the float range: it is
    below the rounding error of the links' noise floors, so every link clamps
    or the rounding correction cancels the budget, or it is so large that a
    link's SNR, the water level or a sum overflows."""


def _fsum(values) -> float:
    """math.fsum, reporting a sum beyond the float range as AllocationError."""
    try:
        return math.fsum(values)
    except OverflowError as exc:
        raise AllocationError(f"water-filling overflows the float range: {exc}") from exc


@dataclass
class PowerAllocation:
    """Per-UAV transmit powers (W), the final water level, and the summed rate."""

    power: dict[int, float]
    water_level_lambda: float
    active_set: tuple[int, ...]
    throughput_R: float


def allocate_power(tree: RoutingTree, t: Topology, total_budget_w: float,
                   p: ChannelParams) -> PowerAllocation:
    """Split ``total_budget_w`` across the tree's links to maximize summed rate.

    Requires a valid tree and a positive, finite budget. The returned powers
    sum to the budget exactly up to one rounding correction, clamped links
    carry exactly 0.0, and the water-level identity above holds on the active
    set to floating-point precision.
    """
    if not 0.0 < total_budget_w < math.inf:
        raise ValueError("total power budget must be positive and finite")
    report = validate_tree(tree, t)
    if not report.ok:
        raise ValueError(f"routing tree is invalid: {report}")

    # Every rate the pipeline evaluates is at a power within the budget on an
    # admissible link.
    if total_budget_w * float(t.gains.max(initial=0.0)) / p.noise_power == math.inf:
        raise AllocationError(
            f"a budget of {total_budget_w!r} W overflows the SNR of the strongest link"
        )
    uavs = sorted(tree.parent)
    gain = {i: t.gain(i, tree.parent[i]) for i in uavs}
    for i in uavs:
        if gain[i] <= 0.0:
            raise ValueError(f"parent link of UAV {i} has nonpositive gain")
    # Per-link noise floor expressed in power units: sigma^2 * B / h_i.
    floor = {i: p.noise_power / gain[i] for i in uavs}

    active = set(uavs)
    powers: dict[int, float] = {}
    water_level = math.inf
    for _ in range(len(uavs)):
        m = len(active)
        water_level = m / (
            total_budget_w / p.bandwidth_B
            + _fsum(p.noise_density_sigma2 / gain[i] for i in sorted(active))
        )
        if water_level == 0.0:
            raise AllocationError(
                f"a budget of {total_budget_w!r} W over a bandwidth of {p.bandwidth_B!r} Hz "
                "overflows the water level"
            )
        powers = {i: p.bandwidth_B / water_level - floor[i] for i in active}
        drop = {i for i in active if powers[i] <= CLAMP_TOLERANCE * total_budget_w}
        if not drop:
            break
        active -= drop
        if not active:
            raise AllocationError(f"every link clamped at a budget of {total_budget_w!r} W")

    allocation = {i: 0.0 for i in uavs}
    allocation.update({i: powers[i] for i in active})
    # One rounding correction on the largest share keeps the budget exact.
    residual = total_budget_w - _fsum(allocation[i] for i in uavs)
    top = max(active, key=lambda i: (allocation[i], -i))
    allocation[top] += residual
    if not allocation[top] > 0.0:
        # The active powers were rounding noise far above the budget.
        raise AllocationError(
            f"noise floors swamp a budget of {total_budget_w!r} W: no link keeps any power"
        )

    alloc = PowerAllocation(power=allocation, water_level_lambda=water_level,
                            active_set=tuple(sorted(active)), throughput_R=math.nan)
    alloc.throughput_R = network_throughput(alloc, tree, t, p)
    return alloc


def network_throughput(alloc: PowerAllocation, tree: RoutingTree, t: Topology,
                       p: ChannelParams) -> float:
    """Summed rate of ``alloc`` over the tree's parent links: the one sum of a
    tree's throughput."""
    return _fsum(
        link_capacity(alloc.power[i], t.gain(i, tree.parent[i]), p)
        for i in sorted(tree.parent)
    )
