"""Closed-form water-filling of a shared power budget across the tree links.

Maximizing the summed link rates subject to the total budget gives, per link,
B * h_i / (sigma^2 * B + P_i * h_i) = lambda, so P_i = B/lambda - f_i with
f_i = sigma^2*B/h_i the link's noise floor in watts and
lambda = m / (P_b/B + sum_i sigma^2/h_i) over the m links left active. The
links that keep power are always the lowest floors (Boyd & Vandenberghe,
*Convex Optimization*, Example 5.2): the links are sorted by floor once, and
each pass clamps a suffix of the active prefix to zero and recomputes lambda.
Where the floors dwarf the budget, B/lambda - f_i would cancel the budget
against them, so there the floors are measured from the lowest one, f_1:
P_i = (P_b + sum_j (f_j - f_1)) / m - (f_i - f_1), the same quantity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import ChannelParams, Topology, link_capacity
from .routing import RoutingTree, parent_link_values, validate_tree

# Anything at or below this fraction of the budget is treated as a clamped link.
CLAMP_TOLERANCE = 1e-12
# A pass uses B/lambda - f_i while m^2 times its largest floor is at most this
# multiple of the budget: its m shares, each off by about 8 ulps of that floor,
# then err by less than 2**-10 of the mean share P_b/m in total.
FLOOR_RATIO = 2.0 ** 40


class AllocationError(ArithmeticError):
    """Water-filling cannot place the budget within the float range: the
    budget is subnormal, every link's noise floor overflows, or a link's SNR,
    the water level or a sum overflows."""


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
    set, which always holds the lowest-floor link, to floating-point precision.
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
    gain = dict(zip(uavs, parent_link_values(t.gains, tree.parent, uavs)))
    for i in uavs:
        if not gain[i] > 0.0:
            raise ValueError(f"parent link of UAV {i} has nonpositive gain")
    floor = {i: p.noise_power / gain[i] for i in uavs}
    # Links by (floor, id), as sorted is stable. Float subtraction is monotone,
    # so at any water level the links that keep power are a prefix of it.
    order = sorted(uavs, key=floor.__getitem__)
    floors = [floor[i] for i in order]
    level_terms = [p.noise_density_sigma2 / gain[i] for i in order]
    if not (total_budget_w >= sys.float_info.min and floors[0] < math.inf):
        raise AllocationError(f"a budget of {total_budget_w!r} W against a lowest noise "
                              f"floor of {floors[0]!r} W leaves the normal float range")

    m = len(order)
    while True:
        denominator = total_budget_w / p.bandwidth_B + _fsum(level_terms[:m])
        water_level = m / denominator if denominator > 0.0 else math.inf
        if not 0.0 < water_level < math.inf or p.bandwidth_B / water_level == math.inf:
            raise AllocationError(
                f"a budget of {total_budget_w!r} W over a bandwidth of {p.bandwidth_B!r} Hz "
                "overflows the water level"
            )
        active = floors[:m]
        if m * m * active[-1] <= FLOOR_RATIO * total_budget_w:
            shares = [p.bandwidth_B / water_level - f for f in active]
        else:
            level = _fsum([total_budget_w / m, *((f - active[0]) / m for f in active)])
            shares = [level - (f - active[0]) for f in active]
        kept = sum(share > CLAMP_TOLERANCE * total_budget_w for share in shares)
        if kept == m:
            break
        m = kept

    allocation = dict.fromkeys(uavs, 0.0)
    allocation.update(zip(order, shares))
    # One rounding correction on the largest share keeps the budget exact.
    top = max(order[:m], key=lambda i: (allocation[i], -i))
    allocation[top] += total_budget_w - _fsum(shares)

    alloc = PowerAllocation(power=allocation, water_level_lambda=water_level,
                            active_set=tuple(sorted(order[:m])), throughput_R=math.nan)
    alloc.throughput_R = network_throughput(alloc, tree, t, p)
    return alloc


def network_throughput(alloc: PowerAllocation, tree: RoutingTree, t: Topology,
                       p: ChannelParams) -> float:
    """Summed rate of ``alloc`` over the tree's parent links: the one sum of a
    tree's throughput.

    Every link's arguments are checked first, and the first one in UAV id
    order that link_capacity rejects, nan included, raises its error. A link
    at power 0.0 and a finite gain then adds exactly 0.0, so it is not priced.
    """
    uavs = sorted(tree.parent)
    links = list(zip([alloc.power[i] for i in uavs],
                     parent_link_values(t.gains, tree.parent, uavs)))
    for power, gain in links:
        if not power >= 0.0 or not gain > 0.0:
            link_capacity(power, gain, p)
    return _fsum(link_capacity(power, gain, p) for power, gain in links
                 if not (power == 0.0 and gain < math.inf))
