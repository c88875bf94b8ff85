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
A link so weak that its floor overflows to inf gets 0.0 W.

The links are held as arrays in one stable argsort by (floor, id); a pass's
shares are one numpy expression, elementwise the same float operations as
the formulas above, and the links it keeps are counted, not listed. The
rounding correction goes to the largest share, the lowest id among equals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ChannelParams, Topology, link_capacities
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

    Requires a valid tree of at least one UAV (an empty fleet raises
    ValueError) and a positive, finite budget. The returned powers
    sum to the budget exactly up to one rounding correction, clamped links
    carry exactly 0.0, and the water-level identity above holds on the active
    set, which always holds the lowest-floor link, to floating-point precision.
    The throughput prices the parent links in one link_capacities call, as
    network_throughput does.
    """
    if not 0.0 < total_budget_w < math.inf:
        raise ValueError("total power budget must be positive and finite")
    if not t.n_uavs:
        raise ValueError("the fleet is empty: there are no UAV links to split the budget across")
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
    gains = np.array(parent_link_values(t.gains, tree.parent, uavs))
    bad = ~(gains > 0.0)
    if bad.any():
        raise ValueError(f"parent link of UAV {uavs[int(bad.argmax())]} has nonpositive gain")
    with np.errstate(over="ignore"):
        floors = p.noise_power / gains
        level_terms = p.noise_density_sigma2 / gains
    # Links by (floor, id): a stable sort of the floors in id order. Float
    # subtraction is monotone, so at any water level the links that keep
    # power are a prefix of it.
    order = np.argsort(floors, kind="stable")
    floors = floors[order]
    level_terms = level_terms[order].tolist()
    # Floors that overflow to inf sort last; no finite water level reaches
    # them, so their links start clamped.
    m = int(np.searchsorted(floors, math.inf))
    if not (total_budget_w >= sys.float_info.min and m):
        raise AllocationError(f"a budget of {total_budget_w!r} W against a lowest noise "
                              f"floor of {float(floors[0])!r} W leaves the normal float range")

    while True:
        denominator = total_budget_w / p.bandwidth_B + _fsum(level_terms[:m])
        water_level = m / denominator if denominator > 0.0 else math.inf
        if not 0.0 < water_level < math.inf or p.bandwidth_B / water_level == math.inf:
            raise AllocationError(
                f"a budget of {total_budget_w!r} W over a bandwidth of {p.bandwidth_B!r} Hz "
                "overflows the water level"
            )
        active = floors[:m]
        if m * m * float(active[-1]) <= FLOOR_RATIO * total_budget_w:
            shares = p.bandwidth_B / water_level - active
        else:
            gaps = active - active[0]
            level = _fsum([total_budget_w / m, *(gaps / m).tolist()])
            shares = level - gaps
        kept = int(np.count_nonzero(shares > CLAMP_TOLERANCE * total_budget_w))
        if kept == m:
            break
        m = kept

    on = order[:m]  # the active links' positions in uavs
    powers = np.zeros(len(uavs))
    powers[on] = shares
    # One rounding correction on the largest share keeps the budget exact;
    # among equal shares the lowest id takes it.
    powers[on[shares == shares.max()].min()] += total_budget_w - _fsum(shares.tolist())
    alloc = PowerAllocation(power=dict(zip(uavs, powers.tolist())), water_level_lambda=water_level,
                            active_set=tuple(uavs[k] for k in np.sort(on).tolist()),
                            throughput_R=math.nan)
    alloc.throughput_R = _fsum(link_capacities(powers, gains, p).tolist())
    return alloc


def link_rates(alloc: PowerAllocation, tree: RoutingTree, t: Topology,
               p: ChannelParams) -> list[float]:
    """Each UAV's parent-link rate at its allocated power, in UAV id order: the
    one pricing of a tree's links, all of them in one link_capacities call.

    The first link in UAV id order that link_capacity rejects, nan included,
    raises its error.
    """
    uavs = sorted(tree.parent)
    powers = np.array([alloc.power[i] for i in uavs])
    gains = np.array(parent_link_values(t.gains, tree.parent, uavs))
    return link_capacities(powers, gains, p).tolist()


def network_throughput(alloc: PowerAllocation, tree: RoutingTree, t: Topology,
                       p: ChannelParams) -> float:
    """Summed rate of ``alloc`` over the tree's parent links: the fsum of
    ``link_rates``."""
    return _fsum(link_rates(alloc, tree, t, p))
