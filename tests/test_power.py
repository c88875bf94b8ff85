"""Water-filling allocation over a fixed relay tree."""

import bisect
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanetsim.model import GROUND_STATION, ChannelParams, Node, build_topology, link_capacity
from fanetsim.oracle import grid_power_oracle
from fanetsim.power import (
    CLAMP_TOLERANCE,
    FLOOR_RATIO,
    AllocationError,
    PowerAllocation,
    _fsum,
    allocate_power,
    link_rates,
    network_throughput,
)
from fanetsim.routing import RoutingTree, build_spt, validate_tree

from conftest import chain_gains, random_cluster_topology, star_tree, synth_topology, toy_params


def lowest_floor_uav(tree, t, p):
    return min(tree.parent, key=lambda i: (p.noise_power / t.gain(i, tree.parent[i]), i))


def test_two_link_hand_case():
    # B=1, sigma2=1, gains (1, 2), budget 3:
    #   lambda = 2 / (3 + 1 + 1/2) = 4/9, level 1/lambda = 2.25
    #   P = (2.25 - 1, 2.25 - 0.5) = (1.25, 1.75)
    t = synth_topology([{3: 1.0}, {3: 2.0}])
    a = allocate_power(star_tree(2), t, 3.0, toy_params())
    assert a.power[1] == pytest.approx(1.25, rel=1e-12)
    assert a.power[2] == pytest.approx(1.75, rel=1e-12)
    assert a.water_level_lambda == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert a.active_set == (1, 2)


def test_clamp_hand_case_exact():
    # gains (1, 100), budget 0.1: link 1 shuts off entirely and link 2
    # takes the whole budget, bit-exactly.
    t = synth_topology([{3: 1.0}, {3: 100.0}])
    a = allocate_power(star_tree(2), t, 0.1, toy_params())
    assert a.power[1] == 0.0
    assert a.power[2] == 0.1  # exact, not approx
    assert a.active_set == (2,)
    assert a.water_level_lambda == pytest.approx(100.0 / 11.0, rel=1e-12)


def test_single_link_takes_whole_budget():
    t = synth_topology([{2: 0.7}])
    a = allocate_power(star_tree(1), t, 2.5, toy_params())
    assert a.power[1] == 2.5
    assert a.throughput_R == pytest.approx(math.log2(1 + 2.5 * 0.7), rel=1e-12)


def test_budget_conservation_random():
    rng = np.random.default_rng(3)
    p = toy_params()
    for _ in range(300):
        n = int(rng.integers(1, 8))
        gains = 10.0 ** rng.uniform(-2, 2, size=n)
        t = synth_topology([{n + 1: float(g)} for g in gains])
        pb = float(10.0 ** rng.uniform(-3, 2))
        a = allocate_power(star_tree(n), t, pb, p)
        assert abs(math.fsum(a.power.values()) - pb) <= 1e-9 * pb
        assert all(v >= 0.0 for v in a.power.values())


def test_equal_marginal_on_active_set():
    # 1/(P_i + c_i) identical across active links (KKT stationarity)
    rng = np.random.default_rng(5)
    p = toy_params()
    for _ in range(100):
        n = int(rng.integers(2, 7))
        gains = 10.0 ** rng.uniform(-1.5, 1.5, size=n)
        t = synth_topology([{n + 1: float(g)} for g in gains])
        a = allocate_power(star_tree(n), t, float(10.0 ** rng.uniform(-1, 1.5)), p)
        marg = [
            t.gain(i, n + 1) / (1.0 + a.power[i] * t.gain(i, n + 1))
            for i in a.active_set
        ]
        assert len(a.active_set) >= 1
        lo, hi = min(marg), max(marg)
        assert (hi - lo) <= 1e-8 * hi


def test_inactive_links_justified():
    # a clamped link's marginal at P=0 must not exceed the active marginal
    rng = np.random.default_rng(9)
    p = toy_params()
    seen_clamped = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        gains = 10.0 ** rng.uniform(-2, 2, size=n)
        t = synth_topology([{n + 1: float(g)} for g in gains])
        a = allocate_power(star_tree(n), t, float(10.0 ** rng.uniform(-2, 0)), p)
        lam = a.water_level_lambda
        for i in t.uav_ids:
            g = t.gain(i, n + 1)
            if i not in a.active_set:
                seen_clamped += 1
                assert a.power[i] == 0.0
                assert g <= lam * (1.0 + 1e-12)  # marginal at 0 below the level
    assert seen_clamped > 50  # the sweep actually exercised the clamp branch


def test_water_level_consistent_with_powers():
    t = synth_topology([{4: 0.5}, {4: 2.0}, {4: 8.0}])
    a = allocate_power(star_tree(3), t, 5.0, toy_params())
    for i in a.active_set:
        # P_i + sigma2*B/h_i == 1/lambda for every active link
        assert a.power[i] + 1.0 / t.gain(i, 4) == pytest.approx(
            1.0 / a.water_level_lambda, rel=1e-12
        )


def reference_link_rates(alloc, tree, t, p):
    """Every parent link priced with link_capacity in UAV id order, zero-power
    links included."""
    return [link_capacity(alloc.power[i], t.gain(i, tree.parent[i]), p)
            for i in sorted(tree.parent)]


def star_outcome(fn, powers, gains):
    """The repr of ``fn``'s result over a star of links, or its exception's
    type and text."""
    n = len(powers)
    t = synth_topology([{n + 1: g} for g in gains])
    alloc = PowerAllocation(power=dict(enumerate(powers, start=1)), water_level_lambda=1.0,
                            active_set=(), throughput_R=math.nan)
    try:
        return repr(fn(alloc, star_tree(n), t, toy_params()))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


link_powers = st.sampled_from([0.0, -0.0, 1e-300, 0.5, 3.0, math.nan, math.inf, -1.0])
link_gains = st.sampled_from([1e-300, 0.25, 2.0, 1e300, math.inf, math.nan, 0.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(link_powers, link_gains), min_size=1, max_size=6))
# Zero power on an infinite gain is priced (nan), and a nan gain raises; a
# later link's bad power does not hide an earlier link's bad gain.
@example([(0.0, math.inf), (1.0, 2.0)])
@example([(0.0, math.nan), (0.0, 2.0)])
@example([(0.0, 2.0), (0.5, 0.0), (-1.0, 2.0)])
@example([(math.nan, 2.0), (0.0, 2.0)])
def test_network_throughput_matches_pricing_every_link(links):
    powers, gains = zip(*links)
    assert (star_outcome(link_rates, powers, gains)
            == star_outcome(reference_link_rates, powers, gains))
    assert (star_outcome(network_throughput, powers, gains)
            == star_outcome(lambda *args: math.fsum(link_rates(*args)), powers, gains)
            == star_outcome(lambda *args: _fsum(reference_link_rates(*args)), powers, gains))


def test_throughput_matches_network_throughput():
    t = synth_topology(chain_gains([2.0, 1.0, 0.5]))
    tree = build_spt(t, weight="hops")
    p = toy_params()
    a = allocate_power(tree, t, 4.0, p)
    assert network_throughput(a, tree, t, p) == a.throughput_R
    want = math.fsum(
        link_capacity(a.power[i], t.gain(i, tree.parent[i]), p) for i in t.uav_ids
    )
    assert a.throughput_R == pytest.approx(want, rel=1e-15)


def test_throughput_monotone_in_budget():
    t = synth_topology([{4: 0.3}, {4: 1.0}, {4: 3.0}])
    p = toy_params()
    tree = star_tree(3)
    budgets = [0.01, 0.1, 1.0, 10.0, 100.0]
    vals = [allocate_power(tree, t, b, p).throughput_R for b in budgets]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_physical_scale_instance():
    # default channel at metre/watt scales: budget conserved, all powers
    # finite and positive throughput
    rng = np.random.default_rng(21)
    t = random_cluster_topology(rng, 6)
    tree = build_spt(t)
    p = ChannelParams()
    a = allocate_power(tree, t, 1.0, p)
    assert abs(math.fsum(a.power.values()) - 1.0) <= 1e-9
    assert a.throughput_R > 0.0
    assert all(math.isfinite(v) for v in a.power.values())


def test_rejects_nonpositive_budget():
    t = synth_topology([{2: 1.0}])
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            allocate_power(star_tree(1), t, bad, toy_params())


def test_clamp_threshold_scales_with_budget():
    # a picowatt budget against milliwatt noise floors: the best link keeps
    # the whole budget instead of falling under an absolute clamp threshold;
    # far below the rounding error of the floors (1e-30 W) it still does
    t = random_cluster_topology(np.random.default_rng(0), 6)
    tree = build_spt(t)
    p = ChannelParams()
    for budget in (1e-12, 1e-18, 1e-30):
        a = allocate_power(tree, t, budget, p)
        assert a.active_set == (lowest_floor_uav(tree, t, p),)
        assert math.fsum(a.power.values()) == budget


def test_water_level_beyond_the_float_range():
    # lambda is 5e-299, but the water level B/lambda in watts is 2e308
    t = synth_topology([{2: 1e-308}])
    with pytest.raises(AllocationError, match="overflows the water level"):
        allocate_power(star_tree(1), t, 1e308, toy_params(bandwidth=1e10, noise=1e-10))


def test_rejects_nan_parent_link_gain():
    # A nan gain used to pass a `gain <= 0.0` check and end in a misleading
    # water-level overflow.
    t = synth_topology([{3: 2.0, 2: 1.0}, {3: math.nan, 1: 1.0}])
    with pytest.raises(ValueError, match="parent link of UAV 2 has nonpositive gain"):
        allocate_power(star_tree(2), t, 1.0, toy_params())


def test_rejects_an_empty_fleet():
    # A ground station alone: the tree has no links to split the budget across.
    p = ChannelParams()
    t = build_topology([Node(1, 0.0, 0.0, 0.0, GROUND_STATION)], p)
    with pytest.raises(ValueError, match="fleet is empty"):
        allocate_power(build_spt(t), t, 1.0, p)


def test_rejects_invalid_tree():
    t = synth_topology([{3: 1.0}, {3: 1.0}])
    bad = RoutingTree(parent={1: 3}, path_cost={1: 1.0})  # uav2 missing
    with pytest.raises(ValueError):
        allocate_power(bad, t, 1.0, toy_params())


def test_budget_swamped_by_noise_floors():
    # At beta=85 the parent links' noise floors are 1e264..1e293 W, so the
    # shares come from floor differences and the lowest-floor link keeps the
    # whole budget.
    from fanetsim.harness import ScenarioConfig, generate_scenario

    p = ChannelParams(pathloss_beta=85.0)
    cfg = ScenarioConfig(n_uavs=6, area_side=8000.0, min_separation=300.0, channel=p)
    t = generate_scenario(cfg)
    tree = build_spt(t)
    a = allocate_power(tree, t, 1.0, p)
    best = lowest_floor_uav(tree, t, p)
    assert a.active_set == (best,)
    assert a.power[best] == 1.0
    assert math.fsum(a.power.values()) == 1.0


def test_infinite_noise_floor_gets_no_power():
    # UAV 1's gain of 5e-324 makes its noise floor overflow to inf; it used
    # to enter the first pass and overflow the water level. It now starts
    # clamped at 0.0 W, and the split is the grid oracle's.
    t = synth_topology([{3: 5e-324}, {3: 1e-7}])
    p = ChannelParams()
    a = allocate_power(star_tree(2), t, 1.0, p)
    assert a.power == {1: 0.0, 2: 1.0}
    assert a.active_set == (2,)
    assert a.throughput_R == 212603403.8162624
    assert a.throughput_R == grid_power_oracle(star_tree(2), t, 1.0, p).best_value


def test_all_infinite_noise_floors_still_raise():
    t = synth_topology([{3: 5e-324}, {3: 5e-324}])
    with pytest.raises(AllocationError, match="lowest noise floor of inf W"):
        allocate_power(star_tree(2), t, 1.0, ChannelParams())


@st.composite
def allocation_instances(draw):
    """Random relay trees with log-uniform gains, noise densities, bandwidths
    and budgets; a few shared gains give tied noise floors."""
    n = draw(st.integers(1, 12))
    log_gain = st.floats(-16.0, 2.0)
    shared = draw(st.lists(log_gain, min_size=1, max_size=3))
    parent, rows = {}, []
    for i in range(1, n + 1):
        parent[i] = draw(st.sampled_from([n + 1, *range(1, i)]))
        rows.append({parent[i]: 10.0 ** draw(st.sampled_from(shared) | log_gain)})
    p = ChannelParams(
        bandwidth_B=10.0 ** draw(st.floats(0.0, 8.0)),
        noise_density_sigma2=10.0 ** draw(st.floats(-24.0, -8.0)),
    )
    tree = RoutingTree(parent=parent, path_cost={i: 1.0 for i in parent})
    budget = 10.0 ** draw(st.floats(-15.0, 6.0))
    return tree, synth_topology(rows, p), budget, p


# One UAV whose noise floor is about 3e23 times the budget (gain 3.16e-13):
# B/lambda - f_1 cancelled the budget against the floor and left the power
# 1.4e-9 of the budget off.
FLAKE_CHANNEL = ChannelParams(bandwidth_B=1e8, noise_density_sigma2=1e-8)
FLAKE = (RoutingTree(parent={1: 2}, path_cost={1: 1.0}),
         synth_topology([{2: 10.0 ** -12.5}], FLAKE_CHANNEL), 1e-11, FLAKE_CHANNEL)


@settings(max_examples=300, deadline=None)
@given(allocation_instances())
@example(FLAKE)
def test_allocation_conserves_budget(instance):
    tree, t, budget, p = instance
    try:
        a = allocate_power(tree, t, budget, p)
    except AllocationError:
        return
    powers = [a.power[i] for i in sorted(tree.parent)]
    assert all(power >= 0.0 for power in powers)
    assert math.isclose(math.fsum(powers), budget, rel_tol=1e-9, abs_tol=0.0)
    assert a.throughput_R == network_throughput(a, tree, t, p)


def clamp_loop_allocation(tree, t, total_budget_w, p):
    """The set-based clamp loop that water-filled before the prefix cut, kept
    as the reference for it."""
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


@st.composite
def clamp_edge_instances(draw):
    """Stars whose second-lowest floor puts that link's share at the clamp
    threshold of the two-link water level, give or take a few ulps of its
    gain, next to tied copies of either link and links with far higher floors."""
    p = ChannelParams(
        bandwidth_B=10.0 ** draw(st.floats(0.0, 8.0)),
        noise_density_sigma2=10.0 ** draw(st.floats(-24.0, -8.0)),
    )
    budget = 10.0 ** draw(st.floats(-15.0, 6.0))
    low = budget * 10.0 ** draw(st.floats(-6.0, 14.0))
    # With floors f1 < f2 alone, link 2's share is (budget + f1 - f2) / 2.
    edge = p.noise_power / (low + budget * (1.0 - 2.0 * CLAMP_TOLERANCE))
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        edge = math.nextafter(edge, math.copysign(math.inf, steps))
    gains = [p.noise_power / low, edge]
    gains += draw(st.lists(st.sampled_from(gains), max_size=2))
    gains += [gains[0] * 10.0 ** -draw(st.floats(1.0, 8.0))
              for _ in range(draw(st.integers(0, 3)))]
    gains = draw(st.permutations(gains))
    n = len(gains)
    tree = star_tree(n)
    return tree, synth_topology([{n + 1: g} for g in gains], p), budget, p


@settings(max_examples=400, deadline=None)
@given(allocation_instances() | clamp_edge_instances())
def test_prefix_cut_matches_clamp_loop(instance):
    # While m^2 times the largest floor is within FLOOR_RATIO of the budget,
    # every pass runs in the clamp loop's arithmetic, so every output bit is
    # the loop's. Beyond it the budget is conserved and no link whose floor
    # lies below the final water level is clamped.
    tree, t, budget, p = instance
    a = allocate_power(tree, t, budget, p)
    floors = {i: p.noise_power / t.gain(i, tree.parent[i]) for i in tree.parent}
    if len(floors) ** 2 * max(floors.values()) <= FLOOR_RATIO * budget:
        want = clamp_loop_allocation(tree, t, budget, p)
        assert repr((a.power, a.water_level_lambda, a.active_set, a.throughput_R)) == repr(
            (want.power, want.water_level_lambda, want.active_set, want.throughput_R))
        return
    assert math.isclose(math.fsum(a.power.values()), budget, rel_tol=1e-9, abs_tol=0.0)
    assert all(a.power[i] > 0.0 for i in a.active_set)
    assert all(a.power[i] == 0.0 for i in floors if i not in a.active_set)
    # Added back at the final level, a clamped link's share (budget plus its
    # floor differences to the active links, over their count) is within the
    # clamp threshold plus the rounding error of a pass within FLOOR_RATIO,
    # about 8 ulps of FLOOR_RATIO * budget; each cut may lift the level by up
    # to that much.
    slack = len(floors) * (CLAMP_TOLERANCE + 8 * 2.0 ** -53 * FLOOR_RATIO) * budget
    for i in floors:
        if i not in a.active_set:
            share = math.fsum([budget, *(floors[j] - floors[i] for j in a.active_set)])
            assert share / len(a.active_set) <= slack


def dict_allocation(tree, t, total_budget_w, p):
    """The per-UAV water-filling over Python lists and dicts that the array
    code replaced, kept as its bit-for-bit reference."""
    if not 0.0 < total_budget_w < math.inf:
        raise ValueError("total power budget must be positive and finite")
    report = validate_tree(tree, t)
    if not report.ok:
        raise ValueError(f"routing tree is invalid: {report}")
    if total_budget_w * float(t.gains.max(initial=0.0)) / p.noise_power == math.inf:
        raise AllocationError(
            f"a budget of {total_budget_w!r} W overflows the SNR of the strongest link"
        )
    uavs = sorted(tree.parent)
    gain = {i: t.gain(i, tree.parent[i]) for i in uavs}
    for i in uavs:
        if not gain[i] > 0.0:
            raise ValueError(f"parent link of UAV {i} has nonpositive gain")
    floor = {i: p.noise_power / gain[i] for i in uavs}
    order = sorted(uavs, key=floor.__getitem__)
    floors = [floor[i] for i in order]
    level_terms = [p.noise_density_sigma2 / gain[i] for i in order]
    m = bisect.bisect_left(floors, math.inf)
    if not (total_budget_w >= sys.float_info.min and m):
        raise AllocationError(f"a budget of {total_budget_w!r} W against a lowest noise "
                              f"floor of {floors[0]!r} W leaves the normal float range")
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
    top = max(order[:m], key=lambda i: (allocation[i], -i))
    allocation[top] += total_budget_w - _fsum(shares)
    alloc = PowerAllocation(power=allocation, water_level_lambda=water_level,
                            active_set=tuple(sorted(order[:m])), throughput_R=math.nan)
    alloc.throughput_R = math.fsum(reference_link_rates(alloc, tree, t, p))
    return alloc


def allocation_outcome(fn, instance):
    """The repr of ``fn``'s allocation, or its exception's type and text."""
    try:
        return repr(fn(*instance))
    except (AllocationError, ValueError) as exc:
        return type(exc), str(exc)


SUBNORMAL_BUDGETS = [5e-324, 1e-320, sys.float_info.min * 0.5]


@st.composite
def water_fill_instances(draw):
    """Relay trees whose noise floors are drawn relative to the budget: tied
    floors, floors far above the budget (the FLOOR_RATIO branch), one link
    far below the rest, gains so small that their floors overflow to inf, and
    subnormal budgets."""
    p = ChannelParams(
        bandwidth_B=10.0 ** draw(st.floats(0.0, 8.0)),
        noise_density_sigma2=10.0 ** draw(st.floats(-24.0, -8.0)),
    )
    if draw(st.integers(0, 7)):
        budget = 10.0 ** draw(st.floats(-15.0, 6.0))
    else:
        budget = draw(st.sampled_from(SUBNORMAL_BUDGETS + [sys.float_info.min]))
    n = draw(st.integers(1, 10))
    strong = draw(st.integers(1, n))
    # log10 of floor / budget: a typical value and a spread around it
    center = draw(st.floats(-4.0, 18.0))
    spread = draw(st.floats(0.0, 8.0))
    ratio = st.floats(center - spread, center + spread).map(lambda e: 10.0 ** e)
    shared = draw(st.lists(ratio, min_size=1, max_size=3))
    parent, rows = {}, []
    for i in range(1, n + 1):
        parent[i] = draw(st.sampled_from([n + 1, *range(1, i)]))
        if i == strong and draw(st.booleans()):
            r = 10.0 ** (center - spread - 6.0)
        else:
            r = draw(st.sampled_from(shared) | ratio)
        floor = budget * r
        gain = p.noise_power / floor if floor > 0.0 else math.inf
        if not 0.0 < gain < math.inf or draw(st.integers(0, 9)) == 0:
            gain = draw(st.sampled_from([5e-324, 1e-323, 1e-300]))
        rows.append({parent[i]: gain})
    tree = RoutingTree(parent=parent, path_cost={i: 1.0 for i in parent})
    return tree, synth_topology(rows, p), budget, p


@settings(max_examples=400, deadline=None)
@given(water_fill_instances())
# Equal floors on UAVs 1 and 3: the same share, and the budget correction
# goes to the lower id.
@example((star_tree(3), synth_topology([{4: 0.5}, {4: 2.0}, {4: 0.5}]), 3.0, toy_params()))
# UAV 2's floor overflows to inf and UAV 1 keeps the whole budget.
@example((star_tree(2), synth_topology([{3: 1e-7}, {3: 5e-324}]), 1.0, ChannelParams()))
# Floors of 1e3 and 1e5 W against a 1e-9 W budget: the FLOOR_RATIO branch.
@example((star_tree(2), synth_topology([{3: 1e-3}, {3: 1e-5}]), 1e-9, toy_params()))
# Five floors near 8.1e13 W, less than 0.2 W apart, share a 1 W budget: the
# FLOOR_RATIO branch, where the floor differences over five sum to a level
# that a left-to-right sum rounds differently.
@example((star_tree(5), synth_topology([{6: g} for g in (
    1.232591057605532e-14, 1.232591057605531e-14, 1.2325910576055306e-14,
    1.2325910576055302e-14, 1.232591057605529e-14)]), 1.0, toy_params()))
# Every link but UAV 3's is clamped.
@example((star_tree(4), synth_topology([{5: 1.0}, {5: 2.0}, {5: 1e6}, {5: 0.5}]), 1e-3,
          toy_params()))
# A subnormal budget.
@example((star_tree(2), synth_topology([{3: 1.0}, {3: 2.0}]), 1e-320, toy_params()))
def test_array_water_filling_matches_dict_reference(instance):
    assert allocation_outcome(allocate_power, instance) == allocation_outcome(dict_allocation,
                                                                              instance)
