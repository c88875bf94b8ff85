"""Water-filling allocation over a fixed relay tree."""

import math

import numpy as np
import pytest

from fanetsim.model import ChannelParams, link_capacity
from fanetsim.power import AllocationError, allocate_power, network_throughput
from fanetsim.routing import RoutingTree, build_spt

from conftest import chain_gains, random_cluster_topology, synth_topology, toy_params


def star_tree(n):
    return RoutingTree(
        parent={i: n + 1 for i in range(1, n + 1)},
        path_cost={i: 1.0 for i in range(1, n + 1)},
    )


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
    # the whole budget instead of falling under an absolute clamp threshold
    t = random_cluster_topology(np.random.default_rng(0), 6)
    tree = build_spt(t)
    p = ChannelParams()
    for budget in (1e-12, 1e-18):
        a = allocate_power(tree, t, budget, p)
        assert len(a.active_set) == 1
        assert math.fsum(a.power.values()) == budget
    # far below the rounding error of the floors no link survives
    with pytest.raises(AllocationError):
        allocate_power(tree, t, 1e-30, p)


def test_rejects_invalid_tree():
    t = synth_topology([{3: 1.0}, {3: 1.0}])
    bad = RoutingTree(parent={1: 3}, path_cost={1: 1.0})  # uav2 missing
    with pytest.raises(ValueError):
        allocate_power(bad, t, 1.0, toy_params())


def test_budget_swamped_by_noise_floors():
    # At beta=85 the parent links' noise floors are 1e264..1e293 W, so the
    # closed-form powers are rounding noise and the budget cannot be placed.
    from fanetsim.harness import ScenarioConfig, generate_scenario

    p = ChannelParams(pathloss_beta=85.0)
    cfg = ScenarioConfig(n_uavs=6, area_side=8000.0, min_separation=300.0, channel=p)
    t = generate_scenario(cfg)
    with pytest.raises(AllocationError, match="noise floors swamp"):
        allocate_power(build_spt(t), t, 1.0, p)
