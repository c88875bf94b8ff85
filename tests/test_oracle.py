"""Reference optimizers: exhaustive power grid and tree enumeration."""

import itertools
import math

import numpy as np
import pytest

from fanetsim.model import ChannelParams, link_capacity
from fanetsim.oracle import OracleResult, grid_power_oracle, tree_enum_oracle
from fanetsim.power import allocate_power
from fanetsim.routing import (
    DisconnectedTopologyError,
    RoutingTree,
    build_spt,
    validate_tree,
)

from conftest import chain_gains, random_cluster_topology, synth_topology, toy_params


def star_tree(n):
    return RoutingTree(
        parent={i: n + 1 for i in range(1, n + 1)},
        path_cost={i: 1.0 for i in range(1, n + 1)},
    )


def literal_grid_best(tree, t, budget, p, steps):
    """Direct nested enumeration of the budget simplex, no shortcuts."""
    uavs = sorted(tree.parent)
    gains = [t.gain(i, tree.parent[i]) for i in uavs]
    best_val, best_split, count = -1.0, None, 0
    for split in itertools.product(range(steps + 1), repeat=len(uavs)):
        if sum(split) != steps:
            continue
        count += 1
        val = math.fsum(
            link_capacity(budget * s / steps, g, p) for s, g in zip(split, gains)
        )
        if val > best_val:
            best_val, best_split = val, split
    return best_val, best_split, count


def test_grid_matches_literal_enumeration():
    rng = np.random.default_rng(13)
    p = toy_params()
    for _ in range(10):
        n = int(rng.integers(2, 4))
        gains = 10.0 ** rng.uniform(-1, 1, size=n)
        t = synth_topology([{n + 1: float(g)} for g in gains])
        tree = star_tree(n)
        budget = float(10.0 ** rng.uniform(-1, 1))
        steps = 20
        res = grid_power_oracle(tree, t, budget, p, resolution=1.0 / steps)
        want_val, want_split, count = literal_grid_best(tree, t, budget, p, steps)
        assert res.best_value == pytest.approx(want_val, rel=1e-12)
        assert res.evaluations == count
        got = res.best_configuration["powers"]
        for idx, i in enumerate(sorted(tree.parent)):
            assert got[i] == pytest.approx(budget * want_split[idx] / steps, abs=1e-15)


def test_grid_configuration_spends_whole_budget():
    t = synth_topology([{4: 1.0}, {4: 0.5}, {4: 2.0}])
    res = grid_power_oracle(star_tree(3), t, 2.0, toy_params(), resolution=0.01)
    assert math.fsum(res.best_configuration["powers"].values()) == pytest.approx(
        2.0, rel=1e-12
    )


def test_grid_evaluation_count():
    t = synth_topology([{4: 1.0}, {4: 0.5}, {4: 2.0}])
    res = grid_power_oracle(star_tree(3), t, 1.0, toy_params(), resolution=0.1)
    assert res.evaluations == math.comb(10 + 2, 2)


def test_grid_close_to_waterfilling():
    # the analytic allocator should sit within the grid's discretization gap
    rng = np.random.default_rng(19)
    p = toy_params()
    for _ in range(5):
        n = int(rng.integers(2, 5))
        gains = 10.0 ** rng.uniform(-0.5, 0.5, size=n)
        t = synth_topology([{n + 1: float(g)} for g in gains])
        tree = star_tree(n)
        budget = float(n) * 10.0  # deep water: every link active
        exact = allocate_power(tree, t, budget, p).throughput_R
        grid = grid_power_oracle(tree, t, budget, p, resolution=1e-3).best_value
        assert grid <= exact * (1.0 + 1e-12)  # grid cannot beat the optimum
        assert exact - grid <= 1e-6 * exact


def test_grid_rejects_oversized_problem():
    n = 30
    t = synth_topology([{n + 1: 1.0} for _ in range(n)])
    with pytest.raises(ValueError):
        grid_power_oracle(star_tree(n), t, 1.0, toy_params(), resolution=1e-4)


def test_grid_rejects_bad_args():
    t = synth_topology([{2: 1.0}])
    with pytest.raises(ValueError):
        grid_power_oracle(star_tree(1), t, 0.0, toy_params())
    with pytest.raises(ValueError):
        grid_power_oracle(star_tree(1), t, 1.0, toy_params(), resolution=0.0)


def test_tree_enum_unique_topology_matches_allocator():
    # a bare chain admits exactly one valid tree, so the oracle must agree
    # with the analytic allocator on it
    t = synth_topology(chain_gains([4.0, 2.0, 1.0]))
    p = toy_params()
    res = tree_enum_oracle(t, 3.0, p)
    assert res.evaluations == 1
    tree = build_spt(t, weight="hops")
    a = allocate_power(tree, t, 3.0, p)
    assert res.best_configuration["parent"] == tree.parent
    assert res.best_value == pytest.approx(a.throughput_R, rel=1e-9)
    for i in t.uav_ids:
        assert res.best_configuration["powers"][i] == pytest.approx(
            a.power[i], rel=1e-9, abs=1e-12
        )


def literal_tree_best(t, budget, p):
    """Re-enumerate trees with the project's own validator + allocator."""
    best_val, best_parent, count = -1.0, None, 0
    lists = [t.admissible_neighbors(i) for i in t.uav_ids]
    for combo in itertools.product(*lists):
        parent = {i: combo[i - 1] for i in t.uav_ids}
        tree = RoutingTree(parent=parent, path_cost={i: 0.0 for i in t.uav_ids})
        if not validate_tree(tree, t).ok:
            continue
        count += 1
        val = allocate_power(tree, t, budget, p).throughput_R
        if val > best_val:
            best_val, best_parent = val, parent
    return best_val, best_parent, count


def test_tree_enum_matches_literal_enumeration():
    rng = np.random.default_rng(23)
    p = ChannelParams()
    for _ in range(8):
        n = int(rng.integers(2, 5))
        t = random_cluster_topology(rng, n)
        res = tree_enum_oracle(t, 1.0, p)
        want_val, want_parent, count = literal_tree_best(t, 1.0, p)
        assert res.evaluations == count
        assert res.best_value == pytest.approx(want_val, rel=1e-9)


def test_tree_enum_beats_or_matches_pipeline_tree():
    rng = np.random.default_rng(29)
    p = ChannelParams()
    for _ in range(10):
        n = int(rng.integers(2, 6))
        t = random_cluster_topology(rng, n)
        tree = build_spt(t)
        a = allocate_power(tree, t, 1.0, p)
        res = tree_enum_oracle(t, 1.0, p)
        assert res.best_value >= a.throughput_R * (1.0 - 1e-9)


def test_tree_enum_star_prefers_best_gain_parents():
    # two UAVs, fully meshed: oracle should reproduce the obvious optimum
    t = synth_topology([{2: 10.0, 3: 1.0}, {1: 10.0, 3: 8.0}])
    p = toy_params()
    res = tree_enum_oracle(t, 1.0, p)
    # valid trees: {1:3,2:3}, {1:2,2:3}, {1:3,2:1}; best routes uav1
    # through uav2's strong link
    assert res.evaluations == 3
    assert res.best_configuration["parent"] == {1: 2, 2: 3}


def test_tree_enum_raises_when_disconnected():
    t = synth_topology([{3: 1.0}, {}])
    with pytest.raises(DisconnectedTopologyError):
        tree_enum_oracle(t, 1.0, toy_params())


def test_oracle_result_shape():
    t = synth_topology([{2: 1.0}])
    res = tree_enum_oracle(t, 1.0, toy_params())
    assert isinstance(res, OracleResult)
    assert set(res.best_configuration) == {"parent", "powers"}
