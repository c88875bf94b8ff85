"""Routing tree construction and validation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanetsim.model import GROUND_STATION, UAV, ChannelParams, Node, build_topology
from fanetsim.routing import DisconnectedTopologyError, build_spt, validate_tree
from fanetsim.routing import RoutingTree, TreeValidationReport

from conftest import chain_gains, random_cluster_topology, synth_topology


def brute_force_paths(t, weight="distance"):
    """Exact shortest path cost per UAV by enumerating simple paths to the
    ground station.  Costs are accumulated GS-outward in the same order the
    relaxation adds them, so float results can be compared exactly for
    small graphs.  Exponential; keep n tiny."""
    gs = t.gs.id

    def w(i, j):
        if weight == "hops":
            return 1.0
        a, b = t.node(i), t.node(j)
        dz = a.z - b.z
        return math.hypot(a.x - b.x, a.y - b.y)

    best = {}
    for i in t.uav_ids:
        costs = []
        others = [u for u in t.uav_ids if u != i]
        for k in range(len(others) + 1):
            for mid in itertools.permutations(others, k):
                # path: gs <- mid[0] <- ... <- mid[-1] <- i
                path = (gs,) + mid + (i,)
                ok = all(t.is_admissible(path[a + 1], path[a]) for a in range(len(path) - 1))
                if not ok:
                    continue
                c = 0.0
                for a in range(len(path) - 1):
                    c = c + w(path[a + 1], path[a])
                costs.append(c)
        best[i] = min(costs) if costs else math.inf
    return best


def test_star_everyone_picks_gs():
    # all UAVs adjacent to GS and each other; GS links shortest by gain
    t = synth_topology(
        [
            {2: 0.1, 3: 0.1, 4: 1.0},
            {1: 0.1, 3: 0.1, 4: 2.0},
            {1: 0.1, 2: 0.1, 4: 0.5},
        ]
    )
    tree = build_spt(t, weight="hops")
    assert tree.parent == {1: 4, 2: 4, 3: 4}
    assert tree.path_cost == {1: 1.0, 2: 1.0, 3: 1.0}


def test_chain_parents():
    t = synth_topology(chain_gains([1.0, 0.5, 0.25]))
    tree = build_spt(t, weight="hops")
    assert tree.parent == {1: 4, 2: 1, 3: 2}
    assert tree.path_cost == {1: 1.0, 2: 2.0, 3: 3.0}


def test_distance_weight_prefers_short_detour():
    # uav2 can reach GS directly at 5 km or through uav1 at 2 km + 2 km
    nodes = (
        Node(1, 0.0, 2000.0, 150.0, "uav"),
        Node(2, 0.0, 4000.0, 150.0, "uav"),
        Node(3, 0.0, 0.0, 0.0, "ground_station"),
    )
    from fanetsim.model import ChannelParams, build_topology

    t = build_topology(nodes, ChannelParams())
    tree = build_spt(t, weight="distance")
    assert tree.parent[1] == 3
    # direct 4000 vs detour 2000+2000: exact tie, lowest id wins
    assert tree.parent[2] == 1
    assert tree.path_cost[2] == pytest.approx(4000.0, rel=1e-15)


def test_tie_breaks_lowest_id():
    # two equal-cost parents for uav3
    t = synth_topology(
        [
            {3: 1.0, 4: 1.0},
            {3: 1.0, 4: 1.0},
            {1: 1.0, 2: 1.0},
        ]
    )
    tree = build_spt(t, weight="hops")
    assert tree.parent[3] == 1


def test_vanishing_link_weight_keeps_a_tree():
    # The two UAVs are 3.27e-24 m apart, so that link's weight vanishes in
    # dist + w: both reach the ground station at 150.0 and each is tight for
    # the other. The lowest-id rule alone gave the cycle {1: 2, 2: 1}; only
    # UAV 1, settled first, may parent UAV 2.
    nodes = [Node(1, 0.0, 0.0, 150.0, UAV), Node(2, 0.0, 3.27e-24, 150.0, UAV),
             Node(3, 0.0, 0.0, 0.0, GROUND_STATION)]
    t = build_topology(nodes, ChannelParams(link_threshold_dth=1500.0), mode="3d")
    tree = build_spt(t)
    assert tree.parent == {1: 3, 2: 1}
    assert tree.path_cost == {1: 150.0, 2: 150.0}
    assert validate_tree(tree, t).ok


def test_disconnected_raises_with_stranded_ids():
    # uav2 admissible to nobody
    t = synth_topology([{3: 1.0}, {}])
    with pytest.raises(DisconnectedTopologyError) as ei:
        build_spt(t, weight="hops")
    assert ei.value.stranded_ids == [2]


def test_brute_force_agreement_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(2, 6))
        t = random_cluster_topology(rng, n, radius=5500.0)
        tree = build_spt(t, weight="distance")
        want = brute_force_paths(t, weight="distance")
        for i in t.uav_ids:
            assert tree.path_cost[i] == pytest.approx(want[i], rel=1e-12), (trial, i)
        rep = validate_tree(tree, t)
        assert rep.ok


def test_hops_weight_brute_force_agreement():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        t = random_cluster_topology(rng, n, radius=5500.0)
        tree = build_spt(t, weight="hops")
        want = brute_force_paths(t, weight="hops")
        for i in t.uav_ids:
            assert tree.path_cost[i] == want[i]


def test_validate_accepts_good_tree():
    t = synth_topology(chain_gains([1.0, 0.5, 0.25]))
    tree = build_spt(t, weight="hops")
    rep = validate_tree(tree, t)
    assert rep.ok
    # violation lists are all empty on a valid tree
    assert rep.single_parent == [] and rep.gs_rooted == []
    assert rep.loop_free == [] and rep.admissible == []


def test_validate_flags_cycle():
    t = synth_topology(
        [
            {2: 1.0, 4: 1.0},
            {1: 1.0, 3: 1.0},
            {2: 1.0, 4: 1.0},
        ]
    )
    bad = RoutingTree(parent={1: 2, 2: 1, 3: 4}, path_cost={1: 0.0, 2: 0.0, 3: 1.0})
    rep = validate_tree(bad, t)
    assert not rep.ok
    assert rep.loop_free  # mutual pair detected
    assert any("1" in msg and "2" in msg for msg in rep.loop_free)
    # both cycle members fail to reach the ground station too
    assert len(rep.gs_rooted) == 2


def test_validate_flags_three_cycle():
    t = synth_topology(
        [
            {2: 1.0, 3: 1.0, 4: 1.0},
            {1: 1.0, 3: 1.0},
            {1: 1.0, 2: 1.0},
        ]
    )
    bad = RoutingTree(parent={1: 2, 2: 3, 3: 1}, path_cost={1: 0.0, 2: 0.0, 3: 0.0})
    rep = validate_tree(bad, t)
    assert not rep.ok
    assert len(rep.loop_free) == 1  # one cycle, reported once
    assert len(rep.gs_rooted) == 3


def test_validate_flags_inadmissible_parent():
    t = synth_topology([{4: 1.0}, {4: 1.0}, {4: 1.0}])
    bad = RoutingTree(parent={1: 4, 2: 1, 3: 4}, path_cost={1: 1.0, 2: 2.0, 3: 1.0})
    rep = validate_tree(bad, t)
    assert not rep.ok
    assert any("2 -> 1" in msg for msg in rep.admissible)


def test_validate_flags_missing_uav():
    t = synth_topology([{4: 1.0}, {4: 1.0}, {4: 1.0}])
    bad = RoutingTree(parent={1: 4, 3: 4}, path_cost={1: 1.0, 3: 1.0})
    rep = validate_tree(bad, t)
    assert not rep.ok
    assert any("UAV 2" in msg for msg in rep.single_parent)


def test_self_parent_rejected():
    t = synth_topology([{4: 1.0}, {4: 1.0, 1: 1.0}, {4: 1.0}])
    bad = RoutingTree(parent={1: 4, 2: 2, 3: 4}, path_cost={1: 1.0, 2: 1.0, 3: 1.0})
    rep = validate_tree(bad, t)
    assert not rep.ok


def reference_validate_tree(tree, t):
    """validate_tree as it was before its walks shared their outcomes: every
    UAV walks its own parent chain to the end, at most n hops."""
    report = TreeValidationReport()
    gs_id = t.gs.id
    uav_set = set(t.uav_ids)
    valid_ids = uav_set | {gs_id}

    for i in t.uav_ids:
        if i not in tree.parent:
            report.single_parent.append(f"UAV {i} has no parent entry")
    for i, j in tree.parent.items():
        if i not in uav_set:
            report.single_parent.append(f"parent entry for unknown UAV {i}")
            continue
        if j == i:
            report.single_parent.append(f"UAV {i} is its own parent")
            continue
        if j not in valid_ids:
            report.single_parent.append(f"UAV {i} names unknown parent {j}")
            continue
        if not t.is_admissible(i, j):
            report.admissible.append(f"link {i} -> {j} is beyond the admissibility threshold")

    for i, j in tree.parent.items():
        if tree.parent.get(j) == i:
            report.loop_free.append(f"UAVs {min(i, j)} and {max(i, j)} parent each other")

    seen_cycles = set()
    for start in t.uav_ids:
        hops = 0
        node = start
        chain = []
        in_chain = set()
        reached_gs = False
        while hops <= t.n_uavs:
            if node == gs_id:
                reached_gs = True
                break
            nxt = tree.parent.get(node)
            if nxt is None or nxt not in valid_ids:
                break
            chain.append(node)
            in_chain.add(node)
            if nxt in in_chain:
                cycle = tuple(sorted(set(chain[chain.index(nxt):]) | {nxt}))
                if cycle not in seen_cycles:
                    seen_cycles.add(cycle)
                    report.loop_free.append(f"parent cycle through UAVs {list(cycle)}")
                break
            node = nxt
            hops += 1
        if not reached_gs:
            report.gs_rooted.append(f"UAV {start} cannot reach the ground station")

    report.loop_free = sorted(set(report.loop_free))
    return report


@st.composite
def parent_maps(draw):
    """A topology of 1-9 UAVs with random admissible links, and a parent map
    in random entry order. The map starts as a random tree and then up to
    three entries change: a UAV may lose its entry, an unknown UAV may gain
    one, and a parent may become the UAV itself, another UAV (so cycles and
    mutual pairs are common), the ground station or an unknown id."""
    n = draw(st.integers(1, 9))
    gs = n + 1
    rows = [{j: 1.0 for j in draw(st.sets(st.integers(1, gs)))} for _ in range(n)]
    for i, row in enumerate(rows, start=1):
        row.pop(i, None)
    order = draw(st.permutations(range(1, gs)))
    parent = {i: draw(st.sampled_from([gs, *order[:k]])) for k, i in enumerate(order)}
    unknown = st.sampled_from([0, -1, gs + 1, 99])
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.integers(1, n) | unknown)
        if draw(st.booleans()):
            parent.pop(key, None)
        else:
            parent[key] = draw(st.integers(1, gs) | unknown)
    return synth_topology(rows), dict(draw(st.permutations(list(parent.items()))))


@settings(max_examples=300, deadline=None)
@given(parent_maps())
@example((synth_topology([{2: 1.0}, {1: 1.0}, {2: 1.0}]), {3: 2, 2: 1, 1: 2}))
@example((synth_topology([{}, {}, {}]), {1: 1, 2: 3, 3: 2, 7: 4}))
def test_validate_tree_matches_the_walk_from_every_uav(case):
    t, parent = case
    tree = RoutingTree(parent=parent, path_cost={})
    assert validate_tree(tree, t) == reference_validate_tree(tree, t)
