"""Routing tree construction and validation."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanetsim.harness import ScenarioConfig, generate_scenario
from fanetsim.model import GROUND_STATION, UAV, ChannelParams, Node, build_topology
from fanetsim.routing import DisconnectedTopologyError, build_spt, validate_tree
from fanetsim.routing import RoutingTree, TreeValidationReport, _is_tree
from fanetsim.routing import parent_link_values, path_costs
from fanetsim import routing

from conftest import chain_gains, line_topology, random_cluster_topology, synth_topology


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


def test_float_parent_is_an_unknown_parent():
    # 4.0 equals the ground station's id 4, and indexing the incidence
    # matrix with it raised a numpy IndexError.
    rep = validate_tree(RoutingTree({1: 4, 2: 4.0, 3: 4}, {}), line_topology())
    assert rep.single_parent == ["UAV 2 names unknown parent 4.0"]
    assert rep.gs_rooted == ["UAV 2 cannot reach the ground station"]
    assert rep.loop_free == [] and rep.admissible == []


def test_bool_parent_is_an_unknown_parent():
    # True equals the id 1, and the map validated as a tree.
    rep = validate_tree(RoutingTree({1: 4, 2: True, 3: 4}, {}), line_topology())
    assert rep.single_parent == ["UAV 2 names unknown parent True"]
    assert rep.gs_rooted == ["UAV 2 cannot reach the ground station"]


def test_float_key_is_an_unknown_uav():
    # 2.0 equals the id 2 as a dict key, so UAV 2 seemed to have an entry.
    rep = validate_tree(RoutingTree({1: 4, 2.0: 4, 3: 4}, {}), line_topology())
    assert rep.single_parent == ["UAV 2 has no parent entry", "parent entry for unknown UAV 2.0"]
    assert rep.gs_rooted == ["UAV 2 cannot reach the ground station"]


def test_numpy_integer_ids_are_ids():
    t = line_topology()
    tree = RoutingTree({np.int64(1): np.int32(4), 2: np.int64(1), np.int16(3): 4}, {})
    assert validate_tree(tree, t).ok
    assert tree.parent_index.tolist() == [3, 0, 3]
    assert path_costs(tree.parent, t, "hops") == {1: 1.0, 2: 2.0, 3: 1.0}


@pytest.mark.parametrize("parent", [{2: 1.5}, {2: "4"}, {1.5: 4}],
                         ids=["float_parent", "str_parent", "float_key"])
@pytest.mark.parametrize("weight", ["distance", "hops"])
def test_path_costs_rejects_non_integer_ids(parent, weight):
    # Gathering link lengths at a float id raised IndexError, at a string id
    # numpy's UFuncTypeError; under "hops" the walk called the map a loop.
    with pytest.raises(ValueError, match="which is not a (node|UAV) id"):
        path_costs(parent, line_topology(), weight)


@pytest.mark.parametrize("parent", [{2: 1.5}, {2: "4"}, {1.5: 4}],
                         ids=["float_parent", "str_parent", "float_key"])
def test_parent_link_values_rejects_non_integer_ids(parent):
    t = line_topology()
    with pytest.raises(ValueError, match="which is not a (node|UAV) id"):
        parent_link_values(t.distances, parent, list(parent))


def test_a_tree_is_immutable_and_compares_to_dicts():
    parent = {1: 4, 2: 1, 3: 4}
    tree = RoutingTree(parent, {1: 500.0, 2: 1500.0, 3: 1500.0})
    parent[2] = 4  # the tree holds its own copy
    assert tree.parent == {1: 4, 2: 1, 3: 4} and tree.path_cost == {1: 500.0, 2: 1500.0, 3: 1500.0}
    assert tree == RoutingTree({1: 4, 2: 1, 3: 4}, {1: 500.0, 2: 1500.0, 3: 1500.0})
    with pytest.raises(TypeError):
        tree.parent[2] = 4
    with pytest.raises(AttributeError):
        tree.parent = {}
    assert pickle.loads(pickle.dumps(tree)) == tree
    for array in (*tree.parent_links, *tree.euler):
        with pytest.raises(ValueError):
            array[0] = 0


def test_trees_made_here_are_not_checked_again(monkeypatch):
    # build_spt's tree and a caller's tree that has passed once are marked
    # valid for their topology; validate_tree itself always checks in full.
    from fanetsim import linksel, power

    t = line_topology()
    p = ChannelParams()
    calls = []
    checked = routing.validate_tree
    monkeypatch.setattr(routing, "validate_tree", lambda *a: calls.append(a) or checked(*a))
    spt = build_spt(t)
    alloc = power.allocate_power(spt, t, 1.0, p)
    linksel.round_and_update(linksel.build_candidates(spt, t, alloc, p), spt, alloc, t, p)
    assert calls == []
    mine = RoutingTree(dict(spt.parent), {})
    alloc = power.allocate_power(mine, t, 1.0, p)
    linksel.round_and_update(linksel.build_candidates(mine, t, alloc, p), mine, alloc, t, p)
    assert len(calls) == 1
    # marked for this topology only
    power.allocate_power(mine, line_topology(), 1.0, p)
    assert len(calls) == 2
    assert checked(mine, t).ok


@st.composite
def tree_maps(draw):
    """A parent map over 1-40 UAVs in random entry order: a random tree, or
    one with up to three entries pointed at random UAVs, which strands UAVs
    and closes cycles."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(1, n + 1)))
    parent = {i: draw(st.sampled_from([n + 1, *order[:k]])) for k, i in enumerate(order)}
    for _ in range(draw(st.integers(0, 3))):
        parent[draw(st.integers(1, n))] = draw(st.integers(1, n))
    return dict(draw(st.permutations(list(parent.items()))))


def reference_ancestors(parent, i):
    """The nodes on UAV i's walk toward the ground station, i included, or
    None when the walk loops."""
    seen = [i]
    while seen[-1] in parent:
        if parent[seen[-1]] in seen:
            return None
        seen.append(parent[seen[-1]])
    return seen


@settings(max_examples=200, deadline=None)
@given(tree_maps())
def test_cached_arrays_equal_the_dict_walk(parent):
    n = len(parent)
    tree = RoutingTree(parent, {})
    uavs = range(1, n + 1)
    assert tree.parent_index.tolist() == [parent[i] - 1 for i in uavs]
    rows, cols = tree.parent_links
    assert rows.tolist() == list(range(n)) and cols is tree.parent_index
    walks = {i: reference_ancestors(parent, i) for i in uavs}
    reached = {i for i, walk in walks.items() if walk is not None}
    order = tree.preorder
    assert order[0] == n + 1 and sorted(order[1:]) == sorted(reached)
    assert all(order.index(parent[i]) < order.index(i) for i in order[1:])
    tin, tout = tree.euler
    for i in uavs:
        if i not in reached:
            assert tin[i - 1] == tout[i - 1] == -1
            continue
        below = {k for k in reached if i in walks[k]}
        assert {k for k in reached if tin[i - 1] <= tin[k - 1] < tout[i - 1]} == below
    assert tin[n] == 0 and tout[n] == len(order)


def is_int(node_id):
    return isinstance(node_id, (int, np.integer)) and not isinstance(node_id, bool)


def reference_validate_tree(tree, t):
    """validate_tree as it was before its walks shared their outcomes: every
    UAV walks its own parent chain to the end, at most n hops. An id that is
    not an int or a numpy integer (a bool, a float, a string) is unknown, and
    its entry is not walked."""
    report = TreeValidationReport()
    gs_id = t.gs.id
    uav_set = set(t.uav_ids)
    valid_ids = uav_set | {gs_id}
    parent = {i: j for i, j in tree.parent.items() if is_int(i) and is_int(j)}

    for i in t.uav_ids:
        if not any(is_int(k) and k == i for k in tree.parent):
            report.single_parent.append(f"UAV {i} has no parent entry")
    for i, j in tree.parent.items():
        if not is_int(i) or i not in uav_set:
            report.single_parent.append(f"parent entry for unknown UAV {i}")
            continue
        if not is_int(j):
            report.single_parent.append(f"UAV {i} names unknown parent {j}")
            continue
        if j == i:
            report.single_parent.append(f"UAV {i} is its own parent")
            continue
        if j not in valid_ids:
            report.single_parent.append(f"UAV {i} names unknown parent {j}")
            continue
        if not t.is_admissible(i, j):
            report.admissible.append(f"link {i} -> {j} is beyond the admissibility threshold")

    for i, j in parent.items():
        if parent.get(j) == i:
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
            nxt = parent.get(node)
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


def outcome(check, tree, t):
    """A check's report, or the type and text of the exception it raises."""
    try:
        return check(tree, t)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


# A chain 1 -> 2: as a valid tree, then with the parent 2 given as another type.
CHAIN_2 = synth_topology([{2: 1.0}, {3: 1.0}])


@settings(max_examples=300, deadline=None)
@given(parent_maps())
@example((synth_topology([{2: 1.0}, {1: 1.0}, {2: 1.0}]), {3: 2, 2: 1, 1: 2}))
@example((synth_topology([{}, {}, {}]), {1: 1, 2: 3, 3: 2, 7: 4}))
@example((CHAIN_2, {1: 2, 2: 3}))
@example((CHAIN_2, {1: 2.0, 2: 3}))
@example((CHAIN_2, {1: np.int64(2), 2: 3}))
@example((CHAIN_2, {1: 2, 2.0: 3}))
@example((synth_topology([{3: 1.0}, {1: 1.0}]), {1: 3, 2: True}))
@example((synth_topology([{3: 1.0}, {1: 1.0}]), {True: 3, 2: 1}))
@example((synth_topology([{2: 1.0}]), {1: True}))
# UAV 1 enters the cycle 4 -> 5 -> 6 -> 4 from below its ids; 2 <-> 7 is a
# second, disjoint cycle
@example((synth_topology([{4: 1.0}, {7: 1.0}, {8: 1.0}, {5: 1.0}, {6: 1.0}, {4: 1.0}, {2: 1.0}]),
          {1: 4, 2: 7, 3: 8, 4: 5, 5: 6, 6: 4, 7: 2}))
def test_validate_tree_matches_the_walk_from_every_uav(case):
    t, parent = case
    tree = RoutingTree(parent=parent, path_cost={})
    assert outcome(validate_tree, tree, t) == outcome(reference_validate_tree, tree, t)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
def test_array_check_reaches_the_deepest_chain(n):
    # UAV k's parent is k + 1 and UAV n's is the ground station, so UAV 1 is
    # n links deep: the array check alone must accept it, and must reject it
    # once UAV n points back at UAV 1 instead.
    rows = [{k + 1: 1.0} for k in range(1, n + 1)]
    if n > 1:
        rows[-1][1] = 1.0
    t = synth_topology(rows)
    chain = {k: k + 1 for k in range(1, n + 1)}
    assert _is_tree(chain, t)
    tree = RoutingTree(parent=chain, path_cost={})
    assert validate_tree(tree, t) == reference_validate_tree(tree, t) == TreeValidationReport()
    if n > 1:
        loop = RoutingTree(parent={**chain, n: 1}, path_cost={})
        assert not _is_tree(loop.parent, t)
        assert validate_tree(loop, t) == reference_validate_tree(loop, t)
        assert not validate_tree(loop, t).ok


def reference_build_spt(t, weight="distance"):
    """build_spt as it was before its relaxation read transposed rows: each
    step relaxes every UAV through a column of w with two boolean-mask
    copies."""
    n = t.n_uavs
    w = np.where(t.incidence != 0, 1.0 if weight == "hops" else t.distances, np.inf)

    dist = np.full(n + 1, np.inf)
    dist[n] = 0.0
    unsettled = dist.copy()
    rank = np.empty(n + 1, dtype=np.intp)
    for step in range(n + 1):
        u = int(np.argmin(unsettled))
        if unsettled[u] == np.inf:
            break
        rank[u] = step
        unsettled[u] = np.inf
        via = dist[u] + w[:, u]
        better = via < dist[:n]
        dist[:n][better] = via[better]
        unsettled[:n][better] = via[better]

    stranded = np.flatnonzero(dist[:n] == np.inf) + 1
    if stranded.size:
        raise DisconnectedTopologyError(stranded.tolist())
    np.add(w, dist, out=w)
    np.putmask(w, rank >= rank[:n, None], np.inf)
    parent = np.argmin(w, axis=1) + 1
    ids = t.uav_ids
    return RoutingTree(parent=dict(zip(ids, parent.tolist())),
                       path_cost=dict(zip(ids, dist[:n].tolist())), weight=weight)


def assert_same_spt(t, weight):
    try:
        want = reference_build_spt(t, weight)
    except DisconnectedTopologyError as exc:
        with pytest.raises(DisconnectedTopologyError) as got:
            build_spt(t, weight=weight)
        assert got.value.stranded_ids == exc.stranded_ids
        return
    tree = build_spt(t, weight=weight)
    assert tree.parent == want.parent
    assert [c.hex() for c in tree.path_cost.values()] == [c.hex() for c in want.path_cost.values()]
    assert list(tree.path_cost) == list(want.path_cost)


@st.composite
def spt_layouts(draw):
    """1-40 UAVs on a 30 km square, on a 500 m grid (tied lengths) or anywhere,
    with a 1.5-40 km threshold, so that some layouts are disconnected. A UAV
    may sit 1-4 ulps of y from an earlier one: that
    link's length then vanishes in dist + w."""
    coord = draw(st.sampled_from([
        st.integers(-30, 30).map(lambda k: 500.0 * k),
        st.floats(-15000.0, 15000.0, allow_nan=False, allow_infinity=False),
    ]))
    nodes = []
    for i in range(1, draw(st.integers(1, 40)) + 1):
        twin = draw(st.sampled_from(nodes)) if nodes and draw(st.integers(0, 3)) == 0 else None
        if twin is not None and abs(twin.y) >= 1.0:
            y = twin.y
            for _ in range(draw(st.integers(1, 4))):
                y = math.nextafter(y, math.inf)
            nodes.append(Node(i, twin.x, y, 150.0, UAV))
        else:
            nodes.append(Node(i, draw(coord), draw(coord), 150.0, UAV))
    nodes.append(Node(len(nodes) + 1, draw(coord), draw(coord), 0.0, GROUND_STATION))
    mode = draw(st.sampled_from(["planar", "3d"]))
    return nodes, mode, draw(st.floats(1500.0, 40000.0))


# 40 UAVs 1 km apart on a line from the ground station, with a 1.5 km
# threshold: UAV i is i links out, so the rounds run 41 times.
COLLINEAR_CHAIN = ([Node(i, 1000.0 * i, 0.0, 150.0, UAV) for i in range(1, 41)]
                   + [Node(41, 0.0, 0.0, 0.0, GROUND_STATION)], "planar", 1500.0)
# UAVs 1 and 2 lie 1e-12 m apart, both 100 m from the ground station, and a
# chain runs on to 9,900 m. The lightest link (1e-12 m) is below the spacing
# of the largest path cost (1.8e-12 at 9,900 m) but does not vanish at 100 m,
# so it is tight nowhere, yet the parents come from the settle order.
LIGHT_UNTIGHT_LINK = ([Node(1, 100.0, 0.0, 150.0, UAV), Node(2, 100.0, 1e-12, 150.0, UAV)]
                      + [Node(2 + k, 100.0 + 1400.0 * k, 0.0, 150.0, UAV) for k in range(1, 8)]
                      + [Node(10, 0.0, 0.0, 0.0, GROUND_STATION)], "planar", 1500.0)


@settings(max_examples=200, deadline=None)
@given(spt_layouts(), st.sampled_from(["distance", "hops"]))
@example(([Node(1, 0.0, 0.0, 150.0, UAV), Node(2, 0.0, 3.27e-24, 150.0, UAV),
           Node(3, 0.0, 0.0, 0.0, GROUND_STATION)], "3d", 1500.0), "distance")
@example(COLLINEAR_CHAIN, "distance")
@example(COLLINEAR_CHAIN, "hops")
@example(LIGHT_UNTIGHT_LINK, "distance")
def test_build_spt_matches_the_column_scan(layout, weight):
    nodes, mode, d_th = layout
    try:
        t = build_topology(nodes, ChannelParams(link_threshold_dth=d_th), mode=mode)
    except ValueError:
        return  # coincident nodes, or a gap too small for a finite gain
    assert_same_spt(t, weight)


def counted_settle_order(monkeypatch):
    calls = []
    settle_order = routing._settle_order

    def counted(*args):
        calls.append(args)
        return settle_order(*args)

    monkeypatch.setattr(routing, "_settle_order", counted)
    return calls


@pytest.mark.parametrize("layout, settles", [(COLLINEAR_CHAIN, 0), (LIGHT_UNTIGHT_LINK, 1)],
                         ids=["collinear_chain", "light_untight_link"])
def test_settle_order_runs_only_where_a_weight_may_vanish(layout, settles, monkeypatch):
    nodes, mode, d_th = layout
    t = build_topology(nodes, ChannelParams(link_threshold_dth=d_th), mode=mode)
    calls = counted_settle_order(monkeypatch)
    build_spt(t)
    assert len(calls) == settles
    build_spt(t, weight="hops")  # a hop never vanishes in a sum
    assert len(calls) == settles


@pytest.mark.parametrize("weight", ["distance", "hops"])
@pytest.mark.parametrize("n, area_side", [(200, 40000.0), (1000, 90000.0)])
def test_build_spt_matches_the_column_scan_at_scale(n, area_side, weight, monkeypatch):
    t = generate_scenario(ScenarioConfig(n_uavs=n, area_side=area_side,
                                         min_separation=300.0, seed=0))
    calls = counted_settle_order(monkeypatch)
    assert_same_spt(t, weight)
    assert not calls
