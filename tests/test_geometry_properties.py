"""The array code of the geometry layer against scalar references kept here.

build_topology, build_spt and the placement connectivity check are numpy
code; each test below re-derives the same result with the per-pair Python
loops they replaced and demands exact equality: bit-equal link lengths and
admissible gains, the same parents, path costs and stranded UAVs.
path_costs must return the shortest-path tree's own costs bit for bit, and
the costs or the error of the chain walk it replaced on any parent map.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fanetsim.harness import PlacementError, ScenarioConfig, generate_scenario, select_links
from fanetsim.model import (
    _ROW_BLOCK,
    GROUND_STATION,
    UAV,
    ChannelParams,
    Node,
    Topology,
    build_topology,
    channel_gain,
    distance,
)
from fanetsim.routing import (
    _WEIGHT_MODES,
    DisconnectedTopologyError,
    build_spt,
    connected_to_gs,
    parent_link_values,
    path_costs,
    validate_tree,
)

from conftest import admissible_neighbors, synth_topology

PROPERTY = settings(max_examples=150, deadline=None)


def reference_topology(nodes, p, mode):
    """Incidence, gains and link lengths from the distance/channel_gain double
    loop; a UAV's length to itself is inf. Every pair is checked for zero
    length before any gain is computed, the precedence build_topology
    documents: coincident nodes are reported even where a gain underflows
    first in row-major order."""
    ordered = sorted(nodes, key=lambda nd: nd.id)
    n = len(ordered) - 1
    incidence = np.zeros((n, n + 1), dtype=np.int8)
    gains = np.zeros((n, n + 1), dtype=float)
    distances = np.full((n, n + 1), np.inf)
    lengths = {}
    for i, uav in enumerate(ordered[:n]):
        for j, other in enumerate(ordered):
            if other.id == uav.id:
                continue
            d = distance(uav, other, mode=mode)
            if d == 0.0:
                raise ValueError(
                    f"nodes {uav.id} and {other.id} coincide; zero-distance links are undefined"
                )
            lengths[i, j] = d
    for (i, j), d in lengths.items():
        distances[i, j] = d
        gains[i, j] = channel_gain(d, p)
        if d <= p.link_threshold_dth and gains[i, j] > 0.0:
            incidence[i, j] = 1
    return incidence, gains, distances


def bellman_ford_reference(t, weight):
    """(parent, path_cost) by Bellman-Ford over sorted Python edge lists, with
    the lowest-id parent among equal costs; raises like build_spt. Where a
    link weight vanishes next to an equal path cost the lowest-id rule may
    return a cyclic map; see has_vanishing_tie."""
    gs_id = t.gs.id

    def w(i, j):
        return 1.0 if weight == "hops" else t.distance(i, j)

    dist = {i: math.inf for i in t.uav_ids}
    dist[gs_id] = 0.0
    edges = sorted(
        (j, i, w(i, j)) for i in t.uav_ids for j in admissible_neighbors(t, i)
    )
    for _ in range(t.n_uavs):
        changed = False
        for u, v, cost in edges:
            if dist[u] + cost < dist[v]:
                dist[v] = dist[u] + cost
                changed = True
        if not changed:
            break
    stranded = [i for i in t.uav_ids if math.isinf(dist[i])]
    if stranded:
        raise DisconnectedTopologyError(stranded)
    parent = {}
    for i in t.uav_ids:
        best_id, best_cost = None, math.inf
        for j in admissible_neighbors(t, i):
            if dist[j] + w(i, j) < best_cost:
                best_id, best_cost = j, dist[j] + w(i, j)
        parent[i] = best_id
    return parent, {i: dist[i] for i in t.uav_ids}


def has_vanishing_tie(t, weight, cost):
    """True when some UAV i has a neighbor j at i's own path cost whose link
    weight vanishes in cost[j] + w: j and i are then tight for each other,
    and Bellman-Ford's lowest-id parent is not build_spt's."""
    for i in t.uav_ids:
        for j in admissible_neighbors(t, i):
            w = 1.0 if weight == "hops" else t.distance(i, j)
            if cost[j] == cost[i] and cost[j] + w == cost[i]:
                return True
    return False


def reference_reached(t):
    """Node ids reachable from the ground station, one link at a time."""
    reached = {t.gs.id}
    frontier = [t.gs.id]
    while frontier:
        node = frontier.pop()
        for i in t.uav_ids:
            if i not in reached and t.is_admissible(i, node):
                reached.add(i)
                frontier.append(i)
    return reached


# Coordinates on a coarse integer grid tie distances and make nodes
# coincide; real-valued ones exercise rounding in every axis.
grid_coord = st.integers(-6, 6).map(lambda k: 1000.0 * k)
real_coord = st.floats(-20000.0, 20000.0, allow_nan=False, allow_infinity=False)


@st.composite
def layouts(draw, max_uavs=8):
    coord = draw(st.sampled_from([grid_coord, real_coord]))
    n = draw(st.integers(1, max_uavs))
    altitude = draw(st.sampled_from([150.0, 1000.0, 123.456]))
    nodes = [Node(i + 1, draw(coord), draw(coord), altitude, UAV) for i in range(n)]
    nodes.append(Node(n + 1, draw(coord), draw(coord), 0.0, GROUND_STATION))
    return nodes


@st.composite
def topology_cases(draw):
    """A layout, a distance mode, a path-loss exponent and a link threshold.
    The threshold is one of the layout's own distances half of the time, so
    links sitting exactly at d_th are covered."""
    nodes = draw(layouts())
    mode = draw(st.sampled_from(["planar", "3d"]))
    beta = draw(st.sampled_from([2.0, 2.5, 3.7]))
    n = len(nodes) - 1
    exact = [distance(nodes[i], nodes[j], mode=mode)
             for i in range(n) for j in range(n + 1) if i != j]
    exact = [d for d in exact if d > 0.0]
    d_th = draw(st.sampled_from(exact) if exact and draw(st.booleans())
                else st.floats(1.0, 30000.0))
    return nodes, mode, beta, d_th


def fleet_case(n, mode, seed=0):
    """n UAVs and a ground station at uniform real coordinates on 40 km."""
    xy = np.random.default_rng(seed).uniform(-20000.0, 20000.0, size=(n + 1, 2)).tolist()
    nodes = [Node(i + 1, x, y, 150.0, UAV) for i, (x, y) in enumerate(xy[:n])]
    nodes.append(Node(n + 1, *xy[n], 0.0, GROUND_STATION))
    return nodes, mode, 2.5, 6000.0


def row_block_examples(test):
    """Fleets that end just before, at and just after a row block of
    build_topology, and one that starts a third block, in both modes."""
    for n in (_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1):
        for mode in ("planar", "3d"):
            test = example(fleet_case(n, mode))(test)
    return test


def late_coincident_case():
    """UAVs 1 and 2 are 1e-160 m apart, an infinite gain in the first row
    block; UAV n coincides with the ground station in the last one."""
    nodes, mode, beta, d_th = fleet_case(2 * _ROW_BLOCK + 1, "planar", seed=1)
    n = len(nodes) - 1
    nodes[0] = Node(1, 0.0, 0.0, 150.0, UAV)
    nodes[1] = Node(2, 0.0, 1e-160, 150.0, UAV)
    nodes[n - 1] = Node(n, nodes[n].x, nodes[n].y, 150.0, UAV)
    return nodes, mode, beta, d_th


@PROPERTY
@given(topology_cases())
@row_block_examples
# Every coincident pair is reported before any infinite gain, in whichever
# row block each lies.
@example(late_coincident_case())
# UAV 1 sits above the ground station, and UAV 2 is so close to it that
# d**2.5 underflows: the coincident pair (1, 3) is reported, not the
# infinite gain of the pair (1, 2) that comes first in row-major order.
@example(([Node(1, 0.0, 0.0, 150.0, UAV), Node(2, 0.0, 2.35e-150, 150.0, UAV),
           Node(3, 0.0, 0.0, 0.0, GROUND_STATION)], "planar", 2.5, 1500.0))
# A single pair at 2.4e-133 m: d**2.5 underflows to 0.0, so channel_gain
# raises its "too short" error where build_topology names the pair.
@example(([Node(1, 0.0, 0.0, 150.0, UAV), Node(2, 0.0, 2.4331018385931436e-133, 0.0, GROUND_STATION)],
          "planar", 2.5, 1.0))
def test_build_topology_bit_equal_to_double_loop(case):
    nodes, mode, beta, d_th = case
    n = len(nodes) - 1
    p = ChannelParams(pathloss_beta=beta, link_threshold_dth=d_th)
    try:
        ref_incidence, ref_gains, ref_distances = reference_topology(nodes, p, mode)
    except ValueError as exc:
        if "too short for a finite gain" not in str(exc):
            with pytest.raises(ValueError) as got:
                build_topology(nodes, p, mode=mode)
            assert str(got.value) == str(exc)
            return
        # channel_gain refuses the infinite gain that build_topology reports
        # for the pair
        ref_gains = None
    if ref_gains is None or np.isinf(ref_gains).any():
        # separations far below a millimetre: d**beta underflows, or the
        # gain overflows
        with pytest.raises(ValueError, match="too close for a finite gain"):
            build_topology(nodes, p, mode=mode)
        return
    t = build_topology(nodes, p, mode=mode)
    assert t.incidence.dtype == ref_incidence.dtype
    assert np.array_equal(t.incidence, ref_incidence)
    # Gains are evaluated on in-range links only; every reader takes the gain
    # of an admissible link, and the rest hold 0.0.
    admissible = ref_incidence == 1
    assert t.gains.dtype == ref_gains.dtype
    assert t.gains[admissible].tobytes() == ref_gains[admissible].tobytes()
    assert not t.gains[~admissible].any()
    assert t.distances.dtype == ref_distances.dtype
    assert t.distances.tobytes() == ref_distances.tobytes()
    assert all(t.distance(i, j) == ref_distances[i - 1, j - 1]
               for i in t.uav_ids for j in range(1, n + 2))


@pytest.mark.parametrize("gap, beta", [(1e-150, 3.7), (1e-158, 2.0)])
def test_build_topology_rejects_infinite_gain(gap, beta):
    # At 1e-150 m d**3.7 underflows to 0 and the scalar loop divided by zero;
    # at 1e-158 m alpha0 / d**2 overflows and the scalar loop stored inf.
    nodes = [Node(1, 0.0, 0.0, 150.0, UAV), Node(2, 0.0, gap, 150.0, UAV),
             Node(3, 100.0, 0.0, 0.0, GROUND_STATION)]
    p = ChannelParams(pathloss_beta=beta)
    with pytest.raises(ValueError, match="nodes 1 and 2 are too close for a finite gain"):
        build_topology(nodes, p)


def test_zero_gain_link_is_inadmissible():
    # At beta=85, (5 km)**85 overflows, so the gain is 0.0 although the link
    # is within d_th; 1 km and 4 km keep a positive gain.
    nodes = [Node(1, 0.0, 1000.0, 150.0, UAV), Node(2, 0.0, 5000.0, 150.0, UAV),
             Node(3, 0.0, 0.0, 0.0, GROUND_STATION)]
    t = build_topology(nodes, ChannelParams(pathloss_beta=85.0))
    assert t.gain(2, 3) == 0.0
    assert t.distance(2, 3) == 5000.0
    assert not t.is_admissible(2, 3)
    assert t.gain(2, 1) > 0.0
    assert admissible_neighbors(t, 1) == (2, 3)
    assert admissible_neighbors(t, 2) == (1,)


def test_build_topology_unknown_mode_rejected():
    nodes = [Node(1, 0.0, 0.0, 150.0, UAV), Node(2, 100.0, 0.0, 0.0, GROUND_STATION)]
    with pytest.raises(ValueError, match="unknown distance mode 'manhattan'"):
        build_topology(nodes, ChannelParams(), mode="manhattan")


@PROPERTY
@given(layouts(max_uavs=12), st.sampled_from(["distance", "hops"]),
       st.floats(1500.0, 12000.0))
@example(nodes=[Node(1, 0.0, 0.0, 150.0, UAV), Node(2, 3.27e-24, 0.0, 150.0, UAV),
                Node(3, 100.0, 0.0, 0.0, GROUND_STATION)],
         weight="distance", d_th=1500.0)
def test_build_spt_equals_bellman_ford(nodes, weight, d_th):
    try:
        t = build_topology(nodes, ChannelParams(link_threshold_dth=d_th))
    except ValueError:
        return  # coincident nodes; covered by the topology test above
    try:
        ref_parent, ref_cost = bellman_ford_reference(t, weight)
    except DisconnectedTopologyError as exc:
        with pytest.raises(DisconnectedTopologyError) as got:
            build_spt(t, weight=weight)
        assert got.value.stranded_ids == exc.stranded_ids
        return
    tree = build_spt(t, weight=weight)
    assert tree.path_cost == ref_cost
    if has_vanishing_tie(t, weight, {**ref_cost, t.gs.id: 0.0}):
        # Every parent is still tight and the map is a tree.
        assert validate_tree(tree, t).ok
        assert path_costs(tree.parent, t, weight) == ref_cost
    else:
        assert tree.parent == ref_parent
    assert all(type(c) is float for c in tree.path_cost.values())
    assert tree.weight == weight


@PROPERTY
@given(layouts(max_uavs=12), st.sampled_from(["planar", "3d"]), st.floats(1500.0, 12000.0))
def test_path_costs_of_spt_equal_its_costs(nodes, mode, d_th):
    # Exact equality holds because each parent attains its UAV's minimum; the
    # 3d lengths decide the tree as well as admissibility.
    try:
        t = build_topology(nodes, ChannelParams(link_threshold_dth=d_th), mode=mode)
    except ValueError:
        return
    for weight in ("distance", "hops"):
        try:
            tree = build_spt(t, weight=weight)
        except DisconnectedTopologyError:
            return
        costs = path_costs(tree.parent, t, weight)
        assert costs == tree.path_cost
        assert list(costs) == list(tree.path_cost)
        assert all(type(c) is float for c in costs.values())


def test_path_costs_rejects_loops_and_unknown_weight():
    nodes = [Node(1, 0.0, 1000.0, 150.0, UAV), Node(2, 0.0, 2000.0, 150.0, UAV),
             Node(3, 0.0, 0.0, 0.0, GROUND_STATION)]
    t = build_topology(nodes, ChannelParams())
    with pytest.raises(ValueError, match="loops"):
        path_costs({1: 2, 2: 1}, t, "distance")
    with pytest.raises(ValueError, match="unknown weight 'meters'"):
        path_costs({1: 3, 2: 1}, t, "meters")
    assert path_costs({1: 3, 2: 1}, t, "hops") == {1: 1.0, 2: 2.0}
    assert path_costs({1: 3, 2: 1}, t, "distance") == {1: 1000.0, 2: 2000.0}


def reference_path_costs(parent, t, weight):
    """path_costs as the memoised chain walk it was before it summed along
    the tree's preorder."""
    if weight not in _WEIGHT_MODES:
        raise ValueError(f"unknown weight {weight!r}; use one of {_WEIGHT_MODES}")
    uavs = sorted(parent)
    if weight == "hops":
        length = dict.fromkeys(uavs, 1.0)
    else:
        length = dict(zip(uavs, parent_link_values(t.distances, parent, uavs)))
    n = t.n_uavs
    cost = {t.gs.id: 0.0}
    for start in uavs:
        chain = []
        node = start
        while node not in cost:
            if len(chain) > n:
                raise ValueError(f"the parent walk from UAV {start} loops")
            chain.append(node)
            node = parent[node]
        total = cost[node]
        for node in reversed(chain):
            total = cost[node] = total + length[node]
    return {i: cost[i] for i in uavs}


@st.composite
def parent_maps(draw):
    """The shortest-path or the refined tree of a placed layout, built under
    either weight, with a cycle of 0 (none), 1 (a self-loop), 2 or more
    UAVs written over it."""
    cfg = ScenarioConfig(n_uavs=draw(st.integers(1, 30)), seed=draw(st.integers(0, 99)),
                         power_budget_Pb=draw(st.sampled_from([1e-3, 1.0])),
                         spt_weight=draw(st.sampled_from(["distance", "hops"])), trials=1)
    try:
        t = generate_scenario(cfg)
    except PlacementError:
        assume(False)
    if draw(st.booleans()):
        parent = dict(build_spt(t, cfg.spt_weight).parent)
    else:
        parent = dict(select_links(t, cfg).refined_tree.parent)
    cycle = draw(st.permutations(t.uav_ids))[:draw(st.sampled_from([0, 1, 2, 3, 7]))]
    parent.update(zip(cycle, cycle[1:] + cycle[:1]))
    return parent, t


def path_cost_outcome(costs_of, parent, t, weight):
    try:
        return repr(costs_of(parent, t, weight))
    except ValueError as exc:
        return ValueError, str(exc)


@PROPERTY
@given(parent_maps())
def test_path_costs_match_the_chain_walk(case):
    parent, t = case
    for weight in ("distance", "hops"):
        assert (path_cost_outcome(path_costs, parent, t, weight)
                == path_cost_outcome(reference_path_costs, parent, t, weight))


def test_path_costs_on_an_unknown_parent_and_a_ground_station_entry():
    # The chain walk raised KeyError on UAV 2's unknown parent under "hops".
    nodes = [Node(1, 0.0, 1000.0, 150.0, UAV), Node(2, 0.0, 2000.0, 150.0, UAV),
             Node(3, 0.0, 0.0, 0.0, GROUND_STATION)]
    t = build_topology(nodes, ChannelParams())
    with pytest.raises(KeyError):
        reference_path_costs({1: 3, 2: 7}, t, "hops")
    with pytest.raises(ValueError, match=r"^the parent walk from UAV 2 loops$"):
        path_costs({1: 3, 2: 7}, t, "hops")
    # An entry for the ground station itself is ignored, as the chain walk
    # ignored it; the preorder must not walk back into its root.
    parent = {1: 3, 2: 1, 3: 1}
    assert repr(path_costs(parent, t, "hops")) == repr(reference_path_costs(parent, t, "hops"))


@st.composite
def incidence_topologies(draw):
    """Topologies with arbitrary, possibly one-way, admissibility."""
    n = draw(st.integers(1, 10))
    bits = draw(st.lists(st.booleans(), min_size=n * (n + 1), max_size=n * (n + 1)))
    incidence = np.array(bits, dtype=np.int8).reshape(n, n + 1)
    np.fill_diagonal(incidence, 0)
    nodes = tuple([Node(i + 1, float(i), 0.0, 150.0, UAV) for i in range(n)]
                  + [Node(n + 1, -1.0, -1.0, 0.0, GROUND_STATION)])
    return Topology(nodes=nodes, incidence=incidence, gains=incidence.astype(float),
                    distances=np.where(incidence, 1.0, np.inf))


@PROPERTY
@given(incidence_topologies())
def test_connected_to_gs_agrees_with_reference_search(t):
    reached = reference_reached(t)
    assert connected_to_gs(t) == (len(reached) == t.n_uavs + 1)
    stranded = sorted(set(t.uav_ids) - reached)
    if stranded:
        with pytest.raises(DisconnectedTopologyError) as got:
            build_spt(t, weight="hops")
        assert got.value.stranded_ids == stranded
    else:
        assert build_spt(t, weight="hops").parent == bellman_ford_reference(t, "hops")[0]


@st.composite
def link_table_topologies(draw):
    """Topologies of 1-8 UAVs, some with UAVs that have no links: int8
    incidence from build_topology on a coarse grid wider than the link
    threshold, or bool incidence from conftest's synth_topology with
    arbitrary one-way links."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        cells = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                              min_size=n + 1, max_size=n + 1, unique=True))
        nodes = [Node(i + 1, 500.0 * x, 500.0 * y, 150.0, UAV) for i, (x, y) in enumerate(cells[:n])]
        nodes.append(Node(n + 1, 500.0 * cells[n][0], 500.0 * cells[n][1], 0.0, GROUND_STATION))
        return build_topology(nodes, ChannelParams())
    rows = [draw(st.sets(st.integers(1, n + 1))) - {i} for i in range(1, n + 1)]
    return synth_topology([dict.fromkeys(row, 1.0) for row in rows])


def reference_link_table(t):
    """The nonzeros of ``incidence`` in a row-major double loop: flat indices,
    rows, columns and the position where each linked UAV's run starts."""
    n = t.n_uavs
    index, rows, cols, starts = [], [], [], []
    for i in range(n):
        for j in range(n + 1):
            if t.incidence[i, j]:
                if not rows or rows[-1] != i:
                    starts.append(len(rows))
                index.append(i * (n + 1) + j)
                rows.append(i)
                cols.append(j)
    return index, rows, cols, starts


@PROPERTY
@given(st.one_of(link_table_topologies(), incidence_topologies()))
@example(synth_topology([{}]))
@example(synth_topology([{2: 1.0}, {}, {1: 1.0}]))
def test_link_table_is_the_row_major_incidence_nonzeros(t):
    table = t.links
    assert t.links is table
    assert not any(arr.flags.writeable for arr in table)
    assert [arr.tolist() for arr in table] == list(reference_link_table(t))
