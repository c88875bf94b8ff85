"""Reference optimizers: exhaustive power grid and tree enumeration."""

import functools
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanetsim.harness import ScenarioConfig, generate_scenario
from fanetsim.model import GROUND_STATION, ChannelParams, Node, build_topology, link_capacity
from fanetsim.oracle import (
    OracleResult,
    _valid_assignment_mask,
    grid_power_oracle,
    tree_enum_oracle,
)
from fanetsim.power import allocate_power
from fanetsim.routing import (
    DisconnectedTopologyError,
    RoutingTree,
    build_spt,
    validate_tree,
)

from conftest import admissible_neighbors, chain_gains, random_cluster_topology, star_tree, synth_topology, toy_params


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


BAD_BUDGETS = (0.0, math.nan, math.inf, -math.inf)


def test_grid_rejects_bad_args():
    t = synth_topology([{2: 1.0}])
    for budget in BAD_BUDGETS:
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            grid_power_oracle(star_tree(1), t, budget, toy_params())
    with pytest.raises(ValueError):
        grid_power_oracle(star_tree(1), t, 1.0, toy_params(), resolution=0.0)


BAD_GAINS = [math.nan, 0.0, -1.0, math.inf]


def bad_gain_message(gain: float) -> str:
    return "^link gain must be finite$" if gain == math.inf else "^link gain must be strictly positive$"


@pytest.mark.parametrize("gain", BAD_GAINS)
def test_grid_rejects_a_bad_parent_link_gain(gain):
    t = synth_topology([{3: gain}, {3: 1e-7}])
    with pytest.raises(ValueError, match=bad_gain_message(gain)):
        grid_power_oracle(RoutingTree({1: 3, 2: 3}, {}), t, 1.0, ChannelParams())


def test_tree_enum_rejects_bad_budgets():
    t = synth_topology([{2: 1.0}])
    for budget in BAD_BUDGETS:
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            tree_enum_oracle(t, budget, toy_params())


@pytest.mark.parametrize("gain", BAD_GAINS)
def test_tree_enum_rejects_a_bad_admissible_gain(gain):
    t = synth_topology([{3: gain, 2: 1e-7}, {3: 1e-7}])
    with pytest.raises(ValueError, match=bad_gain_message(gain)):
        tree_enum_oracle(t, 1.0, ChannelParams())


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
    lists = [admissible_neighbors(t, i) for i in t.uav_ids]
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


def walked_assignment_mask(parents, gs_id):
    """Per row: does every UAV reach the ground station by single parent
    hops before it revisits a node?"""
    n = parents.shape[1]
    mask = []
    for row in parents.tolist():
        ok = True
        for i in range(1, n + 1):
            node, seen = i, set()
            while node != gs_id and node not in seen:
                seen.add(node)
                node = row[node - 1]
            ok = ok and node == gs_id
        mask.append(ok)
    return np.array(mask, dtype=bool)


@st.composite
def parent_arrays(draw):
    """(A, n) parent ids in 1..n+1, the ground station n+1. A row is a free
    draw (self-loops and 2-cycles come up often), a depth-n chain through
    every UAV, or that chain with its last UAV pointed back into it, which
    closes a cycle of any length from 1 to n."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["free", "chain", "cycle"]))
        if kind == "free":
            rows.append(draw(st.lists(st.integers(1, n + 1), min_size=n, max_size=n)))
            continue
        order = draw(st.permutations(range(1, n + 1)))
        row = [0] * n
        for child, parent in zip(order, order[1:] + [n + 1]):
            row[child - 1] = parent
        if kind == "cycle":
            row[order[-1] - 1] = order[draw(st.integers(0, n - 1))]
        rows.append(row)
    return np.array(rows, dtype=np.int64), n + 1


@settings(max_examples=300, deadline=None)
@given(parent_arrays())
def test_assignment_mask_equals_parent_walk(instance):
    parents, gs_id = instance
    mask = _valid_assignment_mask(parents, gs_id)
    assert mask.dtype == bool and mask.shape == (parents.shape[0],)
    assert mask.tolist() == walked_assignment_mask(parents, gs_id).tolist()


def test_tree_enum_raises_when_disconnected():
    t = synth_topology([{3: 1.0}, {}])
    with pytest.raises(DisconnectedTopologyError):
        tree_enum_oracle(t, 1.0, toy_params())


def test_tree_enum_names_the_first_uav_without_links():
    t = synth_topology([{}, {4: 1.0}, {}])
    with pytest.raises(DisconnectedTopologyError) as got:
        tree_enum_oracle(t, 1.0, toy_params())
    assert got.value.stranded_ids == [1]


def ground_station_alone():
    p = ChannelParams()
    return build_topology([Node(1, 0.0, 0.0, 0.0, GROUND_STATION)], p), p


def test_grid_oracle_rejects_an_empty_fleet():
    t, p = ground_station_alone()
    with pytest.raises(ValueError, match="fleet is empty"):
        grid_power_oracle(build_spt(t), t, 1.0, p)


def test_tree_enum_rejects_an_empty_fleet():
    t, p = ground_station_alone()
    with pytest.raises(ValueError, match="fleet is empty"):
        tree_enum_oracle(t, 1.0, p)


def test_oracle_result_shape():
    t = synth_topology([{2: 1.0}])
    res = tree_enum_oracle(t, 1.0, toy_params())
    assert isinstance(res, OracleResult)
    assert set(res.best_configuration) == {"parent", "powers"}


# ------------------------------------------------- bit identity to the loops
#
# The two functions below are the oracles as they were written before their
# array rewrite: the grid's dynamic program one budget level at a time, and
# the bisection with all of its 200 steps. The oracles must match them bit
# for bit, compared as reprs of the whole OracleResult.


def loop_grid_power_oracle(tree, t, total_budget_w, p, resolution=1e-3):
    uavs = sorted(tree.parent)
    n = len(uavs)
    steps = round(1.0 / resolution)
    step_w = total_budget_w * resolution
    levels = np.arange(steps + 1) * step_w

    rate_table = np.empty((n, steps + 1))
    for row, i in enumerate(uavs):
        gain = t.gain(i, tree.parent[i])
        rate_table[row] = [link_capacity(w, gain, p) for w in levels]

    best = rate_table[0].copy()
    choice = np.zeros((n, steps + 1), dtype=np.int64)
    choice[0] = np.arange(steps + 1)
    for row in range(1, n):
        new_best = np.empty(steps + 1)
        for b in range(steps + 1):
            totals = rate_table[row, : b + 1] + best[b::-1]
            m = int(np.argmax(totals))
            new_best[b] = totals[m]
            choice[row, b] = m
        best = new_best

    powers = {}
    b = steps
    for row in range(n - 1, -1, -1):
        m = int(choice[row, b])
        powers[uavs[row]] = float(levels[m])
        b -= m
    evaluations = math.comb(steps + n - 1, n - 1)
    return OracleResult(
        best_value=float(best[steps]),
        best_configuration={"powers": powers},
        evaluations=evaluations,
    )


def fixed_bisection(floors, total_budget_w, iters=200):
    """The brackets after ``iters`` steps, and the water level between them.
    Every midpoint is 0.5 * (lo + hi) unless some initial hi + hi overflows;
    then each is lo + 0.5 * (hi - lo)."""
    lo = np.min(floors, axis=1)
    hi = np.max(floors, axis=1) + total_budget_w
    with np.errstate(over="ignore"):
        halve_sum = bool(np.isfinite(hi + hi).all())

    def midpoint(lo, hi):
        return 0.5 * (lo + hi) if halve_sum else lo + 0.5 * (hi - lo)

    for _ in range(iters):
        mid = midpoint(lo, hi)
        spent = np.sum(np.maximum(0.0, mid[:, None] - floors), axis=1)
        over = spent > total_budget_w
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    return lo, hi, midpoint(lo, hi)


def tree_floors(t, p):
    """Every valid tree's parent row and noise floors, in enumeration order."""
    n = t.n_uavs
    neighbor_lists = []
    for i in t.uav_ids:
        adm = admissible_neighbors(t, i)
        if not adm:
            raise DisconnectedTopologyError([i])
        neighbor_lists.append(adm)

    parents = np.array(list(itertools.product(*neighbor_lists)), dtype=np.int64)
    mask = _valid_assignment_mask(parents, t.gs.id)
    if not np.any(mask):
        raise DisconnectedTopologyError(list(t.uav_ids))
    trees = parents[mask]

    cols = np.repeat(np.arange(n)[None, :], trees.shape[0], axis=0)
    return trees, p.noise_power / t.gains[cols, trees - 1]


def loop_tree_enum_oracle(t, total_budget_w, p):
    trees, floors = tree_floors(t, p)
    _, _, water = fixed_bisection(floors, total_budget_w)
    powers = np.maximum(0.0, water[:, None] - floors)
    values = p.bandwidth_B * np.sum(np.log2(1.0 + powers / floors), axis=1)

    best_row = int(np.argmax(values))
    best_parents = {i: int(trees[best_row, i - 1]) for i in t.uav_ids}
    best_powers = {i: float(powers[best_row, i - 1]) for i in t.uav_ids}
    return OracleResult(
        best_value=float(values[best_row]),
        best_configuration={"parent": best_parents, "powers": best_powers},
        evaluations=int(trees.shape[0]),
    )


def outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except DisconnectedTopologyError as err:
        return repr(err)


# Physical channel: gains around 1e-7 near the ground station. A few shared
# gains per draw make rates tie, so argmax's first-maximum rule is pinned.
budgets = st.floats(-14.0, 2.0).map(lambda e: 10.0 ** e)


@st.composite
def grid_instances(draw):
    n = draw(st.integers(1, 4))
    shared = draw(st.lists(st.floats(-12.0, -5.0), min_size=1, max_size=2))
    exponent = st.sampled_from(shared) | st.floats(-12.0, -5.0)
    gains = [10.0 ** draw(exponent) for _ in range(n)]
    resolution = draw(st.sampled_from([1e-3, 0.05]))
    return synth_topology([{n + 1: g} for g in gains]), draw(budgets), resolution


@settings(max_examples=60, deadline=None)
@given(grid_instances())
def test_grid_oracle_bit_identical_to_level_loop(instance):
    t, budget, resolution = instance
    p, tree = ChannelParams(), star_tree(t.n_uavs)
    want = outcome(loop_grid_power_oracle, tree, t, budget, p, resolution=resolution)
    assert outcome(grid_power_oracle, tree, t, budget, p, resolution=resolution) == want


# Noise floors 1/h over up to 120 decades: where a tree's bracket spans
# about 90 decades or more around the water level, the bisection does not
# settle within its 200 steps and both loops run to the cap. Trees of up to
# 9 links cross numpy's switch to pairwise sums at 8 terms; beyond 5 UAVs
# each keeps at most 3 links, so at most 3**9 assignments are enumerated.
@st.composite
def tree_instances(draw):
    n = draw(st.integers(1, 9))
    shared = draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=3))
    exponent = st.sampled_from(shared) | st.floats(-60.0, 60.0)
    rows = []
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 2) if j != i]
        cap = len(others) if n <= 5 else 3
        picked = draw(st.lists(st.sampled_from(others), min_size=1, max_size=cap,
                               unique=True))
        rows.append({j: 10.0 ** draw(exponent) for j in picked})
    return synth_topology(rows), draw(budgets)


WIDE_FLOORS = (synth_topology([{2: 1e-60, 3: 1e30}, {1: 1e30, 3: 1e-60}]), 1e-14)
# Eight UAVs, each linked to the ground station and to the next UAV around a
# ring: 255 trees of 8 links, whose spends numpy sums pairwise.
RING_OF_EIGHT = (synth_topology([{9: 1.0 / i, i % 8 + 1: 0.3 * i} for i in range(1, 9)]), 1.0)


@settings(max_examples=150, deadline=None)
@given(tree_instances())
@example(WIDE_FLOORS)
@example(RING_OF_EIGHT)
def test_tree_oracle_bit_identical_to_fixed_bisection(instance):
    t, budget = instance
    p = toy_params()
    assert outcome(tree_enum_oracle, t, budget, p) == outcome(loop_tree_enum_oracle, t, budget, p)


def test_wide_floors_run_the_bisection_to_its_cap():
    # the explicit example above is one where the early exit never fires
    t, budget = WIDE_FLOORS
    _, floors = tree_floors(t, toy_params())
    assert not np.array_equal(fixed_bisection(floors, budget, 199),
                              fixed_bisection(floors, budget, 200))


def test_ring_of_eight_sums_pairwise():
    # the explicit example above is one where a running sum of a tree's
    # spends differs from numpy's sum of the tree's row
    t, budget = RING_OF_EIGHT
    _, floors = tree_floors(t, toy_params())
    _, _, water = fixed_bisection(floors, budget)
    gap = np.maximum(0.0, water[:, None] - floors)
    running = functools.reduce(np.add, gap.T)
    assert floors.shape[1] == 8
    assert not np.array_equal(running, np.sum(gap, axis=1))


def test_tree_enum_huge_budget_is_infinite_without_warning():
    # as grid_power_oracle: rates overflow to inf silently at budgets near
    # the float range
    t = generate_scenario(ScenarioConfig(n_uavs=5, seed=1))
    for budget in (1e307, 1e308, sys.float_info.max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = tree_enum_oracle(t, budget, ChannelParams())
        assert res.best_value == math.inf
        with np.errstate(over="ignore"):
            assert repr(res) == repr(loop_tree_enum_oracle(t, budget, ChannelParams()))


def test_tree_enum_budget_at_float_max_gives_finite_powers():
    # lo + hi would overflow here, so the bisection halves the bracket width
    t = synth_topology([{2: 1e-7, 3: 2e-7}, {1: 3e-7, 3: 5e-8}])
    budget = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = tree_enum_oracle(t, budget, ChannelParams())
    powers = list(res.best_configuration["powers"].values())
    assert all(0.0 <= p < math.inf for p in powers)
    assert math.fsum(p / 2.0 for p in powers) <= (budget / 2.0) * (1.0 + 1e-12)
    with np.errstate(over="ignore"):
        assert repr(res) == repr(loop_tree_enum_oracle(t, budget, ChannelParams()))


def test_tree_enum_infinite_noise_floors_take_no_power():
    # The 5e-324 links' noise floors overflow to inf. They used to warn
    # ("overflow encountered in divide") and make the best value nan; now
    # such a link takes no power, and a tree of only such links scores 0.0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = tree_enum_oracle(synth_topology([{2: 5e-324, 3: 1e-7}, {1: 5e-324, 3: 1e-7}]),
                               1.0, ChannelParams())
        assert res.best_value == 405206819.1194628
        assert res.best_configuration == {"parent": {1: 3, 2: 3}, "powers": {1: 0.5, 2: 0.5}}
        assert res.evaluations == 3
        res = tree_enum_oracle(synth_topology([{3: 5e-324}, {3: 5e-324}]), 1.0, ChannelParams())
        assert res.best_value == 0.0
        assert res.best_configuration["powers"] == {1: 0.0, 2: 0.0}


def test_validate_instances_bit_identical():
    # validate's own draws: n = 2-3 grid checks and n = 5 scenarios
    rng = np.random.default_rng(41)
    p = ChannelParams()
    grid_done = 0
    while grid_done < 6:
        topo = random_cluster_topology(rng, int(rng.integers(2, 4)))
        tree = build_spt(topo)
        pb = float(rng.uniform(0.01, 10.0))
        for resolution in (1e-3, 0.05):
            assert repr(grid_power_oracle(tree, topo, pb, p, resolution)) == repr(
                loop_grid_power_oracle(tree, topo, pb, p, resolution))
        grid_done += 1
    for _ in range(4):
        topo = random_cluster_topology(rng, 5)
        assert repr(tree_enum_oracle(topo, 1.0, p)) == repr(loop_tree_enum_oracle(topo, 1.0, p))


def test_grid_oracle_working_set_stays_small():
    # one call at n=3, resolution 1e-3 must not build the 1001 x 1001 matrix
    # of every level pair (8 MB)
    t = synth_topology([{4: 1e-7}, {4: 2e-7}, {4: 5e-8}])
    tracemalloc.start()
    try:
        grid_power_oracle(star_tree(3), t, 1.0, ChannelParams(), resolution=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
