"""Batched placement and array candidates against the loops they replaced.

Each reference below is the per-element code that placement, the separation
test and build_candidates ran before they became array code, kept verbatim
apart from names. The tests demand exact equality: the same layouts, attempt
counts and errors, the same accept/reject decisions, and the same candidate
neighbors and rates for every UAV that holds power.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanetsim.harness import (
    _POINT_TRIES,
    PlacementError,
    ScenarioConfig,
    _close_pairs,
    _far_enough,
    _gs_position,
    _sample_connected,
)
from fanetsim.linksel import Candidate, CandidateSet, build_candidates
from fanetsim.model import GROUND_STATION, UAV, Node, build_topology, link_capacity
from fanetsim.power import PowerAllocation
from fanetsim.routing import RoutingTree, connected_to_gs

from conftest import admissible_neighbors, synth_topology, toy_params


def reference_sample_connected(cfg):
    """Draw layouts until one is separated and GS-connected; returns attempts used."""
    n = cfg.scalar_n()
    rng = np.random.default_rng(cfg.seed)
    gs_x, gs_y = _gs_position(cfg)
    min_sep_sq = cfg.min_separation**2
    xs = np.empty(n)
    ys = np.empty(n)

    for attempt in range(1, cfg.placement_retry_budget + 1):
        placed_all = True
        for k in range(n):
            for _ in range(_POINT_TRIES):
                x, y = rng.uniform(0.0, cfg.area_side, size=2)
                # float_power(., 2.0) is the libm pow behind np.float64 ** 2, so
                # each accept/reject matches the per-pair scalar check exactly.
                sep_sq = np.float_power(x - xs[:k], 2.0) + np.float_power(y - ys[:k], 2.0)
                if (sep_sq >= min_sep_sq).all():
                    xs[k] = x
                    ys[k] = y
                    break
            else:
                placed_all = False
                break
        if not placed_all:
            continue
        nodes = [
            Node(id=i + 1, x=xs[i], y=ys[i], z=cfg.altitude_H, role=UAV)
            for i in range(n)
        ]
        nodes.append(Node(id=n + 1, x=gs_x, y=gs_y, z=0.0, role=GROUND_STATION))
        topo = build_topology(nodes, cfg.channel)
        if connected_to_gs(topo):
            return topo, attempt
    raise PlacementError(
        f"no connected layout with {n} UAVs at separation {cfg.min_separation} m "
        f"within {cfg.placement_retry_budget} attempts; lower n_uavs, min_separation, "
        f"or raise the link threshold"
    )


def _reference_subtree_ids(children, root):
    """UAV ids in the subtree hanging below ``root`` (root included)."""
    out = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in children.get(node, ()):
            if child not in out:
                out.add(child)
                stack.append(child)
    return out


def reference_build_candidates(tree, t, alloc, p):
    """Alternative parents for every UAV at its frozen power."""
    children = {}
    for child, par in tree.parent.items():
        children.setdefault(par, []).append(child)
    out = {}
    for i in sorted(tree.parent):
        blocked = _reference_subtree_ids(children, i)
        power = alloc.power[i]
        cands = []
        for k in admissible_neighbors(t, i):
            if k == tree.parent[i] or k in blocked:
                continue
            cands.append(
                Candidate(neighbor=k, rate=link_capacity(power, t.gain(i, k), p))
            )
        if cands:
            out[i] = tuple(cands)
    return CandidateSet.from_candidates(out)


def _layout(result):
    """Attempts and coordinates of a sampler result, or the error text."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    topo, attempts = result
    return attempts, [(repr(nd.x), repr(nd.y)) for nd in topo.nodes]


def _run(sampler, cfg):
    try:
        return sampler(cfg)
    except PlacementError as exc:
        return exc


# n=30 on 3 km at 500 m and n=60 on 6 km at 700 m pack the square so tightly
# that UAVs exhaust their tries; 6 UAVs on 15 km often need several attempts
# to reach the ground station, and 26 on 3 km succeed after exhausted
# attempts; min_separation=0 accepts every draw; n=1000 on 90 km places
# most of its UAVs in one batch.
PLACEMENTS = [
    dict(n_uavs=30, area_side=3000.0, min_separation=500.0, placement_retry_budget=2),
    dict(n_uavs=60, area_side=6000.0, min_separation=700.0, placement_retry_budget=2),
    dict(n_uavs=6, area_side=15000.0, min_separation=300.0, placement_retry_budget=8),
    dict(n_uavs=26, area_side=3000.0, min_separation=500.0, placement_retry_budget=8),
    dict(n_uavs=25, area_side=20000.0, min_separation=500.0),
    dict(n_uavs=200, area_side=40000.0, min_separation=300.0),
    dict(n_uavs=40, area_side=30000.0, min_separation=0.0, placement_retry_budget=3),
    dict(n_uavs=1000, area_side=90000.0, min_separation=300.0),
]


@pytest.mark.parametrize("fields", PLACEMENTS)
def test_batched_placement_equals_sequential_draws(fields):
    for seed in range(6):
        cfg = ScenarioConfig(seed=seed, trials=1, **fields)
        want = _run(reference_sample_connected, cfg)
        got = _run(_sample_connected, cfg)
        assert _layout(got) == _layout(want), seed


def test_placement_cases_cover_retries_and_exhaustion():
    # The cases above must keep reaching exhausted tries and repeated attempts.
    def outcomes(fields):
        return [_run(_sample_connected, ScenarioConfig(seed=seed, trials=1, **fields))
                for seed in range(6)]

    exhausted = outcomes(PLACEMENTS[0]) + outcomes(PLACEMENTS[1])
    assert sum(isinstance(got, PlacementError) for got in exhausted) >= 3
    for fields in PLACEMENTS[2:4]:
        assert max(got[1] for got in outcomes(fields) if not isinstance(got, Exception)) > 1


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), area_side=st.floats(500.0, 30000.0),
       spacing=st.floats(0.0, 0.6), budget=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_batched_placement_equals_sequential_draws_on_free_draws(n, area_side, spacing,
                                                                  budget, seed):
    # Separations up to 0.6 of the side exhaust the tries of a UAV within
    # one batch or across several; sides beyond the link threshold leave
    # layouts unconnected until the retry budget runs out.
    cfg = ScenarioConfig(n_uavs=n, area_side=area_side, min_separation=spacing * area_side,
                         placement_retry_budget=budget, seed=seed, trials=1)
    want = _run(reference_sample_connected, cfg)
    assert _layout(_run(_sample_connected, cfg)) == _layout(want)


def _ulps(values, steps):
    """Each value moved by its own number of ulps (negative: downward)."""
    out = np.array(values, dtype=float)
    for step in range(1, int(np.abs(steps).max(initial=0)) + 1):
        out = np.where(steps >= step, np.nextafter(out, math.inf), out)
        out = np.where(steps <= -step, np.nextafter(out, -math.inf), out)
    return out


@st.composite
def window_edges(draw):
    """Points whose partners sit within a few ulps of min_separation in x."""
    area_side = draw(st.sampled_from([1e4, 3000.0, 9000.0]))
    min_sep = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-162),  # squares that underflow to 0.0, subnormals too
        st.floats(1e-170, 1e-150),  # squares that are subnormal, not 0.0
        st.just(1e-10),
        st.floats(0.0, area_side, exclude_max=True),
        st.just(float(np.nextafter(area_side, 0.0))),
        st.floats(0.9 * area_side, area_side, exclude_max=True),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 40))
    # Anchors anywhere, or just below 4096 and 8192 so that a partner's x
    # lies in the next binade.
    x = rng.uniform(0.0, area_side, m)
    straddle = rng.random(m) < 0.3
    x[straddle] = rng.choice([4096.0, 8192.0], straddle.sum()) - rng.random(straddle.sum()) * min_sep
    y = rng.uniform(0.0, area_side, m)
    # Partners at x +- min_separation moved by -4..+4 ulps, at the same y,
    # a few ulps off it, or anywhere within the separation; or at the same x.
    sign = rng.choice([-1.0, 1.0], m)
    px = _ulps(x + sign * min_sep, rng.integers(-4, 5, m))
    same_x = rng.random(m) < 0.2
    px[same_x] = x[same_x]
    kind = rng.integers(0, 3, m)
    py = np.where(kind == 0, y, _ulps(y, rng.integers(-4, 5, m)))
    py = np.where(kind == 2, y + rng.uniform(-1.5, 1.5, m) * min_sep, py)
    order = rng.permutation(2 * m)
    xs, ys = np.concatenate((x, px))[order], np.concatenate((y, py))[order]
    return xs, ys, min_sep, draw(st.integers(0, 2 * m))


@settings(max_examples=300, deadline=None)
@given(window_edges())
def test_close_pairs_equal_the_dense_separation_test(case):
    x, y, min_sep, first = case
    min_sep_sq = min_sep**2
    clash = ~_far_enough(x[:, None] - x, y[:, None] - y, min_sep_sq)
    later, earlier = np.nonzero(np.tril(clash, -1))
    want = sorted((i, j) for i, j in zip(earlier.tolist(), later.tolist()) if j >= first)
    i, j = _close_pairs(x, y, min_sep, min_sep_sq, first)
    assert sorted(zip(i.tolist(), j.tolist())) == want
    assert np.all(np.diff(j) >= 0)


@st.composite
def near_threshold(draw):
    """Offsets whose squared length lies within a few ulps of min_sep**2."""
    min_sep = draw(st.one_of(st.just(0.0), st.floats(1e-170, 1e6), st.floats(0.0, 1e-150)))
    min_sep_sq = min_sep**2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dx = rng.uniform(-1.0, 1.0, 500) * min_sep
    dy = np.sqrt(np.maximum(min_sep_sq - dx * dx, 0.0)) * rng.choice([-1.0, 1.0], 500)
    nudges = rng.integers(-4, 5, 500)
    for step in range(1, 5):
        dy = np.where(nudges >= step, np.nextafter(dy, math.inf), dy)
        dy = np.where(nudges <= -step, np.nextafter(dy, -math.inf), dy)
    return dx, dy, min_sep_sq


@settings(max_examples=200, deadline=None)
@given(near_threshold())
def test_separation_test_equals_float_power(case):
    dx, dy, min_sep_sq = case
    want = np.float_power(dx, 2.0) + np.float_power(dy, 2.0) >= min_sep_sq
    assert np.array_equal(_far_enough(dx, dy, min_sep_sq), want)
    # The same entries in a (B, k) block decide the same way.
    block = _far_enough(np.tile(dx, (3, 1)), np.tile(dy, (3, 1)), min_sep_sq)
    assert np.array_equal(block, np.tile(want, (3, 1)))


def test_products_disagree_with_pow_near_the_threshold():
    # Without the pow recheck, some sums on either side of the threshold would
    # decide the other way: the band is needed.
    rng = np.random.default_rng(3)
    dx = rng.uniform(-300.0, 300.0, 200_000)
    dy = np.sqrt(300.0**2 - dx * dx)
    products = dx * dx + dy * dy >= 300.0**2
    pow_sums = np.float_power(dx, 2.0) + np.float_power(dy, 2.0) >= 300.0**2
    assert (products != pow_sums).any()
    assert np.array_equal(_far_enough(dx, dy, 300.0**2), pow_sums)


@st.composite
def candidate_instances(draw):
    """A valid tree over n UAVs, extra admissible links, and powers with zeros."""
    n = draw(st.integers(1, 9))
    gs = n + 1
    order = draw(st.permutations(range(1, n + 1)))
    parent = {}
    for pos, i in enumerate(order):
        parent[i] = draw(st.sampled_from([gs, *order[:pos]]))
    gain = st.floats(1e-3, 1e3)
    rows = [{} for _ in range(n)]
    for i, j in parent.items():
        rows[i - 1][j] = draw(gain)
        if j != gs:
            rows[j - 1][i] = draw(gain)
    for i in range(1, n + 1):
        for j in draw(st.sets(st.integers(1, gs), max_size=n)) - {i}:
            rows[i - 1].setdefault(j, draw(gain))
    t = synth_topology(rows)
    power = {i: draw(st.sampled_from([0.0, 0.0, 1e-9, 0.5, 3.0])) for i in range(1, gs)}
    alloc = PowerAllocation(power=power, water_level_lambda=1.0,
                            active_set=tuple(sorted(power)), throughput_R=0.0)
    return RoutingTree(parent=parent, path_cost={}), t, alloc


def _entries(c):
    return {i: [(cand.neighbor, repr(cand.rate)) for cand in cands]
            for i, cands in c.candidates.items()}


@settings(max_examples=200, deadline=None)
@given(candidate_instances())
def test_build_candidates_equals_subtree_loop_on_powered_uavs(instance):
    tree, t, alloc = instance
    p = toy_params()
    want = reference_build_candidates(tree, t, alloc, p)
    got = build_candidates(tree, t, alloc, p)
    powered = {i for i in tree.parent if alloc.power[i] > 0.0}
    assert _entries(got) == {i: v for i, v in _entries(want).items() if i in powered}
    # The zero-power lists it leaves out hold nothing but zero rates.
    assert all(cand.rate == 0.0 for i, cands in want.candidates.items()
               if i not in powered for cand in cands)


def test_build_candidates_rejects_unreached_powered_uav():
    t = synth_topology([{2: 1.0, 3: 1.0}, {1: 1.0, 3: 1.0}])
    cyclic = RoutingTree(parent={1: 2, 2: 1}, path_cost={})
    alloc = PowerAllocation(power={1: 1.0, 2: 0.0}, water_level_lambda=1.0,
                            active_set=(1, 2), throughput_R=0.0)
    with pytest.raises(ValueError, match=r"routing tree is invalid: UAV\(s\) \[1\]"):
        build_candidates(cyclic, t, alloc, toy_params())
