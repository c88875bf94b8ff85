"""Barrier relaxation, projected Newton solver, and rounding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanetsim.linksel import (
    BARRIER_ROUNDS,
    Candidate,
    CandidateSet,
    ConvergenceError,
    RelaxedLinkMatrix,
    SolverConfig,
    barrier_objective,
    build_candidates,
    gradient_hessian,
    newton_refine,
    round_and_update,
)
from fanetsim.model import link_capacity
from fanetsim.power import PowerAllocation, allocate_power
from fanetsim.routing import RoutingTree, build_spt, validate_tree

from conftest import random_cluster_topology, star_tree, synth_topology, toy_params


def full_mesh_3():
    # three UAVs all within range of each other and the ground station
    return synth_topology(
        [
            {2: 0.5, 3: 0.25, 4: 1.0},
            {1: 0.5, 3: 0.5, 4: 2.0},
            {1: 0.25, 2: 0.5, 4: 0.5},
        ]
    )


def simple_candidates(rate_rows):
    """CandidateSet from {uav: {neighbor: rate}}."""
    return CandidateSet(
        candidates={
            i: tuple(Candidate(neighbor=k, rate=r) for k, r in sorted(row.items()))
            for i, row in rate_rows.items()
        }
    )


def uniform_alloc(uav_ids, power=1.0):
    return PowerAllocation(
        power={i: power for i in uav_ids},
        water_level_lambda=1.0,
        active_set=tuple(sorted(uav_ids)),
        throughput_R=0.0,
    )


# ---------------------------------------------------------------- candidates


def test_candidates_exclude_parent_and_subtree():
    t = synth_topology(
        [
            {2: 1.0, 3: 1.0, 4: 1.0},
            {1: 1.0, 3: 1.0, 4: 1.0},
            {1: 1.0, 2: 1.0, 4: 1.0},
        ]
    )
    chain = RoutingTree(parent={1: 4, 2: 1, 3: 2}, path_cost={1: 1.0, 2: 2.0, 3: 3.0})
    p = toy_params()
    a = allocate_power(chain, t, 3.0, p)
    c = build_candidates(chain, t, a, p)
    # uav1's subtree is everyone, so the only non-parent neighbors are blocked
    assert 1 not in c.candidates
    # uav2 may only defect to the ground station (uav3 is its child)
    assert [cand.neighbor for cand in c.candidates[2]] == [4]
    # uav3 may defect to uav1 or the ground station
    assert [cand.neighbor for cand in c.candidates[3]] == [1, 4]


def test_candidate_rates_at_frozen_power():
    t = full_mesh_3()
    tree = star_tree(3)
    p = toy_params()
    a = allocate_power(tree, t, 3.0, p)
    c = build_candidates(tree, t, a, p)
    for i, cand in c.entries():
        assert cand.rate == link_capacity(a.power[i], t.gain(i, cand.neighbor), p)


def test_lookup_raises_on_unknown_pair():
    c = simple_candidates({1: {2: 1.0}})
    with pytest.raises(KeyError):
        c.lookup(1, 3)


# ------------------------------------------------------------------ barrier


def test_barrier_objective_hand_value():
    # rate 0 at L = 1/2: phi = log(1/2) + log(1/2) = -2 log 2
    c = simple_candidates({1: {2: 0.0}})
    got = barrier_objective({(1, 2): 0.5}, c, gamma=1.0)
    assert got == pytest.approx(-2.0 * math.log(2.0), rel=1e-15)


def test_barrier_objective_additive_and_weighted():
    c = simple_candidates({1: {2: 3.0, 3: 5.0}})
    L = {(1, 2): 0.25, (1, 3): 0.75}
    want = (
        3.0 * 0.25
        + 5.0 * 0.75
        + 0.5 * (math.log(0.25) + math.log(0.75) + math.log(0.75) + math.log(0.25))
    )
    assert barrier_objective(L, c, gamma=2.0) == pytest.approx(want, rel=1e-15)


def test_barrier_objective_rejects_boundary():
    c = simple_candidates({1: {2: 1.0}})
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            barrier_objective({(1, 2): bad}, c, gamma=1.0)
    with pytest.raises(ValueError):
        barrier_objective({(1, 2): 0.5}, c, gamma=0.0)


def test_gradient_hessian_hand_values():
    # at L=1/2 with rate 0 the barrier gradient cancels; hessian is -8/gamma
    c = simple_candidates({1: {2: 0.0}})
    g, h = gradient_hessian({(1, 2): 0.5}, c, gamma=1.0)
    assert g[(1, 2)] == 0.0
    assert h[(1, 2)] == -8.0
    g2, h2 = gradient_hessian({(1, 2): 0.5}, c, gamma=4.0)
    assert h2[(1, 2)] == -2.0


def test_gradient_hessian_match_finite_differences():
    rng = np.random.default_rng(17)
    c = simple_candidates({1: {2: 1.3, 3: 0.4}, 2: {1: 2.0, 4: 0.9}})
    keys = [(1, 2), (1, 3), (2, 1), (2, 4)]
    for gamma in (1.0, 10.0, 100.0):
        for _ in range(10):
            point = {k: float(rng.uniform(0.05, 0.95)) for k in keys}
            grad, hess = gradient_hessian(point, c, gamma)
            for k in keys:
                h = 1e-6
                up = {**point, k: point[k] + h}
                dn = {**point, k: point[k] - h}
                fd_g = (barrier_objective(up, c, gamma) - barrier_objective(dn, c, gamma)) / (2 * h)
                assert grad[k] == pytest.approx(fd_g, rel=5e-6, abs=1e-9)
                h2 = 1e-4
                up2 = {**point, k: point[k] + h2}
                dn2 = {**point, k: point[k] - h2}
                fd_h = (
                    barrier_objective(up2, c, gamma)
                    - 2.0 * barrier_objective(point, c, gamma)
                    + barrier_objective(dn2, c, gamma)
                ) / h2**2
                assert hess[k] == pytest.approx(fd_h, rel=1e-5, abs=1e-6)
                assert hess[k] < 0.0


def test_accepts_matrix_wrapper():
    c = simple_candidates({1: {2: 0.0}})
    m = RelaxedLinkMatrix(
        L_r={(1, 2): 0.5}, barrier_gamma=1.0, iterations=0, final_decrement=0.0
    )
    assert barrier_objective(m, c, 1.0) == barrier_objective({(1, 2): 0.5}, c, 1.0)


# ------------------------------------------------------------------- solver


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma_init=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma_growth=0.5)
    with pytest.raises(ValueError):
        SolverConfig(backtrack_alpha=0.5)
    with pytest.raises(ValueError):
        SolverConfig(backtrack_tau_shrink=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_newton_iters=0)
    for bad in (math.nan, math.inf, True, "0.25", None):
        for name in ("gamma_init", "gamma_growth", "epsilon_decrement",
                     "backtrack_alpha", "backtrack_tau_shrink"):
            with pytest.raises(ValueError):
                SolverConfig(**{name: bad})
    for bad in (math.nan, math.inf, 2.5, 80.0, True, "80"):
        with pytest.raises(ValueError):
            SolverConfig(max_newton_iters=bad)
    assert SolverConfig(max_newton_iters=np.int64(80)).max_newton_iters == 80
    # the last barrier weight must be finite
    for init, growth in ((10.0, 1e300), (1e300, 1e10), (10.0, 10**400)):
        with pytest.raises(ValueError, match="barrier schedule overflows"):
            SolverConfig(gamma_init=init, gamma_growth=growth)
    assert SolverConfig(gamma_init=2.0, gamma_growth=3.0).final_gamma == 18.0


def test_refine_simplex_and_interior():
    c = simple_candidates({1: {2: 1.0, 3: 2.0, 4: 0.5}, 2: {1: 3.0, 4: 1.0}})
    a = uniform_alloc([1, 2])
    out = newton_refine(c, a)
    assert out.final_decrement <= 1e-8
    assert out.iterations > 0
    assert out.barrier_gamma == 10.0 * 10.0 ** (BARRIER_ROUNDS - 1)
    for i in (1, 2):
        row = [v for (u, k), v in out.L_r.items() if u == i]
        assert all(0.0 < v < 1.0 for v in row)
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-9)


def test_refine_matches_grid_argmax_two_candidates():
    # one UAV, two candidates: the simplex leaves a single free variable,
    # so the barrier optimum can be found by brute scan
    r1, r2 = 1.8, 0.6
    c = simple_candidates({1: {2: r1, 3: r2}})
    out = newton_refine(c, uniform_alloc([1]))
    gamma = out.barrier_gamma
    u = np.linspace(1e-9, 1.0 - 1e-9, 2_000_001)
    phi = r1 * u + r2 * (1.0 - u) + (2.0 / gamma) * (np.log(u) + np.log1p(-u))
    u_star = float(u[int(np.argmax(phi))])
    assert out.L_r[(1, 2)] == pytest.approx(u_star, abs=5e-5)
    assert out.L_r[(1, 3)] == pytest.approx(1.0 - u_star, abs=5e-5)


def test_refine_matches_grid_argmax_physical_rates():
    # same scan at transport-layer scales (rates ~ 1e8)
    r1, r2 = 1.38e8, 0.52e8
    c = simple_candidates({1: {2: r1, 3: r2}})
    out = newton_refine(c, uniform_alloc([1]))
    gamma = out.barrier_gamma
    u = np.linspace(1e-9, 1.0 - 1e-9, 2_000_001)
    phi = r1 * u + r2 * (1.0 - u) + (2.0 / gamma) * (np.log(u) + np.log1p(-u))
    u_star = float(u[int(np.argmax(phi))])
    assert out.L_r[(1, 2)] == pytest.approx(u_star, abs=5e-5)


def test_sharper_barrier_moves_mass_to_best_candidate():
    c = simple_candidates({1: {2: 2.0, 3: 1.0}})
    a = uniform_alloc([1])
    soft = newton_refine(c, a, SolverConfig(gamma_init=10.0, gamma_growth=1.0))
    sharp = newton_refine(c, a, SolverConfig(gamma_init=1000.0, gamma_growth=1.0))
    assert soft.barrier_gamma == 10.0
    assert sharp.barrier_gamma == 1000.0
    assert sharp.L_r[(1, 2)] > soft.L_r[(1, 2)]
    assert sharp.L_r[(1, 2)] > 0.99


def test_single_candidate_pinned_not_relaxed():
    c = simple_candidates({1: {2: 1.0}, 2: {1: 0.5, 4: 1.5}})
    out = newton_refine(c, uniform_alloc([1, 2]))
    assert out.pinned == {1: 2}
    assert all(u != 1 for (u, _k) in out.L_r)


def test_zero_power_uav_skipped():
    c = simple_candidates({1: {2: 1.0, 3: 2.0}, 2: {1: 0.5, 4: 1.5}})
    a = PowerAllocation(
        power={1: 0.0, 2: 1.0},
        water_level_lambda=1.0,
        active_set=(2,),
        throughput_R=0.0,
    )
    out = newton_refine(c, a)
    assert all(u != 1 for (u, _k) in out.L_r)
    assert 1 not in out.pinned


def test_trace_schema_and_monotone_ascent():
    c = simple_candidates({1: {2: 1.7, 3: 0.3, 4: 0.9}})
    trace: list = []
    out = newton_refine(c, uniform_alloc([1]), trace=trace)
    assert out.iterations > 0
    want_keys = {
        "uav_id", "gamma", "iteration", "phi", "decrement", "step_size",
        "constraint_residual",
    }
    assert all(set(row) == want_keys for row in trace)
    assert all(row["constraint_residual"] <= 1e-8 for row in trace)
    # phi is non-decreasing within each barrier round (ascent + Armijo)
    by_round: dict = {}
    for row in trace:
        by_round.setdefault((row["uav_id"], row["gamma"]), []).append(row["phi"])
    for phis in by_round.values():
        assert all(b >= a - 1e-12 for a, b in zip(phis, phis[1:]))
    # iteration indices restart at 0 in every barrier round
    firsts: dict = {}
    for row in trace:
        firsts.setdefault((row["uav_id"], row["gamma"]), row["iteration"])
    assert all(v == 0 for v in firsts.values())


def test_convergence_error_carries_context():
    c = simple_candidates({1: {2: 1.9, 3: 0.2}})
    cfg = SolverConfig(epsilon_decrement=1e-15, max_newton_iters=1)
    with pytest.raises(ConvergenceError) as ei:
        newton_refine(c, uniform_alloc([1]), cfg)
    assert ei.value.uav_id == 1
    assert ei.value.last_decrement > 0.0


def test_underflowing_barrier_scale_is_a_convergence_error():
    # gamma * scale underflows to zero, so the barrier weight 1/(gamma*scale)
    # is undefined: the UAV fails before its first iteration
    c = simple_candidates({1: {2: 5e-324, 3: 0.0}})
    with pytest.raises(ConvergenceError) as ei:
        newton_refine(c, uniform_alloc([1]), SolverConfig(gamma_init=0.1))
    assert str(ei.value) == "UAV 1: Newton decrement nan after 0 iterations at barrier weight 0.1"
    assert ei.value.uav_id == 1 and ei.value.gamma == 0.1
    assert math.isnan(ei.value.last_decrement)
    # a UAV solved beside it keeps its iterates and trace rows
    healthy, cfg = {2: 1.9, 3: 0.2}, SolverConfig(gamma_init=0.1)
    alone: list = []
    newton_refine(simple_candidates({1: healthy}), uniform_alloc([1]), cfg, trace=alone)
    beside: list = []
    with pytest.raises(ConvergenceError, match="UAV 2: Newton decrement nan"):
        newton_refine(simple_candidates({1: healthy, 2: {1: 5e-324, 3: 0.0}}),
                      uniform_alloc([1, 2]), cfg, trace=beside)
    assert alone and repr(beside) == repr(alone)


# ----------------------------------------------------------------- rounding


def test_round_adopts_profitable_swap_and_blocks_cycle():
    t = synth_topology(
        [
            {2: 50.0, 3: 1.0},
            {1: 50.0, 3: 10.0},
        ]
    )
    tree = star_tree(2)
    p = toy_params()
    a = allocate_power(tree, t, 2.0, p)
    c = build_candidates(tree, t, a, p)
    new_tree, after = round_and_update(c, tree, a, t, p)
    # uav1 defects to uav2 (gain 50 beats 1); uav2 must then stay on the
    # ground station or the pair would form a 2-cycle
    assert new_tree.parent == {1: 2, 2: 3}
    assert validate_tree(new_tree, t).ok
    before = a.throughput_R
    assert after > before


def test_round_keeps_tree_when_no_candidate_helps():
    t = synth_topology(
        [
            {2: 0.01, 3: 5.0},
            {1: 0.01, 3: 5.0},
        ]
    )
    tree = star_tree(2)
    p = toy_params()
    a = allocate_power(tree, t, 2.0, p)
    c = build_candidates(tree, t, a, p)
    new_tree, after = round_and_update(c, tree, a, t, p)
    assert new_tree.parent == tree.parent
    assert after == pytest.approx(a.throughput_R, rel=1e-15)


def test_round_breaks_rate_ties_toward_lowest_neighbor():
    # uav3 sees uav1 and uav2 at one gain, both above its ground-station link
    t = synth_topology(
        [
            {3: 2.0, 4: 5.0},
            {3: 2.0, 4: 5.0},
            {1: 2.0, 2: 2.0, 4: 0.5},
        ]
    )
    tree = star_tree(3)
    p = toy_params()
    a = uniform_alloc([1, 2, 3])
    c = build_candidates(tree, t, a, p)
    assert c.candidates[3][0].rate == c.candidates[3][1].rate
    new_tree, _ = round_and_update(c, tree, a, t, p)
    assert new_tree.parent == {1: 4, 2: 4, 3: 1}


def test_round_never_decreases_throughput_random():
    rng = np.random.default_rng(31)
    from fanetsim.model import ChannelParams

    p = ChannelParams()
    for _ in range(30):
        n = int(rng.integers(2, 8))
        t = random_cluster_topology(rng, n)
        tree = build_spt(t)
        a = allocate_power(tree, t, 1.0, p)
        c = build_candidates(tree, t, a, p)
        if not c.candidates:
            continue
        new_tree, after = round_and_update(c, tree, a, t, p)
        assert after >= a.throughput_R
        rep = validate_tree(new_tree, t)
        assert rep.ok
        # recomputed path costs are summed link lengths along the tree
        for i in t.uav_ids:
            cost = 0.0
            node = i
            while node != t.gs.id:
                nxt = new_tree.parent[node]
                na, nb = t.node(node), t.node(nxt)
                cost += math.hypot(na.x - nb.x, na.y - nb.y)
                node = nxt
            assert new_tree.path_cost[i] == pytest.approx(cost, rel=1e-12)


def reference_round(c, tree, alloc, t, p):
    """Rounding as first written: copy the parent map and re-validate the
    whole tree for every proposal. round_and_update must agree with it."""
    parent = dict(tree.parent)
    proposals = []
    for i in sorted(c.candidates):
        best = sorted(c.candidates[i], key=lambda cand: (-cand.rate, cand.neighbor))[0]
        current_rate = link_capacity(alloc.power[i], t.gain(i, parent[i]), p)
        proposals.append((best.rate - current_rate, i, best))
    proposals.sort(key=lambda pr: (-pr[0], pr[1]))
    for gain, i, cand in proposals:
        if gain <= 0.0:
            continue
        trial = dict(parent)
        trial[i] = cand.neighbor
        if validate_tree(RoutingTree(parent=trial, path_cost={}), t).ok:
            parent = trial
    throughput = math.fsum(
        link_capacity(alloc.power[i], t.gain(i, parent[i]), p) for i in sorted(parent)
    )
    return parent, throughput


@st.composite
def rounding_instances(draw):
    """A random valid tree with random extra links, powers and candidate
    lists (any node id, including the UAV itself, its subtree and
    inadmissible nodes). Gains are often drawn from two values, so a UAV's
    candidates often tie on rate."""
    n = draw(st.integers(2, 7))
    gs = n + 1
    order = draw(st.permutations(range(1, n + 1)))
    parent = {}
    for pos, i in enumerate(order):
        parent[i] = draw(st.sampled_from([gs, *order[:pos]]))
    gain = st.one_of(st.sampled_from([1.0, 4.0]), st.floats(1e-3, 1e3))
    rows = [{} for _ in range(n)]
    for i, j in parent.items():
        rows[i - 1][j] = draw(gain)
        if j != gs:
            rows[j - 1][i] = draw(gain)
    for i in range(1, n + 1):
        for j in draw(st.sets(st.integers(1, gs), max_size=n)) - {i}:
            rows[i - 1].setdefault(j, draw(gain))
    t = synth_topology(rows)
    p = toy_params()
    power = {i: draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 10.0])) for i in range(1, gs)}
    cand_lists = {}
    for i in range(1, gs):
        ks = sorted(draw(st.sets(st.integers(1, gs), max_size=4)))
        if ks:
            cand_lists[i] = tuple(
                Candidate(neighbor=k, rate=link_capacity(power[i], t.gain(i, k), p)
                          if t.gain(i, k) > 0.0 else draw(st.floats(0.0, 100.0)))
                for k in ks
            )
    alloc = PowerAllocation(power=power, water_level_lambda=1.0,
                            active_set=tuple(sorted(power)), throughput_R=0.0)
    tree = RoutingTree(parent=parent, path_cost={})
    return CandidateSet(candidates=cand_lists), tree, alloc, t, p


@settings(max_examples=300, deadline=None)
@given(rounding_instances())
def test_round_matches_revalidating_reference(instance):
    c, tree, alloc, t, p = instance
    want_parent, want_throughput = reference_round(c, tree, alloc, t, p)
    got_tree, got_throughput = round_and_update(c, tree, alloc, t, p)
    assert got_tree.parent == want_parent
    assert got_throughput == want_throughput
    assert validate_tree(got_tree, t).ok


def test_round_rejects_cyclic_tree():
    t = full_mesh_3()
    p = toy_params()
    c = simple_candidates({3: {4: 1.0}})
    cyclic = RoutingTree(parent={1: 2, 2: 1, 3: 1}, path_cost={})
    with pytest.raises(ValueError, match="invalid"):
        round_and_update(c, cyclic, uniform_alloc([1, 2, 3]), t, p)


# ------------------------------------------- Newton's choice is the rate choice


def newton_choice(relaxed, c, i):
    """The neighbor that rounding on Newton's output would adopt for UAV i:
    the pinned one, else the largest L_r with the lowest neighbor on ties."""
    if i in relaxed.pinned:
        return relaxed.pinned[i]
    return max(c.candidates[i],
               key=lambda cand: (relaxed.L_r[(i, cand.neighbor)], -cand.neighbor)).neighbor


@st.composite
def near_tie_problems(draw):
    """1-4 powered UAVs with 2-8 candidates each. Each UAV's top two rates
    are exactly equal, 1 ulp apart, 1e-15 to 1e-4 apart (relative), or
    unconstrained."""
    cands = {}
    for i in range(1, draw(st.integers(1, 4)) + 1):
        m = draw(st.integers(2, 8))
        rates = draw(st.lists(st.floats(1e6, 1e8), min_size=m, max_size=m))
        top = max(rates)
        j = draw(st.sampled_from([k for k in range(m) if k != rates.index(top)]))
        gap = draw(st.sampled_from(["tie", "ulp", "relative", "free"]))
        if gap == "tie":
            rates[j] = top
        elif gap == "ulp":
            rates[j] = math.nextafter(top, 0.0)
        elif gap == "relative":
            rates[j] = top * (1.0 - 10.0 ** draw(st.floats(-15.0, -4.0)))
        neighbors = sorted(draw(st.sets(st.integers(5, 60), min_size=m, max_size=m)))
        cands[i] = tuple(map(Candidate, neighbors, rates))
    power = draw(st.sampled_from([1e-3, 1.0]))
    return CandidateSet(candidates=cands), uniform_alloc(list(cands), power)


@settings(max_examples=300, deadline=None)
@given(near_tie_problems())
def test_newton_choice_is_the_highest_rate_candidate(problem):
    c, alloc = problem
    try:
        relaxed = newton_refine(c, alloc)
    except ConvergenceError:
        return  # Newton gives up on some tied top rates; rounding does not read it
    for i, cands in c.candidates.items():
        best = max(cands, key=lambda cand: (cand.rate, -cand.neighbor))
        chosen = c.lookup(i, newton_choice(relaxed, c, i))
        first, second = sorted((cand.rate for cand in cands), reverse=True)[:2]
        if first == second or first - second >= 1e-6 * first:
            assert chosen == best
        else:
            # below a 1e-6 gap Newton's tolerance may pick the runner-up
            assert chosen.rate >= best.rate * (1.0 - 1e-6)
