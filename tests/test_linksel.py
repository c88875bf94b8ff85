"""Barrier relaxation, projected Newton solver, and rounding."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanetsim.harness import ScenarioConfig, generate_scenario, select_links
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
from fanetsim.power import AllocationError, PowerAllocation, allocate_power
from fanetsim.routing import RoutingTree, build_spt, path_costs, validate_tree

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
    return CandidateSet.from_candidates(
        {
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
    for i, cands in c.candidates.items():
        for cand in cands:
            assert cand.rate == link_capacity(a.power[i], t.gain(i, cand.neighbor), p)


@pytest.mark.parametrize("evaluate", [barrier_objective, gradient_hessian])
@pytest.mark.parametrize("pair", [(1, 3), (2, 1)])
def test_unknown_pair_raises_key_error(evaluate, pair):
    # UAV 1 has a row without neighbor 3; UAV 2 has no row
    c = simple_candidates({1: {2: 1.0}, 3: {1: 2.0}})
    with pytest.raises(KeyError, match=rf"\({pair[0]}, {pair[1]}\) is not a candidate pair"):
        evaluate({(1, 2): 0.5, pair: 0.5}, c, 1.0)


def test_build_candidates_reports_an_overflowing_rate():
    # B * log2(1 + 50) is past the float range on UAV 1's link to UAV 2
    t = synth_topology([{2: 50.0, 3: 1.0}, {1: 50.0, 3: 10.0}])
    p = toy_params(bandwidth=1e308, noise=1e-308)
    with pytest.raises(AllocationError, match="rate overflows"):
        build_candidates(star_tree(2), t, uniform_alloc([1, 2]), p)


def test_candidate_table_layout_and_view():
    c = simple_candidates({3: {4: 2.0, 1: 1.0}, 1: {2: 0.5}})
    assert c.uavs.tolist() == [1, 3]
    assert c.indptr.tolist() == [0, 1, 3]
    assert c.neighbor.tolist() == [2, 1, 4]
    assert c.rate.tolist() == [0.5, 1.0, 2.0]
    assert dict(c.candidates) == {1: (Candidate(2, 0.5),),
                                  3: (Candidate(1, 1.0), Candidate(4, 2.0))}
    assert [(i, cand) for i, cands in c.candidates.items() for cand in cands] == [
        (1, Candidate(2, 0.5)), (3, Candidate(1, 1.0)), (3, Candidate(4, 2.0))]
    with pytest.raises(TypeError):
        c.candidates[5] = ()
    for arr in (c.uavs, c.indptr, c.neighbor, c.rate):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_candidate_table_takes_zero_and_extreme_finite_rates():
    top = sys.float_info.max
    c = simple_candidates({1: {2: 0.0, 3: -0.0, 4: 5e-324, 5: top}})
    assert [r.hex() for r in c.rate.tolist()] == [r.hex() for r in (0.0, -0.0, 5e-324, top)]
    assert CandidateSet([], [0], [], []).candidates == {}


# A nan rate passes every comparison that rounding makes: on a 3-UAV star
# the first row below moved UAV 1 onto UAV 2, and Newton failed on it with a
# nan decrement after 0 iterations. Each is now refused where it enters.
@pytest.mark.parametrize("rows, message", [
    ({1: (Candidate(2, math.nan), Candidate(3, 1.0))}, "rate nan of UAV 1 toward 2 "),
    ({1: (Candidate(2, 1.0), Candidate(3, math.inf))}, "rate inf of UAV 1 toward 3 "),
    ({1: (Candidate(2, -math.inf),)}, "rate -inf of UAV 1 toward 2 "),
    ({2: (Candidate(1, 1.0),), 4: (Candidate(1, -1e-300),)}, "rate -1e-300 of UAV 4 toward 1 "),
    ({1: (Candidate(3, 1.0), Candidate(2, 2.0))}, "neighbors of UAV 1 do not strictly ascend"),
    ({1: (Candidate(2, 1.0),), 3: (Candidate(2, 1.0), Candidate(2, 2.0))},
     "neighbors of UAV 3 do not strictly ascend"),
    ({1: (Candidate(2, 1.0),), 2: ()}, "UAV 2 has no candidates"),
])
def test_candidate_table_rejects_bad_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        CandidateSet.from_candidates(rows)


@pytest.mark.parametrize("uavs, indptr, neighbor, rate", [
    ([1, 2], [0, 1], [3], [1.0]),  # one indptr entry short
    ([1], [1, 1], [3], [1.0]),  # not from 0
    ([1], [0, 2], [3], [1.0]),  # past the candidates
    ([1], [0, 1], [3], [1.0, 2.0]),  # a rate without a neighbor
    ([2, 1], [0, 1, 2], [3, 3], [1.0, 1.0]),  # UAVs out of order
    ([1, 1], [0, 1, 2], [3, 4], [1.0, 1.0]),  # a UAV listed twice
    ([[1]], [0, 1], [3], [1.0]),  # not one-dimensional
    ([1], [0, 1], [2.5], [1.0]),  # a fractional neighbor id
    ([True], [0, 1], [3], [1.0]),  # a bool UAV id
    ([1], [0, 1], [3], ["1.0"]),  # a text rate
])
def test_candidate_table_rejects_bad_layout(uavs, indptr, neighbor, rate):
    with pytest.raises(ValueError):
        CandidateSet(uavs, indptr, neighbor, rate)


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


@pytest.mark.parametrize("power", [math.nan, math.inf, -1.0])
def test_refine_rejects_a_power_that_is_not_finite_and_nonnegative(power):
    # UAV 2 holds the bad power, pinned to one candidate or relaxed over two
    for rows in ({1: {2: 1.0, 3: 2.0}, 2: {1: 0.5}}, {1: {2: 1.0, 3: 2.0}, 2: {1: 0.5, 4: 1.5}}):
        a = PowerAllocation(power={1: 1.0, 2: power}, water_level_lambda=1.0,
                            active_set=(1, 2), throughput_R=0.0)
        with pytest.raises(ValueError) as ei:
            newton_refine(simple_candidates(rows), a)
        assert str(ei.value) == f"allocated power {power!r} of UAV 2 is not finite and nonnegative"


def test_refine_huge_finite_power_is_a_convergence_error():
    # p.p overflows, so the projection onto the constraint plane is lost
    c = simple_candidates({1: {2: 1.0, 3: 2.0}})
    with pytest.raises(ConvergenceError) as ei:
        newton_refine(c, uniform_alloc([1], power=1e300))
    assert str(ei.value) == "UAV 1: Newton decrement nan after 0 iterations at barrier weight 10"


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


def test_trace_stops_after_the_first_failing_uav():
    # UAV 2's tied top rates make its line search give up; UAV 3 solves
    # beside it, but the trace ends with UAV 2's rows. Each UAV's rows are
    # the ones it gives alone, grouped by UAV id and in pass order.
    tied = [37881151.2, 45097485.8, 68331279.2, 78905767.5, 1e8, 1e8]
    rows = {1: {2: 4.1e7, 3: 2.2e7, 4: 6.5e7}, 2: dict(zip([1, 3, 4, 5, 6, 7], tied)),
            3: {1: 3.0e7, 2: 5.5e7}}
    trace: list = []
    with pytest.raises(ConvergenceError, match="UAV 2: .* at barrier weight 1000$"):
        newton_refine(simple_candidates(rows), uniform_alloc([1, 2, 3]), trace=trace)
    alone: dict = {1: [], 2: []}
    newton_refine(simple_candidates({1: rows[1]}), uniform_alloc([1]), trace=alone[1])
    with pytest.raises(ConvergenceError):
        newton_refine(simple_candidates({2: rows[2]}), uniform_alloc([2]), trace=alone[2])
    assert [row["uav_id"] for row in trace] == [1] * len(alone[1]) + [2] * len(alone[2])
    assert repr(trace) == repr(alone[1] + alone[2])
    for rows_of_uav in alone.values():
        passes = [(row["gamma"], row["iteration"]) for row in rows_of_uav]
        assert passes == sorted(set(passes))
    # Python numbers only: an np.float64 would print as np.float64(...) in
    # the trace CSV
    assert {type(value) for row in trace for value in row.values()} == {int, float}
    assert all(type(row[key]) is int for row in trace for key in ("uav_id", "iteration"))


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
    inadmissible nodes); one row in four keeps a single candidate. Gains are
    often drawn from 1.0, 4.0 and the float after 4.0, so a UAV's candidates
    often tie on rate or sit 1 ulp apart, and inadmissible candidates often
    take the row's top rate or a float beside it."""
    n = draw(st.integers(2, 7))
    gs = n + 1
    order = draw(st.permutations(range(1, n + 1)))
    parent = {}
    for pos, i in enumerate(order):
        parent[i] = draw(st.sampled_from([gs, *order[:pos]]))
    gain = st.one_of(st.sampled_from([1.0, 4.0, math.nextafter(4.0, math.inf)]),
                     st.floats(1e-3, 1e3))
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
        if not ks:
            continue
        if draw(st.integers(0, 3)) == 0:
            ks = ks[:1]
        priced = {k: link_capacity(power[i], t.gain(i, k), p) for k in ks if t.gain(i, k) > 0.0}
        # Inadmissible candidates take a free rate, the row's top priced rate,
        # or a rate 1 ulp beside it; a row may take one rate throughout.
        top = max(priced.values(), default=draw(st.floats(0.0, 100.0)))
        near = [top, math.nextafter(top, math.inf), math.nextafter(top, 0.0)]
        rate = st.floats(0.0, 100.0) | st.sampled_from(near)
        if draw(st.booleans()):
            rate = st.just(draw(rate))
        cand_lists[i] = tuple(Candidate(neighbor=k, rate=priced[k] if k in priced else draw(rate))
                              for k in ks)
    alloc = PowerAllocation(power=power, water_level_lambda=1.0,
                            active_set=tuple(sorted(power)), throughput_R=0.0)
    tree = RoutingTree(parent=parent, path_cost={})
    return CandidateSet.from_candidates(cand_lists), tree, alloc, t, p


@settings(max_examples=300, deadline=None)
@given(rounding_instances())
def test_round_matches_revalidating_reference(instance):
    c, tree, alloc, t, p = instance
    want_parent, want_throughput = reference_round(c, tree, alloc, t, p)
    got_tree, got_throughput = round_and_update(c, tree, alloc, t, p)
    assert got_tree.parent == want_parent
    assert got_throughput == want_throughput
    assert validate_tree(got_tree, t).ok


def nested_swaps(first_gain):
    """A shortest-path tree 1 -> 7, 2 -> 7, 6 -> 7, 3 -> 1, 4 -> 2, 5 -> 4
    (every link 1 m long, the ground station 7) and its candidates at 1 W.
    Rounding moves UAV 2 under UAV 3, and UAV 6 under UAV 5, which then
    lies in UAV 2's new subtree; UAV 6's gain of ``first_gain`` against
    UAV 2's 2.0 decides which swap comes first (UAV 2 on a tie)."""
    t = synth_topology([{7: 1.0}, {7: 1.0, 3: 2.0}, {1: 1.0}, {2: 1.0}, {4: 1.0},
                        {7: 1.0, 5: first_gain}])
    p = toy_params()
    spt = build_spt(t)
    alloc = uniform_alloc(t.uav_ids)
    return t, p, spt, alloc, build_candidates(spt, t, alloc, p)


def hexes(costs):
    return [(i, c.hex()) for i, c in costs.items()]


@pytest.mark.parametrize("first_gain", [2.0, 3.0], ids=["uav2_first", "uav6_first"])
def test_round_recounts_a_swap_inside_another_swaps_subtree(first_gain):
    t, p, spt, alloc, c = nested_swaps(first_gain)
    assert spt.parent == {1: 7, 2: 7, 3: 1, 4: 2, 5: 4, 6: 7}
    refined, _ = round_and_update(c, spt, alloc, t, p)
    assert refined.parent == {1: 7, 2: 3, 3: 1, 4: 2, 5: 4, 6: 5}
    assert refined.path_cost == {1: 1.0, 2: 3.0, 3: 2.0, 4: 4.0, 5: 5.0, 6: 6.0}
    assert hexes(refined.path_cost) == hexes(path_costs(refined.parent, t, "distance"))


def test_round_sums_every_cost_of_a_callers_tree():
    # A caller's tree does not carry its own path costs, so none are reused.
    t, p, spt, alloc, c = nested_swaps(2.0)
    mine = RoutingTree(dict(spt.parent), {})
    refined, _ = round_and_update(c, mine, alloc, t, p)
    assert hexes(refined.path_cost) == hexes(path_costs(refined.parent, t, "distance"))
    stale = RoutingTree(dict(spt.parent), {i: 9.0 for i in t.uav_ids})
    assert round_and_update(c, stale, alloc, t, p)[0].path_cost == refined.path_cost


@pytest.mark.parametrize("weight", ["distance", "hops"])
@pytest.mark.parametrize("pb, min_swaps", [(1.0, 100), (1e-3, 1)], ids=["1w", "1mw"])
def test_refined_path_costs_equal_a_full_recount(pb, min_swaps, weight):
    # At 1 W rounding accepts about 124 swaps on these layouts, at 1 mW about 4.
    for seed in (0, 1):
        cfg = ScenarioConfig(n_uavs=200, area_side=40000.0, min_separation=300.0, seed=seed,
                             power_budget_Pb=pb, spt_weight=weight, measure_wall_time=False)
        t = generate_scenario(cfg)
        spt = build_spt(t, weight)
        refined = select_links(t, cfg).refined_tree
        assert sum(refined.parent[i] != spt.parent[i] for i in t.uav_ids) >= min_swaps
        assert hexes(refined.path_cost) == hexes(path_costs(refined.parent, t, weight))


def test_round_rejects_cyclic_tree():
    t = full_mesh_3()
    p = toy_params()
    c = simple_candidates({3: {4: 1.0}})
    cyclic = RoutingTree(parent={1: 2, 2: 1, 3: 1}, path_cost={})
    with pytest.raises(ValueError, match="invalid"):
        round_and_update(c, cyclic, uniform_alloc([1, 2, 3]), t, p)


def test_round_rejects_a_swap_that_lowers_its_own_link():
    # UAV 1 claims 100.0 toward 3 but that link prices at 1.0, below its
    # current log2(5); UAV 2's true swap to 3 gains more than UAV 1 loses,
    # so a check on the summed throughput alone would let both through.
    t = synth_topology([{4: 4.0, 3: 1.0}, {4: 1.0, 3: 16.0}, {4: 1.0}])
    p = toy_params()
    c = simple_candidates({1: {3: 100.0}, 2: {3: link_capacity(1.0, 16.0, p)}})
    with pytest.raises(ValueError, match=(
            r"^UAV 1's link to 3 prices at 1\.0, below its current 2\.321928094887362: "
            r"candidate rates disagree with the allocation$")):
        round_and_update(c, star_tree(3), uniform_alloc([1, 2, 3]), t, p)


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
    return CandidateSet.from_candidates(cands), uniform_alloc(list(cands), power)


@settings(max_examples=300, deadline=None)
@given(near_tie_problems())
# A tied top pair 1 ulp above a third rate: Newton picks that third one.
@example((CandidateSet.from_candidates({1: tuple(map(
    Candidate, (5, 6, 7), (96461131.99999999, 96461132.0, 96461132.0)))}),
    uniform_alloc([1], 1e-3)))
def test_newton_choice_is_the_highest_rate_candidate(problem):
    c, alloc = problem
    try:
        relaxed = newton_refine(c, alloc)
    except ConvergenceError:
        return  # Newton gives up on some tied top rates; rounding does not read it
    for i, cands in c.candidates.items():
        best = max(cands, key=lambda cand: (cand.rate, -cand.neighbor))
        chosen = next(cand for cand in cands if cand.neighbor == newton_choice(relaxed, c, i))
        top = best.rate
        below = max((cand.rate for cand in cands if cand.rate < top), default=None)
        if below is None or top - below >= 1e-6 * top:
            assert chosen == best
        else:
            # below a 1e-6 gap Newton's tolerance may pick the runner-up
            assert chosen.rate >= best.rate * (1.0 - 1e-6)
