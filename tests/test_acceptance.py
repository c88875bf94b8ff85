"""Acceptance gate: ten numbered criteria, each printing one verdict line.

Every test computes its own pass condition at the stated tolerance, records
a PASS/FAIL line for the terminal summary, and then asserts, so a red test
still leaves its verdict in the report. The whole module is sized to finish
in well under a minute.
"""

import math

import numpy as np

from fanetsim.harness import ScenarioConfig, generate_scenario, run_pipeline, sweep
from fanetsim.harness import write_rows_csv
from fanetsim.linksel import (
    Candidate,
    CandidateSet,
    barrier_objective,
    build_candidates,
    gradient_hessian,
    newton_refine,
    round_and_update,
)
from fanetsim.model import ChannelParams, link_capacity
from fanetsim.oracle import grid_power_oracle, tree_enum_oracle
from fanetsim.power import PowerAllocation, allocate_power
from fanetsim.routing import build_spt

from conftest import ACCEPTANCE_REPORT, random_cluster_topology, star_tree, synth_topology, toy_params


def _report(idx: int, ok: bool, detail: str) -> str:
    line = f"criterion {idx:2d} {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_REPORT.append(line)
    return line


def test_criterion_01_waterfilling_matches_grid_oracle():
    rng = np.random.default_rng(101)
    p = ChannelParams()
    worst_gap, worst_kkt = 0.0, 0.0
    for trial in range(50):
        n = trial % 4 + 1
        t = random_cluster_topology(rng, n)
        tree = build_spt(t)
        floors = [p.noise_power / t.gain(i, tree.parent[i]) for i in sorted(tree.parent)]
        # deep-water budgets keep every link active, so the 1e-3 grid's
        # discretization loss stays inside the 1e-6 band
        pb = float(rng.uniform(100.0, 1000.0)) * n * max(floors)
        alloc = allocate_power(tree, t, pb, p)
        ref = grid_power_oracle(tree, t, pb, p, resolution=1e-3)
        worst_gap = max(worst_gap, abs(alloc.throughput_R - ref.best_value) / ref.best_value)
        marginals = [
            t.gain(i, tree.parent[i]) / (p.noise_power + alloc.power[i] * t.gain(i, tree.parent[i]))
            for i in alloc.active_set
        ]
        spread = (max(marginals) - min(marginals)) / max(marginals)
        worst_kkt = max(worst_kkt, spread)
    ok = worst_gap <= 1e-6 and worst_kkt <= 1e-8
    line = _report(
        1, ok,
        f"water-filling vs grid oracle: worst gap {worst_gap:.2e} (tol 1e-6), "
        f"worst active-set marginal spread {worst_kkt:.2e} (tol 1e-8), 50 instances n<=4",
    )
    assert ok, line


def test_criterion_02_clamped_branch_exact():
    t = synth_topology([{3: 1.0}, {3: 100.0}])
    a = allocate_power(star_tree(2), t, 0.1, toy_params())
    ok = a.power[1] == 0.0 and a.power[2] == 0.1 and a.active_set == (2,)
    line = _report(
        2, ok,
        f"clamped hand case h=(1,100), P_b=0.1 -> P=({a.power[1]!r}, {a.power[2]!r}), "
        "expected exactly (0.0, 0.1)",
    )
    assert ok, line


def test_criterion_03_budget_conservation():
    rng = np.random.default_rng(103)
    p = toy_params()
    worst = 0.0
    clamped = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        gains = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
        t = synth_topology([{n + 1: float(g)} for g in gains])
        pb = float(10.0 ** rng.uniform(-3.0, 2.0))
        a = allocate_power(star_tree(n), t, pb, p)
        worst = max(worst, abs(math.fsum(a.power.values()) - pb) / pb)
        if len(a.active_set) < n:
            clamped += 1
    ok = worst <= 1e-9 and clamped >= 100
    line = _report(
        3, ok,
        f"budget conservation: worst relative error {worst:.2e} (tol 1e-9) over 1000 "
        f"instances, {clamped} with clamped links",
    )
    assert ok, line


def test_criterion_04_rate_curvature_negative():
    rng = np.random.default_rng(104)
    p = ChannelParams()
    checked, worst = 0, -math.inf
    for _ in range(50):
        gain = float(10.0 ** rng.uniform(-11.0, -8.0))
        for _ in range(10):
            watts = float(10.0 ** rng.uniform(-3.0, 1.0))
            h = 1e-2 * watts
            up = link_capacity(watts + h, gain, p)
            mid = link_capacity(watts, gain, p)
            dn = link_capacity(watts - h, gain, p)
            curv = (up - 2.0 * mid + dn) / h**2
            worst = max(worst, curv)
            checked += 1
    ok = worst < 0.0
    line = _report(
        4, ok,
        f"rate curvature in power: max finite-difference curvature {worst:.3e} < 0 "
        f"at {checked} points (50 gains x 10 powers)",
    )
    assert ok, line


def test_criterion_05_barrier_calculus_matches_fd():
    rng = np.random.default_rng(105)
    gamma = 100.0
    keys = [(1, 2), (1, 3), (2, 1), (2, 4)]
    c = CandidateSet(
        candidates={
            1: (Candidate(2, float(rng.uniform(0.5, 3.0))), Candidate(3, float(rng.uniform(0.5, 3.0)))),
            2: (Candidate(1, float(rng.uniform(0.5, 3.0))), Candidate(4, float(rng.uniform(0.5, 3.0)))),
        }
    )
    worst_g, worst_h = 0.0, 0.0
    for _ in range(20):
        point = {k: float(rng.uniform(0.1, 0.85)) for k in keys}
        grad, hess = gradient_hessian(point, c, gamma)
        for k in keys:
            h1 = 1e-6
            fd_g = (
                barrier_objective({**point, k: point[k] + h1}, c, gamma)
                - barrier_objective({**point, k: point[k] - h1}, c, gamma)
            ) / (2.0 * h1)
            worst_g = max(worst_g, abs(fd_g - grad[k]) / abs(grad[k]))
            h2 = 1e-4
            fd_h = (
                barrier_objective({**point, k: point[k] + h2}, c, gamma)
                - 2.0 * barrier_objective(point, c, gamma)
                + barrier_objective({**point, k: point[k] - h2}, c, gamma)
            ) / h2**2
            worst_h = max(worst_h, abs(fd_h - hess[k]) / abs(hess[k]))
    ok = worst_g <= 1e-5 and worst_h <= 1e-4
    line = _report(
        5, ok,
        f"barrier calculus vs central differences: gradient off by {worst_g:.2e} "
        f"(tol 1e-5), Hessian diagonal by {worst_h:.2e} (tol 1e-4), 20 interior points",
    )
    assert ok, line


def test_criterion_06_newton_convergence():
    rng = np.random.default_rng(106)
    worst_dec, worst_res, worst_iter = 0.0, 0.0, 0
    for _ in range(50):
        n_uavs = int(rng.integers(2, 7))
        cands = {}
        powers = {}
        for i in range(1, n_uavs + 1):
            m = int(rng.integers(2, 6))
            neighbors = rng.choice(np.arange(100, 200), size=m, replace=False)
            cands[i] = tuple(
                Candidate(int(k), float(10.0 ** rng.uniform(7.0, 8.5)))
                for k in sorted(neighbors)
            )
            powers[i] = float(rng.uniform(0.01, 1.0))
        c = CandidateSet(candidates=cands)
        alloc = PowerAllocation(
            power=powers, water_level_lambda=1.0,
            active_set=tuple(sorted(powers)), throughput_R=0.0,
        )
        trace: list = []
        out = newton_refine(c, alloc, trace=trace)
        worst_dec = max(worst_dec, out.final_decrement)
        worst_res = max(worst_res, max(r["constraint_residual"] for r in trace))
        worst_iter = max(worst_iter, max(r["iteration"] for r in trace))
    ok = worst_dec <= 1e-8 and worst_res <= 1e-8 and worst_iter < 100
    line = _report(
        6, ok,
        f"Newton refinement: worst final decrement {worst_dec:.2e} (tol 1e-8), worst "
        f"constraint residual {worst_res:.2e} (tol 1e-8), max {worst_iter + 1} "
        "iterations in any barrier round (cap 100), 50 candidate sets",
    )
    assert ok, line


def test_criterion_07_refinement_dominates_at_n25():
    improvements = []
    dominated = True
    for seed in range(100):
        cfg = ScenarioConfig(n_uavs=25, seed=seed, trials=1, measure_wall_time=False)
        row = run_pipeline(generate_scenario(cfg), cfg)
        dominated &= row.throughput_p14_bps >= row.throughput_p11_bps
        improvements.append(row.throughput_p14_bps - row.throughput_p11_bps)
    mean_gain = float(np.mean(improvements))
    ok = dominated and mean_gain > 0.0
    line = _report(
        7, ok,
        f"refined >= initial throughput on all 100 seeds at n=25: {dominated}, "
        f"mean improvement {mean_gain:.3e} bps",
    )
    assert ok, line


def test_criterion_08_pipeline_bracketed_by_oracle():
    gaps = []
    ok = True
    for seed in range(100):
        n = 4 + seed % 3
        cfg = ScenarioConfig(
            n_uavs=n, area_side=10000.0, min_separation=300.0, seed=seed,
            trials=1, measure_wall_time=False,
        )
        topo = generate_scenario(cfg)
        row = run_pipeline(topo, cfg)
        ref = tree_enum_oracle(topo, cfg.scalar_pb(), cfg.channel)
        lower_ok = row.throughput_p14_bps >= row.throughput_p11_bps
        upper_ok = row.throughput_p14_bps <= ref.best_value * (1.0 + 1e-9)
        ok &= lower_ok and upper_ok
        gaps.append(1.0 - row.throughput_p14_bps / ref.best_value)
    mean_gap = float(np.mean(gaps))
    line = _report(
        8, ok,
        f"pipeline between SPT water-fill and tree-enumeration oracle on 100 seeds "
        f"(n in 4..6): {ok}, mean gap to oracle {mean_gap:.3%}",
    )
    assert ok, line


def test_criterion_09_sweep_shape():
    budgets = [0.4, 0.8, 1.2, 1.6, 2.0]
    trials = 30
    per_seed = np.empty((trials, len(budgets)))
    for col, pb in enumerate(budgets):
        for trial in range(trials):
            cfg = ScenarioConfig(
                n_uavs=25, power_budget_Pb=pb, seed=trial, trials=1,
                measure_wall_time=False,
            )
            per_seed[trial, col] = run_pipeline(generate_scenario(cfg), cfg).throughput_p14_bps
    means = per_seed.mean(axis=0)
    nondecreasing = bool(np.all(np.diff(means) >= 0.0))
    # paired per-seed second differences against their own standard error
    second = per_seed[:, 2:] - 2.0 * per_seed[:, 1:-1] + per_seed[:, :-2]
    se = second.std(axis=0, ddof=1) / math.sqrt(trials)
    concave = bool(np.all(second.mean(axis=0) <= se))

    fleet_means = {}
    for n in (20, 25, 30):
        vals = []
        for trial in range(trials):
            cfg = ScenarioConfig(n_uavs=n, seed=trial, trials=1, measure_wall_time=False)
            vals.append(run_pipeline(generate_scenario(cfg), cfg).throughput_p14_bps)
        fleet_means[n] = float(np.mean(vals))
    gain_20_25 = fleet_means[25] - fleet_means[20]
    gain_25_30 = fleet_means[30] - fleet_means[25]
    diminishing = gain_25_30 < gain_20_25

    ok = nondecreasing and concave and diminishing
    line = _report(
        9, ok,
        f"sweep shape: mean throughput nondecreasing in budget {nondecreasing}, "
        f"second differences <= 1 SE {concave}, fleet gain 25->30 ({gain_25_30:.3e}) "
        f"< 20->25 ({gain_20_25:.3e}) {diminishing}",
    )
    assert ok, line


def test_criterion_10_sweep_determinism():
    import io

    cfg = ScenarioConfig(
        n_uavs=[5, 8], power_budget_Pb=[0.5, 1.0], seed=3, trials=3,
        area_side=10000.0, min_separation=300.0, measure_wall_time=False,
    )
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        write_rows_csv(sweep(cfg).rows, buf)
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1]
    line = _report(
        10, ok,
        f"two identical sweeps produced byte-identical CSV ({len(outputs[0])} bytes): {ok}",
    )
    assert ok, line
