"""Scenario generation, pipeline runs, sweeps, and CSV output."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from fanetsim.harness import (
    AGGREGATE_CSV_HEADER,
    CSV_HEADER,
    ConfigError,
    PlacementError,
    ScenarioConfig,
    generate_scenario,
    run_pipeline,
    select_links,
    sweep,
    write_aggregates_csv,
    write_rows_csv,
)
from fanetsim.linksel import ConvergenceError
from fanetsim.model import ChannelParams
from fanetsim.routing import build_spt

from conftest import admissible_neighbors


def small_cfg(**kw):
    base = dict(n_uavs=6, area_side=8000.0, min_separation=300.0, seed=5,
                power_budget_Pb=1.0, trials=2, measure_wall_time=False)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(n_uavs=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(area_side=-1.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(min_separation=20000.0)  # >= area_side
    # placement squares the separation: a float square that overflows, or an
    # int square beyond the float range, is refused up front
    for bad in (1.35e154, 10**160):
        with pytest.raises(ConfigError, match="squared is beyond the float range"):
            ScenarioConfig(area_side=1e300, min_separation=bad)
    assert ScenarioConfig(area_side=1e300, min_separation=1.3e154).min_separation == 1.3e154
    with pytest.raises(ConfigError):
        ScenarioConfig(power_budget_Pb=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(power_budget_Pb=[1.0, -2.0])
    with pytest.raises(ConfigError):
        ScenarioConfig(trials=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(spt_weight="gain")
    with pytest.raises(ConfigError):
        ScenarioConfig(altitude_H=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("area_side", "altitude_H", "min_separation", "power_budget_Pb",
                     "gs_x", "gs_y"):
            with pytest.raises(ConfigError):
                ScenarioConfig(**{name: bad})
        with pytest.raises(ConfigError):
            ScenarioConfig(power_budget_Pb=[1.0, bad])
    # real fields, as a --config JSON file can spell them
    for bad in (True, "2"):
        for name in ("area_side", "altitude_H", "min_separation", "power_budget_Pb",
                     "gs_x", "gs_y"):
            with pytest.raises(ConfigError):
                ScenarioConfig(**{name: bad})
        with pytest.raises(ConfigError):
            ScenarioConfig(power_budget_Pb=[1.0, bad])
    for bad in ("no", 0, None):
        with pytest.raises(ConfigError):
            ScenarioConfig(measure_wall_time=bad)
    assert ScenarioConfig(power_budget_Pb=2, area_side=np.float64(9000.0)).pb_values() == [2.0]
    # integer fields, as a --config JSON file can spell them
    for name in ("n_uavs", "seed", "trials", "placement_retry_budget"):
        for bad in (math.nan, math.inf, 5.5, 5.0, True, "5", None):
            with pytest.raises(ConfigError):
                ScenarioConfig(**{name: bad})
    for bad in ([5, 6.5], [5, True], (5, math.nan)):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_uavs=bad)
    with pytest.raises(ConfigError):
        ScenarioConfig(seed=-1)
    for name in ("n_uavs", "power_budget_Pb"):
        with pytest.raises(ConfigError):
            ScenarioConfig(**{name: []})
    assert ScenarioConfig(n_uavs=np.int64(5), seed=np.int64(3)).n_values() == [5]


def test_scalar_accessors_reject_sweep_lists():
    cfg = ScenarioConfig(n_uavs=[5, 10], power_budget_Pb=[0.5, 1.0])
    with pytest.raises(ConfigError):
        cfg.scalar_n()
    with pytest.raises(ConfigError):
        cfg.scalar_pb()
    assert cfg.n_values() == [5, 10]
    assert cfg.pb_values() == [0.5, 1.0]


def test_generate_scenario_geometry():
    cfg = small_cfg()
    t = generate_scenario(cfg)
    assert t.n_uavs == 6
    for i in t.uav_ids:
        node = t.node(i)
        assert 0.0 <= node.x <= cfg.area_side
        assert 0.0 <= node.y <= cfg.area_side
        assert node.z == cfg.altitude_H
    # ground station sits at the middle of the bottom edge by default
    assert t.gs.x == cfg.area_side / 2.0
    assert t.gs.y == 0.0
    assert t.gs.z == 0.0
    # pairwise separation floor
    for i in t.uav_ids:
        for j in t.uav_ids:
            if i < j:
                a, b = t.node(i), t.node(j)
                assert math.hypot(a.x - b.x, a.y - b.y) >= cfg.min_separation


def test_generate_scenario_connected():
    for seed in range(30):
        t = generate_scenario(small_cfg(seed=seed))
        reached = {t.gs.id}
        frontier = [t.gs.id]
        while frontier:
            node = frontier.pop()
            for i in t.uav_ids:
                if i not in reached and t.is_admissible(i, node):
                    reached.add(i)
                    frontier.append(i)
        assert len(reached) == t.n_uavs + 1, seed


def test_generate_scenario_deterministic():
    a = generate_scenario(small_cfg())
    b = generate_scenario(small_cfg())
    assert a.nodes == b.nodes
    assert np.array_equal(a.gains, b.gains)


def test_layouts_share_prefix_across_fleet_sizes():
    # growing the fleet keeps the earlier UAVs in place (common random
    # numbers across n for paired comparisons)
    small = generate_scenario(small_cfg(n_uavs=5, seed=11))
    large = generate_scenario(small_cfg(n_uavs=7, seed=11))
    for i in range(1, 6):
        assert small.node(i) == large.node(i)


def test_custom_gs_position():
    cfg = small_cfg(gs_x=1000.0, gs_y=2000.0)
    t = generate_scenario(cfg)
    assert (t.gs.x, t.gs.y) == (1000.0, 2000.0)


def test_placement_error_when_unsatisfiable():
    # ground station far outside the square: no layout can connect to it
    cfg = small_cfg(n_uavs=2, gs_x=1e9, placement_retry_budget=5)
    with pytest.raises(PlacementError):
        generate_scenario(cfg)


def test_placement_error_when_packing_impossible():
    cfg = ScenarioConfig(
        n_uavs=40, area_side=2000.0, min_separation=1900.0, seed=0,
        placement_retry_budget=3,
    )
    with pytest.raises(PlacementError):
        generate_scenario(cfg)


def test_run_pipeline_fields():
    cfg = small_cfg(measure_wall_time=True)
    t = generate_scenario(cfg)
    row = run_pipeline(t, cfg)
    assert row.n_uavs == 6
    assert row.seed == cfg.seed
    assert row.pb_watts == 1.0
    assert row.throughput_p14_bps >= row.throughput_p11_bps > 0.0
    assert row.newton_iters >= 0
    assert row.wall_ms > 0.0


def test_run_pipeline_wall_time_off():
    cfg = small_cfg()
    row = run_pipeline(generate_scenario(cfg), cfg)
    assert row.wall_ms == 0.0


@pytest.mark.parametrize("fields", [
    *(dict(n_uavs=n, power_budget_Pb=pb, seed=seed)
      for n in (20, 25, 30) for pb in (0.5, 1.0, 2.0) for seed in range(3)),
    dict(n_uavs=25, seed=7, spt_weight="hops"),
    *(dict(n_uavs=200, area_side=40000.0, min_separation=300.0, power_budget_Pb=pb, seed=seed)
      for pb in (1.0, 1e-3) for seed in range(3)),
], ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()))
def test_select_links_is_run_pipeline_without_newton(fields):
    cfg = ScenarioConfig(**fields, measure_wall_time=False)
    t = generate_scenario(cfg)
    want = run_pipeline(t, cfg)
    got = select_links(t, cfg)
    assert got.newton_iters == 0 and got.wall_ms == 0.0
    assert repr(got.throughput_p11_bps) == repr(want.throughput_p11_bps)
    assert repr(got.throughput_p14_bps) == repr(want.throughput_p14_bps)
    assert repr(got.refined_tree.parent) == repr(want.refined_tree.parent)
    assert repr(got.refined_tree.path_cost) == repr(want.refined_tree.path_cost)
    assert repr(got.allocation.power) == repr(want.allocation.power)
    # and every other field: pb_watts, n_uavs, seed, the water level, ...
    assert repr(got) == repr(replace(want, newton_iters=0))


def test_select_links_runs_where_newton_fails():
    # At n=200, 1 W, seed 10 one UAV misses Newton's decrement target, and
    # nothing select_links returns depends on Newton.
    cfg = ScenarioConfig(n_uavs=200, area_side=40000.0, min_separation=300.0, seed=10,
                         power_budget_Pb=1.0, measure_wall_time=False)
    t = generate_scenario(cfg)
    with pytest.raises(ConvergenceError, match="UAV 55: Newton decrement"):
        run_pipeline(t, cfg)
    row = select_links(t, cfg)
    assert row.newton_iters == 0
    assert row.throughput_p14_bps >= row.throughput_p11_bps > 0.0


def test_sweep_grid_shape_and_order():
    cfg = small_cfg(n_uavs=[4, 6], power_budget_Pb=[2.0, 0.5], trials=3)
    res = sweep(cfg)
    assert len(res.rows) == 2 * 2 * 3
    key = [(r.pb_watts, r.n_uavs, r.seed) for r in res.rows]
    assert key == sorted(key)
    assert {r.seed for r in res.rows} == {5, 6, 7}
    # two stat rows (mean, std) per grid point
    assert len(res.aggregates) == 2 * 2 * 2
    assert [a["stat"] for a in res.aggregates[:2]] == ["mean", "std"]


def test_sweep_aggregates_match_rows():
    cfg = small_cfg(trials=4)
    res = sweep(cfg)
    mean_row = next(a for a in res.aggregates if a["stat"] == "mean")
    std_row = next(a for a in res.aggregates if a["stat"] == "std")
    vals = [r.throughput_p14_bps for r in res.rows]
    assert mean_row["throughput_p14_bps"] == float(np.mean(vals))
    assert std_row["throughput_p14_bps"] == float(np.std(vals))


def test_rows_csv_format():
    cfg = small_cfg(trials=2)
    res = sweep(cfg)
    buf = io.StringIO()
    write_rows_csv(res.rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(res.rows)
    first = lines[1].split(",")
    assert len(first) == 7
    # repr round-trip: the written throughput parses back to the same float
    assert float(first[3]) == res.rows[0].throughput_p11_bps
    assert float(first[4]) == res.rows[0].throughput_p14_bps
    assert first[6] == "0.0"  # wall time disabled


def test_aggregates_csv_format():
    cfg = small_cfg(trials=2)
    res = sweep(cfg)
    buf = io.StringIO()
    write_aggregates_csv(res.aggregates, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == AGGREGATE_CSV_HEADER
    assert len(lines) == 1 + len(res.aggregates)
    assert lines[1].split(",")[2] == "mean"
    assert lines[2].split(",")[2] == "std"


def test_sweep_byte_identical_reruns():
    cfg = small_cfg(trials=3)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_rows_csv(sweep(cfg).rows, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_placement_sampler_rarely_retries():
    # default-geometry layouts should connect on the first draw almost
    # always; a high retry rate would distort the sampled distribution
    from fanetsim.harness import _sample_connected

    attempts = []
    for seed in range(200):
        cfg = ScenarioConfig(n_uavs=25, seed=seed, trials=1)
        _, used = _sample_connected(cfg)
        attempts.append(used)
    # measured: mean 1.66, max 8 over these 200 seeds; the retry budget of
    # 100 leaves an order of magnitude of headroom
    assert max(attempts) <= 20
    assert np.mean(attempts) < 2.5


def test_channel_override_flows_through():
    cfg = small_cfg(channel=ChannelParams(link_threshold_dth=3000.0))
    t = generate_scenario(cfg)
    for i in t.uav_ids:
        for j in admissible_neighbors(t, i):
            a, b = t.node(i), t.node(j)
            assert math.hypot(a.x - b.x, a.y - b.y) <= 3000.0


def _path(parent, i, gs_id):
    nodes = [i]
    while nodes[-1] != gs_id:
        nodes.append(parent[nodes[-1]])
    return nodes


def test_refined_path_costs_in_tree_weight():
    # hops: every refined cost is the UAV's hop depth in the refined tree
    cfg = ScenarioConfig(n_uavs=25, seed=7, power_budget_Pb=1.0, spt_weight="hops",
                         measure_wall_time=False)
    t = generate_scenario(cfg)
    refined = run_pipeline(t, cfg).refined_tree
    assert refined.parent != build_spt(t, weight="hops").parent
    assert refined.weight == "hops"
    for i in t.uav_ids:
        assert refined.path_cost[i] == len(_path(refined.parent, i, t.gs.id)) - 1

    # distance: a UAV whose whole path survives rounding keeps the SPT's cost
    # bit for bit
    cfg = ScenarioConfig(n_uavs=200, area_side=40000.0, min_separation=300.0, seed=0,
                         power_budget_Pb=1e-3, measure_wall_time=False)
    t = generate_scenario(cfg)
    spt = build_spt(t)
    refined = run_pipeline(t, cfg).refined_tree
    assert refined.weight == "distance"
    unchanged = [i for i in t.uav_ids
                 if _path(refined.parent, i, t.gs.id) == _path(spt.parent, i, t.gs.id)]
    assert 0 < len(unchanged) < t.n_uavs
    for i in unchanged:
        assert refined.path_cost[i] == spt.path_cost[i], i
