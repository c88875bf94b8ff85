"""Channel model, geometry and topology construction."""

import math

import numpy as np
import pytest

from fanetsim.model import (
    ChannelParams,
    Node,
    build_topology,
    channel_gain,
    distance,
    is_integer,
    is_real,
    link_capacity,
    noise_density_from_dbm_per_hz,
    reference_gain_from_frequency,
)

from conftest import synth_topology, toy_params


def test_distance_planar_ignores_altitude():
    a = Node(1, 0.0, 0.0, 150.0, "uav")
    b = Node(2, 3.0, 4.0, 0.0, "ground_station")
    assert distance(a, b) == 5.0
    assert distance(a, b, mode="planar") == 5.0


def test_distance_3d_includes_altitude_gap():
    a = Node(1, 0.0, 0.0, 150.0, "uav")
    b = Node(2, 0.0, 200.0, 0.0, "ground_station")
    assert distance(a, b, mode="3d") == pytest.approx(250.0, rel=1e-15)


def test_distance_same_node_rejected():
    a = Node(1, 0.0, 0.0, 150.0, "uav")
    with pytest.raises(ValueError):
        distance(a, a)


def test_reference_gain_at_1ghz():
    # (c / 4 pi f)^2 with c = 3.0e8
    got = reference_gain_from_frequency(1e9)
    want = (3.0e8 / (4.0 * math.pi * 1e9)) ** 2
    assert got == want
    assert got == pytest.approx(5.6994e-4, rel=1e-4)


def test_default_params_values():
    p = ChannelParams()
    assert p.bandwidth_B == 1e7
    assert p.noise_density_sigma2 == pytest.approx(10 ** -20.4, rel=1e-15)
    assert p.pathloss_beta == 2.0
    assert p.link_threshold_dth == 6000.0
    assert p.noise_power == p.noise_density_sigma2 * p.bandwidth_B


def test_params_reject_subquadratic_pathloss():
    with pytest.raises(ValueError):
        ChannelParams(pathloss_beta=1.5)


@pytest.mark.parametrize("field", [
    "bandwidth_B", "noise_density_sigma2", "ref_gain_alpha0", "pathloss_beta",
    "link_threshold_dth",
])
@pytest.mark.parametrize("value", [math.nan, math.inf, True, "2.0", None])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError):
        ChannelParams(**{field: value})


def test_real_and_integer_predicates():
    for value in (1, 1.5, np.float64(2.0), np.int64(3), np.float32(0.5)):
        assert is_real(value)
    for value in (True, np.bool_(True), "1", None, 1j):
        assert not is_real(value)
    assert is_integer(3) and is_integer(np.int64(3))
    assert not any(is_integer(v) for v in (True, 3.0, "3"))
    for convert in (reference_gain_from_frequency, noise_density_from_dbm_per_hz):
        for bad in (True, "1e9"):
            with pytest.raises(ValueError):
                convert(bad)


def test_unit_conversions_out_of_float_range_name_their_input():
    with pytest.raises(ValueError, match=r"^noise density 5000\.0 dBm/Hz is beyond the float range"):
        noise_density_from_dbm_per_hz(5000.0)
    with pytest.raises(ValueError, match=r"^carrier frequency 1e-200 Hz gives a reference gain "
                                         r"beyond the float range"):
        reference_gain_from_frequency(1e-200)


def test_channel_gain_inverse_square():
    p = ChannelParams()
    g1 = channel_gain(1000.0, p)
    g2 = channel_gain(2000.0, p)
    assert g1 == pytest.approx(p.ref_gain_alpha0 / 1000.0**2, rel=1e-15)
    assert g1 / g2 == pytest.approx(4.0, rel=1e-12)


def test_channel_gain_rejects_nonpositive_distance():
    p = ChannelParams()
    with pytest.raises(ValueError):
        channel_gain(0.0, p)


def test_link_capacity_frozen_example():
    # 1 W into gain 5.6994e-10 on the default channel.  Value frozen from
    # an independent high-precision evaluation of B*ln(1+snr)/ln(2).
    p = ChannelParams()
    got = link_capacity(1.0, 5.6994e-10, p)
    assert got == pytest.approx(138054663.41027334, rel=1e-12)


def test_link_capacity_zero_power_is_zero():
    p = ChannelParams()
    assert link_capacity(0.0, 1e-9, p) == 0.0


def test_link_capacity_scales_with_bandwidth():
    # doubling B at fixed snr doubles capacity; keep noise power fixed by
    # halving the density.
    pa = toy_params(bandwidth=1.0, noise=1.0)
    pb = toy_params(bandwidth=2.0, noise=0.5)
    ca = link_capacity(3.0, 1.0, pa)
    cb = link_capacity(3.0, 1.0, pb)
    assert cb == pytest.approx(2.0 * ca, rel=1e-15)


def test_link_capacity_rejects_bad_args():
    p = ChannelParams()
    with pytest.raises(ValueError):
        link_capacity(-1.0, 1e-9, p)
    with pytest.raises(ValueError):
        link_capacity(1.0, 0.0, p)


def _grid_nodes():
    # two UAVs 1 km apart, GS under the first
    return (
        Node(1, 0.0, 0.0, 150.0, "uav"),
        Node(2, 1000.0, 0.0, 150.0, "uav"),
        Node(3, 0.0, 0.0, 0.0, "ground_station"),
    )


def test_build_topology_incidence_and_gains():
    nodes = (
        Node(1, 0.0, 200.0, 150.0, "uav"),
        Node(2, 1000.0, 200.0, 150.0, "uav"),
        Node(3, 0.0, 0.0, 0.0, "ground_station"),
    )
    p = ChannelParams(link_threshold_dth=1500.0)
    t = build_topology(nodes, p)
    assert t.n_uavs == 2
    assert t.gs.id == 3
    assert t.uav_ids == (1, 2)
    assert t.is_admissible(1, 2) and t.is_admissible(2, 1)
    assert t.gain(1, 2) == t.gain(2, 1)
    assert t.gain(1, 3) == pytest.approx(p.ref_gain_alpha0 / 200.0**2, rel=1e-15)
    # uav2 <-> gs: planar sqrt(1000^2 + 200^2) ~ 1019.8 m, admissible
    d23 = math.hypot(1000.0, 200.0)
    assert t.gain(2, 3) == pytest.approx(p.ref_gain_alpha0 / d23**2, rel=1e-15)


def test_build_topology_planar_zero_distance_rejected():
    p = ChannelParams()
    with pytest.raises(ValueError):
        build_topology(_grid_nodes(), p, mode="planar")


def test_build_topology_3d_mode():
    p = ChannelParams(link_threshold_dth=1500.0)
    t = build_topology(_grid_nodes(), p, mode="3d")
    # uav1 <-> gs at 150 m, uav1 <-> uav2 at 1000 m, uav2 <-> gs at
    # sqrt(1000^2+150^2) ~ 1011 m: all admissible under 1500 m
    assert t.is_admissible(1, 3)
    assert t.is_admissible(1, 2)
    assert t.is_admissible(2, 3)
    assert t.gain(1, 3) == pytest.approx(p.ref_gain_alpha0 / 150.0**2, rel=1e-15)


def test_threshold_is_inclusive():
    nodes = (
        Node(1, 0.0, 600.0, 150.0, "uav"),
        Node(2, 0.0, 0.0, 0.0, "ground_station"),
    )
    p = ChannelParams(link_threshold_dth=600.0)
    t = build_topology(nodes, p)
    assert t.is_admissible(1, 2)


def test_threshold_prunes_long_links():
    nodes = (
        Node(1, 0.0, 600.0, 150.0, "uav"),
        Node(2, 0.0, 7000.0, 150.0, "uav"),
        Node(3, 0.0, 0.0, 0.0, "ground_station"),
    )
    p = ChannelParams()
    t = build_topology(nodes, p)
    assert t.is_admissible(1, 3)
    assert not t.is_admissible(2, 3)  # 7000 > 6000
    assert not t.is_admissible(2, 1)  # 6400 > 6000


def test_admissible_neighbors_sorted():
    t = synth_topology([{2: 0.5, 4: 1.0}, {1: 0.5, 3: 0.25}, {2: 0.25, 4: 0.125}])
    assert t.admissible_neighbors(2) == (1, 3)
    assert t.admissible_neighbors(1) == (2, 4)


def test_build_topology_requires_single_gs():
    nodes = (
        Node(1, 0.0, 0.0, 150.0, "uav"),
        Node(2, 100.0, 0.0, 0.0, "ground_station"),
        Node(3, 200.0, 0.0, 0.0, "ground_station"),
    )
    with pytest.raises(ValueError):
        build_topology(nodes, ChannelParams())


def test_build_topology_requires_contiguous_ids():
    nodes = (
        Node(1, 0.0, 0.0, 150.0, "uav"),
        Node(5, 100.0, 0.0, 150.0, "uav"),
        Node(3, 200.0, 0.0, 0.0, "ground_station"),
    )
    with pytest.raises(ValueError):
        build_topology(nodes, ChannelParams())


def test_build_topology_requires_common_altitude():
    nodes = (
        Node(1, 0.0, 0.0, 150.0, "uav"),
        Node(2, 100.0, 0.0, 200.0, "uav"),
        Node(3, 50.0, 50.0, 0.0, "ground_station"),
    )
    with pytest.raises(ValueError):
        build_topology(nodes, ChannelParams())


def test_topology_arrays_read_only():
    t = synth_topology([{2: 1.0}])
    with pytest.raises(ValueError):
        t.gains[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.incidence[0, 0] = False
