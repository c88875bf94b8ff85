"""Channel model, geometry and topology construction."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fanetsim.model import (
    ChannelParams,
    Node,
    build_topology,
    channel_gain,
    distance,
    is_integer,
    is_real,
    link_capacities,
    link_capacity,
    noise_density_from_dbm_per_hz,
    reference_gain_from_frequency,
)
from fanetsim.power import PowerAllocation, network_throughput

from conftest import star_tree, synth_topology, toy_params


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("which", [0, 1])
def test_distance_rejects_non_finite_coordinates(bad, axis, which):
    # A nan coordinate used to give a nan distance; every axis is checked in
    # both modes, altitude included.
    nodes = [Node(1, 0.0, 0.0, 150.0, "uav"), Node(2, 3.0, 4.0, 0.0, "ground_station")]
    nodes[which] = replace(nodes[which], **{axis: bad})
    for mode in ("planar", "3d"):
        with pytest.raises(ValueError, match=f"node {which + 1} has a non-finite {axis} "
                                             f"coordinate {bad!r}"):
            distance(*nodes, mode=mode)


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


# Powers of two keep the layout's length exactly d wherever d*d is in range.
@pytest.mark.parametrize("d, beta", [
    (1000.0, 2.0),
    (2.0 ** -500, 2.0),  # a gain near the top of the float range
    (2.0 ** -520, 2.0),  # d**beta is subnormal and the gain overflows
    (2.0 ** -600, 2.0),  # d**beta underflows to 0.0
    (2.0 ** 600, 2.0),  # d**beta overflows: no gain
    (10000.0, 85.0),
])
def test_channel_gain_agrees_with_build_topology(d, beta):
    p = ChannelParams(pathloss_beta=beta, link_threshold_dth=1e300)
    nodes = [Node(1, 0.0, 0.0, 150.0, "uav"), Node(2, d, 0.0, 0.0, "ground_station")]
    try:
        want = float(build_topology(nodes, p).gains[0, 1]).hex()
    except ValueError:
        with pytest.raises(ValueError, match="too short for a finite gain"):
            channel_gain(d, p)
    else:
        assert channel_gain(d, p).hex() == want


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


def test_link_capacities_reject_what_link_capacity_rejects():
    p = ChannelParams()
    with pytest.raises(ValueError, match="transmit power"):
        link_capacities(np.array([1.0, -1.0]), np.array([1e-9, 1e-9]), p)
    with pytest.raises(ValueError, match="link gain"):
        link_capacities(np.array([1.0, 1.0]), np.array([1e-9, 0.0]), p)
    assert link_capacities(np.empty(0), np.empty(0), p).shape == (0,)


def _star_throughput(powers, gains, p):
    alloc = PowerAllocation(power=dict(enumerate(powers, start=1)), water_level_lambda=1.0,
                            active_set=(), throughput_R=math.nan)
    t = synth_topology([{len(gains) + 1: g} for g in gains])
    return network_throughput(alloc, star_tree(len(gains)), t, p)


# Each call priced to nan before the guards were written as `not x >= 0.0`
# and `not x > 0.0`; an infinite gain priced to inf, or to nan at zero power,
# before the guard `gain == math.inf` (no topology holds one).
@pytest.mark.parametrize("price, message", [
    (lambda p: link_capacity(math.nan, 1e-9, p), "transmit power"),
    (lambda p: link_capacity(1.0, math.nan, p), "link gain"),
    (lambda p: link_capacities(np.array([1.0, math.nan]), np.array([1e-9, 1e-9]), p),
     "transmit power"),
    (lambda p: link_capacities(np.array([1.0, 1.0]), np.array([math.nan, 1e-9]), p),
     "link gain"),
    (lambda p: channel_gain(math.nan, p), "positive distance"),
    (lambda p: _star_throughput([1.0, math.nan], [2.0, 2.0], p), "transmit power"),
    (lambda p: _star_throughput([1.0, 1.0], [2.0, math.nan], p), "link gain"),
    (lambda p: link_capacity(1.0, math.inf, p), "^link gain must be finite$"),
    (lambda p: link_capacity(0.0, math.inf, p), "^link gain must be finite$"),
    (lambda p: link_capacities(np.array([1.0, 0.0]), np.array([1e-9, math.inf]), p),
     "^link gain must be finite$"),
    (lambda p: _star_throughput([1.0, 1.0], [2.0, math.inf], p), "^link gain must be finite$"),
], ids=["link_capacity-power", "link_capacity-gain", "link_capacities-power",
        "link_capacities-gain", "channel_gain", "network_throughput-power",
        "network_throughput-gain", "link_capacity-inf-gain", "link_capacity-zero-power-inf-gain",
        "link_capacities-inf-gain", "network_throughput-inf-gain"])
def test_nan_rates_and_gains_are_rejected(price, message):
    with pytest.raises(ValueError, match=message):
        price(toy_params())


def _adjacent(x: float, k: int, toward: float) -> list[float]:
    """x and the k floats after it toward ``toward``."""
    out = [x]
    for _ in range(k):
        out.append(math.nextafter(out[-1], toward))
    return out


def pricing_outcome(price):
    """The hex of each rate ``price()`` returns, or its exception's type and text."""
    try:
        return [rate.hex() for rate in price()]
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


CHANNELS = st.builds(
    ChannelParams,
    bandwidth_B=st.sampled_from([1e7, 1.0]) | st.floats(1e-3, 1e12),
    noise_density_sigma2=(st.sampled_from([ChannelParams().noise_density_sigma2, 1.0])
                          | st.floats(1e-25, 1e5)),
)


def _subnormal_gain(draw, power: float, noise: float) -> float:
    """A gain at which power * gain, or power * gain / noise, is subnormal."""
    target = Fraction(draw(st.floats(5e-324, 2.2250738585072014e-308)))
    if draw(st.booleans()):
        target *= Fraction(noise)
    gain = float(target / Fraction(power))
    assume(gain > 0.0)
    return gain


def _guard_gain(power: float, noise: float) -> float:
    """The largest gain that passes allocate_power's overflow guard at this power."""
    assume(noise <= min(power, 1.0))
    gain = float(Fraction(sys.float_info.max) * Fraction(noise) / Fraction(power))
    while power * gain / noise == math.inf:
        gain = math.nextafter(gain, 0.0)
    return gain


@st.composite
def pricing_draws(draw):
    """A channel and (power, gain) pairs: free draws; free draws with nan,
    +-inf, -1.0, 0.0 and -0.0 at random positions among the powers and
    gains; 2000 seeded draws over 24 decades of SNR; runs of adjacent powers
    and gains; power * gain or the SNR in the subnormal range; and SNRs just
    under allocate_power's overflow guard, which rejects a budget whose
    budget * gain / noise_power is inf. Gains aimed at a target come from
    exact rationals, which float() rounds correctly."""
    p = draw(CHANNELS)
    noise = p.noise_power
    kind = draw(st.sampled_from(["free", "bad", "bulk", "adjacent", "subnormal", "guard"]))
    k = draw(st.integers(0, 5))
    if kind == "free":
        power = st.just(0.0) | st.floats(0.0, 1e6)
        return p, draw(st.lists(st.tuples(power, st.floats(5e-324, 1e6)), min_size=1, max_size=20))
    if kind == "bad":
        bad = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0])
        return p, draw(st.lists(st.tuples(st.floats(0.0, 1e6) | bad, st.floats(5e-324, 1e6) | bad),
                                min_size=1, max_size=20))
    if kind == "bulk":
        # np.log2 and math.log2 disagree on a few in a thousand of these
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        snr = 10.0 ** rng.uniform(-12.0, 12.0, 2000)
        return p, list(zip(rng.uniform(0.0, 1.0, 2000).tolist(), (snr * noise).tolist()))
    power = draw(st.floats(1e-6, 1e3))
    if kind == "adjacent":
        powers = _adjacent(power, k, math.inf)
        gains = _adjacent(draw(st.floats(1e-15, 1e3)), draw(st.integers(0, 5)), math.inf)
    elif kind == "subnormal":
        powers, gains = [power], _adjacent(_subnormal_gain(draw, power, noise), k, math.inf)
    else:
        # the largest gain that passes the guard at this power, and below it
        powers, gains = _adjacent(power, k, 0.0), _adjacent(_guard_gain(power, noise), k, 0.0)
    return p, [(pw, g) for pw in powers for g in gains]


@settings(max_examples=300, deadline=None)
@given(pricing_draws())
# a bad gain in an earlier pair wins over a bad power in a later one
@example((ChannelParams(), [(1.0, math.nan), (-1.0, 1e-9)]))
def test_link_capacities_equal_link_capacity_bit_for_bit(draw):
    # pricing pair by pair, the first pair that fails wins
    p, pairs = draw
    powers, gains = map(np.array, zip(*pairs))
    assert (pricing_outcome(lambda: link_capacities(powers, gains, p).tolist())
            == pricing_outcome(lambda: [link_capacity(pw, g, p) for pw, g in pairs]))


@st.composite
def gain_runs(draw):
    """A channel, a power and an ascending run of adjacent finite gains:
    free draws, zero power over the whole gain range, power * gain or the
    SNR in the subnormal range, and runs across allocate_power's overflow
    guard, from below the largest gain it passes to above it."""
    p = draw(CHANNELS)
    noise = p.noise_power
    kind = draw(st.sampled_from(["free", "zero", "subnormal", "guard"]))
    k = draw(st.integers(1, 40))
    power = 0.0 if kind == "zero" else draw(st.sampled_from([1.0, 1e-3]) | st.floats(1e-6, 1e3))
    if kind == "zero":
        run = _adjacent(draw(st.floats(5e-324, sys.float_info.max)), k, 0.0)[::-1]
    elif kind == "free":
        run = _adjacent(draw(st.floats(5e-324, 1e6)), k, math.inf)
    elif kind == "subnormal":
        run = _adjacent(_subnormal_gain(draw, power, noise), k, math.inf)
    else:
        gain = _guard_gain(power, noise)
        run = _adjacent(gain, k, 0.0)[::-1] + _adjacent(gain, k, math.inf)[1:]
    gains = [g for g in run if 0.0 < g < math.inf]
    assume(len(gains) > 1)
    return p, power, gains


@settings(max_examples=300, deadline=None)
@given(gain_runs())
def test_rate_never_falls_as_the_gain_rises_by_one_float(draw):
    # At a fixed power, each floating-point step of the rate is non-decreasing
    # in the gain, so the highest-gain candidate has the highest rate.
    p, power, gains = draw
    for rates in ([link_capacity(power, g, p) for g in gains],
                  link_capacities(np.full(len(gains), power), np.array(gains), p).tolist()):
        assert all(b >= a for a, b in zip(rates, rates[1:])), rates


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


def _two_uavs(z=150.0):
    return [Node(1, 0.0, 600.0, z, "uav"), Node(2, 500.0, 900.0, z, "uav"),
            Node(3, 0.0, 0.0, 0.0, "ground_station")]


@pytest.mark.parametrize("mode", ["planar", "3d"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_build_topology_rejects_non_finite_coordinates(bad, mode):
    # A nan x used to strand its UAV, an infinite one to warn in the
    # distance pass; both are bad input, rejected before any arithmetic.
    for k, axis in [(0, "x"), (1, "y"), (2, "x"), (2, "y"), (2, "z")]:
        nodes = _two_uavs()
        nodes[k] = replace(nodes[k], **{axis: bad})
        with pytest.raises(ValueError, match=f"node {k + 1} has a non-finite {axis} coordinate"):
            build_topology(nodes, ChannelParams(), mode=mode)
    # every UAV at one non-finite altitude, which the altitude checks let pass
    with pytest.raises(ValueError, match="node 1 has a non-finite z coordinate"):
        build_topology(_two_uavs(z=bad), ChannelParams(), mode=mode)
    build_topology(_two_uavs(), ChannelParams(), mode=mode)


@pytest.mark.parametrize("bad", ["5", True, None, 1 + 0j])
def test_build_topology_rejects_non_real_coordinates(bad):
    # numpy used to turn "5" into 5.0, and turns True among floats into 1.0
    for k, axis in [(0, "x"), (1, "y"), (2, "x"), (2, "y"), (2, "z")]:
        nodes = _two_uavs()
        nodes[k] = replace(nodes[k], **{axis: bad})
        with pytest.raises(ValueError, match=f"node {k + 1} has a non-real {axis} coordinate"):
            build_topology(nodes, ChannelParams())
    with pytest.raises(ValueError, match="node 1 has a non-real z coordinate"):
        build_topology(_two_uavs(z=bad), ChannelParams())


def test_build_topology_takes_numpy_and_integer_coordinates():
    want = build_topology(_two_uavs(), ChannelParams())
    for cast in (int, np.int64, np.uint16, np.float32, np.float64):
        nodes = [replace(nd, x=cast(nd.x), y=cast(nd.y), z=cast(nd.z)) for nd in _two_uavs()]
        got = build_topology(nodes, ChannelParams())
        assert got.distances.tobytes() == want.distances.tobytes()
        assert got.gains.tobytes() == want.gains.tobytes()


def test_topology_arrays_read_only():
    t = synth_topology([{2: 1.0}])
    with pytest.raises(ValueError):
        t.gains[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.incidence[0, 0] = False
