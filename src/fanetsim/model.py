"""Geometry, free-space channel model, and link admissibility for a UAV relay network.

All quantities are SI internally: meters, hertz, watts. Decibel-flavored
inputs (dBm/Hz noise density, carrier frequency) are converted once at the
configuration boundary via the helpers below and never inside the math.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

UAV = "uav"
GROUND_STATION = "ground_station"

# Engineering value for the speed of light; with f = 1 GHz the default
# reference gain below comes out near 5.699e-4.
SPEED_OF_LIGHT_M_S = 3.0e8

_DISTANCE_MODES = ("planar", "3d")
_BOOL_TYPES = frozenset((bool, np.bool_))
# UAV rows of the distance matrix that build_topology sums at a time; the
# block buffer holds this many rows of squared offsets.
_ROW_BLOCK = 64


def is_integer(value) -> bool:
    """True for int and numpy integers; False for bools, floats and the rest."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for ints, floats and numpy numbers; False for bools, strings and the rest."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def reference_gain_from_frequency(freq_hz: float) -> float:
    """Received power at the 1 m reference distance for an isotropic free-space link."""
    if not is_real(freq_hz):
        raise ValueError(f"carrier frequency must be a real number, got {freq_hz!r}")
    if freq_hz <= 0.0:
        raise ValueError("carrier frequency must be positive")
    try:
        return (SPEED_OF_LIGHT_M_S / (4.0 * math.pi * freq_hz)) ** 2
    except OverflowError:
        raise ValueError(
            f"carrier frequency {freq_hz!r} Hz gives a reference gain beyond the float range"
        ) from None


def noise_density_from_dbm_per_hz(dbm_per_hz: float) -> float:
    """Convert a noise power spectral density from dBm/Hz to W/Hz."""
    if not is_real(dbm_per_hz):
        raise ValueError(f"noise density must be a real number, got {dbm_per_hz!r}")
    try:
        return 10.0 ** ((dbm_per_hz - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(
            f"noise density {dbm_per_hz!r} dBm/Hz is beyond the float range in W/Hz"
        ) from None


class CoincidentNodesError(ValueError):
    """Two nodes coincide or lie too close together for a finite channel gain."""


@dataclass(frozen=True)
class Node:
    """A network node placed in Cartesian coordinates (meters)."""

    id: int
    x: float
    y: float
    z: float
    role: str = UAV


@dataclass(frozen=True)
class ChannelParams:
    """Channel constants shared by every link.

    Defaults model a 10 MHz carrier at 1 GHz with thermal noise of
    -174 dBm/Hz, free-space path loss, and a 6 km admissibility radius.
    """

    bandwidth_B: float = 1.0e7
    noise_density_sigma2: float = noise_density_from_dbm_per_hz(-174.0)
    ref_gain_alpha0: float = reference_gain_from_frequency(1.0e9)
    pathloss_beta: float = 2.0
    link_threshold_dth: float = 6000.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_real(value):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
        if not 0.0 < self.bandwidth_B < math.inf:
            raise ValueError("bandwidth_B must be positive and finite")
        if not 0.0 < self.noise_density_sigma2 < math.inf:
            raise ValueError("noise_density_sigma2 must be positive and finite")
        if not 0.0 < self.ref_gain_alpha0 < math.inf:
            raise ValueError("ref_gain_alpha0 must be positive and finite")
        if not 2.0 <= self.pathloss_beta < math.inf:
            raise ValueError("pathloss_beta must be at least 2 and finite")
        if not 0.0 < self.link_threshold_dth < math.inf:
            raise ValueError("link_threshold_dth must be positive and finite")
        if self.noise_power == 0.0:
            raise ValueError("noise power sigma^2 * B underflows to zero")

    @property
    def noise_power(self) -> float:
        """Total noise power over the band, sigma^2 * B, in watts."""
        return self.noise_density_sigma2 * self.bandwidth_B


def distance(a: Node, b: Node, mode: str = "planar") -> float:
    """Separation between two distinct nodes in meters.

    The planar mode ignores altitude, which is the appropriate choice when
    every UAV flies at one shared altitude; "3d" includes the z offset for
    mixed-altitude experiments. A nan or infinite coordinate on either node,
    altitude included, raises ValueError.
    """
    if a.id == b.id:
        raise ValueError(f"distance between node {a.id} and itself is undefined")
    if mode not in _DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {mode!r}; use one of {_DISTANCE_MODES}")
    for node in (a, b):
        for axis in ("x", "y", "z"):
            value = getattr(node, axis)
            if not math.isfinite(value):
                raise ValueError(f"node {node.id} has a non-finite {axis} coordinate {value!r}")
    dx = a.x - b.x
    dy = a.y - b.y
    if mode == "planar":
        return math.sqrt(dx * dx + dy * dy)
    dz = a.z - b.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def channel_gain(d: float, p: ChannelParams) -> float:
    """Free-space power gain at separation ``d`` > 0 (not nan): ref_gain / d**beta.

    As in build_topology, a d**beta beyond the float range gives 0.0, and a
    separation too short for a finite gain raises ValueError.
    """
    if not d > 0.0:
        raise ValueError("channel gain requires a strictly positive distance")
    try:
        loss = d**p.pathloss_beta
    except OverflowError:
        return 0.0
    gain = p.ref_gain_alpha0 / loss if loss > 0.0 else math.inf
    if gain == math.inf:
        raise ValueError(f"a separation of {d!r} m is too short for a finite gain")
    return gain


def link_capacity(transmit_power_w: float, gain: float, p: ChannelParams) -> float:
    """Shannon capacity of one link in bits/s; a nan power, or a nan or
    infinite gain, raises.

    B * log2(1 + P*h / (sigma^2 * B)); zero transmit power gives exactly 0.
    """
    if not transmit_power_w >= 0.0:
        raise ValueError("transmit power must be nonnegative")
    if not gain > 0.0:
        raise ValueError("link gain must be strictly positive")
    if gain == math.inf:
        raise ValueError("link gain must be finite")
    snr = transmit_power_w * gain / p.noise_power
    return p.bandwidth_B * math.log2(1.0 + snr)


def link_capacities(transmit_powers_w: np.ndarray, gains: np.ndarray,
                    p: ChannelParams) -> np.ndarray:
    """``link_capacity`` on each (power, gain) pair of two 1-D arrays, bit for
    bit: the one array code that prices links.

    The first pair in array order that link_capacity rejects, nan included,
    raises link_capacity's own error, so an array fails as pricing it pair
    by pair does. The products, the quotient and the sum are numpy's
    correctly rounded float64 operations in link_capacity's order; the
    logarithm is math.log2 per element, since np.log2 differs from it in the
    last bit. A pair whose SNR is zero, zero power included, prices to
    B * log2(1.0), exactly 0.0, and takes no logarithm.
    """
    ok = (transmit_powers_w >= 0.0) & (gains > 0.0) & (gains < math.inf)
    if not ok.all():
        k = int(ok.argmin())
        link_capacity(transmit_powers_w.item(k), gains.item(k), p)
    rates = np.zeros(transmit_powers_w.shape)
    with np.errstate(over="ignore"):
        snr = transmit_powers_w * gains / p.noise_power
        on = snr.nonzero()[0]
        logs = np.fromiter(map(math.log2, (1.0 + snr[on]).tolist()), dtype=float, count=on.size)
        rates[on] = p.bandwidth_B * logs
    return rates


@dataclass(frozen=True)
class Topology:
    """Immutable snapshot of node placement, admissibility, link gains and lengths.

    ``nodes`` holds UAVs with ids 1..n followed by the ground station with
    id n+1. ``incidence`` is the n x (n+1) 0/1 admissibility matrix (row i-1
    is UAV i, column j-1 is node j), ``gains`` the matching channel gains and
    ``distances`` the link lengths in meters (inf on a UAV's own column).
    ``distances`` covers every distinct pair. ``gains`` is populated only on
    in-range links (d <= d_th) and holds 0.0 beyond the threshold, so every
    reader takes gains of admissible links only; admissibility lives in
    ``incidence``, 1 exactly where the gain is positive, listed once as ``links``.
    """

    nodes: tuple[Node, ...]
    incidence: np.ndarray
    gains: np.ndarray
    distances: np.ndarray

    @property
    def n_uavs(self) -> int:
        return len(self.nodes) - 1

    @property
    def gs(self) -> Node:
        return self.nodes[-1]

    @property
    def uav_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_uavs + 1))

    @functools.cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The admissible links (index, rows, cols, starts), row-major: link k
        runs from UAV rows[k] to node cols[k] (index = id - 1) at flat index[k]
        of the n x (n+1) matrices, and each linked UAV's links are one run, in
        ascending node id, from one starts[r] on. build_topology lists it
        as it builds the matrices."""
        return _link_table(self.incidence)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id - 1]

    def gain(self, uav_id: int, other_id: int) -> float:
        return float(self.gains[uav_id - 1, other_id - 1])

    def distance(self, uav_id: int, other_id: int) -> float:
        return float(self.distances[uav_id - 1, other_id - 1])

    def is_admissible(self, uav_id: int, other_id: int) -> bool:
        return bool(self.incidence[uav_id - 1, other_id - 1])


def _link_table(incidence: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``Topology.links`` of an incidence matrix. It is read as bool, several
    times faster than as int8."""
    index = incidence.astype(bool, copy=False).ravel().nonzero()[0]
    rows, cols = np.divmod(index, incidence.shape[1])
    first = np.empty(index.size, dtype=bool)
    first[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    table = index, rows, cols, first.nonzero()[0]
    for arr in table:
        arr.flags.writeable = False
    return table


def _real_coordinates(values: list, axis: str) -> np.ndarray:
    """One axis of node coordinates as a float array.

    Raises ValueError unless every value is an int or a float. Told to
    make floats, numpy turns "5" into 5.0, so the dtype is inferred and
    checked first; it also turns a bool among floats into 1.0 unasked, so
    bools are looked for by type.
    """
    array = np.array(values)
    if array.dtype.kind in "iuf" and array.ndim == 1 and _BOOL_TYPES.isdisjoint(map(type, values)):
        return array.astype(float, copy=False)
    k = next((k for k, v in enumerate(values) if not is_real(v)), None)
    if k is None:
        raise ValueError(f"{axis} coordinates make a {array.dtype} array, not ints or floats")
    raise ValueError(f"node {k + 1} has a non-real {axis} coordinate {values[k]!r}")


def build_topology(nodes: list[Node], p: ChannelParams, mode: str = "planar") -> Topology:
    """Assemble a Topology from a node list, validating the id convention.

    Expects UAV ids 1..n plus a single ground station with id n+1. Raises on
    duplicate ids, a coordinate that is not an int or a float (a string, a
    bool, None, a complex), a nan or infinite coordinate, coincident
    coordinates (zero distance has no finite gain), mixed UAV altitudes, or a
    ground station off the ground. A link is admissible when it lies within
    the threshold and its gain is positive: where d**beta overflows the gain
    is 0.0 and no power can use the link.

    Once the nodes pass these checks, _link_arrays builds the matrices from
    their coordinate arrays. Every coincident pair is reported before any
    pair too close for a finite gain.
    """
    if not nodes:
        raise ValueError("node list is empty")
    ordered = sorted(nodes, key=lambda nd: nd.id)
    gs_nodes = [nd for nd in ordered if nd.role == GROUND_STATION]
    uav_nodes = [nd for nd in ordered if nd.role == UAV]
    if len(gs_nodes) != 1:
        raise ValueError(f"expected exactly one ground station, got {len(gs_nodes)}")
    if len(uav_nodes) + 1 != len(ordered):
        bad = [nd.id for nd in ordered if nd.role not in (UAV, GROUND_STATION)]
        raise ValueError(f"unknown node roles on ids {bad}")
    n = len(uav_nodes)
    ids = [nd.id for nd in ordered]
    if ids != list(range(1, n + 2)) or gs_nodes[0].id != n + 1:
        raise ValueError("node ids must be UAVs 1..n and ground station n+1")
    coords = {axis: _real_coordinates([getattr(nd, axis) for nd in ordered], axis)
              for axis in ("x", "y", "z")}
    for axis, values in coords.items():
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"node {k + 1} has a non-finite {axis} coordinate {float(values[k])!r}")
    altitudes = {nd.z for nd in uav_nodes}
    if len(altitudes) > 1:
        raise ValueError("all UAVs must share one altitude")
    if uav_nodes and uav_nodes[0].z <= 0.0:
        raise ValueError("UAV altitude must be positive")
    if gs_nodes[0].z != 0.0:
        raise ValueError("ground station must sit at z = 0")

    if mode not in _DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {mode!r}; use one of {_DISTANCE_MODES}")
    axes = [coords[axis] for axis in (("x", "y") if mode == "planar" else ("x", "y", "z"))]
    return _topology(tuple(ordered), _link_arrays(axes, p))


def _link_arrays(axes: list[np.ndarray], p: ChannelParams) -> tuple[np.ndarray, ...]:
    """``incidence``, ``gains``, ``distances`` and ``links`` of n UAVs and a
    ground station, from one float array per axis (x, y and, in 3-D, z) of
    the n + 1 nodes, the ground station last: build_topology's arrays, for
    coordinates that it would accept. Raises CoincidentNodesError on the
    first coincident pair, row-major, and then on the first pair too close
    for a finite gain.

    The distance matrix is summed _ROW_BLOCK UAV rows at a time, each axis's
    squared offsets going through one block-sized buffer, so no temporary
    as large as the matrix is made.
    """
    n = axes[0].size - 1
    # Pairwise distances UAV row i to node column j, dx*dx + dy*dy (+ dz*dz)
    # summed in the order distance() uses, one row block at a time. A length
    # beyond the float range is inf, as in distance(), and so out of range.
    d = np.empty((n, n + 1))
    delta = np.empty((min(n, _ROW_BLOCK), n + 1))
    with np.errstate(over="ignore"):
        for lo in range(0, n, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, n)
            rows, part = d[lo:hi], delta[:hi - lo]
            np.subtract(axes[0][lo:hi, None], axes[0], out=rows)
            np.multiply(rows, rows, out=rows)
            for coord in axes[1:]:
                np.subtract(coord[lo:hi, None], coord, out=part)
                np.multiply(part, part, out=part)
                np.add(rows, part, out=rows)
            np.sqrt(rows, out=rows)
    # A UAV's distance to itself becomes inf: no gain, never admissible.
    np.fill_diagonal(d, np.inf)
    coincident = np.flatnonzero(d == 0.0)
    if coincident.size:
        i, j = divmod(int(coincident[0]), n + 1)
        raise CoincidentNodesError(
            f"nodes {i + 1} and {j + 1} coincide; zero-distance links are undefined"
        )
    # Gains are evaluated on in-range pairs only and stay 0.0 elsewhere.
    # alpha0 is finite and d**beta >= 1 from 1 m on, so only pairs closer than
    # 1 m can have an infinite gain; below a 1 m threshold all of those are
    # evaluated, the out-of-range ones for the check alone.
    d_th = p.link_threshold_dth
    evaluated = np.flatnonzero(d <= d_th if d_th >= 1.0 else d < 1.0)
    # float_power calls the same libm pow as CPython's float ** float; numpy's
    # ** and np.power take a SIMD path that differs in the last bit.
    with np.errstate(divide="ignore", over="ignore"):
        values = p.ref_gain_alpha0 / np.float_power(d.ravel()[evaluated], p.pathloss_beta)
    if np.max(values, initial=0.0) == np.inf:
        i, j = divmod(int(evaluated[np.argmax(values)]), n + 1)
        raise CoincidentNodesError(f"nodes {i + 1} and {j + 1} are too close for a finite gain")
    if d_th < 1.0:
        values[d.ravel()[evaluated] > d_th] = 0.0
    gains = np.zeros((n, n + 1))
    gains.ravel()[evaluated] = values
    incidence = (gains > 0.0).view(np.int8)
    for arr in (incidence, gains, d):
        arr.flags.writeable = False
    return incidence, gains, d, _link_table(incidence)


def _topology(nodes: tuple[Node, ...], arrays: tuple[np.ndarray, ...]) -> Topology:
    """The Topology of ``nodes`` over ``_link_arrays``' result, its link table
    already listed."""
    incidence, gains, d, links = arrays
    topo = Topology(nodes=nodes, incidence=incidence, gains=gains, distances=d)
    topo.__dict__["links"] = links
    return topo
