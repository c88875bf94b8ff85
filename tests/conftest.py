"""Shared fixtures: hand-built topologies and random instance generators.

Most tests run on synthetic gain tables rather than geometric placements so
the expected numbers can be derived by hand.  `synth_topology` builds a
Topology directly from per-UAV gain dicts; node positions are dummies.
"""

import numpy as np
import pytest

from fanetsim.model import ChannelParams, Node, Topology, build_topology
from fanetsim.routing import RoutingTree


def toy_params(bandwidth=1.0, noise=1.0):
    # unit-scale channel, threshold large enough to never prune links
    return ChannelParams(
        bandwidth_B=bandwidth,
        noise_density_sigma2=noise,
        ref_gain_alpha0=1.0,
        pathloss_beta=2.0,
        link_threshold_dth=1e9,
    )


def synth_topology(gain_rows, params=None):
    """Topology from explicit gains.

    gain_rows: list of dicts, one per UAV (id = index+1), mapping neighbor
    node id -> gain.  Ground station gets id n+1.  Absent entries are
    inadmissible.  Every listed link is 1 m long and unlisted pairs are inf,
    so the distance-weighted tree is the hop tree.  Positions are
    placeholders; nothing downstream of the Topology object looks at
    coordinates.
    """
    n = len(gain_rows)
    gs_id = n + 1
    nodes = tuple(
        [Node(i + 1, float(i), 0.0, 150.0, "uav") for i in range(n)]
        + [Node(gs_id, -1.0, -1.0, 0.0, "ground_station")]
    )
    incidence = np.zeros((n, n + 1), dtype=bool)
    gains = np.zeros((n, n + 1), dtype=float)
    for i, row in enumerate(gain_rows):
        for j, g in row.items():
            incidence[i, j - 1] = True
            gains[i, j - 1] = g
    distances = np.where(incidence, 1.0, np.inf)
    for arr in (incidence, gains, distances):
        arr.setflags(write=False)
    return Topology(nodes=nodes, incidence=incidence, gains=gains, distances=distances)


def admissible_neighbors(t, uav_id):
    """Node ids admissible from UAV ``uav_id``, ascending, read from the
    incidence matrix itself rather than from ``Topology.links``."""
    return tuple(int(j) + 1 for j in np.flatnonzero(t.incidence[uav_id - 1]))


def chain_gains(gain_list):
    """Gain rows for a chain gs <- uav1 <- uav2 <- ... (uav i talks to i-1
    and i+1 only; uav1 talks to the ground station)."""
    n = len(gain_list)
    rows = []
    for i in range(1, n + 1):
        row = {}
        if i == 1:
            row[n + 1] = gain_list[0]
        else:
            row[i - 1] = gain_list[i - 1]
        if i < n:
            row[i + 1] = gain_list[i]
        rows.append(row)
    return rows


def star_tree(n):
    """Every one of n UAVs a direct child of the ground station (id n+1)."""
    return RoutingTree(
        parent={i: n + 1 for i in range(1, n + 1)},
        path_cost={i: 1.0 for i in range(1, n + 1)},
    )


def random_cluster_topology(rng, n, params=None, radius=4000.0):
    """Random geometric instance with every UAV within `radius` of the
    ground station, so direct links always exist and the instance is
    connected by construction."""
    p = params or ChannelParams()
    nodes = []
    for i in range(n):
        r = radius * np.sqrt(rng.uniform(0.05, 1.0))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        nodes.append(Node(i + 1, r * np.cos(theta), r * np.sin(theta), 150.0, "uav"))
    nodes.append(Node(n + 1, 0.0, 0.0, 0.0, "ground_station"))
    return build_topology(tuple(nodes), p)


@pytest.fixture
def unit_params():
    return toy_params()


# One line per acceptance criterion, printed at the end of the run so the
# gate's verdicts are visible without -s (test_acceptance.py fills this).
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_REPORT:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_REPORT:
        terminalreporter.write_line(line)
