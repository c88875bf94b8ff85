"""Shortest-path relay tree rooted at the ground station.

The paper builds this tree with Bellman-Ford. Here the admissible link
weights (link length or one hop) fill a dense n x (n+1) matrix, with inf
where a link is inadmissible, and an O(n^2) Dijkstra settles one node per
step from the ground station, relaxing every UAV with dist[u] + w[:, u]. Each
UAV's parent is then the argmin of dist[j] + w[i, j] over the nodes settled
before it.

The distances are Bellman-Ford's bit for bit. Float addition of a
nonnegative weight is monotone and never decreases a sum, so both algorithms
reach the same floating-point minimum over paths summed outward from the
ground station. argmin returns the first of equal costs, which is the same
lowest-id tie-break as a strict-less scan in id order, so the parents are
Bellman-Ford's too wherever no link weight vanishes in dist[j] + w[i, j]:
a tight predecessor j then lies strictly closer than i and settled before it.
Where a weight does vanish (two UAVs a few ulps of distance apart), two
equally distant UAVs are tight for each other, and the lowest-id rule could
make each the other's parent; taking parents only among earlier-settled
nodes keeps the map a tree.

path_costs sums outward too, cost[i] = cost[parent[i]] + w[i, parent[i]]. The
argmin attains dist[i], so on the tree's own parent map it returns the
tree's path costs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Topology

_WEIGHT_MODES = ("distance", "hops")


class DisconnectedTopologyError(RuntimeError):
    """Some UAV has no admissible path to the ground station."""

    def __init__(self, stranded_ids):
        self.stranded_ids = sorted(stranded_ids)
        super().__init__(
            f"no route to the ground station from UAV(s) {self.stranded_ids}"
        )


@dataclass
class RoutingTree:
    """Parent pointers toward the ground station plus the realized path costs.

    ``path_cost`` is in the units of ``weight``, the weight that built the
    tree: meters for "distance", hop count for "hops".
    """

    parent: dict[int, int]
    path_cost: dict[int, float]
    weight: str = "distance"


@dataclass
class TreeValidationReport:
    """Constraint-by-constraint violation lists; empty lists mean a valid tree.

    single_parent: every UAV names exactly one parent other than itself.
    gs_rooted:     following parents from every UAV reaches the ground station.
    loop_free:     no parent cycles and no mutually-parented pairs.
    admissible:    every parent edge is within the link threshold.
    """

    single_parent: list[str] = field(default_factory=list)
    gs_rooted: list[str] = field(default_factory=list)
    loop_free: list[str] = field(default_factory=list)
    admissible: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.single_parent or self.gs_rooted or self.loop_free or self.admissible)


def build_spt(t: Topology, weight: str = "distance") -> RoutingTree:
    """Shortest-path tree from every UAV to the ground station.

    weight "distance" minimizes the topology's summed link length in meters;
    "hops" minimizes hop count. Raises DisconnectedTopologyError when any UAV
    is cut off from the ground station.
    """
    if weight not in _WEIGHT_MODES:
        raise ValueError(f"unknown weight {weight!r}; use one of {_WEIGHT_MODES}")
    n = t.n_uavs
    # w[v, u]: weight of the link UAV v -> node u (index = id - 1), inf if
    # inadmissible; the ground station is column n.
    w = np.where(t.incidence != 0, 1.0 if weight == "hops" else t.distances, np.inf)

    dist = np.full(n + 1, np.inf)
    dist[n] = 0.0
    unsettled = dist.copy()  # dist of nodes not yet settled, inf once settled
    rank = np.empty(n + 1, dtype=np.intp)  # settle order
    for step in range(n + 1):
        u = int(np.argmin(unsettled))
        if unsettled[u] == np.inf:
            break
        rank[u] = step
        unsettled[u] = np.inf
        via = dist[u] + w[:, u]
        better = via < dist[:n]
        dist[:n][better] = via[better]
        unsettled[:n][better] = via[better]

    stranded = np.flatnonzero(dist[:n] == np.inf) + 1
    if stranded.size:
        raise DisconnectedTopologyError(stranded.tolist())

    # A parent must have settled before its child. Where weights do not
    # vanish in dist + w this excludes no tight predecessor, which then lies
    # strictly closer; where one does, it breaks the tie that would let two
    # equally distant UAVs parent each other.
    np.add(w, dist, out=w)
    np.putmask(w, rank >= rank[:n, None], np.inf)
    # argmin keeps the first minimum, so ties go to the lowest node id.
    parent = np.argmin(w, axis=1) + 1
    ids = t.uav_ids
    return RoutingTree(
        parent=dict(zip(ids, parent.tolist())),
        path_cost=dict(zip(ids, dist[:n].tolist())),
        weight=weight,
    )


def path_costs(parent: dict[int, int], t: Topology, weight: str) -> dict[int, float]:
    """Summed ``weight`` of the links from each UAV to the ground station along
    ``parent``; raises ValueError when the parent map loops."""
    if weight not in _WEIGHT_MODES:
        raise ValueError(f"unknown weight {weight!r}; use one of {_WEIGHT_MODES}")
    cost = {t.gs.id: 0.0}
    for start in sorted(parent):
        chain = []
        node = start
        while node not in cost:
            if len(chain) > t.n_uavs:
                raise ValueError(f"the parent walk from UAV {start} loops")
            chain.append(node)
            node = parent[node]
        for node in reversed(chain):
            up = parent[node]
            cost[node] = cost[up] + (1.0 if weight == "hops" else t.distance(node, up))
    return {i: cost[i] for i in sorted(parent)}


def validate_tree(tree: RoutingTree, t: Topology) -> TreeValidationReport:
    """Check a parent map against the relay-tree constraints.

    Reports violations of the single-parent structure, reachability of the
    ground station, loop-freeness (including two-node mutual parenting), and
    admissibility of every parent edge.
    """
    report = TreeValidationReport()
    gs_id = t.gs.id
    uav_set = set(t.uav_ids)
    valid_ids = uav_set | {gs_id}

    for i in t.uav_ids:
        if i not in tree.parent:
            report.single_parent.append(f"UAV {i} has no parent entry")
    for i, j in tree.parent.items():
        if i not in uav_set:
            report.single_parent.append(f"parent entry for unknown UAV {i}")
            continue
        if j == i:
            report.single_parent.append(f"UAV {i} is its own parent")
            continue
        if j not in valid_ids:
            report.single_parent.append(f"UAV {i} names unknown parent {j}")
            continue
        if not t.is_admissible(i, j):
            report.admissible.append(f"link {i} -> {j} is beyond the admissibility threshold")

    for i, j in tree.parent.items():
        if tree.parent.get(j) == i:
            report.loop_free.append(f"UAVs {min(i, j)} and {max(i, j)} parent each other")

    seen_cycles = set()
    for start in t.uav_ids:
        hops = 0
        node = start
        chain = []
        in_chain = set()
        reached_gs = False
        while hops <= t.n_uavs:
            if node == gs_id:
                reached_gs = True
                break
            nxt = tree.parent.get(node)
            if nxt is None or nxt not in valid_ids:
                break
            chain.append(node)
            in_chain.add(node)
            if nxt in in_chain:
                cycle = tuple(sorted(set(chain[chain.index(nxt):]) | {nxt}))
                if cycle not in seen_cycles:
                    seen_cycles.add(cycle)
                    report.loop_free.append(f"parent cycle through UAVs {list(cycle)}")
                break
            node = nxt
            hops += 1
        if not reached_gs:
            report.gs_rooted.append(f"UAV {start} cannot reach the ground station")

    # Deduplicate mutual-pair messages that the cycle walk also found.
    report.loop_free = sorted(set(report.loop_free))
    return report
