"""Shortest-path relay tree rooted at the ground station.

The paper builds this tree with Bellman-Ford, and so does build_spt, in
synchronous rounds over the admissible links. The links are the incidence
matrix's nonzeros in row-major order, so each UAV's links form one run in
ascending node id. A round gathers dist[j] at the far end of every link,
adds the link's weight (its length, or 1.0 for hops) and lowers each UAV to
the least sum of its run with one np.minimum.reduceat. Rounds stop at the
first that lowers nothing. Round k reaches the UAVs whose least-cost paths
have k links, so there is one round more than the most links on such a
path: a handful on the paper's layouts, a few dozen at n=1000, at most n+1.

The distances are the same floats in any Bellman-Ford or Dijkstra order.
Float addition of a nonnegative weight is monotone and never decreases a
sum, so every order reaches the same floating-point minimum over paths
summed outward from the ground station, each sum dist[j] + w[i, j].

Each UAV's parent is its lowest-id tight link (dist[j] + w[i, j] ==
dist[i]) to a node strictly closer than itself. When the lightest link
weight exceeds np.spacing of the largest path cost, no weight vanishes in a
sum, so every tight link leads strictly closer and the parent is the
lowest-id tight link. Otherwise (two UAVs a few ulps of distance apart) two
equally distant UAVs can be tight for each other, and the lowest-id rule
could make each the other's parent. There an O(n^2) Dijkstra runs for its
settle order alone, and the parent is the lowest-id tight link to a node
settled earlier, which keeps the map a tree. Where no weight vanishes the
two rules agree, since a tight node is then strictly closer and so settled
earlier.

path_costs sums outward too, cost[i] = cost[parent[i]] + w[i, parent[i]],
along the parent map's preorder. Every parent link is tight, so on the
tree's own parent map it returns the tree's path costs bit for bit.
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
    # The admissible links UAV rows[k] -> node cols[k] (index = id - 1, the
    # ground station is n), row-major: each UAV's links are one run, in
    # ascending node id, from one of ``starts`` to the next. numpy finds the
    # nonzeros of a bool array several times faster than of an int8 one.
    links = t.incidence.astype(bool, copy=False).ravel().nonzero()[0]
    rows, cols = np.divmod(links, n + 1)
    if weight == "hops":
        w = lightest = 1.0
    else:
        w = t.distances.take(links)
        lightest = w.min(initial=np.inf)
    first = np.empty(links.size, dtype=bool)
    first[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    starts = first.nonzero()[0]
    # A UAV without links keeps dist inf; the rounds write the others.
    linked = slice(n) if starts.size == n else rows[starts]

    # A round sets each dist[i] to the least dist[j] + w over i's links, from
    # the last round's dist. That never rises (it starts at inf, and float
    # addition is monotone), so it needs no minimum with the old value. No
    # distance is -0.0 or nan, so equal bytes are equal values.
    dist = np.full(n + 1, np.inf)
    dist[n] = 0.0
    while True:
        via = dist[cols] + w
        lowest = np.minimum.reduceat(via, starts)
        if lowest.tobytes() == dist[linked].tobytes():
            break
        dist[linked] = lowest

    top = dist.max()
    if top == np.inf:
        stranded = np.flatnonzero(dist[:n] == np.inf) + 1
        raise DisconnectedTopologyError(stranded.tolist())

    # The last round changed nothing, so via holds dist[j] + w on every link.
    tight = via == dist[rows]
    if not lightest > np.spacing(top):
        settled = _settle_order(n, rows, cols, w)
        tight &= settled[cols] < settled[rows]
    # The lowest-id tight link of each run; every UAV has one.
    parent = np.minimum.reduceat(np.where(tight, cols, n), starts) + 1
    ids = t.uav_ids
    return RoutingTree(
        parent=dict(zip(ids, parent.tolist())),
        path_cost=dict(zip(ids, dist[:n].tolist())),
        weight=weight,
    )


def _settle_order(n: int, rows: np.ndarray, cols: np.ndarray, w) -> np.ndarray:
    """The step at which an O(n^2) Dijkstra settles each node (index = id -
    1) of a connected topology, from the ground station (index n).

    Each step takes the unsettled node u of least tentative distance (argmin
    over a key vector that holds inf for settled nodes), adds its distance
    and a 0/inf penalty that keeps settled UAVs out to the weights of the
    links into u (row u of a dense n+1 x n matrix), and lowers the keys to
    that sum with one in-place minimum.
    """
    into = np.full((n + 1, n), np.inf)  # into[u, v]: weight of the link v -> u
    into[cols, rows] = w
    key = np.full(n + 1, np.inf)  # tentative dist of unsettled nodes, inf once settled
    key[n] = 0.0
    uav_key = key[:n]
    closed = np.zeros(n)  # inf on settled UAVs, so no relaxation reopens them
    via = np.empty(n)
    rank = np.empty(n + 1, dtype=np.intp)
    for step in range(n + 1):
        u = int(key.argmin())
        d = key[u]
        rank[u] = step
        key[u] = np.inf
        if u < n:
            closed[u] = np.inf
        np.add(into[u], closed, out=via)
        via += d
        np.minimum(uav_key, via, out=uav_key)
    return rank


def parent_link_values(values: np.ndarray, parent: dict[int, int], uavs: list[int]) -> list[float]:
    """``values[i - 1, parent[i] - 1]`` for each UAV i of ``uavs``, in one
    gather: the parent links' entries of a Topology matrix such as ``gains``
    or ``distances``."""
    if not uavs:
        return []
    return values[np.array(uavs) - 1, np.array([parent[i] for i in uavs]) - 1].tolist()


def _preorder(parent: dict[int, int], root: int) -> list[int]:
    """The nodes that ``root`` reaches through ``parent``, in a preorder from
    ``root``: every node comes after its parent, and each subtree is one
    contiguous run. An entry for ``root`` itself is ignored."""
    children: dict[int, list[int]] = {}
    for child, par in parent.items():
        children.setdefault(par, []).append(child)
    if root in parent:
        children[parent[root]].remove(root)
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children.get(node, ()))
    return order


def _euler_intervals(parent: dict[int, int], n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Preorder entry and exit numbers of a parent map, by node index id - 1.

    The root is the last node (the ground station). Node k lies in node i's
    subtree exactly when tin[i] <= tin[k] < tout[i] (the parenthesis theorem,
    Cormen et al., *Introduction to Algorithms*, section 22.3); nodes that
    the root does not reach keep tin = tout = -1.
    """
    order = _preorder(parent, n_nodes)
    # A preorder numbers each subtree contiguously: tout = tin + subtree size.
    size = dict.fromkeys(order, 1)
    for node in reversed(order[1:]):
        size[parent[node]] += size[node]
    tin = np.full(n_nodes, -1, dtype=np.intp)
    tout = tin.copy()
    at = np.array(order) - 1
    tin[at] = np.arange(len(order))
    tout[at] = tin[at] + np.fromiter(size.values(), np.intp, len(order))
    return tin, tout


def path_costs(parent: dict[int, int], t: Topology, weight: str) -> dict[int, float]:
    """Summed ``weight`` of the links from each UAV to the ground station along
    ``parent``; raises ValueError naming the lowest UAV whose walk misses it."""
    if weight not in _WEIGHT_MODES:
        raise ValueError(f"unknown weight {weight!r}; use one of {_WEIGHT_MODES}")
    uavs = sorted(parent)
    if weight == "hops":
        length = dict.fromkeys(uavs, 1.0)
    else:
        length = dict(zip(uavs, parent_link_values(t.distances, parent, uavs)))
    cost = {t.gs.id: 0.0}
    for node in _preorder(parent, t.gs.id)[1:]:
        cost[node] = cost[parent[node]] + length[node]
    try:
        return {i: cost[i] for i in uavs}
    except KeyError as missed:
        raise ValueError(f"the parent walk from UAV {missed.args[0]} loops") from None


def _is_tree(parent: dict[int, int], t: Topology) -> bool:
    """True when ``parent`` maps UAVs 1..n to admissible parents from which
    every UAV reaches the ground station, decided with array code. False
    also when its keys or values are not all integers, which the walk in
    validate_tree then reports or rejects."""
    n = t.n_uavs
    if len(parent) != n:
        return False
    uavs = np.array(list(parent))
    ups = np.array(list(parent.values()))
    if uavs.dtype.kind != "i" or ups.dtype.kind != "i":
        return False
    if uavs.min() < 1 or uavs.max() > n or ups.min() < 1 or ups.max() > n + 1:
        return False
    # n distinct keys in 1..n are exactly the UAVs.
    if (ups == uavs).any() or not t.incidence[uavs - 1, ups - 1].all():
        return False
    # Pointer doubling: after k passes up[v] is the node 2**k parent links
    # above v, with the ground station its own parent. A tree is at most n
    # deep, and 2**n.bit_length() > n.
    up = np.empty(n + 1, dtype=np.intp)
    up[uavs - 1] = ups - 1
    up[n] = n
    for _ in range(n.bit_length()):
        up = up[up]
    return bool((up == n).all())


def validate_tree(tree: RoutingTree, t: Topology) -> TreeValidationReport:
    """Check a parent map against the relay-tree constraints.

    Reports violations of the single-parent structure, reachability of the
    ground station, loop-freeness (including two-node mutual parenting), and
    admissibility of every parent edge.
    """
    if _is_tree(tree.parent, t):
        return TreeValidationReport()
    report = TreeValidationReport()
    gs_id = t.gs.id
    uav_ids = range(1, t.n_uavs + 1)
    uav_set = set(uav_ids)
    valid_ids = uav_set | {gs_id}
    parent = tree.parent

    for i in uav_ids:
        if i not in parent:
            report.single_parent.append(f"UAV {i} has no parent entry")
    for i, j in parent.items():
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

    for i, j in parent.items():
        if parent.get(j) == i:
            report.loop_free.append(f"UAVs {min(i, j)} and {max(i, j)} parent each other")

    # Reachability is the preorder's; then one pass from the UAVs in id
    # order walks the entries not yet seen, and a walk that stops on a node
    # of its own chain has closed a cycle. Each entry is walked once per
    # call, so every cycle is met by exactly one walk.
    known = {i: j for i, j in parent.items() if i in uav_set}
    seen = set(_preorder(known, gs_id))
    report.gs_rooted = [f"UAV {i} cannot reach the ground station"
                        for i in uav_ids if i not in seen]
    for start in uav_ids:
        chain: dict[int, int] = {}  # node -> position in this walk
        node = start
        while node in known and node not in seen:
            seen.add(node)
            chain[node] = len(chain)
            node = known[node]
        if node in chain:
            cycle = sorted(list(chain)[chain[node]:])
            report.loop_free.append(f"parent cycle through UAVs {cycle}")

    # Deduplicate mutual-pair messages that the cycle pass also found.
    report.loop_free = sorted(set(report.loop_free))
    return report
