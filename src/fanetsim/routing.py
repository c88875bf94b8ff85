"""Shortest-path relay tree rooted at the ground station.

The paper builds this tree with Bellman-Ford, and so does build_spt, in
synchronous rounds over the admissible links, listed row-major in
``Topology.links``, so each UAV's links form one run in
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

A RoutingTree is immutable, and it derives what its readers need once, on
first read: the parent index array, the preorder and the preorder's entry
and exit numbers. build_spt and link rounding make trees that are valid by
construction, with path costs of their own, and mark them so for their
Topology. Stages that need a valid tree run validate_tree only on a tree
without that mark, such as one made from a caller's dict, and mark it once
it passes; validate_tree itself checks in full on every call. Node ids are
ints or numpy integers: a bool, a float or a string is an unknown id.
"""

from __future__ import annotations

import functools
import types
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .model import Topology, is_integer

_WEIGHT_MODES = ("distance", "hops")


class DisconnectedTopologyError(RuntimeError):
    """Some UAV has no admissible path to the ground station."""

    def __init__(self, stranded_ids):
        self.stranded_ids = sorted(stranded_ids)
        super().__init__(
            f"no route to the ground station from UAV(s) {self.stranded_ids}"
        )


@dataclass(frozen=True)
class RoutingTree:
    """Parent pointers toward the ground station plus the realized path costs.

    ``path_cost`` is in the units of ``weight``, the weight that built the
    tree: meters for "distance", hop count for "hops". The tree is immutable:
    ``parent`` and ``path_cost`` are read-only copies of the maps it is given,
    and compare equal to dicts. What its readers need is derived once, on
    first read, and cached read-only: ``parent_index``, ``parent_links``,
    ``preorder`` and ``euler``. Those raise ValueError unless the keys of
    ``parent`` are the UAVs 1..n and every id is an integer.
    """

    parent: Mapping[int, int]
    path_cost: Mapping[int, float]
    weight: str = "distance"
    # Weak references to the Topology the tree is known to be valid for, and
    # to the one whose link lengths its path costs were summed over.
    _valid_for = None
    _costs_for = None

    def __post_init__(self):
        object.__setattr__(self, "parent", types.MappingProxyType(dict(self.parent)))
        object.__setattr__(self, "path_cost", types.MappingProxyType(dict(self.path_cost)))

    def __reduce__(self):
        # A copy or an unpickled tree starts unmarked, with nothing cached.
        return RoutingTree, (dict(self.parent), dict(self.path_cost), self.weight)

    @functools.cached_property
    def parent_index(self) -> np.ndarray:
        """Each UAV's parent by node index: entry i - 1 is ``parent[i] - 1``,
        so the ground station of n UAVs is n."""
        uavs, ups = _id_arrays(self.parent)
        n = uavs.size
        # n distinct keys in 1..n are exactly the UAVs.
        if n and not (uavs.min() >= 1 and uavs.max() <= n):
            raise ValueError(f"the parent map's keys are not the UAVs 1..{n}")
        index = np.empty(n, dtype=np.intp)
        index[uavs - 1] = ups - 1
        return _read_only(index)

    @functools.cached_property
    def parent_links(self) -> tuple[np.ndarray, np.ndarray]:
        """The index (rows, parent_index) of every UAV's parent link, in UAV
        id order: ``values[tree.parent_links]`` gathers the parent links'
        entries of a Topology matrix such as ``gains`` or ``distances``."""
        return _read_only(np.arange(self.parent_index.size)), self.parent_index

    @functools.cached_property
    def preorder(self) -> tuple[int, ...]:
        """The node ids that the ground station (id n + 1) reaches through
        ``parent``, root first: every node comes after its parent, and each
        subtree is one contiguous run."""
        # Child lists indexed by node id; a parent id outside 1..n+1 files
        # its children under n + 2, where the walk never looks.
        n = self.parent_index.size
        ups = self.parent_index + 1
        ups[(ups < 1) | (ups > n + 1)] = n + 2
        children: list[list[int]] = [[] for _ in range(n + 3)]
        for child, up in enumerate(ups.tolist(), 1):
            children[up].append(child)
        return tuple(_walk(children, n + 1))

    @functools.cached_property
    def euler(self) -> tuple[np.ndarray, np.ndarray]:
        """Preorder entry and exit numbers (tin, tout) by node index id - 1.

        Node k lies in node i's subtree exactly when tin[i] <= tin[k] <
        tout[i] (the parenthesis theorem, Cormen et al., *Introduction to
        Algorithms*, section 22.3); nodes that the ground station does not
        reach keep tin = tout = -1.
        """
        n = self.parent_index.size
        order = self.preorder
        # A preorder numbers each subtree contiguously: tout = tin + subtree
        # size. Sizes and parents are listed by node id.
        ups = [0, *(self.parent_index + 1).tolist()]
        size = [1] * (n + 2)
        for node in reversed(order[1:]):
            size[ups[node]] += size[node]
        tin = np.full(n + 1, -1, dtype=np.intp)
        at = np.array(order) - 1
        tin[at] = np.arange(len(order))
        tout = tin.copy()
        tout[at] += np.array(size)[at + 1]
        return _read_only(tin), _read_only(tout)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _holds(mark, t: Topology) -> bool:
    """Whether a tree's mark (a weak reference or None) refers to ``t``."""
    return mark is not None and mark() is t


def _made(parent: dict[int, int], path_cost: dict[int, float], weight: str, t: Topology,
          index: np.ndarray) -> RoutingTree:
    """A tree that is valid for ``t`` by construction, with ``path_cost`` its
    own path costs over ``t`` and ``index`` its parent_index, marked so that
    no stage checks it again."""
    tree = RoutingTree(parent, path_cost, weight)
    tree.__dict__["parent_index"] = _read_only(index)
    mark = weakref.ref(t)
    object.__setattr__(tree, "_valid_for", mark)
    object.__setattr__(tree, "_costs_for", mark)
    return tree


def _require_valid(tree: RoutingTree, t: Topology) -> None:
    """Raise ValueError with validate_tree's report unless ``tree`` is a
    valid tree for ``t``. A tree made valid for ``t``, or one that has
    passed here, carries a mark and is not checked again."""
    if _holds(tree._valid_for, t):
        return
    report = validate_tree(tree, t)
    if not report.ok:
        raise ValueError(f"routing tree is invalid: {report}")
    object.__setattr__(tree, "_valid_for", weakref.ref(t))


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
    links, rows, cols, starts = t.links
    if weight == "hops":
        w = lightest = 1.0
    else:
        w = t.distances.take(links)
        lightest = w.min(initial=np.inf)
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
    index = np.minimum.reduceat(np.where(tight, cols, n), starts)
    ids = t.uav_ids
    return _made(dict(zip(ids, (index + 1).tolist())), dict(zip(ids, dist[:n].tolist())),
                 weight, t, index)


def connected_to_gs(t: Topology) -> bool:
    """Whether every UAV reaches the ground station: in hop rounds over the link
    runs a UAV is reached once any of its links' far ends is, until none is added."""
    return _reaches_gs(t.n_uavs, t.links)


def _reaches_gs(n: int, links: tuple) -> bool:
    """connected_to_gs on the link table (``Topology.links``) of n UAVs."""
    _, _, cols, starts = links
    reached = np.append(np.zeros(n, dtype=bool), True)
    count, before = 1, 0
    while starts.size == n and before < count <= n:  # an unlinked UAV is never reached
        np.logical_or.reduceat(reached[cols], starts, out=reached[:n])
        before, count = count, np.count_nonzero(reached)
    return count > n


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


def _ids(values: list) -> np.ndarray | None:
    """``values`` as an intp array, or None unless every one is a node id: an
    int or a numpy integer within the intp range (a bool, a float or a
    string is not)."""
    if not ({*map(type, values)} <= {int} or all(map(is_integer, values))):
        return None
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        return None


def _id_arrays(parent: Mapping[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The keys and the values of a parent map as intp arrays, in the map's
    order; raises ValueError naming the first entry with an id that is not
    an integer."""
    uavs, ups = _ids(list(parent)), _ids(list(parent.values()))
    if uavs is None or ups is None:
        i, j = next((i, j) for i, j in parent.items() if _ids([i]) is None or _ids([j]) is None)
        if _ids([i]) is None:
            raise ValueError(f"parent entry for {i!r}, which is not a UAV id")
        raise ValueError(f"UAV {i} names parent {j!r}, which is not a node id")
    return uavs, ups


def parent_link_values(values: np.ndarray, parent: Mapping[int, int],
                       uavs: list[int]) -> list[float]:
    """``values[i - 1, parent[i] - 1]`` for each UAV i of ``uavs``, in one
    gather: the parent links' entries of a Topology matrix such as ``gains``
    or ``distances``. Raises ValueError when one of those UAVs or its parent
    is not an integer id. A RoutingTree's own links are read through its
    cached ``parent_links`` instead."""
    rows, cols = _id_arrays({i: parent[i] for i in uavs})
    return values[rows - 1, cols - 1].tolist()


def _walk(children, root: int) -> list[int]:
    """The nodes below ``root`` in ``children`` (``children[node]`` lists
    node's children), in a preorder from ``root``."""
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    return order


def _preorder(parent: Mapping[int, int], root: int) -> list[int]:
    """The nodes that ``root`` reaches through ``parent``, in a preorder from
    ``root``: every node comes after its parent, and each subtree is one
    contiguous run. An entry for ``root`` itself is ignored."""
    children: defaultdict[int, list[int]] = defaultdict(list)
    for child, par in parent.items():
        children[par].append(child)
    if root in parent:
        children[parent[root]].remove(root)
    return _walk(children, root)


def path_costs(parent: Mapping[int, int], t: Topology, weight: str) -> dict[int, float]:
    """Summed ``weight`` of the links from each UAV to the ground station along
    ``parent``; raises ValueError on an id that is not an integer and names
    the lowest UAV whose walk misses the ground station."""
    if weight not in _WEIGHT_MODES:
        raise ValueError(f"unknown weight {weight!r}; use one of {_WEIGHT_MODES}")
    rows, cols = _id_arrays(parent)
    if weight == "hops":
        length = dict.fromkeys(parent, 1.0)
    else:
        length = dict(zip(parent, t.distances[rows - 1, cols - 1].tolist()))
    cost = {t.gs.id: 0.0}
    for node in _preorder(parent, t.gs.id)[1:]:
        cost[node] = cost[parent[node]] + length[node]
    try:
        return {i: cost[i] for i in sorted(parent)}
    except KeyError as missed:
        raise ValueError(f"the parent walk from UAV {missed.args[0]} loops") from None


def _rerouted(tree: RoutingTree, parent: dict[int, int], moved: list[int],
              t: Topology) -> RoutingTree:
    """``tree`` with the UAVs of ``moved`` re-parented as ``parent`` says,
    where ``parent`` is a valid tree for ``t`` and ``tree`` is valid for it.

    When ``tree``'s path costs are its own, only the moved UAVs' new
    subtrees change cost, and only those are summed again, with path_costs'
    adds ``cost[parent] + w``, parents before children; otherwise path_costs
    sums every cost. Pointer doubling over the new parent index marks the
    UAVs at or below a moved UAV and counts every node's depth: after k
    passes ``up`` is the node 2**k links above, the ground station its own
    parent, until every node's is the ground station.
    """
    at = np.array(moved, dtype=np.intp) - 1
    index = tree.parent_index.copy()
    index[at] = [parent[i] - 1 for i in moved]
    if not _holds(tree._costs_for, t):
        return _made(parent, path_costs(parent, t, tree.weight), tree.weight, t, index)

    n = index.size
    up = np.append(index, n)
    below = np.zeros(n + 1, dtype=bool)
    below[at] = True
    depth = np.ones(n + 1, dtype=np.intp)
    depth[n] = 0
    while (up < n).any():
        below |= below[up]
        depth += depth[up]
        up = up[up]
    rows = np.flatnonzero(below)
    rows = rows[np.argsort(depth[rows], kind="stable")]
    ups = index[rows]
    if tree.weight == "hops":
        length = [1.0] * rows.size
    else:
        length = t.distances[rows, ups].tolist()
    gs = t.gs.id
    cost = tree.path_cost.copy()
    cost[gs] = 0.0
    for node, up_id, w in zip((rows + 1).tolist(), (ups + 1).tolist(), length):
        cost[node] = cost[up_id] + w
    del cost[gs]
    return _made(parent, cost, tree.weight, t, index)


def _is_tree(parent: Mapping[int, int], t: Topology) -> bool:
    """True when ``parent`` maps UAVs 1..n to admissible parents from which
    every UAV reaches the ground station, decided with array code. False
    also when its keys or values are not all integers, which the walk in
    validate_tree then reports."""
    n = t.n_uavs
    if len(parent) != n:
        return False
    uavs, ups = _ids(list(parent)), _ids(list(parent.values()))
    if uavs is None or ups is None:
        return False
    if n and (uavs.min() < 1 or uavs.max() > n or ups.min() < 1 or ups.max() > n + 1):
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
    """Check a parent map against the relay-tree constraints, in full on
    every call.

    Reports violations of the single-parent structure, reachability of the
    ground station, loop-freeness (including two-node mutual parenting), and
    admissibility of every parent edge. A key or a parent that is not an
    integer (a bool, a float, a string) is an unknown UAV or parent.
    """
    if _is_tree(tree.parent, t):
        return TreeValidationReport()
    report = TreeValidationReport()
    gs_id = t.gs.id
    uav_ids = range(1, t.n_uavs + 1)
    uav_set = set(uav_ids)
    valid_ids = uav_set | {gs_id}
    # 2.0 and True equal the ids 2 and 1 as dict keys, so only the entries
    # between integer ids are looked up or walked.
    ints = {i: j for i, j in tree.parent.items() if is_integer(i) and is_integer(j)}
    keys = {i for i in tree.parent if is_integer(i)}

    for i in uav_ids:
        if i not in keys:
            report.single_parent.append(f"UAV {i} has no parent entry")
    for i, j in tree.parent.items():
        if not (is_integer(i) and i in uav_set):
            report.single_parent.append(f"parent entry for unknown UAV {i}")
        elif not (is_integer(j) and j in valid_ids):
            report.single_parent.append(f"UAV {i} names unknown parent {j}")
        elif j == i:
            report.single_parent.append(f"UAV {i} is its own parent")
        elif not t.is_admissible(i, j):
            report.admissible.append(f"link {i} -> {j} is beyond the admissibility threshold")

    for i, j in ints.items():
        if ints.get(j) == i:
            report.loop_free.append(f"UAVs {min(i, j)} and {max(i, j)} parent each other")

    # Reachability is the preorder's; then one pass from the UAVs in id
    # order walks the entries not yet seen, and a walk that stops on a node
    # of its own chain has closed a cycle. Each entry is walked once per
    # call, so every cycle is met by exactly one walk.
    known = {i: j for i, j in ints.items() if i in uav_set}
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
