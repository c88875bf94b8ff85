"""Barrier-relaxed link reselection on top of a fixed power allocation.

Each UAV i that holds power P_i > 0 gets a candidate list of alternative
parents (in-range nodes whose adoption keeps the relay structure a tree,
excluding the current parent). The binary reselection is relaxed to interior
variables L in (0,1) per candidate with log barriers at both ends,

    phi(L) = sum_ik L_ik * R_ik * D_ik
             + (1/gamma) * sum_ik [ log(L_ik) + log(1 - L_ik) ],

maximized per UAV subject to sum_k L_ik * P_ik = P_i. With every candidate
priced at the UAV's own power (P_ik = P_i) the constraint is the unit
simplex sum_k L_ik = 1. Maximization runs projected Newton steps that stay
on the constraint plane, with Armijo backtracking, a growing barrier weight
schedule, and the Newton decrement as the stopping statistic. Rounding then
adopts each UAV's heaviest candidate when it strictly beats the current
parent's rate and keeps the tree valid.

The per-UAV problems are independent and have the same form, so every UAV
with exactly m >= 2 candidates is solved as one row of a (G, m) array, in
lock step: each pass gives every live row one Newton iteration at its own
barrier weight, converged rows move on to their next round, and finished
rows leave the block. Each row's arithmetic is the same, bit for bit, as
solving that UAV alone on its own length-m vectors:

- rows are never padded, so every dot product and sum runs over exactly m
  elements (padding would move elements across OpenBLAS ``ddot``'s 16-wide
  blocks and numpy's 8-wide pairwise-sum blocks);
- per-row dot products use ``np.vecdot``, which calls the same ``ddot`` per
  row as ``@`` on one vector (``einsum`` sums in another order), and per-row
  sums use ``sum(axis=1)``, the same pairwise sum per row;
- elementwise expressions keep one evaluation order, and the barrier
  weights are the Python floats ``gamma_init * gamma_growth**r``.

A UAV's outcome therefore does not depend on which other UAVs share its
block, and ``newton_refine`` reports the UAVs in id order, raising the lowest
failing UAV's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .model import ChannelParams, Topology, is_integer, is_real, link_capacity
from .power import PowerAllocation, network_throughput
from .routing import RoutingTree, path_costs, validate_tree

# Barrier weight schedule: gamma_init, then gamma_growth-fold per round.
BARRIER_ROUNDS = 3
# Initial iterates are kept at least this far inside (0, 1).
INTERIOR_MARGIN = 1e-6
# Line search gives up below this step fraction.
_MIN_STEP_FRACTION = 1e-14


class ConvergenceError(RuntimeError):
    """Newton refinement failed to reach the decrement target."""

    def __init__(self, uav_id: int, gamma: float, decrement: float, iterations: int):
        self.uav_id = uav_id
        self.gamma = gamma
        self.last_decrement = decrement
        super().__init__(
            f"UAV {uav_id}: Newton decrement {decrement:.3e} after "
            f"{iterations} iterations at barrier weight {gamma:g}"
        )


@dataclass(frozen=True)
class Candidate:
    """One admissible alternative parent with its rate at the UAV's fixed power."""

    neighbor: int
    rate: float


@dataclass
class CandidateSet:
    """Per-UAV candidate lists, sorted by neighbor id."""

    candidates: dict[int, tuple[Candidate, ...]]

    def entries(self) -> list[tuple[int, Candidate]]:
        """All (uav, candidate) pairs in canonical (uav, neighbor) order."""
        out = []
        for i in sorted(self.candidates):
            out.extend((i, cand) for cand in self.candidates[i])
        return out

    def lookup(self, uav_id: int, neighbor: int) -> Candidate:
        for cand in self.candidates.get(uav_id, ()):
            if cand.neighbor == neighbor:
                return cand
        raise KeyError(f"({uav_id}, {neighbor}) is not a candidate pair")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the barrier schedule, Newton loop, and line search."""

    gamma_init: float = 10.0
    gamma_growth: float = 10.0
    epsilon_decrement: float = 1e-8
    backtrack_alpha: float = 0.25
    backtrack_tau_shrink: float = 0.5
    max_newton_iters: int = 100

    def __post_init__(self):
        for name in ("gamma_init", "gamma_growth", "epsilon_decrement",
                     "backtrack_alpha", "backtrack_tau_shrink"):
            value = getattr(self, name)
            if not is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (0.0 < self.gamma_init < math.inf and 1.0 <= self.gamma_growth < math.inf):
            raise ValueError("barrier schedule must start positive, not shrink, and stay finite")
        try:
            final_gamma = self.final_gamma
        except OverflowError:
            final_gamma = math.inf
        if final_gamma == math.inf:
            raise ValueError(
                f"barrier schedule overflows: gamma_init * gamma_growth**{BARRIER_ROUNDS - 1} "
                "must be finite"
            )
        if not 0.0 < self.epsilon_decrement < math.inf:
            raise ValueError("epsilon_decrement must be positive and finite")
        if not 0.0 < self.backtrack_alpha < 0.5:
            raise ValueError("backtrack_alpha must lie in (0, 0.5)")
        if not 0.0 < self.backtrack_tau_shrink < 1.0:
            raise ValueError("backtrack_tau_shrink must lie in (0, 1)")
        if not is_integer(self.max_newton_iters) or self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be an integer of at least 1")

    @property
    def final_gamma(self) -> float:
        """Barrier weight of the last round."""
        return self.gamma_init * self.gamma_growth ** (BARRIER_ROUNDS - 1)


@dataclass
class RelaxedLinkMatrix:
    """Interior relaxation values plus solver bookkeeping.

    ``L_r`` maps (uav, neighbor) candidate pairs to values strictly inside
    (0, 1). UAVs whose equality constraint pins the single candidate at the
    boundary are carried in ``pinned`` instead. ``final_decrement`` is the
    largest last-round Newton decrement across UAVs, measured on the
    rate-normalized objective that the solver actually descends.
    """

    L_r: dict[tuple[int, int], float]
    barrier_gamma: float
    iterations: int
    final_decrement: float
    pinned: dict[int, int] = field(default_factory=dict)


def _subtree_ids(children: dict[int, list[int]], root: int) -> set[int]:
    """UAV ids in the subtree hanging below ``root`` (root included)."""
    out = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in children.get(node, ()):
            if child not in out:
                out.add(child)
                stack.append(child)
    return out


def build_candidates(tree: RoutingTree, t: Topology, alloc: PowerAllocation,
                     p: ChannelParams) -> CandidateSet:
    """Alternative parents for every UAV at its frozen power.

    A neighbor k qualifies when the link is admissible, k is not the current
    parent, and re-parenting onto k keeps the relay structure a tree, i.e. k
    is outside the UAV's own subtree. Each candidate carries the rate the UAV
    would see on that link at its current power.
    """
    children: dict[int, list[int]] = {}
    for child, par in tree.parent.items():
        children.setdefault(par, []).append(child)
    out: dict[int, tuple[Candidate, ...]] = {}
    for i in sorted(tree.parent):
        blocked = _subtree_ids(children, i)
        power = alloc.power[i]
        cands = []
        for k in t.admissible_neighbors(i):
            if k == tree.parent[i] or k in blocked:
                continue
            cands.append(
                Candidate(neighbor=k, rate=link_capacity(power, t.gain(i, k), p))
            )
        if cands:
            out[i] = tuple(cands)
    return CandidateSet(candidates=out)


def _as_mapping(L_r) -> Mapping[tuple[int, int], float]:
    if isinstance(L_r, RelaxedLinkMatrix):
        return L_r.L_r
    return L_r


def barrier_objective(L_r, c: CandidateSet, gamma: float) -> float:
    """Evaluate phi over the entries of ``L_r``.

    Every key must be a candidate pair and every value strictly inside
    (0, 1); boundary or exterior values raise ValueError because the barrier
    is undefined there.
    """
    if gamma <= 0.0:
        raise ValueError("barrier weight gamma must be positive")
    values = _as_mapping(L_r)
    total = 0.0
    inv_gamma = 1.0 / gamma
    for (i, k), v in sorted(values.items()):
        cand = c.lookup(i, k)
        if not 0.0 < v < 1.0:
            raise ValueError(f"L_r[{i},{k}] = {v} is outside the open interval (0, 1)")
        total += v * cand.rate
        total += inv_gamma * (math.log(v) + math.log(1.0 - v))
    return total


def gradient_hessian(L_r, c: CandidateSet, gamma: float):
    """Per-entry first derivative and diagonal second derivative of phi.

    The cross terms vanish because the objective is separable per entry, so
    the Hessian is returned as a mapping of diagonal values, each strictly
    negative on the interior.
    """
    if gamma <= 0.0:
        raise ValueError("barrier weight gamma must be positive")
    values = _as_mapping(L_r)
    grad: dict[tuple[int, int], float] = {}
    hess: dict[tuple[int, int], float] = {}
    inv_gamma = 1.0 / gamma
    for (i, k), v in sorted(values.items()):
        cand = c.lookup(i, k)
        if not 0.0 < v < 1.0:
            raise ValueError(f"L_r[{i},{k}] = {v} is outside the open interval (0, 1)")
        grad[(i, k)] = cand.rate + inv_gamma * (1.0 / v - 1.0 / (1.0 - v))
        hess[(i, k)] = -inv_gamma * (1.0 / v**2 + 1.0 / (1.0 - v) ** 2)
    return grad, hess


def _phi_rows(x: np.ndarray, rates: np.ndarray, inv_gamma_scaled: np.ndarray) -> np.ndarray:
    """Rate-normalized phi per row; -inf for a row outside the open box."""
    if x.min() > 0.0 and x.max() < 1.0:
        return np.vecdot(rates, x) + inv_gamma_scaled * (np.log(x) + np.log1p(-x)).sum(axis=1)
    inside = ~((x <= 0.0).any(axis=1) | (x >= 1.0).any(axis=1))
    phi = np.full(x.shape[0], -math.inf)
    xi = x[inside]
    phi[inside] = (np.vecdot(rates[inside], xi)
                   + inv_gamma_scaled[inside] * (np.log(xi) + np.log1p(-xi)).sum(axis=1))
    return phi


def _armijo_steps(x: np.ndarray, omx: np.ndarray, step: np.ndarray, rates: np.ndarray,
                  inv_gamma_scaled: np.ndarray, slope: np.ndarray, phi0: np.ndarray,
                  cfg: SolverConfig) -> np.ndarray:
    """Per-row backtracked step fraction, below _MIN_STEP_FRACTION where the search gave up.

    Every row tries its longest step that stays inside the open box; only
    the rows that fail the Armijo test shrink and try again.
    """
    room = np.divide(np.where(step > 0.0, omx, x), np.abs(step),
                     out=np.full(step.shape, math.inf), where=step != 0.0)
    # fmin, like Python's min(1.0, cap), takes 1.0 when cap is nan.
    tau = np.fmin(0.99 * room.min(axis=1), 1.0)

    def armijo(rows):
        t = tau[rows]
        return (_phi_rows(x[rows] + t[:, None] * step[rows], rates[rows], inv_gamma_scaled[rows])
                >= phi0[rows] + cfg.backtrack_alpha * t * slope[rows])

    ok = armijo(slice(None))
    if ok.all():
        return tau
    rejected = np.flatnonzero(~ok)
    while rejected.size:
        tau[rejected] *= cfg.backtrack_tau_shrink
        rejected = rejected[tau[rejected] >= _MIN_STEP_FRACTION]
        if rejected.size:
            rejected = rejected[~armijo(rejected)]
    return tau


def _float_division_error() -> ZeroDivisionError:
    """What Python's float division by zero raises."""
    try:
        1.0 / 0.0
    except ZeroDivisionError as err:
        return err


def _solve_block(ids: list[int], rates_raw: np.ndarray, powers: np.ndarray, cfg: SolverConfig,
                 solved: dict, traces: dict | None) -> None:
    """Barrier-scheduled projected Newton ascent for UAVs with equally many candidates.

    Row g of the (G, m) ``rates_raw`` and ``powers[g]`` belong to UAV
    ``ids[g]``. Each row works on phi divided by its largest candidate-rate
    magnitude so the decrement target is scale-free; the Newton iterates are
    unchanged by that normalization. Every pass gives each live row one
    iteration at its own barrier weight: converged rows move to their next
    round and finished rows leave the block. ``solved[uav]`` receives
    (final interior point, accepted-iteration count, last decrement) or the
    exception that stopped the UAV; ``traces[uav]``, when given, receives its
    per-iteration rows.
    """
    n_rows, m = rates_raw.shape
    p_vec = np.repeat(powers, m).reshape(n_rows, m)
    p_dot_p = np.vecdot(p_vec, p_vec)
    if not p_dot_p.all():
        # p.p underflowed to zero, and the first projection divides by it.
        zero = p_dot_p == 0.0
        for g in np.flatnonzero(zero):
            solved[ids[g]] = _float_division_error()
        keep = np.flatnonzero(~zero)
        if keep.size:
            _solve_block([ids[g] for g in keep], rates_raw[keep], powers[keep], cfg, solved, traces)
        return
    scale = np.abs(rates_raw).max(axis=1)
    scale[scale == 0.0] = 1.0
    rates = rates_raw / scale[:, None]
    gammas = [cfg.gamma_init * cfg.gamma_growth**r for r in range(BARRIER_ROUNDS)]
    inv_by_round = np.array([[1.0 / (gamma * s) for gamma in gammas] for s in scale.tolist()])

    # Start from the all-ones point of the power identity, pulled to the
    # margin and projected onto the constraint plane: lands at uniform 1/m.
    x = np.full((n_rows, m), 1.0 - INTERIOR_MARGIN)
    x = x + ((powers - np.vecdot(p_vec, x)) / p_dot_p)[:, None] * p_vec
    x = np.clip(x, INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN)

    inv = inv_by_round[:, 0].copy()
    rnd = np.zeros(n_rows, dtype=np.intp)
    it = np.zeros(n_rows, dtype=np.intp)
    total = np.zeros(n_rows, dtype=np.intp)
    row = np.arange(n_rows)
    leaving = None
    while True:
        if leaving is not None and leaving.any():
            keep = ~leaving
            (x, rates, p_vec, powers, p_dot_p, scale, inv_by_round, inv, rnd, it, total,
             row) = (a[keep] for a in (x, rates, p_vec, powers, p_dot_p, scale, inv_by_round,
                                       inv, rnd, it, total, row))
        if not row.size:
            return
        leaving = None

        omx = 1.0 - x
        inv_col = inv[:, None]
        grad = rates + inv_col * (1.0 / x - 1.0 / omx)
        hess = -inv_col * (1.0 / x**2 + 1.0 / omx**2)
        hinv_g = grad / hess
        hinv_p = p_vec / hess
        p_hinv_p = np.vecdot(p_vec, hinv_p)
        if not p_hinv_p.all():
            # p.H^-1.p underflowed to zero, and nu divides by it.
            leaving = p_hinv_p == 0.0
            for g in np.flatnonzero(leaving):
                solved[ids[row[g]]] = _float_division_error()
            continue
        nu = np.vecdot(p_vec, hinv_g) / p_hinv_p
        step = -hinv_g + nu[:, None] * hinv_p
        slope = np.vecdot(grad, step)
        decrement = np.sqrt(np.where(slope < 0.0, 0.0, slope))

        phi = None
        if traces is not None:
            phi = _phi_rows(x, rates, inv)
            residual = np.abs(np.vecdot(p_vec, x) - powers) / np.maximum(np.abs(powers), 1e-300)
            pass_rows = [{
                "uav_id": ids[row[g]],
                "gamma": gammas[rnd[g]],
                "iteration": int(it[g]),
                "phi": float(scale[g] * phi[g]),
                "decrement": float(decrement[g]),
                "step_size": 0.0,
                "constraint_residual": float(residual[g]),
            } for g in range(row.size)]
            for trace_row in pass_rows:
                traces[trace_row["uav_id"]].append(trace_row)

        converged = decrement <= cfg.epsilon_decrement
        moving = slice(None)
        if converged.any():
            rnd += converged
            it[converged] = 0
            leaving = rnd == BARRIER_ROUNDS
            for g in np.flatnonzero(leaving):
                solved[ids[row[g]]] = (x[g].tolist(), int(total[g]), float(decrement[g]))
            advanced = converged & ~leaving
            inv[advanced] = inv_by_round[advanced, rnd[advanced]]
            if converged.all():
                continue
            moving = np.flatnonzero(~converged)

        x_m, step_m, rates_m, inv_m = x[moving], step[moving], rates[moving], inv[moving]
        phi0 = _phi_rows(x_m, rates_m, inv_m) if phi is None else phi[moving]
        tau = _armijo_steps(x_m, omx[moving], step_m, rates_m, inv_m, slope[moving], phi0, cfg)
        x_m = x_m + tau[:, None] * step_m
        # The step is constraint-tangent by construction; shave off the
        # accumulated rounding drift so the residual stays at noise level.
        p_m = p_vec[moving]
        x[moving] = x_m + ((powers[moving] - np.vecdot(p_m, x_m)) / p_dot_p[moving])[:, None] * p_m
        accepted = tau >= _MIN_STEP_FRACTION
        total[moving] += accepted
        it[moving] += accepted
        if traces is not None:
            for g, step_size, ok in zip(np.arange(row.size)[moving], tau.tolist(),
                                        accepted.tolist()):
                if ok:
                    pass_rows[g]["step_size"] = step_size

        # A row fails when its line search gives up or its round runs out of
        # iterations.
        if it.max() == cfg.max_newton_iters or not accepted.all():
            failed = it == cfg.max_newton_iters
            failed[moving] |= ~accepted
            for g in np.flatnonzero(failed):
                iterations = cfg.max_newton_iters if it[g] == cfg.max_newton_iters else int(total[g])
                solved[ids[row[g]]] = ConvergenceError(
                    ids[row[g]], gammas[rnd[g]], float(decrement[g]), iterations)
            leaving = failed if leaving is None else leaving | failed


def newton_refine(c: CandidateSet, alloc: PowerAllocation,
                  cfg: SolverConfig = SolverConfig(), trace: list | None = None) -> RelaxedLinkMatrix:
    """Relax every multi-candidate UAV and drive it to the barrier optimum.

    UAVs with zero allocated power are skipped (every candidate rate is zero,
    so reselection cannot help them); UAVs with a single candidate have no
    strict-interior point on the constraint plane and are recorded in
    ``pinned`` for deterministic handling at rounding. The others are solved
    in one block per candidate count. Raises the lowest failing UAV's
    ConvergenceError when any UAV exhausts max_newton_iters in some barrier
    round; pass a list as ``trace`` to collect per-iteration rows, in UAV id
    order (up to and including a failing UAV).
    """
    pinned: dict[int, int] = {}
    blocks: dict[int, list[int]] = {}
    for i in sorted(c.candidates):
        cands = c.candidates[i]
        if alloc.power[i] <= 0.0:
            continue
        if len(cands) == 1:
            pinned[i] = cands[0].neighbor
            continue
        blocks.setdefault(len(cands), []).append(i)

    solved: dict[int, tuple[list[float], int, float] | Exception] = {}
    traces = None if trace is None else {i: [] for ids in blocks.values() for i in ids}
    for ids in blocks.values():
        rates_raw = np.array([[cand.rate for cand in c.candidates[i]] for i in ids], dtype=float)
        powers = np.array([alloc.power[i] for i in ids], dtype=float)
        _solve_block(ids, rates_raw, powers, cfg, solved, traces)

    L_r: dict[tuple[int, int], float] = {}
    total_iters = 0
    worst_decrement = 0.0
    for i in sorted(solved):
        if trace is not None:
            trace.extend(traces[i])
        if isinstance(solved[i], Exception):
            raise solved[i]
        x, iters, decrement = solved[i]
        total_iters += iters
        worst_decrement = max(worst_decrement, decrement)
        for cand, value in zip(c.candidates[i], x):
            L_r[(i, cand.neighbor)] = value

    return RelaxedLinkMatrix(
        L_r=L_r,
        barrier_gamma=cfg.final_gamma,
        iterations=total_iters,
        final_decrement=worst_decrement,
        pinned=pinned,
    )


def round_and_update(L_r: RelaxedLinkMatrix, c: CandidateSet, tree: RoutingTree,
                     alloc: PowerAllocation, t: Topology, p: ChannelParams
                     ) -> tuple[RoutingTree, float]:
    """Adopt heavy candidates one UAV at a time, best potential gain first.

    A swap is taken only when the candidate's rate strictly beats the current
    parent link at the UAV's frozen power and the swapped tree is still a
    valid tree, so total throughput never decreases; an invalid input tree
    raises ValueError. Returns the updated tree, with path costs in the input
    tree's weight, and its throughput.
    """
    report = validate_tree(tree, t)
    if not report.ok:
        raise ValueError(f"routing tree is invalid: {report}")
    parent = dict(tree.parent)
    before = network_throughput(alloc, tree, t, p)

    proposals = []
    for i in sorted(c.candidates):
        cands = c.candidates[i]
        if i in L_r.pinned:
            best = next(cand for cand in cands if cand.neighbor == L_r.pinned[i])
        else:
            scored = [
                (L_r.L_r[(i, cand.neighbor)], cand)
                for cand in cands
                if (i, cand.neighbor) in L_r.L_r
            ]
            if not scored:
                continue
            best = max(scored, key=lambda sc: (sc[0], -sc[1].neighbor))[1]
        current_rate = link_capacity(alloc.power[i], t.gain(i, parent[i]), p)
        proposals.append((best.rate - current_rate, i, best))
    proposals.sort(key=lambda pr: (-pr[0], pr[1]))

    # ``parent`` stays a valid tree, so re-parenting i onto an admissible k
    # keeps it one exactly when k's path to the ground station avoids i.
    for gain, i, cand in proposals:
        if gain <= 0.0 or not t.is_admissible(i, cand.neighbor):
            continue
        node = cand.neighbor
        while node != t.gs.id and node != i:
            node = parent[node]
        if node != i:
            parent[i] = cand.neighbor

    refined = RoutingTree(parent, path_costs(parent, t, tree.weight), tree.weight)
    after = network_throughput(alloc, refined, t, p)
    if after < before:
        raise ValueError(
            f"rounding lowered throughput from {before!r} to {after!r}: "
            "candidate rates disagree with the allocation"
        )
    return refined, after
