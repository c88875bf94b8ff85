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


def _phi_scaled(x: np.ndarray, rates: np.ndarray, inv_gamma_scaled: float) -> float:
    """Rate-normalized phi for one UAV; -inf outside the open box."""
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        return -math.inf
    return float(rates @ x + inv_gamma_scaled * np.sum(np.log(x) + np.log1p(-x)))


def _solve_uav(uav_id: int, rates_raw: np.ndarray, power: float, cfg: SolverConfig,
               trace) -> tuple[np.ndarray, int, float]:
    """Barrier-scheduled projected Newton ascent for one UAV's simplex block.

    Works on phi divided by the largest candidate-rate magnitude so the
    decrement target is scale-free; the Newton iterates are unchanged by
    that normalization. Returns the final interior point, accepted-iteration
    count, and the last decrement.
    """
    m = rates_raw.size
    scale = float(np.max(np.abs(rates_raw)))
    if scale == 0.0:
        scale = 1.0
    rates = rates_raw / scale
    p_vec = np.full(m, power)
    p_dot_p = float(p_vec @ p_vec)

    # Start from the all-ones point of the power identity, pulled to the
    # margin and projected onto the constraint plane: lands at uniform 1/m.
    x = np.clip(np.ones(m), INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN)
    x = x + ((power - float(p_vec @ x)) / p_dot_p) * p_vec
    x = np.clip(x, INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN)

    total_iters = 0
    decrement = math.inf
    for round_idx in range(BARRIER_ROUNDS):
        gamma = cfg.gamma_init * cfg.gamma_growth**round_idx
        inv_gs = 1.0 / (gamma * scale)
        converged = False
        for it in range(cfg.max_newton_iters):
            grad = rates + inv_gs * (1.0 / x - 1.0 / (1.0 - x))
            hess = -inv_gs * (1.0 / x**2 + 1.0 / (1.0 - x) ** 2)
            hinv_g = grad / hess
            hinv_p = p_vec / hess
            nu = float(p_vec @ hinv_g) / float(p_vec @ hinv_p)
            step = -hinv_g + nu * hinv_p
            decrement = math.sqrt(max(float(grad @ step), 0.0))

            residual = abs(float(p_vec @ x) - power) / max(abs(power), 1e-300)
            if trace is not None:
                trace.append({
                    "uav_id": uav_id,
                    "gamma": gamma,
                    "iteration": it,
                    "phi": scale * _phi_scaled(x, rates, inv_gs),
                    "decrement": decrement,
                    "step_size": 0.0,
                    "constraint_residual": residual,
                })
            if decrement <= cfg.epsilon_decrement:
                converged = True
                break

            # Largest fraction of the step that stays inside the open box.
            tau_cap = 1.0
            pos = step > 0.0
            neg = step < 0.0
            if np.any(pos):
                tau_cap = min(tau_cap, 0.99 * float(np.min((1.0 - x[pos]) / step[pos])))
            if np.any(neg):
                tau_cap = min(tau_cap, 0.99 * float(np.min(x[neg] / -step[neg])))
            tau = min(1.0, tau_cap)
            phi0 = _phi_scaled(x, rates, inv_gs)
            slope = float(grad @ step)
            while tau >= _MIN_STEP_FRACTION:
                if _phi_scaled(x + tau * step, rates, inv_gs) >= phi0 + cfg.backtrack_alpha * tau * slope:
                    break
                tau *= cfg.backtrack_tau_shrink
            if tau < _MIN_STEP_FRACTION:
                raise ConvergenceError(uav_id, gamma, decrement, total_iters)
            x = x + tau * step
            # The step is constraint-tangent by construction; shave off the
            # accumulated rounding drift so the residual stays at noise level.
            x = x + ((power - float(p_vec @ x)) / p_dot_p) * p_vec
            total_iters += 1
            if trace is not None:
                trace[-1]["step_size"] = tau
        if not converged:
            raise ConvergenceError(uav_id, gamma, decrement, cfg.max_newton_iters)
    return x, total_iters, decrement


def newton_refine(c: CandidateSet, alloc: PowerAllocation,
                  cfg: SolverConfig = SolverConfig(), trace: list | None = None) -> RelaxedLinkMatrix:
    """Relax every multi-candidate UAV and drive it to the barrier optimum.

    UAVs with zero allocated power are skipped (every candidate rate is zero,
    so reselection cannot help them); UAVs with a single candidate have no
    strict-interior point on the constraint plane and are recorded in
    ``pinned`` for deterministic handling at rounding. Raises
    ConvergenceError when any UAV exhausts max_newton_iters in some barrier
    round; pass a list as ``trace`` to collect per-iteration rows.
    """
    L_r: dict[tuple[int, int], float] = {}
    pinned: dict[int, int] = {}
    total_iters = 0
    worst_decrement = 0.0
    for i in sorted(c.candidates):
        cands = c.candidates[i]
        power = alloc.power[i]
        if power <= 0.0:
            continue
        if len(cands) == 1:
            pinned[i] = cands[0].neighbor
            continue
        rates_raw = np.array([cand.rate for cand in cands], dtype=float)
        x, iters, decrement = _solve_uav(i, rates_raw, power, cfg, trace)
        total_iters += iters
        worst_decrement = max(worst_decrement, decrement)
        for cand, value in zip(cands, x):
            L_r[(i, cand.neighbor)] = float(value)

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
