"""Barrier-relaxed link reselection on top of a fixed power allocation.

Each UAV i that holds power P_i > 0 gets a candidate list of alternative
parents (in-range nodes whose adoption keeps the relay structure a tree,
excluding the current parent), read for all such UAVs at once from one mask
over ``Topology.links`` and the tree's preorder intervals from ``routing``.
The lists form one table in compressed sparse rows, a ``CandidateSet``:
per-UAV rows of neighbor ids and rates in flat arrays, every rate priced in
one array pass. Every rate is read from those arrays: Newton gathers its
rows, rounding takes each row's top rate with one ``np.maximum.reduceat``,
and the barrier calculus looks up its pairs. The binary reselection is
relaxed to interior variables L in (0,1) per candidate with log barriers at
both ends,

    phi(L) = sum_ik L_ik * R_ik * D_ik
             + (1/gamma) * sum_ik [ log(L_ik) + log(1 - L_ik) ],

maximized per UAV subject to sum_k L_ik * P_ik = P_i. With every candidate
priced at the UAV's own power (P_ik = P_i) the constraint is the unit
simplex sum_k L_ik = 1. Maximization runs projected Newton steps that stay
on the constraint plane, with Armijo backtracking, a growing barrier weight
schedule, and the Newton decrement as the stopping statistic. Rounding then
adopts each UAV's highest-rate candidate (by KKT, its heaviest) when it
strictly beats the current parent's rate and keeps the tree valid.

The per-UAV problems are independent and have the same form, so every UAV
with m >= 2 candidates is solved as one row of a flat array that holds all
their candidates end to end, rows sorted by m, in lock step: each
pass gives every live row one Newton iteration at its own barrier weight,
converged rows move on to their next round, and rows that finish or fail
retire, including those that fail before their first iteration. An op's
Newton cost thus follows its slowest UAV's pass count, not the sum of such
counts over candidate counts. The solve runs under one floating-point
policy: an overflow, a division by zero or an invalid operation gives inf or
nan without a warning, and a row whose Newton system degenerates on them
fails with ConvergenceError. The state lives in flat buffers allocated
once; retired rows stay in place behind a mask, on harmless values, so no
pass compacts or copies the live rows. One evaluator gives phi for every
row of those buffers, -inf for a row with an element outside the open box,
whose nan or -inf log terms reach only that row's reductions. Each row's
arithmetic is the same, bit for bit, as solving that UAV alone on its own
length-m vectors:

- rows are never padded, so every dot product and sum runs over exactly m
  elements (padding would move elements across OpenBLAS ``ddot``'s 16-wide
  blocks and numpy's 8-wide pairwise-sum blocks);
- elementwise work runs on the flat buffers, with each row's scalars
  repeated across its m entries, one ufunc at a time in the order of the
  scalar expression; the barrier weights are the Python floats
  ``gamma_init * gamma_growth**r``;
- reductions whose value does not depend on the order of their elements
  (the box-cap min, the largest rate magnitude, the outside-the-box test)
  are one ``ufunc.reduceat`` over the row starts;
- dot products and sums run once per run of equal-width rows, on that
  run's contiguous (G_m, m) view of a buffer, built once: ``np.vecdot``
  calls the same ``ddot`` per row as ``@`` on one vector (``einsum`` sums in
  another order), and ``np.add.reduce`` the same pairwise sum per row as
  ``np.sum``. Dots that share a pass are stacked on leading axes, one
  ``ddot`` per row each: p.H^-1.p with p.H^-1.g, and (rates, p) with
  (x, trial point, first backtrack's point), which gives phi's linear terms
  and the p.point that the drift correction reuses for the accepted point;
- only Armijo backtracking past the first backtrack copies rows: the rows
  still rejected search blocks of step fractions, the products of repeated
  shrinking, with one phi evaluation on a compacted copy per block, and
  each takes the first fraction that passes or falls below the floor.

A UAV's outcome therefore does not depend on which other UAVs share the
array, and ``newton_refine`` reports the UAVs in id order, raising the lowest
failing UAV's error.
"""

from __future__ import annotations

import contextlib
import functools
import math
import types
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .model import ChannelParams, Topology, is_integer, is_real, link_capacities, link_capacity
from .power import AllocationError, PowerAllocation, _fsum, link_rates
from .routing import RoutingTree, _euler_intervals, path_costs, validate_tree

# Barrier weight schedule: gamma_init, then gamma_growth-fold per round.
BARRIER_ROUNDS = 3
# Initial iterates are kept at least this far inside (0, 1).
INTERIOR_MARGIN = 1e-6
# Line search gives up below this step fraction.
_MIN_STEP_FRACTION = 1e-14
# Past its first backtrack, the line search tries this many step fractions in
# its first block, twice as many in each block after, and at most
# _MAX_BLOCK per block, which bounds a block's working set.
_FIRST_BLOCK = 4
_MAX_BLOCK = 64


class ConvergenceError(RuntimeError):
    """Newton refinement failed to reach the decrement target.

    The decrement is nan where the Newton system itself degenerated: p.p or
    p.H^-1.p underflowed to zero (powers below about 1e-161 W, barrier
    weights so small that 1/(gamma*scale) overflows, or rates near the
    smallest subnormal, where gamma*scale underflows to zero and the barrier
    weight is infinite) or left the float range (powers above about 1e150 W).
    The solver reports such a row with this error and never with a
    floating-point warning.
    """

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


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Every listed UAV's candidate links as one table in compressed sparse
    rows (Saad, *Iterative Methods for Sparse Linear Systems*, section 3.4).

    Row r belongs to UAV ``uavs[r]``; its candidates are the neighbor ids
    ``neighbor[indptr[r]:indptr[r + 1]]`` with the matching ``rate`` entries,
    each the rate the UAV would see on that link at its frozen power. Rows
    are in ascending UAV id order and neighbors strictly ascend within a row.
    build_candidates lists only UAVs that hold power and have at least one
    candidate; at zero power every rate is 0.0 and no decision reads them.

    The arrays are copied and made read-only here. A table that breaks the
    layout above, has an empty row or a non-integer id, or holds a rate that
    is nan, infinite or negative raises ValueError: a nan rate would pass
    every comparison that rounding makes, and an infinite one leaves Newton
    a nan decrement.
    ``candidates`` is a read-only {uav: (Candidate, ...)} view of the table,
    built on first use; the pipeline itself reads only the arrays.
    """

    uavs: np.ndarray
    indptr: np.ndarray
    neighbor: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        for name, dtype in (("uavs", np.intp), ("indptr", np.intp),
                            ("neighbor", np.intp), ("rate", float)):
            given = np.asarray(getattr(self, name))
            if given.ndim != 1:
                raise ValueError(f"CandidateSet.{name} must be one-dimensional")
            if given.size and given.dtype.kind not in ("iu" if dtype is np.intp else "iuf"):
                raise ValueError(f"CandidateSet.{name} holds {given.dtype} values")
            arr = given.astype(dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        uavs, indptr, neighbor, rate = self.uavs, self.indptr, self.neighbor, self.rate
        if indptr.size != uavs.size + 1 or indptr[0] != 0 or indptr[-1] != neighbor.size:
            raise ValueError("CandidateSet.indptr must run from 0 to the candidate count, "
                             "one entry past the listed UAVs")
        if rate.size != neighbor.size:
            raise ValueError("CandidateSet.neighbor and CandidateSet.rate differ in length")
        if (uavs[1:] <= uavs[:-1]).any():
            raise ValueError("CandidateSet.uavs must strictly ascend")
        if (indptr[1:] <= indptr[:-1]).any():
            raise ValueError(f"UAV {int(uavs[np.argmax(indptr[1:] <= indptr[:-1])])} "
                             "has no candidates (indptr must strictly ascend)")
        # Each neighbor must exceed the one before it, except at a row's start.
        ascends = neighbor[1:] > neighbor[:-1]
        ascends[indptr[1:-1] - 1] = True
        if not ascends.all():
            row = np.searchsorted(indptr, np.argmin(ascends) + 1, side="right") - 1
            raise ValueError(f"neighbors of UAV {int(uavs[row])} do not strictly ascend")
        valid = (rate >= 0.0) & (rate < math.inf)
        if not valid.all():
            e = int(np.argmin(valid))
            row = np.searchsorted(indptr, e, side="right") - 1
            raise ValueError(f"candidate rate {float(rate[e])!r} of UAV {int(uavs[row])} toward "
                             f"{int(neighbor[e])} is not finite and nonnegative")

    @classmethod
    def from_candidates(cls, rows: Mapping[int, Sequence[Candidate]]) -> CandidateSet:
        """The table of a {uav: (Candidate, ...)} mapping, rows in UAV id order."""
        uavs = sorted(rows)
        cands = [cand for i in uavs for cand in rows[i]]
        return cls(uavs, np.cumsum([0] + [len(rows[i]) for i in uavs]),
                   [cand.neighbor for cand in cands], [cand.rate for cand in cands])

    @functools.cached_property
    def candidates(self) -> Mapping[int, tuple[Candidate, ...]]:
        """The table as a read-only {uav: (Candidate, ...)} mapping."""
        cands = list(map(Candidate, self.neighbor.tolist(), self.rate.tolist()))
        bounds = self.indptr.tolist()
        return types.MappingProxyType({i: tuple(cands[lo:hi]) for i, lo, hi
                                       in zip(self.uavs.tolist(), bounds, bounds[1:])})


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


def build_candidates(tree: RoutingTree, t: Topology, alloc: PowerAllocation,
                     p: ChannelParams) -> CandidateSet:
    """Alternative parents for every UAV that holds power, at its frozen power.

    A neighbor k qualifies when the link is admissible, k is not the current
    parent, and re-parenting onto k keeps the relay structure a tree, i.e. k
    is outside the UAV's own subtree. Each candidate carries the rate the UAV
    would see on that link at its current power, all priced in one
    ``link_capacities`` pass. UAVs at zero power are not listed: every rate
    would be 0.0, so neither the solver nor rounding could act on them.
    Raises ValueError when a listed UAV is not reached from the ground
    station, and AllocationError when a rate overflows the float range.
    """
    powered = [i for i in sorted(tree.parent) if alloc.power[i] > 0.0]
    if not powered:
        return CandidateSet([], [0], [], [])
    tin, tout = _euler_intervals(tree.parent, t.n_uavs + 1)
    rows = np.array(powered) - 1
    unreached = rows[tin[rows] < 0]
    if unreached.size:
        raise ValueError(
            f"routing tree is invalid: UAV(s) {(unreached + 1).tolist()} "
            "not reached from the ground station"
        )
    # k is a candidate of i when the link is admissible, k is not i's parent,
    # and k lies outside i's subtree: not tin[i] <= tin[k] < tout[i]. The
    # powered rows' links come row by row, columns ascending.
    _, at, cols, _ = t.links
    held = np.bincount(rows, minlength=t.n_uavs)[at] > 0
    at, cols = at[held], cols[held]
    row_of = np.searchsorted(rows, at)
    parent_col = np.array([tree.parent[i] for i in powered])[row_of] - 1
    keep = ((tin[cols] < tin[at]) | (tin[cols] >= tout[at])) & (cols != parent_col)
    row_of, cols = row_of[keep], cols[keep]
    powers = np.array([alloc.power[i] for i in powered])
    rate = link_capacities(powers[row_of], t.gains[at[keep], cols], p)
    if rate.size and rate.max() == math.inf:
        raise AllocationError("a candidate link's rate overflows the float range")
    counts = np.bincount(row_of, minlength=rows.size)
    listed = counts > 0
    return CandidateSet(rows[listed] + 1, np.concatenate(([0], np.cumsum(counts[listed]))),
                        cols + 1, rate)


def _checked_entries(L_r, c: CandidateSet, gamma: float) -> list[tuple[tuple[int, int], float, float]]:
    """((i, k), value, rate) for each entry of ``L_r``, a mapping or a
    RelaxedLinkMatrix, in sorted order, each rate read from the table's
    arrays. Raises what barrier_objective documents, for the first bad entry."""
    if gamma <= 0.0:
        raise ValueError("barrier weight gamma must be positive")
    values = L_r.L_r if isinstance(L_r, RelaxedLinkMatrix) else L_r
    uav_of = np.repeat(c.uavs, np.diff(c.indptr))
    rates = dict(zip(zip(uav_of.tolist(), c.neighbor.tolist()), c.rate.tolist()))
    entries = []
    for (i, k), v in sorted(values.items()):
        if (i, k) not in rates:
            raise KeyError(f"({i}, {k}) is not a candidate pair")
        if not 0.0 < v < 1.0:
            raise ValueError(f"L_r[{i},{k}] = {v} is outside the open interval (0, 1)")
        entries.append(((i, k), v, rates[i, k]))
    return entries


def barrier_objective(L_r, c: CandidateSet, gamma: float) -> float:
    """Evaluate phi over the entries of ``L_r``.

    Every key must be a candidate pair, else KeyError, and every value
    strictly inside (0, 1); boundary or exterior values raise ValueError
    because the barrier is undefined there.
    """
    entries = _checked_entries(L_r, c, gamma)
    total = 0.0
    inv_gamma = 1.0 / gamma
    for _, v, rate in entries:
        total += v * rate
        total += inv_gamma * (math.log(v) + math.log(1.0 - v))
    return total


def gradient_hessian(L_r, c: CandidateSet, gamma: float):
    """Per-entry first derivative and diagonal second derivative of phi.

    The cross terms vanish because the objective is separable per entry, so
    the Hessian is returned as a mapping of diagonal values, each strictly
    negative on the interior. Raises as barrier_objective does.
    """
    entries = _checked_entries(L_r, c, gamma)
    grad: dict[tuple[int, int], float] = {}
    hess: dict[tuple[int, int], float] = {}
    inv_gamma = 1.0 / gamma
    for pair, v, rate in entries:
        grad[pair] = rate + inv_gamma * (1.0 / v - 1.0 / (1.0 - v))
        hess[pair] = -inv_gamma * (1.0 / v**2 + 1.0 / (1.0 - v) ** 2)
    return grad, hess


class _RaggedRows:
    """Rows of varying widths packed end to end in one flat array.

    Rows come sorted by width, so each width is one run of adjacent rows.

    Elementwise work runs on the flat array, with per-row scalars broadcast
    by ``repeat``. The order-free reductions (min, max, any) are one
    ``ufunc.reduceat`` each. Dot products and sums, whose result depends on
    the order of the additions, run once per run of equal-width rows on that
    run's contiguous (rows, width) view, so each row gets the ``ddot`` or the
    pairwise sum that it gets alone. Their packed operands (shape
    (..., size)) may carry leading axes, which broadcast against each other
    and which the result keeps. ``bind_dot`` and ``bind_sum`` build those
    views once, for a loop that reduces the same buffers pass after pass.
    """

    def __init__(self, widths: np.ndarray):
        self.widths = widths
        self.n_rows = widths.size
        ends = np.cumsum(widths)
        self.starts = ends - widths
        self.size = int(ends[-1]) if widths.size else 0
        cuts = (np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist()
        first, width = self.starts.tolist(), widths.tolist()
        # (first row, end row, first element, width) per run of equal widths
        self.runs = [(lo, hi, first[lo], width[lo])
                     for lo, hi in zip([0, *cuts], [*cuts, self.n_rows]) if lo < hi]

    def take(self, keep: np.ndarray) -> tuple[_RaggedRows, np.ndarray]:
        """The rows where the boolean row mask ``keep`` holds, and their element mask."""
        return _RaggedRows(self.widths[keep]), np.repeat(keep, self.widths)

    def repeat(self, per_row: np.ndarray) -> np.ndarray:
        """Each row's entry repeated over its elements, along the last axis."""
        return per_row.repeat(self.widths, axis=-1)

    def views(self, packed: np.ndarray) -> list[np.ndarray]:
        """Each run's (..., rows, width) view of a packed (..., size) array."""
        lead = packed.shape[:-1]
        return [packed[..., e:e + (hi - lo) * m].reshape(*lead, hi - lo, m)
                for lo, hi, e, m in self.runs]

    def row_views(self, per_row: np.ndarray) -> list[np.ndarray]:
        """Each run's (..., rows) slice of a per-row (..., n_rows) array."""
        return [per_row[..., lo:hi] for lo, hi, _, _ in self.runs]

    def bind_dot(self, a: np.ndarray, b: np.ndarray, out: np.ndarray):
        """A call that writes each row's dot product of ``a`` and ``b`` into
        ``out`` and returns ``out``. The views are built here, once; each
        call reads what the buffers hold at that moment."""
        views = list(zip(self.views(a), self.views(b), self.row_views(out)))

        def dot() -> np.ndarray:
            for va, vb, vo in views:
                np.vecdot(va, vb, out=vo)
            return out
        return dot

    def bind_sum(self, a: np.ndarray, out: np.ndarray):
        """A call that writes each row's sum of ``a`` into ``out`` and returns it."""
        views = list(zip(self.views(a), self.row_views(out)))

        def total() -> np.ndarray:
            for va, vo in views:
                np.add.reduce(va, axis=-1, out=vo)
            return out
        return total

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        return self.bind_dot(a, b, np.empty((*lead, self.n_rows)))()

    def sum(self, a: np.ndarray) -> np.ndarray:
        return self.bind_sum(a, np.empty((*a.shape[:-1], self.n_rows)))()

    def min(self, a: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(a, self.starts)

    def max(self, a: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(a, self.starts)

    def any(self, a: np.ndarray) -> np.ndarray:
        return np.logical_or.reduceat(a, self.starts, axis=-1)


def _inside_box(x: np.ndarray) -> bool:
    return x.min() > 0.0 and x.max() < 1.0


def _bind_phi(rows: _RaggedRows, x: np.ndarray, rates: np.ndarray, rates_dot=None) -> tuple:
    """What `_phi` needs to evaluate phi on the points in buffer ``x``: a
    scratch buffer for the log terms and the reductions bound to it and to
    ``x``. A caller that reduces rates.x together with other dots passes that
    call, which must return rates.x, as ``rates_dot``."""
    lead = x.shape[:-1]
    terms = np.empty((2, *x.shape))
    if rates_dot is None:
        rates_dot = rows.bind_dot(rates, x, np.empty((*lead, rows.n_rows)))
    return terms, rates_dot, rows.bind_sum(terms[0], np.empty((*lead, rows.n_rows)))


def _phi(rows: _RaggedRows, x: np.ndarray, inv_gamma_scaled: np.ndarray, bound: tuple) -> np.ndarray:
    """Rate-normalized phi per row at the points in the buffer ``x`` that
    ``bound`` was built on, (..., size) to (..., rows); -inf for a row with
    an element outside the open box (0, 1). That row's nan or -inf log terms
    reach only its own reductions."""
    terms, rates_dot, log_sum = bound
    logs, log1p_terms = terms
    inside = _inside_box(x)
    with contextlib.nullcontext() if inside else np.errstate(divide="ignore", invalid="ignore"):
        np.log(x, out=logs)
        np.negative(x, out=log1p_terms)
        np.log1p(log1p_terms, out=log1p_terms)
        np.add(logs, log1p_terms, out=logs)
        phi = rates_dot() + inv_gamma_scaled * log_sum()
    if not inside:
        phi[rows.any((x <= 0.0) | (x >= 1.0))] = -math.inf
    return phi


def _degenerate(v: np.ndarray) -> np.ndarray:
    """Where a projection's denominator p.p or p.H^-1.p is zero or not finite."""
    return (v == 0.0) | ~np.isfinite(v)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _solve_rows(uav: np.ndarray, rows: _RaggedRows, rates_raw: np.ndarray, powers: np.ndarray,
                cfg: SolverConfig, traces: list | None) -> tuple:
    """Barrier-scheduled projected Newton ascent for every relaxed UAV at once.

    Row g of ``rows``, with its slice of the flat ``rates_raw`` and
    ``powers[g]``, belongs to UAV ``uav[g]``. Each row works on phi divided
    by its largest candidate-rate magnitude so the decrement target is
    scale-free; the Newton iterates are unchanged by that normalization.
    Every pass gives each live row one iteration at its own barrier weight:
    converged rows move to their next round, and rows that finish or fail
    retire in place behind the ``alive`` mask, rows that fail before the
    first pass included.

    The state lives in flat buffers allocated once, and each reduction is
    bound once to its buffers' per-run views. A pass writes into those
    buffers and allocates per-row arrays and a few element masks. Phi comes
    from ``_phi`` alone, on x, the trial point and the first backtrack's
    point together, with p.x, p.trial and p.half. A row that Armijo rejects
    at the full step is tried at its first backtrack from those buffers.
    Only rows rejected there too are copied: they search blocks of further step
    fractions, ``_FIRST_BLOCK`` at first and twice as many per block after,
    up to ``_MAX_BLOCK``, with one phi evaluation per block. Each row takes
    the first fraction of its repeated shrinking that passes Armijo or falls
    below ``_MIN_STEP_FRACTION``, with that fraction's point and p.point.

    Returns (x, iterations, decrement, errors): the finished rows' final
    interior points, laid out as ``rates_raw``; each row's accepted-iteration
    count and last decrement; and {uav_id: the ConvergenceError that stopped
    it}. A failed row's entries in the first three are not meaningful.
    ``traces``, when given, receives one tuple of trace columns per pass over
    the rows live in it: UAV id, barrier weight, iteration, phi, decrement,
    step fraction (0.0 where no step was taken) and constraint residual.

    The whole solve runs under this function's one ``np.errstate``: inf and
    nan results raise no warning, and a row whose Newton system degenerates
    on them fails with ConvergenceError.
    """
    gammas = [cfg.gamma_init * cfg.gamma_growth**r for r in range(BARRIER_ROUNDS)]
    shrink = cfg.backtrack_tau_shrink
    p_vec = rows.repeat(powers)
    scale = rows.max(np.abs(rates_raw))
    scale[scale == 0.0] = 1.0
    p_dot_p = rows.dot(p_vec, p_vec)
    inv_by_round = 1.0 / np.multiply.outer(scale, gammas)
    n, size = rows.n_rows, rows.size
    row_of = rows.repeat(np.arange(n))

    def spread(per_row, out):
        """Each row's scalar repeated over its elements, into ``out``."""
        return per_row.take(row_of, out=out, mode="clip")

    powers = powers.copy()

    # Per-element buffers, stacked where one call serves several operands:
    # (rates, p) meet (x, trial, half) in phi, and (p, grad) are divided by
    # hess. half is the point of the first backtrack, the step times
    # backtrack_tau_shrink (a halving at the default shrink).
    rpg = np.empty((3, size))
    rates, p_vec, grad = rpg
    np.divide(rates_raw, rows.repeat(scale), out=rates)
    spread(powers, p_vec)
    points = np.empty((3, size))
    x, trial, half = points
    hinv = np.empty((2, size))  # H^-1.p, H^-1.g
    omx, inv_e, hess, step, room, t1, t2 = np.empty((7, size))
    positive, nonzero = np.empty((2, size), dtype=bool)
    # Per-row results and the reductions that fill them.
    p_hinv = np.empty((2, n))  # p.H^-1.p, p.H^-1.g
    slope = np.empty(n)
    dots = np.empty((2, 3, n))  # (rates, p) . (x, trial, half)
    p_dot_trial = dots[1, 1]
    reduce_p_hinv = rows.bind_dot(p_vec, hinv, p_hinv)
    reduce_slope = rows.bind_dot(grad, step, slope)
    reduce_dots = rows.bind_dot(rpg[:2, None], points, dots)
    phi_bound = _bind_phi(rows, points, rates, rates_dot=lambda: reduce_dots()[0])
    # What the solve returns.
    result = np.empty(size)
    final_decrement = np.empty(n)
    errors: dict[int, ConvergenceError] = {}

    inv = inv_by_round[:, 0].copy()
    rnd = np.zeros(n, dtype=np.intp)
    it = np.zeros(n, dtype=np.intp)
    total = np.zeros(n, dtype=np.intp)
    alive = np.ones(n, dtype=bool)

    def retire(dead):
        # A retired row keeps running on harmless values (a point inside the
        # box, zero rates, unit powers and barrier weight) that no result
        # reads; they keep _inside_box and the failure checks off its elements.
        alive[dead] = False
        elems = rows.repeat(dead)
        x[elems] = 0.5
        rates[elems] = 0.0
        p_vec[elems] = 1.0
        inv[dead] = 1.0
        powers[dead] = 1.0
        p_dot_p[dead] = rows.widths[dead]

    # p.p underflowed to zero or overflowed, so the projection onto the
    # constraint plane is lost: the UAV fails before its first iteration.
    failing = _degenerate(p_dot_p)
    for g in np.flatnonzero(failing):
        errors[int(uav[g])] = ConvergenceError(int(uav[g]), gammas[0], math.nan, 0)
    retire(failing)
    # Start from the all-ones point of the power identity, pulled to the
    # margin and projected onto the constraint plane: lands at uniform 1/m.
    x.fill(1.0 - INTERIOR_MARGIN)
    np.clip(x + rows.repeat((powers - rows.dot(p_vec, x)) / p_dot_p) * p_vec,
            INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN, out=x)

    while alive.any():
        # grad = rates + inv * (1/x - 1/(1-x)), hess = -inv * (1/x**2 + 1/(1-x)**2).
        # An iterate on the box boundary makes them infinite or nan, hess is
        # -inf where gamma*scale underflowed to zero and -0.0 where it
        # overflowed: each way the row fails below on p.H^-1.p, the
        # underflowed one at its first pass.
        np.subtract(1.0, x, out=omx)
        spread(inv, inv_e)
        np.divide(1.0, x, out=t1)
        np.divide(1.0, omx, out=t2)
        np.subtract(t1, t2, out=t1)
        np.multiply(inv_e, t1, out=t1)
        np.add(rates, t1, out=grad)
        np.square(x, out=t1)
        np.divide(1.0, t1, out=t1)
        np.square(omx, out=t2)
        np.divide(1.0, t2, out=t2)
        np.add(t1, t2, out=t1)
        np.negative(inv_e, out=hess)
        np.multiply(hess, t1, out=hess)
        np.divide(rpg[1:], hess, out=hinv)
        reduce_p_hinv()
        failing = alive & _degenerate(p_hinv[0])
        if failing.any():
            # p.H^-1.p underflowed to zero or left the float range, so the
            # Newton step does not exist.
            for g in np.flatnonzero(failing):
                errors[int(uav[g])] = ConvergenceError(
                    int(uav[g]), gammas[rnd[g]], math.nan, int(total[g]))
            retire(failing)
            continue
        # step = -H^-1.g + nu * H^-1.p, with nu = p.H^-1.g / p.H^-1.p
        spread(p_hinv[1] / p_hinv[0], t1)
        np.multiply(t1, hinv[0], out=t1)
        np.negative(hinv[1], out=step)
        np.add(step, t1, out=step)
        reduce_slope()
        decrement = np.sqrt(np.where(slope < 0.0, 0.0, slope))

        # The longest step fraction that stays inside the open box; fmin,
        # like Python's min(1.0, cap), takes 1.0 when cap is nan.
        np.greater(step, 0.0, out=positive)
        np.copyto(t1, x)
        np.copyto(t1, omx, where=positive)
        np.abs(step, out=t2)
        np.not_equal(step, 0.0, out=nonzero)
        room.fill(math.inf)
        np.divide(t1, t2, out=room, where=nonzero)
        tau = np.fmin(0.99 * rows.min(room), 1.0)
        halved = tau * shrink
        for fraction, point in ((tau, trial), (halved, half)):
            spread(fraction, t1)
            np.multiply(t1, step, out=t1)
            np.add(x, t1, out=point)
        # phi at x, the trial point and the first backtrack's point, and p
        # times each of them.
        phi = _phi(rows, points, inv, phi_bound)

        if traces is not None:
            live = np.flatnonzero(alive)
            residual = np.abs(dots[1, 0] - powers) / np.maximum(np.abs(powers), 1e-300)
            pass_cols = (uav[live], np.array(gammas)[rnd[live]], it[live],
                         scale[live] * phi[0, live], decrement[live])

        converged = alive & (decrement <= cfg.epsilon_decrement)
        moving = alive & ~converged
        finished = converged & (rnd == BARRIER_ROUNDS - 1)
        if converged.any():
            rnd += converged
            it[converged] = 0
            np.copyto(result, x, where=rows.repeat(finished))
            final_decrement[finished] = decrement[finished]
            advanced = converged & ~finished
            inv[advanced] = inv_by_round[advanced, rnd[advanced]]

        rejected = moving & ~(phi[1] >= phi[0] + cfg.backtrack_alpha * tau * slope)
        if rejected.any():
            # Armijo backtracking shrinks tau on the rejected rows until each
            # passes or falls below _MIN_STEP_FRACTION. The first backtrack's
            # phi and p.half are already in the buffers.
            tau[rejected] = halved[rejected]
            rejected &= tau >= _MIN_STEP_FRACTION
            passed = rejected & (phi[2] >= phi[0] + cfg.backtrack_alpha * tau * slope)
            np.copyto(trial, half, where=rows.repeat(passed))
            p_dot_trial[passed] = dots[1, 2, passed]
            rejected &= ~passed
            block = _FIRST_BLOCK
            while rejected.any():
                # The next ``block`` fractions of each still-rejected row, the
                # products of repeated shrinking, evaluated on a copy of those
                # rows at once.
                sub, elems = rows.take(rejected)
                at = np.flatnonzero(rejected)
                fractions = np.full((block + 1, at.size), shrink)
                fractions[0] = tau[at]
                fractions = np.multiply.accumulate(fractions)[1:]
                tried = x[elems] + sub.repeat(fractions) * step[elems]
                rp = np.stack((rates[elems], p_vec[elems]))
                tried_dots = np.empty((2, block, at.size))  # (rates, p) . tried
                reduce_tried = sub.bind_dot(rp[:, None], tried, tried_dots)
                retry = _phi(sub, tried, inv[at],
                             _bind_phi(sub, tried, rp[0], rates_dot=lambda: reduce_tried()[0]))
                done = ((fractions < _MIN_STEP_FRACTION)
                        | (retry >= phi[0, at] + cfg.backtrack_alpha * fractions * slope[at]))
                # Each row's first settling fraction, or the block's last one.
                level = np.where(done.any(axis=0), done.argmax(axis=0), block - 1)
                cols = np.arange(at.size)
                tau[at] = fractions[level, cols]
                trial[elems] = tried[sub.repeat(level), np.arange(sub.size)]
                p_dot_trial[at] = tried_dots[1, level, cols]
                rejected[at] = ~done[level, cols]
                block = min(2 * block, _MAX_BLOCK)
        # The step is constraint-tangent by construction; shave off the
        # accumulated rounding drift so the residual stays at noise level.
        spread((powers - p_dot_trial) / p_dot_p, t1)
        np.multiply(t1, p_vec, out=t1)
        np.add(trial, t1, out=trial)
        np.copyto(x, trial, where=rows.repeat(moving))
        accepted = moving & (tau >= _MIN_STEP_FRACTION)
        total += accepted
        it += accepted
        if traces is not None:
            traces.append((*pass_cols, np.where(accepted, tau, 0.0)[live], residual[live]))

        # A row fails when its line search gives up or its round runs out of
        # iterations.
        failed = (alive & (it == cfg.max_newton_iters)) | (moving & ~accepted)
        dead = finished | failed
        if dead.any():
            for g in np.flatnonzero(failed):
                iterations = cfg.max_newton_iters if it[g] == cfg.max_newton_iters else int(total[g])
                errors[int(uav[g])] = ConvergenceError(
                    int(uav[g]), gammas[rnd[g]], float(decrement[g]), iterations)
            retire(dead)
    return result, total, final_decrement, errors


def newton_refine(c: CandidateSet, alloc: PowerAllocation,
                  cfg: SolverConfig = SolverConfig(), trace: list | None = None) -> RelaxedLinkMatrix:
    """Relax every multi-candidate UAV and drive it to the barrier optimum.

    UAVs with zero allocated power are skipped (every candidate rate is zero,
    so reselection cannot help them); UAVs with a single candidate have no
    strict-interior point on the constraint plane and are recorded in
    ``pinned``. The others are solved in one lock-step loop over all their
    candidates. A listed UAV's power that is nan, infinite or negative raises
    ValueError. Raises the lowest failing UAV's ConvergenceError when any UAV
    exhausts max_newton_iters in some barrier round, gives up its line search,
    or meets a degenerate Newton system; pass a list as ``trace`` to collect
    per-iteration rows, in UAV id order (up to and including a failing UAV).
    """
    powers = np.array([alloc.power[i] for i in c.uavs.tolist()], dtype=float)
    valid = (powers >= 0.0) & (powers < math.inf)
    if not valid.all():
        e = int(np.argmin(valid))
        raise ValueError(f"allocated power {float(powers[e])!r} of UAV {int(c.uavs[e])} "
                         "is not finite and nonnegative")
    # Powered rows of one candidate are pinned, and powered rows of two or
    # more are relaxed.
    widths = np.diff(c.indptr)
    powered = powers > 0.0
    pin = powered & (widths == 1)
    relax = powered & (widths > 1)
    elems = np.repeat(relax, widths)
    uav, width = c.uavs[relax], widths[relax]

    # The solver takes its rows sorted by width. A stable sort of the
    # elements by their row's width moves whole rows and keeps their order.
    order = np.argsort(width, kind="stable")
    by_width = np.argsort(width.repeat(width), kind="stable")
    traces = None if trace is None else []
    solved, iterations, decrements, errors = _solve_rows(
        uav[order], _RaggedRows(width[order]), c.rate[elems][by_width], powers[relax][order],
        cfg, traces)

    failed = min(errors, default=None)
    if traces:
        # Passes arrive in order, so a stable sort by UAV id keeps each UAV's
        # rows in pass order.
        cols = [np.concatenate(col) for col in zip(*traces)]
        by_uav = np.argsort(cols[0], kind="stable")
        if failed is not None:
            by_uav = by_uav[:np.searchsorted(cols[0][by_uav], failed, side="right")]
        trace.extend([{"uav_id": i, "gamma": gamma, "iteration": k, "phi": phi, "decrement": dec,
                       "step_size": step, "constraint_residual": res}
                      for i, gamma, k, phi, dec, step, res
                      in zip(*(col[by_uav].tolist() for col in cols))])
    if failed is not None:
        raise errors[failed]

    values = np.empty(solved.size)
    values[by_width] = solved
    pairs = zip(np.repeat(c.uavs, widths)[elems].tolist(), c.neighbor[elems].tolist())
    return RelaxedLinkMatrix(
        L_r=dict(zip(pairs, values.tolist())),
        barrier_gamma=cfg.final_gamma,
        iterations=int(iterations.sum()),
        final_decrement=max([0.0, *decrements.tolist()]),
        pinned=dict(zip(c.uavs[pin].tolist(), c.neighbor[c.indptr[:-1][pin]].tolist())),
    )


def round_and_update(c: CandidateSet, tree: RoutingTree, alloc: PowerAllocation,
                     t: Topology, p: ChannelParams) -> tuple[RoutingTree, float]:
    """Adopt each UAV's highest-rate candidate, best potential gain first.

    Equal rates go to the lowest neighbor id. A swap is taken only when the
    rate strictly beats the current parent link at the UAV's frozen power and
    the swapped tree is still a valid tree, so total throughput never
    decreases. Each accepted link is priced from the topology, and one that
    prices below the UAV's current link raises ValueError, as does an invalid
    input tree. Returns the updated tree, with path costs in the input tree's
    weight, and its throughput, the fsum of its link rates.
    """
    report = validate_tree(tree, t)
    if not report.ok:
        raise ValueError(f"routing tree is invalid: {report}")
    parent = dict(tree.parent)
    rate = dict(zip(sorted(parent), link_rates(alloc, tree, t, p)))

    # Each row's highest rate, and the first (lowest-id) neighbor that has it.
    starts = c.indptr[:-1]
    top = np.maximum.reduceat(c.rate, starts)
    at_top = c.rate == top.repeat(np.diff(c.indptr))
    best = np.minimum.reduceat(np.where(at_top, np.arange(c.rate.size), c.rate.size), starts)
    uavs = c.uavs.tolist()
    proposals = sorted(zip([r - rate[i] for r, i in zip(c.rate[best].tolist(), uavs)],
                           uavs, c.neighbor[best].tolist()),
                       key=lambda pr: (-pr[0], pr[1]))

    # ``parent`` stays a valid tree, so re-parenting i onto an admissible k
    # keeps it one exactly when k's path to the ground station avoids i.
    gs = t.gs.id
    for gain, i, k in proposals:
        if gain <= 0.0 or not t.is_admissible(i, k):
            continue
        node = k
        while node != gs and node != i:
            node = parent[node]
        if node != i:
            new_rate = link_capacity(alloc.power[i], t.gain(i, k), p)
            if new_rate < rate[i]:
                raise ValueError(
                    f"UAV {i}'s link to {k} prices at {new_rate!r}, below its current "
                    f"{rate[i]!r}: candidate rates disagree with the allocation"
                )
            parent[i] = k
            rate[i] = new_rate

    refined = RoutingTree(parent, path_costs(parent, t, tree.weight), tree.weight)
    return refined, _fsum(rate.values())
