"""The lock-step solver against the scalar per-UAV solver it replaced.

``_phi_scaled``, ``_solve_uav`` and ``reference_refine`` below are the
scalar solver and its driving loop, copied verbatim (only the loop's name
changed). ``newton_refine`` must reproduce them bit for bit: every
``RelaxedLinkMatrix`` field, every trace row, and the type and message of the
first failure, with the trace rows written up to it. The intended
differences: where the scalar solver's projection divided by zero and raised
a bare ZeroDivisionError, ``newton_refine`` raises ConvergenceError for that
UAV (see ``typed_reference``); and where p.p or p.H^-1.p overflows (powers
near 1e154 W and above, beyond the draws here), ``newton_refine`` fails the
UAV the same way, where the scalar solver went on from a point off the
constraint plane. The row reductions it is built on are checked against each
row alone in ``test_ragged_rows_reduce_each_row_as_alone`` and
``test_bound_reductions_read_the_buffers_when_called``, and its one phi
evaluator in ``test_phi_gives_each_row_its_value_alone``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fanetsim.harness import ScenarioConfig, generate_scenario
from fanetsim.linksel import (
    BARRIER_ROUNDS,
    INTERIOR_MARGIN,
    _MIN_STEP_FRACTION,
    Candidate,
    CandidateSet,
    ConvergenceError,
    RelaxedLinkMatrix,
    SolverConfig,
    _RaggedRows,
    _bind_phi,
    _phi,
    build_candidates,
    newton_refine,
)
from fanetsim.power import PowerAllocation, allocate_power
from fanetsim.routing import build_spt


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


def reference_refine(c: CandidateSet, alloc: PowerAllocation,
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


def typed_reference(c, alloc, cfg, trace=None):
    """reference_refine, with its ZeroDivisionError reported as newton_refine
    reports it: a ConvergenceError for the UAV whose Newton system
    degenerated, at the barrier weight of its current round, with a nan
    decrement and its accepted iterations."""
    try:
        return reference_refine(c, alloc, cfg, trace=trace)
    except ZeroDivisionError:
        pass
    for i in sorted(c.candidates):
        cands = c.candidates[i]
        if alloc.power[i] <= 0.0 or len(cands) == 1:
            continue
        rows = []
        try:
            _solve_uav(i, np.array([cand.rate for cand in cands], dtype=float),
                       alloc.power[i], cfg, rows)
        except ZeroDivisionError:
            # A row keeps step_size 0.0 only where its round converged.
            rounds = sum(row["step_size"] == 0.0 for row in rows)
            raise ConvergenceError(i, cfg.gamma_init * cfg.gamma_growth**rounds, math.nan,
                                   len(rows) - rounds) from None
    raise AssertionError("no UAV divided by zero")


# A few rates shared within an instance give ties; zeros and the extremes
# of the physical range come up often. Up to 7 distinct widths up to 40
# cross numpy's 8-wide pairwise-sum blocks and ddot's 16- and 32-wide
# blocks, and up to 30 UAVs give several rows per width. One instance in
# five also draws powers so small that p.p or the Newton system's p.H^-1.p
# underflows to zero, where the scalar solver's float division raised.
@st.composite
def instances(draw):
    shared = draw(st.lists(st.floats(0.0, 1e9), min_size=1, max_size=3)) + [0.0, 1e9]
    rate = st.sampled_from(shared) | st.floats(0.0, 1e9)
    power = st.just(0.0) | st.just(1.0) | st.floats(1e-15, 1e6)
    if draw(st.integers(0, 4)) == 0:
        power = power | st.sampled_from([1e-165, 3e-162, 1e-150])
    widths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=7, unique=True))
    ids = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=30)))
    candidates, powers = {}, {}
    for i in ids:
        m = draw(st.sampled_from(widths))
        rates = draw(st.lists(rate, min_size=m, max_size=m))
        candidates[i] = tuple(Candidate(neighbor=100 + k, rate=r) for k, r in enumerate(rates))
        powers[i] = draw(power)
    alloc = PowerAllocation(power=powers, water_level_lambda=1.0,
                            active_set=tuple(ids), throughput_R=0.0)
    cfg = SolverConfig(
        gamma_init=draw(st.sampled_from([10.0, 1.0, 1000.0]) | st.floats(0.1, 1e4)),
        gamma_growth=draw(st.sampled_from([1.0, 10.0]) | st.floats(1.0, 30.0)),
        epsilon_decrement=draw(st.sampled_from([1e-8, 1e-6, 1e-12])),
        backtrack_alpha=draw(st.sampled_from([0.25]) | st.floats(0.01, 0.49)),
        backtrack_tau_shrink=draw(st.sampled_from([0.5]) | st.floats(0.05, 0.95)),
        max_newton_iters=draw(st.sampled_from([1, 2, 3, 100]) | st.integers(1, 40)),
    )
    return CandidateSet.from_candidates(candidates), alloc, cfg


def outcome(refine, c, alloc, cfg, trace):
    """What a caller can observe, as reprs so that -0.0 and nan count, and
    whether a RuntimeWarning was issued on the way.

    Warnings are recorded rather than raised so that both solvers run to
    the end as they do outside the tests: rates below about 1e-300 bps make
    1/(gamma*scale) overflow, and both then divide inf by inf.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            out = refine(c, alloc, cfg, trace=trace)
        except ConvergenceError as err:
            result = (type(err), str(err), repr(vars(err)))
        else:
            result = (type(out), repr(list(out.L_r.items())), repr(out.barrier_gamma),
                      out.iterations, repr(out.final_decrement), repr(list(out.pinned.items())))
    warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
    return result, None if trace is None else repr(trace), warned


@settings(max_examples=200, deadline=None)
@given(instances())
def test_block_solver_matches_scalar_reference(instance):
    c, alloc, cfg = instance
    want, want_trace, ref_warned = outcome(typed_reference, c, alloc, cfg, [])
    got, got_trace, warned = outcome(newton_refine, c, alloc, cfg, [])
    assert got == want
    assert got_trace == want_trace
    assert outcome(newton_refine, c, alloc, cfg, None)[0] == want
    # newton_refine also solves UAVs past the scalar loop's first failure, so
    # it may warn where the reference stopped early, but never stays silent
    # where the reference warned.
    assert warned or not ref_warned


@pytest.mark.parametrize("seed, budget, error", [
    (1, 1.0, None),
    (10, 1.0, "UAV 55: Newton decrement 1.546e-08 after 100 iterations at barrier weight 10"),
    (0, 1e-3, None),
])
def test_block_solver_matches_scalar_reference_at_n200(seed, budget, error):
    # At 1 W, fleets of 200 on 40 km give about 200 relaxed rows in 19
    # widths, far beyond the Hypothesis instances above, and seed 10 has a
    # UAV that misses the decrement target; at 1 mW most links are clamped
    # and 11 rows in 8 widths remain.
    cfg = ScenarioConfig(n_uavs=200, area_side=40000.0, min_separation=300.0, seed=seed,
                         power_budget_Pb=budget)
    t = generate_scenario(cfg)
    tree = build_spt(t, weight=cfg.spt_weight)
    alloc = allocate_power(tree, t, budget, cfg.channel)
    c = build_candidates(tree, t, alloc, cfg.channel)
    want, want_trace, _ = outcome(typed_reference, c, alloc, cfg.solver, [])
    got, got_trace, warned = outcome(newton_refine, c, alloc, cfg.solver, [])
    assert got == want
    assert got_trace == want_trace
    assert outcome(newton_refine, c, alloc, cfg.solver, None)[0] == want
    assert not warned
    if error is None:
        assert got[0] is RelaxedLinkMatrix
    else:
        assert got[:2] == (ConvergenceError, error)


# Widths on both sides of numpy's 8-wide pairwise-sum blocks and ddot's 16-
# and 32-wide blocks.
RAGGED_WIDTHS = [1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33]


@st.composite
def ragged_rows(draw):
    """Packed rows of sorted widths, two operands, and row masks applied in
    turn as rows leave; masks may keep every row, one row or none."""
    widths = sorted(draw(st.lists(st.sampled_from(RAGGED_WIDTHS), max_size=12)))
    value = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0, 1e-300, 1e150])
    a, b = (draw(arrays(np.float64, sum(widths), elements=value)) for _ in range(2))
    masks, n = [], len(widths)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["any", "one", "none"]))
        if kind == "any" or n == 0:
            mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        else:
            mask = np.zeros(n, dtype=bool)
            if kind == "one":
                mask[draw(st.integers(0, n - 1))] = True
        masks.append(mask)
        n = int(mask.sum())
    return np.array(widths, dtype=np.intp), a, b, masks


@settings(max_examples=200, deadline=None)
@given(ragged_rows())
def test_ragged_rows_reduce_each_row_as_alone(case):
    widths, a, b, masks = case
    rows = _RaggedRows(widths)
    for mask in [None, *masks]:
        if mask is not None:
            rows, elems = rows.take(mask)
            a, b = a[elems], b[elems]
        bounds = np.cumsum([0, *rows.widths.tolist()]).tolist()
        row_a = [a[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        row_b = [b[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        assert rows.size == a.size
        dots = [float(x @ y) for x, y in zip(row_a, row_b)]
        assert repr(rows.dot(a, b).tolist()) == repr(dots)
        assert repr(rows.sum(a).tolist()) == repr([float(np.sum(x)) for x in row_a])
        assert repr(rows.min(a).tolist()) == repr([float(x.min()) for x in row_a])
        assert repr(rows.max(a).tolist()) == repr([float(x.max()) for x in row_a])
        # Operands with a leading axis reduce each of their rows the same way.
        assert repr(rows.dot(a, np.stack((b, a))).tolist()) == repr(
            [dots, [float(x @ x) for x in row_a]])
        assert repr(rows.sum(np.stack((b, a))).tolist()) == repr(
            [[float(np.sum(y)) for y in row_b], [float(np.sum(x)) for x in row_a]])


@settings(max_examples=200, deadline=None)
@given(ragged_rows())
def test_bound_reductions_read_the_buffers_when_called(case):
    # The solver binds each reduction to its buffers' per-run views once and
    # rewrites the buffers in place on every pass. Here the results go to
    # strided row slices of wider arrays, operands stack three points per
    # row, a (2, 1, size) operand broadcasts against a (3, size) one, and the
    # buffers receive their values only after the views were built, twice.
    widths, a, b, _ = case
    rows = _RaggedRows(widths)
    n = rows.n_rows
    left, right = np.zeros((2, 3, rows.size))
    dots, sums = np.zeros((2, 3, 2 * n))
    cross = np.zeros((2, 3, n))
    dot_out, sum_out = dots[:, ::2], sums[:, 1::2]
    dot = rows.bind_dot(left, right, dot_out)
    total = rows.bind_sum(left, sum_out)
    outer = rows.bind_dot(left[:2, None], right, cross)
    bounds = np.cumsum([0, *widths.tolist()]).tolist()

    def per_row(packed):
        return [packed[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    for left_values, right_values in [((a, b, a), (b, a, -b)), ((-b, a, b), (a, -a, b))]:
        left[:] = left_values
        right[:] = right_values
        assert dot() is dot_out
        assert total() is sum_out
        outer()
        lefts, rights = [per_row(x) for x in left], [per_row(y) for y in right]
        for k in range(3):
            assert repr(dot_out[k].tolist()) == repr(
                [float(x @ y) for x, y in zip(lefts[k], rights[k])])
            assert repr(sum_out[k].tolist()) == repr([float(np.sum(x)) for x in lefts[k]])
        for i in range(2):
            for j in range(3):
                assert repr(cross[i, j].tolist()) == repr(
                    [float(x @ y) for x, y in zip(lefts[i], rights[j])])
        # The columns between the strided slices are never written.
        assert not dots[:, 1::2].any() and not sums[:, ::2].any()


@st.composite
def packed_points(draw):
    """Rows of sorted widths with rates, barrier weights and two points per
    row, stacked as the solver stacks x and its trial point. Some rows of a
    point hold an element on or beyond the box boundary."""
    widths = sorted(draw(st.lists(st.sampled_from(RAGGED_WIDTHS), min_size=1, max_size=10)))
    size = sum(widths)
    rates = draw(arrays(np.float64, size, elements=st.floats(0.0, 1.0)))
    inv = draw(arrays(np.float64, len(widths),
                      elements=st.sampled_from([1e-8, 1e-3, 0.1, 1.0, 1e4])))
    interior = st.floats(1e-12, 1.0 - 1e-12, exclude_min=True, exclude_max=True)
    xt = draw(arrays(np.float64, (2, size), elements=interior))
    starts = np.cumsum([0, *widths[:-1]])
    for point in xt:
        for row in draw(st.lists(st.integers(0, len(widths) - 1), max_size=len(widths))):
            at = starts[row] + draw(st.integers(0, widths[row] - 1))
            point[at] = draw(st.sampled_from([0.0, -0.0, 1.0, -1e-300, -0.5, 1.0 + 2**-52, 7.0]))
    return np.array(widths, dtype=np.intp), rates, inv, xt


@settings(max_examples=200, deadline=None)
@given(packed_points())
def test_phi_gives_each_row_its_value_alone(case):
    # Each row inside the open box gets phi evaluated on it alone, and each
    # row with an element on or beyond the boundary gets -inf, from one point
    # or from the stacked pair, without a warning.
    widths, rates, inv, xt = case
    rows = _RaggedRows(widths)
    bounds = np.cumsum([0, *widths.tolist()]).tolist()
    want = [[repr(_phi_scaled(point[lo:hi], rates[lo:hi], float(g)))
             for lo, hi, g in zip(bounds, bounds[1:], inv)] for point in xt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _phi(rows, xt, inv, _bind_phi(rows, xt, rates))
        alone = [_phi(rows, point, inv, _bind_phi(rows, point, rates)) for point in xt]
    assert [[repr(v) for v in phi] for phi in stacked.tolist()] == want
    assert [[repr(v) for v in phi.tolist()] for phi in alone] == want
