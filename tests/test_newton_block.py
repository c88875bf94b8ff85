"""The lock-step block solver against the scalar per-UAV solver it replaced.

``_phi_scaled``, ``_solve_uav`` and ``reference_refine`` below are the
scalar solver and its driving loop, copied verbatim (only the loop's name
changed). The block solver must reproduce them bit for bit: every
``RelaxedLinkMatrix`` field, every trace row, and the type and message of the
first failure, with the trace rows written up to it.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from fanetsim.linksel import (
    BARRIER_ROUNDS,
    INTERIOR_MARGIN,
    _MIN_STEP_FRACTION,
    Candidate,
    CandidateSet,
    ConvergenceError,
    RelaxedLinkMatrix,
    SolverConfig,
    newton_refine,
)
from fanetsim.power import PowerAllocation


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


# A few rates shared within an instance give ties; zeros and the extremes
# of the physical range come up often. One instance in five also draws
# powers so small that p.p or the Newton system's p.H^-1.p underflows to
# zero, where the scalar solver's float division raised.
@st.composite
def instances(draw):
    shared = draw(st.lists(st.floats(0.0, 1e9), min_size=1, max_size=3)) + [0.0, 1e9]
    rate = st.sampled_from(shared) | st.floats(0.0, 1e9)
    power = st.just(0.0) | st.just(1.0) | st.floats(1e-15, 1e6)
    if draw(st.integers(0, 4)) == 0:
        power = power | st.sampled_from([1e-165, 3e-162, 1e-150])
    widths = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    ids = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=10)))
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
    return CandidateSet(candidates=candidates), alloc, cfg


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
        except (ConvergenceError, ZeroDivisionError) as err:
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
    want, want_trace, ref_warned = outcome(reference_refine, c, alloc, cfg, [])
    got, got_trace, warned = outcome(newton_refine, c, alloc, cfg, [])
    assert got == want
    assert got_trace == want_trace
    assert outcome(newton_refine, c, alloc, cfg, None)[0] == want
    # The block also solves UAVs past the scalar loop's first failure, so it
    # may warn where the reference stopped early, but never stays silent
    # where the reference warned.
    assert warned or not ref_warned
