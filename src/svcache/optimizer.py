"""Projected gradient ascent over the capped-simplex feasible sets.

The blocks (q1, M_B) and (q2, M_E) each live on {x : 0 <= x_f <= 1,
sum x_f = budget}, and one loop steps and projects both.  The projection
is exact: sorting the 2F kinks of u -> sum_f min([v_f - u]^+, 1) gives the
linear piece on which that map meets the budget.  The ascent uses the
diminishing step eps(t) = eps0/t, eps0 = 1/||g0||_inf for the initial
gradient g0, and terminates when the relative objective change falls
below rel_tol.  Each iterate costs one call of the objective's per-file
core, which returns the EE and its exact gradient together; after the loop
one more call gives the stationarity residual of the returned iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from svcache.baselines import mpcp_policy, ucp_policy
from svcache.config import CachingPolicy, ContentConfig, check_budget
from svcache.objective import (DEFAULT_THETA, ObjectiveContext,
                               _ee_and_gradient, ee_value)
from svcache.popularity import zipf

INITIAL_KINDS = ("ucp", "mpcp", "popularity-proportional", "random")

# The largest miss |sum x - budget| that project_capped_simplex leaves
# unrefined: above the rounding of the sums of the default catalog, and
# 1e-3 of the _BUDGET_TOL that check_budget holds every iterate to.
_PROJECTION_MISS = 1e-12


@dataclass(frozen=True)
class SolverSettings:
    max_iters: int = 500
    rel_tol: float = 1e-6
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if not 0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")


@dataclass
class TraceRow:
    """A row of trace.csv: iteration t, the new iterate's EE, the step
    eps0/t and max_delta, the largest change of any caching fraction."""

    iteration: int
    ee: float
    step: float
    max_delta: float


@dataclass
class SolverTrace:
    """A TraceRow per iteration, why the ascent stopped ("converged" or
    "max_iters") and the residual ||Proj(q + g/||g||_inf) - q||_inf of the
    returned iterate, largest over both blocks (0 at a zero gradient)."""

    rows: list = field(default_factory=list)
    termination: str = ""
    residual: float = math.nan

    def ee_values(self) -> np.ndarray:
        return np.array([r.ee for r in self.rows])


def project_capped_simplex(v, budget: float) -> np.ndarray:
    """Euclidean projection x = clip(v - u, 0, 1) of v onto
    {x in [0,1]^F : sum x = budget}.

    m(u) = sum_f clip(v_f - u, 0, 1) is non-increasing and piecewise
    linear, with kinks at v_f - 1 (x_f leaves 1) and v_f (x_f reaches 0).
    On the piece after the last sorted kink where m >= budget, solve
    m(u) = n_ones + sum_free - n_free * u = budget.  On a flat piece
    (n_free = 0) every u in it gives the same x, so its kink is taken.
    sum_free is a sequential cumsum, whose rounding grows with F: on F
    tied entries at F = 1e5 it left sum x off the budget by 5e-8.  So
    where sum x misses the budget by more than _PROJECTION_MISS, u moves
    once by the miss over the piece's slope -n_free.  At budget 0 or F the
    set is one vertex, returned exactly: on random inputs at F = 1000 the
    solved u left entries up to 7e-13 off 0 or 1 there.
    """
    v = np.asarray(v, dtype=float)
    f_count = len(v)
    if not 0 <= budget <= f_count:
        raise ValueError(f"budget {budget} outside [0, {f_count}]")
    if budget == 0 or budget == f_count:
        return np.full(f_count, 1.0 if budget else 0.0)
    kinks = np.concatenate((v - 1.0, v))
    order = kinks.argsort(kind="stable")
    kinks = kinks[order]
    leaves_one = order < f_count
    sign = np.where(leaves_one, 1.0, -1.0)
    n_ones = f_count - leaves_one.cumsum()
    n_free = sign.cumsum()
    sum_free = (sign * v[order % f_count]).cumsum()
    hits = (n_ones + sum_free - n_free * kinks >= budget).nonzero()[0]
    j = hits[-1] if hits.size else 0
    u = (n_ones[j] + sum_free[j] - budget) / n_free[j] if n_free[j] else kinks[j]
    x = np.minimum(np.maximum(v - u, 0.0), 1.0)
    miss = x.sum() - budget
    if n_free[j] and abs(miss) > _PROJECTION_MISS:
        x = np.minimum(np.maximum(v - (u + miss / n_free[j]), 0.0), 1.0)
    return x


def make_initial_policy(kind: str, content: ContentConfig, seed: int = 0,
                        mode: str = "fractional") -> CachingPolicy:
    """Feasible starting policy of one of the INITIAL_KINDS; "ucp" and
    "mpcp" are the baseline placements, and only "random" reads seed."""
    f_count = content.f_count
    if kind == "ucp":
        return ucp_policy(content, mode)
    if kind == "mpcp":
        return mpcp_policy(content, mode)
    if kind == "popularity-proportional":
        p = zipf(f_count, content.zipf_alpha)
        q1 = project_capped_simplex(p * content.m_b / p.max(), content.m_b)
        q2 = project_capped_simplex(p * content.m_e / p.max(), content.m_e)
    elif kind == "random":
        rng = np.random.default_rng(seed)
        q1 = project_capped_simplex(rng.random(f_count), content.m_b)
        q2 = project_capped_simplex(rng.random(f_count), content.m_e)
    else:
        raise ValueError(f"kind must be one of {', '.join(INITIAL_KINDS)}")
    return CachingPolicy(mode=mode, q1=q1, q2=q2)


def _residual(q: np.ndarray, grad: np.ndarray, budget: float) -> float:
    """||Proj(q + g/||g||_inf) - q||_inf of one block; 0 when g = 0."""
    scale = np.abs(grad).max()
    if scale == 0:
        return 0.0
    x = project_capped_simplex(q + grad / scale, budget)
    return float(np.abs(x - q).max())


def optimize(initial: CachingPolicy, ctx: ObjectiveContext,
             settings: SolverSettings = SolverSettings()
             ) -> tuple[CachingPolicy, SolverTrace]:
    """Block projected-gradient ascent with step eps(t) = eps0/t, where
    eps0 = 1/||g0||_inf is set by the initial gradient g0.

    Both block gradients are evaluated at the current iterate, then the
    base-layer block is projected onto its budget, followed by the
    enhancement-layer block.  Returns the best-EE iterate visited and a
    full per-iteration trace, with the stationarity residual of the
    returned iterate.  Scheme I is smoothed with ctx.theta;
    settings.theta must equal it.
    """
    try:
        initial.validate_budget(ctx.content)
    except ValueError as exc:
        raise ValueError(
            f"infeasible initial policy ({exc}); project it onto the "
            "capped simplex first") from None
    if settings.theta != ctx.theta:
        raise ValueError(f"settings.theta = {settings.theta} differs from "
                         f"ctx.theta = {ctx.theta}")

    mode = initial.mode
    budgets = (ctx.content.m_b, ctx.content.m_e)
    q = (initial.q1, initial.q2)
    trace = SolverTrace()
    ee, *grad = _ee_and_gradient(mode, *q, ctx)
    best_q, best_ee = q, ee
    # The EE gradient carries physical units (bits/joule per caching
    # fraction), so the diminishing step 1/t is normalized by the initial
    # gradient's sup-norm; otherwise the first steps saturate the box for
    # any realistic parameter scale.
    g0 = float(max(np.abs(g).max() for g in grad))
    eps0 = 1.0 / g0 if g0 > 0 else 1.0
    termination = "max_iters"
    for t in range(1, settings.max_iters + 1):
        step = eps0 / t
        q_new = [project_capped_simplex(x + step * g, m)
                 for x, g, m in zip(q, grad, budgets)]
        max_delta = float(max(np.abs(a - x).max() for a, x in zip(q_new, q)))
        q = q_new
        check_budget(*q, ctx.content)  # every iterate stays feasible
        ee_new, *grad = _ee_and_gradient(mode, *q, ctx)
        trace.rows.append(TraceRow(t, ee_new, step, max_delta))
        if ee_new > best_ee:
            best_q, best_ee = q, ee_new
        if abs(ee_new - ee) <= settings.rel_tol * max(abs(ee), 1e-300):
            termination = "converged"
            break
        ee = ee_new

    trace.termination = termination
    _, *grad = _ee_and_gradient(mode, *best_q, ctx)
    trace.residual = max(_residual(x, g, m)
                         for x, g, m in zip(best_q, grad, budgets))
    return CachingPolicy(mode=mode, q1=best_q[0], q2=best_q[1]), trace


def optimize_best(ctx: ObjectiveContext, mode: str,
                  settings: SolverSettings = SolverSettings()
                  ) -> tuple[CachingPolicy, SolverTrace]:
    """Multi-start ascent from the UCP, MPCP and popularity-proportional
    starts; returns the best run.

    Fractional policies are ranked by their exact-l0 EE (the reported
    figure), random policies by the plain objective.
    """
    exact = mode == "fractional"
    best = None
    for kind in ("ucp", "mpcp", "popularity-proportional"):
        initial = make_initial_policy(kind, ctx.content, mode=mode)
        policy, trace = optimize(initial, ctx, settings)
        score = ee_value(policy, ctx, exact_l0=exact)
        if best is None or score > best[0]:
            best = (score, policy, trace)
    return best[1], best[2]
