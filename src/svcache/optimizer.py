"""Projected gradient ascent over the capped-simplex feasible sets.

Each caching block lives on {x : 0 <= x_f <= 1, sum x_f = budget}.  The
projection is exact: sorting the 2F kinks of u -> sum_f min([v_f - u]^+, 1)
gives the linear piece on which that map meets the budget.  The ascent uses
the diminishing step eps(t) = eps0/t, eps0 = 1/||g0||_inf for the initial
gradient g0, with per-block projections, and terminates when the relative
objective change falls below rel_tol.  Each iterate costs one call of the
objective's per-file core, which returns the EE and its exact gradient
together; after the loop one more call gives the stationarity residual of
the returned iterate.
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
    iteration: int
    ee: float
    step: float
    u_thresh: float
    v_thresh: float
    max_delta: float


@dataclass
class SolverTrace:
    rows: list = field(default_factory=list)
    termination: str = ""
    # How far from stationary the returned iterate is: the largest, over
    # both blocks, of ||Proj(q + g/||g||_inf) - q||_inf (0 at a zero
    # gradient).
    residual: float = math.nan

    def ee_values(self) -> np.ndarray:
        return np.array([r.ee for r in self.rows])


def project_capped_simplex(v, budget: float) -> np.ndarray:
    """Euclidean projection of v onto {x in [0,1]^F : sum x = budget}."""
    v = np.asarray(v, dtype=float)
    if not 0 <= budget <= len(v):
        raise ValueError(f"budget {budget} outside [0, {len(v)}]")
    u, _ = _project_with_threshold(v, budget)
    return u


def _project_with_threshold(v: np.ndarray, budget: float):
    """Exact projection x = clip(v - u, 0, 1) and its threshold u.

    m(u) = sum_f clip(v_f - u, 0, 1) is non-increasing and piecewise
    linear, with kinks at v_f - 1 (x_f leaves 1) and v_f (x_f reaches 0).
    On the piece after the last sorted kink where m >= budget, solve
    m(u) = n_ones + sum_free - n_free * u = budget.
    """
    f_count = len(v)
    kinks = np.concatenate((v - 1.0, v))
    order = np.argsort(kinks, kind="stable")
    kinks = kinks[order]
    leaves_one = order < f_count
    sign = np.where(leaves_one, 1.0, -1.0)
    n_ones = f_count - np.cumsum(leaves_one)
    n_free = np.cumsum(sign)
    sum_free = np.cumsum(sign * v[order % f_count])
    hits = np.flatnonzero(n_ones + sum_free - n_free * kinks >= budget)
    j = hits[-1] if hits.size else 0
    u = (n_ones[j] + sum_free[j] - budget) / n_free[j] if n_free[j] else kinks[j]
    return np.minimum(np.maximum(v - u, 0.0), 1.0), u


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
    return CachingPolicy(mode=mode, q1=tuple(q1), q2=tuple(q2))


def _residual(q: np.ndarray, grad: np.ndarray, budget: float) -> float:
    """||Proj(q + g/||g||_inf) - q||_inf of one block; 0 when g = 0."""
    scale = np.abs(grad).max()
    if scale == 0:
        return 0.0
    x, _ = _project_with_threshold(q + grad / scale, budget)
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
    m_b, m_e = ctx.content.m_b, ctx.content.m_e
    q1, q2 = np.asarray(initial.q1), np.asarray(initial.q2)
    trace = SolverTrace()
    ee, grad1, grad2 = _ee_and_gradient(mode, q1, q2, ctx)
    best_q, best_ee = (q1, q2), ee
    # The EE gradient carries physical units (bits/joule per caching
    # fraction), so the diminishing step 1/t is normalized by the initial
    # gradient's sup-norm; otherwise the first steps saturate the box for
    # any realistic parameter scale.
    g0 = max(np.abs(grad1).max(), np.abs(grad2).max())
    eps0 = 1.0 / g0 if g0 > 0 else 1.0
    termination = "max_iters"
    for t in range(1, settings.max_iters + 1):
        step = eps0 / t
        q1_new, u_thresh = _project_with_threshold(q1 + step * grad1, m_b)
        q2_new, v_thresh = _project_with_threshold(q2 + step * grad2, m_e)
        max_delta = max(np.abs(q1_new - q1).max(), np.abs(q2_new - q2).max())
        q1, q2 = q1_new, q2_new
        check_budget(q1, q2, ctx.content)  # every iterate stays feasible
        ee_new, grad1, grad2 = _ee_and_gradient(mode, q1, q2, ctx)
        trace.rows.append(TraceRow(t, ee_new, float(step), float(u_thresh),
                                   float(v_thresh), float(max_delta)))
        if ee_new > best_ee:
            best_q, best_ee = (q1, q2), ee_new
        if abs(ee_new - ee) <= settings.rel_tol * max(abs(ee), 1e-300):
            termination = "converged"
            break
        ee = ee_new

    trace.termination = termination
    _, grad1, grad2 = _ee_and_gradient(mode, *best_q, ctx)
    trace.residual = max(_residual(best_q[0], grad1, m_b),
                         _residual(best_q[1], grad2, m_e))
    return CachingPolicy(mode=mode, q1=tuple(best_q[0]), q2=tuple(best_q[1])), trace


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
