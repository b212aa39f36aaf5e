"""Sum-rate models and the energy-efficiency objectives.

The energy efficiency is the user sum rate divided by the total network
power.  Scheme I optimizes a theta-smoothed surrogate of the l0
transmission-power terms; gradients are numerical (central finite
differences with step-halving available as a consistency check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from svcache.analytic import RateTable
from svcache.config import CachingPolicy, ContentConfig, NetworkConfig, PowerCoefficients
from svcache.popularity import PopularityProfile
from svcache.power import power_scheme1, power_scheme2

DEFAULT_THETA = 0.01
_FD_STEP = 1e-6


def smooth_l0(x: float, theta: float) -> float:
    """Logarithmic surrogate of the nonzero indicator on [0, 1].

    f_theta(x) = log(x/theta + 1) / log(1/theta + 1); increasing,
    concave, 0 at 0 and 1 at 1.
    """
    if theta <= 0:
        raise ValueError("theta must be > 0")
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    return math.log(x / theta + 1.0) / math.log(1.0 / theta + 1.0)


@dataclass(frozen=True)
class ObjectiveContext:
    """Everything the objectives need besides the policy itself."""

    rates: RateTable
    profile: PopularityProfile
    net: NetworkConfig
    content: ContentConfig
    coeff: PowerCoefficients
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be > 0")
        if len(self.rates.r_s_bl) < self.net.n1 or len(self.rates.r_s_el) < self.net.n2:
            raise ValueError("rate table incomplete for the cluster sizes")


def sum_rate_scheme1(q1, q2, ctx: ObjectiveContext) -> float:
    """User sum rate under fractional caching (affine in each fraction)."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    p = np.asarray(ctx.profile.p)
    if len(q1) != len(p) or len(q2) != len(p):
        raise ValueError("policy length mismatch with catalog")
    g_hdv = np.asarray(ctx.profile.g_hdv)
    r = ctx.rates
    r_s_bl = r.r_s_bl[ctx.net.n1]
    r_s_el = r.r_s_el[ctx.net.n2]
    per_file = ((1.0 - q1) * r.r_m_bl + g_hdv * (1.0 - q2) * r.r_m_el
                + q1 * r_s_bl + g_hdv * q2 * r_s_el)
    return float(np.sum(p * per_file))


def _binom_pmf(n_total: int, t: np.ndarray) -> np.ndarray:
    """PMF rows for k = 0..n_total, one column per file."""
    k = np.arange(n_total + 1)[:, None]
    comb = np.array([math.comb(n_total, int(i)) for i in range(n_total + 1)],
                    dtype=float)[:, None]
    t = t[None, :]
    # numpy's 0.0**0 is 1, so t = 0 and t = 1 give exact point masses.
    return comb * t ** k * (1.0 - t) ** (n_total - k)


def sum_rate_scheme2(t1, t2, ctx: ObjectiveContext) -> float:
    """User sum rate under random caching (binomial serving-count mixture)."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    p = np.asarray(ctx.profile.p)
    if len(t1) != len(p) or len(t2) != len(p):
        raise ValueError("policy length mismatch with catalog")
    g_hdv = np.asarray(ctx.profile.g_hdv)
    r = ctx.rates

    pmf1 = _binom_pmf(ctx.net.n1, t1)   # (n1+1, F)
    pmf2 = _binom_pmf(ctx.net.n2, t2)
    rates_bl = np.array([0.0] + [r.r_s_bl[n] for n in range(1, ctx.net.n1 + 1)])
    rates_el = np.array([0.0] + [r.r_s_el[n] for n in range(1, ctx.net.n2 + 1)])
    sbs_bl = rates_bl @ pmf1
    sbs_el = rates_el @ pmf2
    per_file = (pmf1[0] * r.r_m_bl + g_hdv * pmf2[0] * r.r_m_el
                + sbs_bl + g_hdv * sbs_el)
    return float(np.sum(p * per_file))


def ee_value(policy: CachingPolicy, ctx: ObjectiveContext,
             exact_l0: bool = False) -> float:
    """Energy efficiency (bits per joule) of a policy.

    Scheme I uses the theta-smoothed transmission power unless
    exact_l0=True, which reports the true-indicator value instead.
    """
    if policy.mode == "fractional":
        rate = sum_rate_scheme1(policy.q1, policy.q2, ctx)
        smoothing = None if exact_l0 else ctx.theta
        power = power_scheme1(policy, ctx.profile, ctx.net, ctx.content,
                              ctx.coeff, smoothing=smoothing).p_total
    else:
        rate = sum_rate_scheme2(policy.q1, policy.q2, ctx)
        power = power_scheme2(policy, ctx.profile, ctx.net, ctx.content,
                              ctx.coeff).p_total
    if power <= 0:
        raise ZeroDivisionError("total power is zero; no valid EE")
    return rate / power


def ee_gradient(policy: CachingPolicy, ctx: ObjectiveContext, which: str,
                step: float = _FD_STEP) -> np.ndarray:
    """Finite-difference gradient of the (smoothed) EE in one policy block.

    which selects 'q1'/'t1' (base layers) or 'q2'/'t2' (enhancement
    layers).  Central differences in the interior, one-sided at the
    box boundary.
    """
    if which in ("q1", "t1"):
        base = np.asarray(policy.q1)
        rebuild = lambda vec: replace(policy, q1=tuple(vec))
    elif which in ("q2", "t2"):
        base = np.asarray(policy.q2)
        rebuild = lambda vec: replace(policy, q2=tuple(vec))
    else:
        raise ValueError("which must be one of q1, q2, t1, t2")

    grad = np.empty(len(base))
    for f in range(len(base)):
        hi = min(base[f] + step, 1.0)
        lo = max(base[f] - step, 0.0)
        vec_hi = base.copy()
        vec_hi[f] = hi
        vec_lo = base.copy()
        vec_lo[f] = lo
        grad[f] = ((ee_value(rebuild(vec_hi), ctx)
                    - ee_value(rebuild(vec_lo), ctx)) / (hi - lo))
    return grad
