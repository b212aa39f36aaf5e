"""Sum-rate models and the energy-efficiency objectives.

The energy efficiency is the user sum rate divided by the total network
power.  Scheme I optimizes a theta-smoothed surrogate of the l0
transmission-power terms.  Rates and powers sum over the last (file)
axis, so the finite-difference gradient evaluates a stack of policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from svcache.analytic import RateTable
from svcache.config import CachingPolicy, ContentConfig, NetworkConfig, PowerCoefficients
from svcache.popularity import PopularityProfile
from svcache.power import _power_terms, _smooth_or_l0

DEFAULT_THETA = 0.01
_FD_STEP = 1e-6


def smooth_l0(x: float, theta: float) -> float:
    """Logarithmic surrogate of the nonzero indicator on [0, 1].

    f_theta(x) = log(x/theta + 1) / log(1/theta + 1); increasing,
    concave, 0 at 0 and 1 at 1.  This is the expression the Scheme I
    power terms evaluate.
    """
    if theta <= 0:
        raise ValueError("theta must be > 0")
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    return float(_smooth_or_l0(x, theta))


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
        if not 0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")
        if len(self.rates.r_s_bl) < self.net.n1 or len(self.rates.r_s_el) < self.net.n2:
            raise ValueError("rate table incomplete for the cluster sizes")


def _policy_arrays(q1, q2, ctx: ObjectiveContext):
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.shape[-1] != ctx.profile.f_count or q2.shape[-1] != ctx.profile.f_count:
        raise ValueError("policy length mismatch with catalog")
    return q1, q2, np.asarray(ctx.profile.p), np.asarray(ctx.profile.g_hdv)


def sum_rate_scheme1(q1, q2, ctx: ObjectiveContext):
    """User sum rate under fractional caching (affine in each fraction); a
    fraction cached in a cluster of size 0 is served at the MBS rate."""
    q1, q2, p, g_hdv = _policy_arrays(q1, q2, ctx)
    r = ctx.rates
    r_s_bl = r.r_s_bl[ctx.net.n1] if ctx.net.n1 else r.r_m_bl
    r_s_el = r.r_s_el[ctx.net.n2] if ctx.net.n2 else r.r_m_el
    per_file = ((1.0 - q1) * r.r_m_bl + g_hdv * (1.0 - q2) * r.r_m_el
                + q1 * r_s_bl + g_hdv * q2 * r_s_el)
    return np.sum(p * per_file, axis=-1)


def _binom_pmf(n_total: int, t: np.ndarray) -> np.ndarray:
    """PMF rows for k = 0..n_total: shape (n_total+1, F), or (B, n_total+1, F)."""
    k = np.arange(n_total + 1)[:, None]
    comb = np.array([math.comb(n_total, int(i)) for i in range(n_total + 1)],
                    dtype=float)[:, None]
    t = t[..., None, :]
    # numpy's 0.0**0 is 1, so t = 0 and t = 1 give exact point masses.
    return comb * t ** k * (1.0 - t) ** (n_total - k)


def sum_rate_scheme2(t1, t2, ctx: ObjectiveContext):
    """User sum rate under random caching (binomial serving-count mixture);
    no serving SBS (k = 0, always so in a cluster of size 0) means the MBS."""
    t1, t2, p, g_hdv = _policy_arrays(t1, t2, ctx)
    r = ctx.rates
    pmf1 = _binom_pmf(ctx.net.n1, t1)
    pmf2 = _binom_pmf(ctx.net.n2, t2)
    rates_bl = np.array([0.0] + [r.r_s_bl[n] for n in range(1, ctx.net.n1 + 1)])
    rates_el = np.array([0.0] + [r.r_s_el[n] for n in range(1, ctx.net.n2 + 1)])
    sbs_bl = rates_bl @ pmf1
    sbs_el = rates_el @ pmf2
    per_file = (pmf1[..., 0, :] * r.r_m_bl + g_hdv * pmf2[..., 0, :] * r.r_m_el
                + sbs_bl + g_hdv * sbs_el)
    return np.sum(p * per_file, axis=-1)


def _ee(mode: str, q1, q2, ctx: ObjectiveContext, exact_l0: bool = False):
    """Energy efficiency of each row of the (F,) or (B, F) blocks q1, q2."""
    rate = (sum_rate_scheme1 if mode == "fractional" else sum_rate_scheme2)(q1, q2, ctx)
    p_tr, p_ca, p_bh, p_fix = _power_terms(
        mode, q1, q2, ctx.profile, ctx.net, ctx.content, ctx.coeff,
        None if exact_l0 else ctx.theta)
    power = p_tr + p_ca + p_bh + p_fix
    if np.any(power <= 0):
        raise ValueError("total power is zero; no valid EE")
    return rate / power


def ee_value(policy: CachingPolicy, ctx: ObjectiveContext,
             exact_l0: bool = False) -> float:
    """Energy efficiency (bits per joule) of a policy.

    Scheme I uses the theta-smoothed transmission power unless
    exact_l0=True, which reports the true-indicator value instead.
    """
    return float(_ee(policy.mode, np.asarray(policy.q1), np.asarray(policy.q2),
                     ctx, exact_l0))


def _ee_gradient(mode: str, q1, q2, ctx: ObjectiveContext, which: str,
                 step: float = _FD_STEP) -> np.ndarray:
    # Rows f and F + f of the stacked evaluation move coordinate f up and
    # down by step, clipped to [0, 1].
    if which not in ("q1", "q2"):
        raise ValueError("which must be 'q1' or 'q2'")
    blocks = [q1, q2]
    block = int(which[1]) - 1
    base = blocks[block]
    f_count = len(base)
    hi = np.minimum(base + step, 1.0)
    lo = np.maximum(base - step, 0.0)
    rows = np.tile(base, (2, f_count, 1))
    diag = np.arange(f_count)
    rows[:, diag, diag] = hi, lo
    blocks[block] = rows.reshape(2 * f_count, f_count)
    ee_hi, ee_lo = _ee(mode, *blocks, ctx).reshape(2, f_count)
    return (ee_hi - ee_lo) / (hi - lo)


def ee_gradient(policy: CachingPolicy, ctx: ObjectiveContext, which: str,
                step: float = _FD_STEP) -> np.ndarray:
    """Finite-difference gradient of the (smoothed) EE in one policy block.

    which selects 'q1' (base layers) or 'q2' (enhancement layers) in
    either scheme.  Central differences in the interior, one-sided at
    the box boundary.
    """
    return _ee_gradient(policy.mode, np.asarray(policy.q1),
                        np.asarray(policy.q2), ctx, which, step)
