"""Sum rate, the energy-efficiency objectives and their exact gradient.

The energy efficiency is the user sum rate divided by the total network
power.  A layer's rate is r @ D(q): r[0] is the MBS rate, r[k] the rate
of k cooperating SBSs and D the serving-count distribution of
power._serving_pmf, so both schemes share one sum rate and a cluster of
size 0 (D = e0) is served by the MBS.  Scheme I optimizes a
theta-smoothed surrogate of the l0 transmission-power terms.

Rate and power are separable over files, R = sum_f R_f(q1_f, q2_f) and
P = sum_f P_f(q1_f, q2_f) + p_fix, so one per-file core (_file_terms)
gives the rows R_f, P_f of (F,) or (B, F) policy blocks and, on request,
their derivatives in each file's own q1_f, q2_f (R_f' = p_f r @ D'(q_f)).
The EE gradient is then (R_f' P - R P_f') / P^2, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from svcache.analytic import RateTable
from svcache.config import CachingPolicy, ContentConfig, NetworkConfig, PowerCoefficients
from svcache.popularity import PopularityProfile
from svcache.power import (_power_slopes, _power_terms, _serving_blocks,
                           _serving_pmf_slope)

DEFAULT_THETA = 0.01


@dataclass(frozen=True)
class ObjectiveContext:
    """Everything the objectives need besides the policy itself."""

    rates: RateTable
    profile: PopularityProfile
    net: NetworkConfig
    content: ContentConfig
    coeff: PowerCoefficients
    theta: float = DEFAULT_THETA
    # (r_M, r_S[1], ..., r_S[n]) for each layer: the rate with k serving SBSs
    _r_bl: np.ndarray = field(init=False, repr=False, compare=False)
    _r_el: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")
        if len(self.rates.r_s_bl) < self.net.n1 or len(self.rates.r_s_el) < self.net.n2:
            raise ValueError("rate table incomplete for the cluster sizes")
        r = self.rates
        object.__setattr__(self, "_r_bl", np.array(
            [r.r_m_bl] + [r.r_s_bl[n] for n in range(1, self.net.n1 + 1)]))
        object.__setattr__(self, "_r_el", np.array(
            [r.r_m_el] + [r.r_s_el[n] for n in range(1, self.net.n2 + 1)]))


def _sum_rate(d1, d2, ctx: ObjectiveContext):
    """Per-file user sum rate p_f (r_bl @ D1 + g_hdv r_el @ D2) of the
    serving distributions d1, d2 (_serving_pmf) of the BL and EL blocks."""
    p, g_hdv = np.asarray(ctx.profile.p), np.asarray(ctx.profile.g_hdv)
    return p * (ctx._r_bl @ d1 + g_hdv * (ctx._r_el @ d2))


def _file_terms(mode: str, q1, q2, ctx: ObjectiveContext,
                smoothing: float | None, slopes: bool = False):
    """The per-file rate and power rows R_f, P_f of the (F,) or (B, F)
    blocks q1, q2, and p_fix.  With slopes=True also the derivatives of
    each row in the file's own q1_f and q2_f: (R, P, p_fix, (R1', R2'),
    (P1', P2')).  smoothing is the theta of Scheme I's surrogate, or None
    for the exact l0 norm (which has no derivative)."""
    q1, q2, d1, d2 = _serving_blocks(mode, q1, q2, ctx.net,
                                     ctx.profile.f_count)
    p_tr, p_ca, p_bh, p_fix = _power_terms(
        mode, q1, q2, d1, d2, ctx.profile, ctx.net, ctx.content, ctx.coeff,
        smoothing)
    rate, power = _sum_rate(d1, d2, ctx), p_tr + p_ca + p_bh
    if not slopes:
        return rate, power, p_fix
    s1 = _serving_pmf_slope(mode, ctx.net.n1, q1)
    s2 = _serving_pmf_slope(mode, ctx.net.n2, q2)
    p, g_hdv = np.asarray(ctx.profile.p), np.asarray(ctx.profile.g_hdv)
    rate_slopes = (p * (ctx._r_bl @ s1), p * g_hdv * (ctx._r_el @ s2))
    power_slopes = _power_slopes(mode, q1, q2, s1, s2, ctx.profile, ctx.net,
                                 ctx.content, ctx.coeff, smoothing)
    return rate, power, p_fix, rate_slopes, power_slopes


def _total_power(power, p_fix):
    total = np.sum(power, axis=-1) + p_fix
    if np.any(total <= 0):
        raise ValueError("total power is zero; no valid EE")
    return total


def _ee(mode: str, q1, q2, ctx: ObjectiveContext, exact_l0: bool = False):
    """Energy efficiency of each row of the (F,) or (B, F) blocks q1, q2."""
    rate, power, p_fix = _file_terms(mode, q1, q2, ctx,
                                     None if exact_l0 else ctx.theta)
    return np.sum(rate, axis=-1) / _total_power(power, p_fix)


def _ee_and_gradient(mode: str, q1, q2, ctx: ObjectiveContext):
    """The smoothed EE of the (F,) blocks q1, q2 and its gradients in q1
    and q2: dEE/dq_f = (R_f' - EE P_f') / P, from one core call."""
    rate, power, p_fix, (r1, r2), (p1, p2) = _file_terms(
        mode, q1, q2, ctx, ctx.theta, slopes=True)
    total = _total_power(power, p_fix)
    ee = np.sum(rate, axis=-1) / total
    return float(ee), (r1 - ee * p1) / total, (r2 - ee * p2) / total


def ee_value(policy: CachingPolicy, ctx: ObjectiveContext,
             exact_l0: bool = False) -> float:
    """Energy efficiency (bits per joule) of a policy.

    Scheme I uses the theta-smoothed transmission power unless
    exact_l0=True, which reports the true-indicator value instead.
    """
    return float(_ee(policy.mode, np.asarray(policy.q1), np.asarray(policy.q2),
                     ctx, exact_l0))


def ee_gradient(policy: CachingPolicy, ctx: ObjectiveContext,
                which: str) -> np.ndarray:
    """Exact gradient of the (smoothed) EE in one policy block.

    which selects 'q1' (base layers) or 'q2' (enhancement layers) in
    either scheme.  The expression is smooth across the box boundary,
    so at 0 and 1 this is also the one-sided derivative into the box.
    """
    if which not in ("q1", "q2"):
        raise ValueError("which must be 'q1' or 'q2'")
    _, grad1, grad2 = _ee_and_gradient(policy.mode, np.asarray(policy.q1),
                                       np.asarray(policy.q2), ctx)
    return grad1 if which == "q1" else grad2
