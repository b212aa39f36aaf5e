"""Sum rate and the energy-efficiency objectives.

The energy efficiency is the user sum rate divided by the total network
power.  A layer's rate is r @ D(q): r[0] is the MBS rate, r[k] the rate
of k cooperating SBSs and D the serving-count distribution of
power._serving_pmf, so both schemes share one sum rate and a cluster of
size 0 (D = e0) is served by the MBS.  Scheme I optimizes a
theta-smoothed surrogate of the l0 transmission-power terms.  Rates and
powers sum over the last (file) axis, so the finite-difference gradient
evaluates a stack of policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from svcache.analytic import RateTable
from svcache.config import CachingPolicy, ContentConfig, NetworkConfig, PowerCoefficients
from svcache.popularity import PopularityProfile
from svcache.power import _power_terms, _serving_blocks

DEFAULT_THETA = 0.01
_FD_STEP = 1e-6


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
    """User sum rate sum_f p_f (r_bl @ D1 + g_hdv r_el @ D2) of the serving
    distributions d1, d2 (_serving_pmf) of the BL and EL blocks."""
    p, g_hdv = np.asarray(ctx.profile.p), np.asarray(ctx.profile.g_hdv)
    return np.sum(p * (ctx._r_bl @ d1 + g_hdv * (ctx._r_el @ d2)), axis=-1)


def _ee(mode: str, q1, q2, ctx: ObjectiveContext, exact_l0: bool = False):
    """Energy efficiency of each row of the (F,) or (B, F) blocks q1, q2."""
    q1, q2, d1, d2 = _serving_blocks(mode, q1, q2, ctx.net,
                                     ctx.profile.f_count)
    p_tr, p_ca, p_bh, p_fix = _power_terms(
        mode, q1, q2, d1, d2, ctx.profile, ctx.net, ctx.content, ctx.coeff,
        None if exact_l0 else ctx.theta)
    power = p_tr + p_ca + p_bh + p_fix
    if np.any(power <= 0):
        raise ValueError("total power is zero; no valid EE")
    return _sum_rate(d1, d2, ctx) / power


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
