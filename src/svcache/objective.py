"""Sum rate, the energy-efficiency objectives and their exact gradient.

The energy efficiency is the user sum rate divided by the total network
power.  Both are sums over files and over the two layer blocks of
power._layer_blocks, BL and EL: R = sum_{b,f} R_bf(q_bf) and
P = sum_{b,f} P_bf(q_bf) + p_fix.  ObjectiveContext builds both blocks'
constants and Scheme I's theta-smoothed surrogate of the l0
transmission-power terms once; each evaluation is then one call of the
block core power._block_terms per block, which gives both schemes' rows
and slopes from one serving-count model.

_file_terms sums the two blocks into the rows R_f, P_f of (F,) or (B, F)
policy blocks and, on request, their derivatives in each file's own
q1_f, q2_f.  The EE gradient is then (R_f' - EE P_f') / P, in closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from svcache.analytic import RateTable
from svcache.config import CachingPolicy, ContentConfig, NetworkConfig, PowerCoefficients
from svcache.popularity import PopularityProfile
from svcache.power import _block_terms, _layer_blocks, _policy_rows, _surrogate

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
    # Built from the fields above: the (theta, normaliser) pair of Scheme
    # I's surrogate, the BL and EL power._Block constants, whose rate rows
    # are (r_M, r_S[1], ..., r_S[n]), and the fixed power.
    _smoothing: tuple = field(init=False, repr=False, compare=False)
    _blocks: tuple = field(init=False, repr=False, compare=False)
    _p_fix: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_smoothing", _surrogate(self.theta))
        r = self.rates
        if not (r.r_s_bl.keys() >= set(range(1, self.net.n1 + 1))
                and r.r_s_el.keys() >= set(range(1, self.net.n2 + 1))):
            raise ValueError("rate table incomplete for the cluster sizes")
        rows = ([r.r_m_bl] + [r.r_s_bl[n] for n in range(1, self.net.n1 + 1)],
                [r.r_m_el] + [r.r_s_el[n] for n in range(1, self.net.n2 + 1)])
        blocks, p_fix = _layer_blocks(self.profile, self.net, self.content,
                                      self.coeff, rows)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_p_fix", p_fix)


def _file_terms(mode: str, q1, q2, ctx: ObjectiveContext, smoothing,
                slopes: bool = False):
    """The per-file rate and power rows R_f, P_f of the (F,) or (B, F)
    float arrays q1, q2, and p_fix: the sums over the two layer blocks of
    ctx._blocks.  With slopes=True also the derivatives of each row in the
    file's own q1_f and q2_f: (R, P, p_fix, (R1', R2'), (P1', P2')).
    smoothing is ctx._smoothing for Scheme I's surrogate, or None for the
    exact l0 norm (which has no derivative)."""
    q1, q2 = _policy_rows(q1, q2, ctx.profile.f_count)
    bl = _block_terms(mode, q1, ctx._blocks[0], smoothing, slopes)
    el = _block_terms(mode, q2, ctx._blocks[1], smoothing, slopes)
    rate = bl[0] + el[0]
    power = (bl[1] + bl[2] + bl[3]) + (el[1] + el[2] + el[3])
    if not slopes:
        return rate, power, ctx._p_fix
    return rate, power, ctx._p_fix, (bl[4], el[4]), (bl[5], el[5])


def _total_power(power, p_fix):
    total = power.sum(axis=-1) + p_fix
    if (total <= 0).any():
        raise ValueError("total power is zero; no valid EE")
    return total


def _ee(mode: str, q1, q2, ctx: ObjectiveContext, exact_l0: bool = False):
    """Energy efficiency of each row of the (F,) or (B, F) blocks q1, q2."""
    rate, power, p_fix = _file_terms(mode, q1, q2, ctx,
                                     None if exact_l0 else ctx._smoothing)
    return rate.sum(axis=-1) / _total_power(power, p_fix)


def _ee_and_gradient(mode: str, q1, q2, ctx: ObjectiveContext):
    """The smoothed EE of the (F,) blocks q1, q2 and its gradients in q1
    and q2: dEE/dq_f = (R_f' - EE P_f') / P, from one core call."""
    rate, power, p_fix, (r1, r2), (p1, p2) = _file_terms(
        mode, q1, q2, ctx, ctx._smoothing, slopes=True)
    total = _total_power(power, p_fix)
    ee = rate.sum(axis=-1) / total
    return float(ee), (r1 - ee * p1) / total, (r2 - ee * p2) / total


def ee_value(policy: CachingPolicy, ctx: ObjectiveContext,
             exact_l0: bool = False) -> float:
    """Energy efficiency (bits per joule) of a policy.

    Scheme I uses the theta-smoothed transmission power unless
    exact_l0=True, which reports the true-indicator value instead.
    """
    return float(_ee(policy.mode, policy.q1, policy.q2, ctx, exact_l0))


def ee_gradient(policy: CachingPolicy, ctx: ObjectiveContext,
                which: str) -> np.ndarray:
    """Exact gradient of the (smoothed) EE in one policy block.

    which selects 'q1' (base layers) or 'q2' (enhancement layers) in
    either scheme.  The expression is smooth across the box boundary,
    so at 0 and 1 this is also the one-sided derivative into the box.
    """
    if which not in ("q1", "q2"):
        raise ValueError("which must be 'q1' or 'q2'")
    _, grad1, grad2 = _ee_and_gradient(policy.mode, policy.q1, policy.q2, ctx)
    return grad1 if which == "q1" else grad2
