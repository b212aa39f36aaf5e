"""Network power consumption for the two caching schemes.

Total power = transmission + caching + backhaul + fixed.  Scheme I
(fractional caching) drives transmission power through indicator
(l0-norm) terms, optionally smoothed; Scheme II (random caching)
through expected active-station counts and cluster-miss probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from svcache.config import CachingPolicy, ContentConfig, NetworkConfig, PowerCoefficients
from svcache.popularity import PopularityProfile

# Entries below this magnitude count as zero for the exact l0 norm.
_L0_TOL = 1e-12


@dataclass(frozen=True)
class PowerBreakdown:
    p_tr: float
    p_ca: float
    p_bh: float
    p_fix: float

    @property
    def p_total(self) -> float:
        return self.p_tr + self.p_ca + self.p_bh + self.p_fix


def _smooth_or_l0(x: np.ndarray, theta) -> np.ndarray:
    if theta is None:
        return (np.abs(x) > _L0_TOL).astype(float)
    return np.log(x / theta + 1.0) / np.log(1.0 / theta + 1.0)


def _check_policy(policy: CachingPolicy, profile: PopularityProfile,
                  expected_mode: str):
    if policy.mode != expected_mode:
        raise ValueError(f"policy mode {policy.mode!r}, expected {expected_mode!r}")
    if policy.f_count != profile.f_count:
        raise ValueError(f"policy length {policy.f_count} != catalog size "
                         f"{profile.f_count}")


def _power_terms(mode: str, q1, q2, profile: PopularityProfile, net: NetworkConfig,
                 content: ContentConfig, coeff: PowerCoefficients,
                 smoothing: float | None = None) -> tuple:
    """(p_tr, p_ca, p_bh, p_fix), summed over the last axis of the (F,) or
    (B, F) blocks; smoothing is as in power_scheme1 (fractional mode only)."""
    q1, q2 = np.asarray(q1), np.asarray(q2)
    # A cluster of size 0 caches nothing: the sum rate serves its block
    # from the MBS, and so do the power terms.
    if net.n1 == 0:
        q1 = np.zeros_like(q1, dtype=float)
    if net.n2 == 0:
        q2 = np.zeros_like(q2, dtype=float)
    p = np.asarray(profile.p)
    g_hdv = np.asarray(profile.g_hdv)
    # on(x): how much a station serving a fraction (or with probability) x
    # transmits; the (smoothed) l0 indicator in Scheme I, x itself in II.
    if mode == "fractional":
        on = lambda x: _smooth_or_l0(x, smoothing)
        miss1, miss2 = 1.0 - q1, 1.0 - q2
    else:
        on = lambda x: x
        miss1, miss2 = (1.0 - q1) ** net.n1, (1.0 - q2) ** net.n2

    p_tr = np.sum(p * (
        net.p_s * coeff.zeta_s * (net.n1 * on(q1) + g_hdv * net.n2 * on(q2))
        + net.p_m * coeff.zeta_m * (on(1.0 - q1) + g_hdv * on(1.0 - q2))),
        axis=-1)
    p_ca = coeff.c_ca * np.sum(q1 * content.l_b * net.n1
                               + q2 * content.l_e * net.n2, axis=-1)
    p_bh = coeff.c_bh * np.sum(p * (miss1 * content.l_b
                                    + g_hdv * miss2 * content.l_e), axis=-1)
    p_fix = (net.n1 + net.n2) * coeff.p_s_fix + coeff.p_m_fix
    return p_tr, p_ca, p_bh, p_fix


def power_scheme1(policy: CachingPolicy, profile: PopularityProfile,
                  net: NetworkConfig, content: ContentConfig,
                  coeff: PowerCoefficients,
                  smoothing: float | None = None) -> PowerBreakdown:
    """Power consumption under fractional caching.

    With smoothing=None the transmission term uses the exact l0 norm of
    each caching fraction; otherwise each indicator is replaced by the
    logarithmic surrogate with parameter theta=smoothing.
    """
    _check_policy(policy, profile, "fractional")
    return PowerBreakdown(*map(float, _power_terms(
        "fractional", policy.q1, policy.q2, profile, net, content, coeff, smoothing)))


def power_scheme2(policy: CachingPolicy, profile: PopularityProfile,
                  net: NetworkConfig, content: ContentConfig,
                  coeff: PowerCoefficients) -> PowerBreakdown:
    """Power consumption under random caching."""
    _check_policy(policy, profile, "random")
    return PowerBreakdown(*map(float, _power_terms(
        "random", policy.q1, policy.q2, profile, net, content, coeff)))
