"""Network power consumption for the two caching schemes.

Total power = transmission + caching + backhaul + fixed.  Scheme I
(fractional caching) drives transmission power through indicator
(l0-norm) terms, optionally smoothed; Scheme II (random caching)
through expected active-station counts.  Both bill the backhaul on the
cluster miss D0 of the serving-count distribution (_serving_pmf).  The
power is kept per file until the end (_power_terms), so the objective
can differentiate each file's row in its own q1_f, q2_f (_power_slopes).
"""

from __future__ import annotations

import math
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


def _smooth_slope(x: np.ndarray, theta: float) -> np.ndarray:
    """Derivative of the smoothed l0 surrogate of _smooth_or_l0."""
    return 1.0 / ((x + theta) * np.log(1.0 / theta + 1.0))


def _serving_pmf(mode: str, n: int, q: np.ndarray) -> np.ndarray:
    """Distribution D of the number k = 0..n of cluster SBSs that hold a
    layer cached with fraction (or probability) q: shape (n+1, F) for an
    (F,) block q, (B, n+1, F) for a (B, F) block.

    Fractional caching stores a fraction in all n SBSs or in none (1 - q
    at k = 0, q at k = n); random caching stores it in each SBS
    independently (Binomial(n, q)).  A cluster of size 0 is e0.
    """
    if mode == "random":
        k = np.arange(n + 1)[:, None]
        comb = np.array([math.comb(n, i) for i in range(n + 1)],
                        dtype=float)[:, None]
        t = q[..., None, :]
        # numpy's 0.0**0 is 1: t = 0, t = 1 and n = 0 give point masses.
        return comb * t ** k * (1.0 - t) ** (n - k)
    d = np.zeros(q.shape[:-1] + (n + 1, q.shape[-1]))
    d[..., n, :] = q
    d[..., 0, :] = 1.0 - q if n else 1.0
    return d


def _serving_pmf_slope(mode: str, n: int, q: np.ndarray) -> np.ndarray:
    """dD/dq of _serving_pmf, entry by entry and of the same shape.

    Fractional caching: -1 at k = 0 and +1 at k = n.  Random caching:
    n (B_{n-1}(k-1) - B_{n-1}(k)) with the Binomial(n-1, q) PMF B_{n-1}.
    A cluster of size 0 (D = e0) gives 0.
    """
    d = np.zeros(q.shape[:-1] + (n + 1, q.shape[-1]))
    if n == 0:
        return d
    if mode == "random":
        b = n * _serving_pmf("random", n - 1, q)
        d[..., 1:, :] = b
        d[..., :-1, :] -= b
    else:
        d[..., 0, :] = -1.0
        d[..., n, :] = 1.0
    return d


def _serving_blocks(mode: str, q1, q2, net: NetworkConfig, f_count: int):
    """The (F,) or (B, F) policy blocks q1, q2 as float arrays, and their
    serving distributions d1, d2."""
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    if q1.shape[-1] != f_count or q2.shape[-1] != f_count:
        raise ValueError(f"policy lengths {q1.shape[-1]}, {q2.shape[-1]} != "
                         f"catalog size {f_count}")
    return (q1, q2, _serving_pmf(mode, net.n1, q1),
            _serving_pmf(mode, net.n2, q2))


def _power_terms(mode: str, q1, q2, d1, d2, profile: PopularityProfile,
                 net: NetworkConfig, content: ContentConfig,
                 coeff: PowerCoefficients,
                 smoothing: float | None = None) -> tuple:
    """(p_tr, p_ca, p_bh, p_fix): the per-file transmission, caching and
    backhaul rows, each of the shape of the (F,) or (B, F) blocks q1, q2
    with serving distributions d1, d2 (_serving_pmf), and the fixed power;
    smoothing is as in power_scheme1 (fractional mode only)."""
    # A cluster of size 0 caches nothing: the sum rate serves its block
    # from the MBS, and so does the transmission power.
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
    else:
        on = lambda x: x

    p_tr = p * (
        net.p_s * coeff.zeta_s * (net.n1 * on(q1) + g_hdv * net.n2 * on(q2))
        + net.p_m * coeff.zeta_m * (on(1.0 - q1) + g_hdv * on(1.0 - q2)))
    p_ca = coeff.c_ca * (q1 * content.l_b * net.n1 + q2 * content.l_e * net.n2)
    p_bh = coeff.c_bh * (p * (d1[..., 0, :] * content.l_b
                              + g_hdv * d2[..., 0, :] * content.l_e))
    p_fix = (net.n1 + net.n2) * coeff.p_s_fix + coeff.p_m_fix
    return p_tr, p_ca, p_bh, p_fix


def _power_slopes(mode: str, q1, q2, s1, s2, profile: PopularityProfile,
                  net: NetworkConfig, content: ContentConfig,
                  coeff: PowerCoefficients, smoothing: float) -> tuple:
    """Derivatives of each file's power p_tr + p_ca + p_bh (_power_terms)
    in its own q1_f and q2_f; s1, s2 are the _serving_pmf_slope of the
    blocks, and smoothing is the theta of Scheme I's surrogate."""
    p = np.asarray(profile.p)
    g_hdv = np.asarray(profile.g_hdv)

    def transmit(x, n):
        # n SBSs transmit on(x) and the MBS on(1 - x); a cluster of size
        # 0 caches nothing, so its block's transmission is constant.
        if n == 0:
            return np.zeros_like(x)
        if mode == "fractional":
            return (net.p_s * coeff.zeta_s * n * _smooth_slope(x, smoothing)
                    - net.p_m * coeff.zeta_m * _smooth_slope(1.0 - x, smoothing))
        return np.full_like(x, net.p_s * coeff.zeta_s * n
                            - net.p_m * coeff.zeta_m)

    dp1 = (p * transmit(q1, net.n1) + coeff.c_ca * content.l_b * net.n1
           + coeff.c_bh * p * s1[..., 0, :] * content.l_b)
    dp2 = (p * g_hdv * transmit(q2, net.n2) + coeff.c_ca * content.l_e * net.n2
           + coeff.c_bh * p * g_hdv * s2[..., 0, :] * content.l_e)
    return dp1, dp2


def _breakdown(mode: str, policy: CachingPolicy, profile: PopularityProfile,
               net: NetworkConfig, content: ContentConfig,
               coeff: PowerCoefficients, smoothing: float | None = None):
    if policy.mode != mode:
        raise ValueError(f"policy mode {policy.mode!r}, expected {mode!r}")
    blocks = _serving_blocks(mode, policy.q1, policy.q2, net, profile.f_count)
    p_tr, p_ca, p_bh, p_fix = _power_terms(mode, *blocks, profile, net,
                                           content, coeff, smoothing)
    return PowerBreakdown(float(p_tr.sum()), float(p_ca.sum()),
                          float(p_bh.sum()), float(p_fix))


def power_scheme1(policy: CachingPolicy, profile: PopularityProfile,
                  net: NetworkConfig, content: ContentConfig,
                  coeff: PowerCoefficients,
                  smoothing: float | None = None) -> PowerBreakdown:
    """Power consumption under fractional caching.

    With smoothing=None the transmission term uses the exact l0 norm of
    each caching fraction; otherwise each indicator is replaced by the
    logarithmic surrogate with parameter theta=smoothing.
    """
    return _breakdown("fractional", policy, profile, net, content, coeff,
                      smoothing)


def power_scheme2(policy: CachingPolicy, profile: PopularityProfile,
                  net: NetworkConfig, content: ContentConfig,
                  coeff: PowerCoefficients) -> PowerBreakdown:
    """Power consumption under random caching."""
    return _breakdown("random", policy, profile, net, content, coeff)
