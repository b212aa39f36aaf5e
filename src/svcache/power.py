"""Network power consumption for the two caching schemes.

Total power = transmission + caching + backhaul + fixed.  Like the sum
rate, it is a sum over files and over the two SVC layers, so the model
is written once for one layer block (q, n, w, bits) and applied to the
base layer (q1, n1, p, l_b) and to the enhancement layer
(q2, n2, p g_hdv, l_e) (_layer_blocks).  The per-block core
(_block_terms) gives the block's serving-count distribution D
(_serving_pmf) and its per-file rows:

- transmission w (n P_s zeta_s on(q) + P_m zeta_m on(1 - q)), where on
  is the (smoothed) l0 indicator in Scheme I and q itself in Scheme II;
- caching c_ca bits n q;
- backhaul c_bh bits w D0, the cluster miss.

On request it also gives D' (_serving_pmf_slope) and the derivative of
the block's per-file power in each q_f, from which the objective builds
its exact gradient.
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


def _layer_blocks(q1, q2, profile: PopularityProfile, net: NetworkConfig,
                  content: ContentConfig, coeff: PowerCoefficients):
    """The policy blocks q1, q2 ((F,) or (B, F)) as the two layer blocks
    (q, n, w, bits) of cluster size n, per-file weight w and layer size:
    (q1, n1, p, l_b) and (q2, n2, p g_hdv, l_e); and the fixed power of
    the n1 + n2 cluster SBSs and the MBS."""
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    if q1.shape[-1] != profile.f_count or q2.shape[-1] != profile.f_count:
        raise ValueError(f"policy lengths {q1.shape[-1]}, {q2.shape[-1]} != "
                         f"catalog size {profile.f_count}")
    p = np.asarray(profile.p)
    blocks = ((q1, net.n1, p, content.l_b),
              (q2, net.n2, p * np.asarray(profile.g_hdv), content.l_e))
    return blocks, (net.n1 + net.n2) * coeff.p_s_fix + coeff.p_m_fix


def _block_terms(mode: str, q, n: int, w, bits: float, net: NetworkConfig,
                 coeff: PowerCoefficients, smoothing: float | None = None,
                 slopes: bool = False) -> tuple:
    """One layer block (q, n, w, bits) of _layer_blocks: its serving
    distribution D and its per-file transmission, caching and backhaul
    rows, (D, tr, ca, bh), each row of the shape of q.  With slopes=True
    also D' and the derivative of each file's power tr + ca + bh in its
    own q_f: (D, tr, ca, bh, D', P').  smoothing is the theta of Scheme
    I's surrogate, or None for the exact l0 norm (which has no slope)."""
    d = _serving_pmf(mode, n, q)
    # A cluster of size 0 caches nothing: the MBS serves the block
    # whatever q says (D = e0), so its power is the power at q = 0 and its
    # slope is 0.
    cached = n > 0
    if not cached:
        q = np.zeros_like(q)
    # on(x): how much a station serving a fraction (or with probability) x
    # transmits, and its slope in x.
    if mode == "fractional":
        on = lambda x: _smooth_or_l0(x, smoothing)
        on_slope = lambda x: _smooth_slope(x, smoothing)
    else:
        on, on_slope = (lambda x: x), (lambda x: 1.0)
    sbs, mbs = net.p_s * coeff.zeta_s * n, net.p_m * coeff.zeta_m
    tr = w * (sbs * on(q) + mbs * on(1.0 - q))
    ca = coeff.c_ca * bits * n * q
    bh = coeff.c_bh * bits * w * d[..., 0, :]
    if not slopes:
        return d, tr, ca, bh
    d_slope = _serving_pmf_slope(mode, n, q)
    if not cached:
        return d, tr, ca, bh, d_slope, np.zeros_like(q)
    return d, tr, ca, bh, d_slope, (
        w * (sbs * on_slope(q) - mbs * on_slope(1.0 - q))
        + coeff.c_ca * bits * n + coeff.c_bh * bits * w * d_slope[..., 0, :])


def _breakdown(mode: str, policy: CachingPolicy, profile: PopularityProfile,
               net: NetworkConfig, content: ContentConfig,
               coeff: PowerCoefficients, smoothing: float | None = None):
    if policy.mode != mode:
        raise ValueError(f"policy mode {policy.mode!r}, expected {mode!r}")
    blocks, p_fix = _layer_blocks(policy.q1, policy.q2, profile, net,
                                  content, coeff)
    bl, el = (_block_terms(mode, *block, net, coeff, smoothing)[1:]
              for block in blocks)
    return PowerBreakdown(*(float((a + b).sum()) for a, b in zip(bl, el)),
                          float(p_fix))


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
