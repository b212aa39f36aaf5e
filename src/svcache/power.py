"""Network power consumption for the two caching schemes.

Total power = transmission + caching + backhaul + fixed.  Like the sum
rate, it is a sum over files and over the two SVC layers, so the model
is written once for one layer block and applied to the base layer
(q1, n1, p, l_b) and to the enhancement layer (q2, n2, p g_hdv, l_e).
_layer_blocks builds the constants of both blocks (_Block):
ObjectiveContext once, _breakdown on each call.  The per-block core
_block_terms gives a block's per-file rows at a policy block q:

- rate w r @ D(q), with r the block's rate row (r_M, r_S[1..n]) and D
  the distribution of the number k = 0..n of cluster SBSs that hold the
  layer: 1 - q at k = 0 and q at k = n under fractional caching (all n
  SBSs store the fraction, or none), Binomial(n, q) under random caching
  (each SBS independently);
- transmission w (n P_s zeta_s on(q) + P_m zeta_m on(1 - q)), where on
  is the (smoothed) l0 indicator in Scheme I and q itself in Scheme II;
- caching c_ca bits n q;
- backhaul c_bh bits w D0, the cluster miss.

On request it also gives the derivative of each file's rate and power
in its own q_f, from which the objective builds its exact gradient.
Fractional caching uses the two nonzero rows of D directly, so its rate
slope is the constant w (r_n - r_0).  Random caching forms the powers
q^k and (1 - q)^k once; they give both D = B_n and the Binomial(n-1, q)
rows B_{n-1} of D' = n (B_{n-1}(k-1) - B_{n-1}(k)), and the rate slope
is w r @ D'.  A cluster of size 0 (D = e0) is served by the MBS whatever
q says.  power_scheme1 and power_scheme2 report the physical power, with
the exact l0 indicator in Scheme I; only the objective uses the smoothed
surrogate.
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


def _surrogate(theta: float) -> tuple[float, float]:
    """Scheme I's smoothing: theta and the normaliser log(1/theta + 1) of
    the surrogate log(x/theta + 1) / log(1/theta + 1) of the l0 indicator.
    Raises ValueError unless theta is finite and > 0, 1/theta is finite
    and the normaliser is > 0 (it is 0 once 1/theta + 1 rounds to 1)."""
    scale = math.nan
    if 0 < theta < math.inf and 1.0 / theta < math.inf:
        scale = float(np.log(1.0 / theta + 1.0))
    if not scale > 0:
        raise ValueError(f"theta must be finite and > 0, with a finite "
                         f"1/theta and log(1/theta + 1) > 0, got {theta}")
    return theta, scale


def _smooth_or_l0(x: np.ndarray, smoothing) -> np.ndarray:
    """on(x): the exact l0 indicator when smoothing is None, else the
    surrogate of the (theta, normaliser) pair of _surrogate."""
    if smoothing is None:
        return (np.abs(x) > _L0_TOL).astype(float)
    theta, scale = smoothing
    return np.log(x / theta + 1.0) / scale


def _smooth_slope(x: np.ndarray, smoothing) -> np.ndarray:
    """Derivative of the smoothed l0 surrogate of _smooth_or_l0."""
    theta, scale = smoothing
    return 1.0 / ((x + theta) * scale)


@dataclass(frozen=True, slots=True)
class _Block:
    """The constants of one layer block of cluster size n."""

    n: int
    w: np.ndarray         # per-file weight: p (BL) or p g_hdv (EL)
    r: np.ndarray         # rate row (r_M, r_S[1], ..., r_S[n])
    sbs: float            # n P_s zeta_s
    mbs: float            # P_m zeta_m
    caching: float        # (c_ca bits) n
    backhaul: np.ndarray  # (c_bh bits) w
    k: np.ndarray         # column 0..n, the powers of q and 1 - q
    comb: np.ndarray      # column C(n, k), k = 0..n
    comb1: np.ndarray     # column C(n-1, k), k = 0..n-1 (empty at n = 0)


def _binomial_column(n: int) -> np.ndarray:
    return np.array([math.comb(n, i) for i in range(n + 1)],
                    dtype=float)[:, None]


def _layer_blocks(profile: PopularityProfile, net: NetworkConfig,
                  content: ContentConfig, coeff: PowerCoefficients,
                  rates=None) -> tuple:
    """The two layer blocks (BL, EL) as _Block constants, and the fixed
    power of the n1 + n2 cluster SBSs and the MBS.  rates holds the rate
    rows (r_M, r_S[1..n]) of the two blocks; without it (the power alone)
    both rate rows are 0."""
    p = profile.p
    blocks = []
    for n, w, bits, r in zip((net.n1, net.n2), (p, p * profile.g_hdv),
                             (content.l_b, content.l_e),
                             rates or (None, None)):
        r = np.zeros(n + 1) if r is None else np.asarray(r, dtype=float)
        blocks.append(_Block(
            n=n, w=w, r=r,
            sbs=net.p_s * coeff.zeta_s * n, mbs=net.p_m * coeff.zeta_m,
            caching=coeff.c_ca * bits * n, backhaul=coeff.c_bh * bits * w,
            k=np.arange(n + 1)[:, None], comb=_binomial_column(n),
            comb1=_binomial_column(n - 1)))
    return tuple(blocks), (net.n1 + net.n2) * coeff.p_s_fix + coeff.p_m_fix


def _policy_rows(q1, q2, f_count: int) -> tuple:
    """q1, q2 ((F,) or (B, F) float arrays), checked against the catalog size."""
    if q1.shape[-1] != f_count or q2.shape[-1] != f_count:
        raise ValueError(f"policy lengths {q1.shape[-1]}, {q2.shape[-1]} != "
                         f"catalog size {f_count}")
    return q1, q2


def _block_terms(mode: str, q: np.ndarray, block: _Block, smoothing=None,
                 slopes: bool = False) -> tuple:
    """One layer block's per-file rows at the (F,) or (B, F) policy block
    q: (rate, tr, ca, bh), each of the shape of q.  With slopes=True also
    the derivatives of each file's rate and power tr + ca + bh in its own
    q_f: (rate, tr, ca, bh, rate', power').  The fractional rate' does not
    depend on q: it is the (F,) row w (r_n - r_0).  smoothing is Scheme
    I's (theta, normaliser) pair of _surrogate, or None for the exact l0
    norm (which has no slope)."""
    n, w, r = block.n, block.w, block.r
    # A cluster of size 0 caches nothing: the MBS serves the block
    # whatever q says (D = e0), so its terms are those at q = 0 and its
    # slopes are 0.
    if n == 0:
        q = np.zeros_like(q)
    miss = 1.0 - q
    if mode == "random":
        # numpy's 0.0**0 is 1: q = 0, q = 1 and n = 0 give point masses.
        qk, mk = q[..., None, :] ** block.k, miss[..., None, :] ** block.k
        d = block.comb * qk * mk[..., ::-1, :]
        d0 = d[..., 0, :]
        rate = w * (r @ d)
        tr = w * (block.sbs * q + block.mbs * miss)
    else:
        d0 = miss
        rate = w * (r[0] * miss + r[n] * q)
        tr = w * (block.sbs * _smooth_or_l0(q, smoothing)
                  + block.mbs * _smooth_or_l0(miss, smoothing))
    ca = block.caching * q
    bh = block.backhaul * d0
    if not slopes:
        return rate, tr, ca, bh
    if n == 0:
        return rate, tr, ca, bh, np.zeros_like(q), np.zeros_like(q)
    if mode == "random":
        b = n * (block.comb1 * qk[..., :-1, :] * mk[..., n - 1::-1, :])
        d_slope = np.zeros(d.shape)
        d_slope[..., 1:, :] = b
        d_slope[..., :-1, :] -= b
        return rate, tr, ca, bh, w * (r @ d_slope), (
            w * (block.sbs - block.mbs) + block.caching
            - block.backhaul * b[..., 0, :])
    return rate, tr, ca, bh, w * (r[n] - r[0]), (
        w * (block.sbs * _smooth_slope(q, smoothing)
             - block.mbs * _smooth_slope(miss, smoothing))
        + block.caching - block.backhaul)


def _breakdown(mode: str, policy: CachingPolicy, profile: PopularityProfile,
               net: NetworkConfig, content: ContentConfig,
               coeff: PowerCoefficients) -> PowerBreakdown:
    """The physical power of a policy: the block rows of _block_terms
    summed over files and layers, with the exact l0 norm in Scheme I."""
    if policy.mode != mode:
        raise ValueError(f"policy mode {policy.mode!r}, expected {mode!r}")
    q = _policy_rows(policy.q1, policy.q2, profile.f_count)
    blocks, p_fix = _layer_blocks(profile, net, content, coeff)
    bl, el = (_block_terms(mode, x, block)[1:]
              for x, block in zip(q, blocks))
    return PowerBreakdown(*(float((a + b).sum()) for a, b in zip(bl, el)),
                          float(p_fix))


def power_scheme1(policy: CachingPolicy, profile: PopularityProfile,
                  net: NetworkConfig, content: ContentConfig,
                  coeff: PowerCoefficients) -> PowerBreakdown:
    """Power consumption under fractional caching; the transmission term
    uses the exact l0 norm of each caching fraction."""
    return _breakdown("fractional", policy, profile, net, content, coeff)


def power_scheme2(policy: CachingPolicy, profile: PopularityProfile,
                  net: NetworkConfig, content: ContentConfig,
                  coeff: PowerCoefficients) -> PowerBreakdown:
    """Power consumption under random caching."""
    return _breakdown("random", policy, profile, net, content, coeff)
