"""Network power consumption for the two caching schemes.

Total power = transmission + caching + backhaul + fixed.  Like the sum
rate, it is a sum over files and over the two SVC layers, so the model
is written once for one layer block and applied to the base layer
(q1, n1, p, l_b) and to the enhancement layer (q2, n2, p g_hdv, l_e).
_layer_blocks builds the constants of both blocks (_Block):
ObjectiveContext once, _breakdown on each call.

The two schemes differ only in how many of a cluster's n SBSs hold a
layer: Binomial(n, q) under random caching, all n or none under
fractional caching.  So both are one degree-m Bernstein form on a rate
row rho: m = n on (r_M, r_S[1..n]) under random caching, and m = 1 on
(r_M, r_S[n]) under fractional caching and on (r_M, r_M) for a cluster
of size 0, which the MBS serves whatever q says.  The block core
_block_terms takes one de Casteljau step from the basis B = B_{m-1}(q)
(B = 1 at m = 1): with lo = rho[:-1] @ B, hi = rho[1:] @ B and
s = (rho[1:] - rho[:-1]) @ B, a block's per-file rows are

- rate w ((1 - q) lo + q hi), with slope w m s in q;
- transmission w (n P_s zeta_s on(q) + P_m zeta_m on(1 - q)), where on
  is the (smoothed) l0 indicator in Scheme I and q itself in Scheme II;
- caching c_ca bits n q;
- backhaul c_bh bits w D0, with the cluster miss D0 = (1 - q)^m and its
  slope -m B_0.

The objective builds its exact gradient from these slopes.
power_scheme1 and power_scheme2 report the physical power, with the
exact l0 indicator in Scheme I; only the objective uses the smoothed
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


def _bernstein_rows(rho: np.ndarray) -> np.ndarray:
    """The (3, m) rows rho[:-1], rho[1:], rho[1:] - rho[:-1] of a rate row
    rho of degree m, entry j times B_{m-1}'s coefficient C(m - 1, j)."""
    m = len(rho) - 1
    return (np.array([rho[:-1], rho[1:], rho[1:] - rho[:-1]])
            * [math.comb(m - 1, j) for j in range(m)])


@dataclass(frozen=True, slots=True)
class _Block:
    """The constants of one layer block of cluster size n."""

    n: int
    w: np.ndarray           # per-file weight: p (BL) or p g_hdv (EL)
    sbs: float              # n P_s zeta_s
    mbs: float              # P_m zeta_m
    caching: float          # (c_ca bits) n
    backhaul: np.ndarray    # (c_bh bits) w
    k: np.ndarray           # column 0..n, the powers of q and 1 - q
    random: np.ndarray      # rows on (r_M, r_S[1..n]); (r_M, r_M) at n = 0
    fractional: np.ndarray  # rows on (r_M, r_S[n])


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
        pair = _bernstein_rows(r[[0, n]])
        blocks.append(_Block(
            n=n, w=w,
            sbs=net.p_s * coeff.zeta_s * n, mbs=net.p_m * coeff.zeta_m,
            caching=coeff.c_ca * bits * n, backhaul=coeff.c_bh * bits * w,
            k=np.arange(n + 1)[:, None],
            random=_bernstein_rows(r) if n else pair, fractional=pair))
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
    q_f: (rate, tr, ca, bh, rate', power'); the fractional rate' does
    not depend on q and is the (F,) row w (r_S[n] - r_M).  smoothing is
    Scheme I's (theta, normaliser) pair of _surrogate, or None for the
    exact l0 norm (which has no slope)."""
    w, rows = block.w, block.random if mode == "random" else block.fractional
    m = rows.shape[1]
    # A cluster of size 0 caches nothing: the MBS serves the block
    # whatever q says, so its terms are those at q = 0 and its slopes 0.
    if block.n == 0:
        q = np.zeros_like(q)
    miss = 1.0 - q
    if mode == "random" and block.n:
        # B from the powers of q and 1 - q, at n = 1 too, which gives
        # power' the shape of q.  numpy's 0.0**0 is 1: q = 0 and q = 1 give
        # point masses.  The rows carry B's coefficients.
        qk, mk = q[..., None, :] ** block.k, miss[..., None, :] ** block.k
        b = qk[..., :-1, :] * mk[..., m - 1::-1, :]
        lo, hi, s = (rows @ b).swapaxes(0, -2)
        b0, d0 = b[..., 0, :], mk[..., m, :]
    else:
        # m = 1: B = B_0 = 1, so the rows are lo, hi and s
        (lo, hi, s), b0, d0 = rows[:, 0].tolist(), 1.0, miss
    rate = w * (lo * miss + hi * q)
    if mode == "random":
        tr = w * (block.sbs * q + block.mbs * miss)
    else:
        tr = w * (block.sbs * _smooth_or_l0(q, smoothing)
                  + block.mbs * _smooth_or_l0(miss, smoothing))
    ca = block.caching * q
    bh = block.backhaul * d0
    if not slopes:
        return rate, tr, ca, bh
    if block.n == 0:
        return rate, tr, ca, bh, np.zeros_like(q), np.zeros_like(q)
    if mode == "random":
        tr_slope = w * (block.sbs - block.mbs)
    else:
        tr_slope = w * (block.sbs * _smooth_slope(q, smoothing)
                        - block.mbs * _smooth_slope(miss, smoothing))
    return rate, tr, ca, bh, w * (m * s), (
        tr_slope + block.caching - block.backhaul * (m * b0))


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
