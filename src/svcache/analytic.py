"""Closed-form successful-transmission probabilities and ergodic rates.

The interference tail function G_alpha(x) = int_x^inf dt / (1 + t^(alpha/2))
underpins every expression: arctan(1/x) at alpha = 4, a hypergeometric
form otherwise.  Cluster probabilities depend on the serving positions
only through S = sum r^-alpha and are averaged over S by Monte-Carlo
position integration with inverse-CDF radius sampling, POSITION_SAMPLES
positions per seed.  One kernel serves every alpha: it sorts the draw by S
once, keeps S^(-2/alpha) per sample, and sums the terms in sorted order.
At alpha = 4 a sample costs one arctan in either layer: the EL annulus's
outer and head terms merge into one arctan by the addition formula.  A
sample whose exponent is so large that exp underflows to exactly 0.0 is
not evaluated: its 0.0 is written in place, so every average keeps the
bits of the kernel run on every sample.
The nearest-MBS radial integral is exact when alpha_m = alpha_s and uses
adaptive quadrature otherwise; the SIR tail of every ergodic rate uses
21-point Gauss-Kronrod segments on a logarithmic scale, bisected where the
embedded 10-point Gauss rule disagrees and extended until they stop
contributing.

scipy is imported inside the branches that call it: scipy.special for
hyp2f1 at alpha != 4, scipy.integrate for the radial quadrature at
alpha_m != alpha_s and for the scalar reference g_alpha.  At the default
alpha_m = alpha_s = 4 this module runs on numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from svcache.config import NetworkConfig

# Position samples behind every cluster-averaged quantity.
POSITION_SAMPLES = 200_000

# Relative tail threshold for truncating the SIR integral over t.
_TAIL_REL = 1e-8

# exp(-x) rounds to exactly 0.0 for every x above 745.14.
_UNDERFLOW = 746.0

# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (qk21; Piessens et al.,
# 1983): the non-negative abscissae, largest first, and their Kronrod
# weights.  The odd-indexed abscissae are the 10-point Gauss nodes, with
# the Gauss weights _GK_WG.
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208643474262, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

# A tail piece is bisected while |K21 - G10| exceeds this fraction of the
# integral so far; at most _MAX_BISECTIONS times per width-4 segment.
_TAIL_PIECE_REL = 1e-10
_MAX_BISECTIONS = 50


class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature misses its tolerance, or when the
    segmented Gauss-Kronrod tail integral meets a non-finite value, needs
    more than _MAX_BISECTIONS bisections in one segment or does not
    truncate within 40 segments."""


def g_alpha_zero(alpha: float) -> float:
    """G_alpha(0) = (2*pi/alpha) / sin(2*pi/alpha), finite for alpha > 2."""
    if alpha <= 2:
        raise ValueError("alpha must be > 2 for the tail integral to converge")
    return (2.0 * math.pi / alpha) / math.sin(2.0 * math.pi / alpha)


def g_alpha(alpha: float, x: float) -> float:
    """Tail integral G_alpha(x), absolute error <= 1e-10.

    Scalar adaptive quadrature, the reference for g_alpha_vec.  For x > 1
    it integrates the t = 1/u form int_0^(1/x) u^(b-2) / (1 + u^b) du over
    a finite interval; over (x, inf) the quadrature misses the tail mass
    of a large x and reports no error.
    """
    if alpha <= 2:
        raise ValueError("alpha must be > 2 for the tail integral to converge")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return g_alpha_zero(alpha)
    from scipy import integrate

    beta = alpha / 2.0
    if x > 1.0:
        val, abserr = integrate.quad(
            lambda u: u ** (beta - 2.0) / (1.0 + u ** beta), 0.0, 1.0 / x,
            epsabs=1e-12, epsrel=1e-12, limit=200)
    else:
        val, abserr = integrate.quad(lambda t: 1.0 / (1.0 + t ** beta), x,
                                     np.inf, epsabs=1e-12, epsrel=1e-12,
                                     limit=200)
    if abserr > 1e-10:
        raise QuadratureError(f"G_alpha quadrature error {abserr:.2e} > 1e-10")
    return val


def g_alpha_vec(alpha: float, x) -> np.ndarray:
    """Vectorized G_alpha: arctan(1/x) at alpha = 4, otherwise via
    hypergeometric representations.

    At alpha = 4, arctan2(1, x) gives arctan(1/x) without dividing, so
    G_4(0) = pi/2.  Otherwise, for x <= 1 the head integral series
    x*2F1(1, 1/b; 1+1/b; -x^b) is subtracted from G_alpha(0); for x > 1 the
    tail representation x^(1-b)/(b-1) * 2F1(1, 1-1/b; 2-1/b; -x^-b) is used
    directly.  Both keep the hypergeometric argument in [-1, 0].
    """
    if alpha <= 2:
        raise ValueError("alpha must be > 2 for the tail integral to converge")
    x = np.asarray(x, dtype=float)
    if alpha == 4.0:
        return np.arctan2(1.0, x)
    from scipy.special import hyp2f1

    beta = alpha / 2.0
    out = np.empty_like(x)
    g0 = g_alpha_zero(alpha)
    small = x <= 1.0
    xs = x[small]
    out[small] = g0 - xs * hyp2f1(1.0, 1.0 / beta, 1.0 + 1.0 / beta, -xs ** beta)
    xl = x[~small]
    out[~small] = (xl ** (1.0 - beta) / (beta - 1.0)
                   * hyp2f1(1.0, 1.0 - 1.0 / beta, 2.0 - 1.0 / beta, -xl ** -beta))
    return out


# ---------------------------------------------------------------------------
# Serving via the nearest MBS
# ---------------------------------------------------------------------------

def p_success_mbs(cfg: NetworkConfig, gamma: float) -> float:
    """P(SIR_M >= gamma): nearest-MBS success probability.

    Radial integral over the serving distance, nondimensionalized via
    z = pi*lambda_m*x^2 so the position density becomes exp(-z).  It is
    exact when alpha_m = alpha_s and adaptive quadrature otherwise.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    # The exponent is c1*z + c2*z^kappa: MBS interference gives the linear
    # part, SBS interference the power.  Rescaling by 1 + c1 keeps the
    # integrand O(1) wide even for huge gamma, where the mass would
    # otherwise concentrate in a spike the quadrature can miss.
    kappa = cfg.alpha_m / cfg.alpha_s
    c1 = float(gamma ** (2.0 / cfg.alpha_m)
               * g_alpha_vec(cfg.alpha_m, gamma ** (-2.0 / cfg.alpha_m)))
    c2 = (math.pi * cfg.lambda_s * g_alpha_zero(cfg.alpha_s)
          * (gamma * cfg.p_s / cfg.p_m) ** (2.0 / cfg.alpha_s)
          * (math.pi * cfg.lambda_m) ** -kappa)
    if cfg.alpha_m == cfg.alpha_s:
        # the exponent is (c1 + c2) z: int_0^inf exp(-(1 + c1 + c2) z) dz
        return 1.0 / (1.0 + c1 + c2)
    from scipy import integrate

    def integrand(u):
        z = u / (1.0 + c1)
        return math.exp(-u - c2 * z ** kappa) / (1.0 + c1)

    val, abserr = integrate.quad(integrand, 0.0, np.inf,
                                 epsabs=1e-14, epsrel=1e-10, limit=200)
    if abserr > 1e-6 * val + 1e-12:
        raise QuadratureError(f"radial quadrature error {abserr:.2e}")
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Serving via cooperative SBS clusters
# ---------------------------------------------------------------------------
# A BL cluster serves from the disk (0, a) and an EL cluster from the
# annulus (a, b).  That region is the silent ring: it holds only serving or
# silent cluster members, and every other SBS and every MBS interferes.

def _ring(cfg: NetworkConfig, layer: str) -> tuple[float, float]:
    return (0.0, cfg.a) if layer == "bl" else (cfg.a, cfg.b)


def _serving_scale(cfg: NetworkConfig, layer: str, n: int, n_samples: int,
                   seed: int) -> np.ndarray:
    """S = sum r^-alpha_s of n serving SBSs uniform in the layer's ring,
    one value per position sample (inverse-CDF radii).

    The radii and their powers are built in place in the one (n_samples, n)
    array of uniforms.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r = rng.random((n_samples, n))
    inner, outer = _ring(cfg, layer)
    if inner == 0.0:
        np.sqrt(r, out=r)
        r *= outer
    else:
        r *= outer ** 2 - inner ** 2
        r += inner ** 2
        np.sqrt(r, out=r)
    r **= -cfg.alpha_s
    return r.sum(axis=1)


def _cluster_log_p(cfg: NetworkConfig, layer: str, t: float, sigma, sigma_m,
                   out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """ln P(SIR_S >= t) given serving positions, written into out.

    One entry per position sample, given sigma = S^(-2/alpha_s) and
    sigma_m = S^(-2/alpha_m) of its S = sum r^-alpha_s (used only when
    alpha_m != alpha_s).  With c = t/S, y = t^(2/alpha_s) * sigma is
    c^(2/alpha_s), and the SBSs beyond the layer's silent ring contribute
    G(outer^2 / y).  SBSs inside the ring add the head integral
    G(0) - G(inner^2 / y); a ring starting at 0 has none.  work holds two
    scratch rows of out's length.

    At alpha_s = 4 the kernel works in u = y / outer^2 and
    rho = (inner / outer)^2 < 1.  The outer term is arctan(u), which does
    not cancel at large u as pi/2 - arctan(1/u) would, and the head
    integral is arctan(rho / u).  Their sum is the one arctan
    arctan((u + rho/u) / (1 - rho)), exact because u * (rho/u) = rho < 1,
    and it tends to pi/2 as u -> 0 and as u -> inf.  outer^2 is folded
    into the constants, so ln p = u * (-pi lambda_s outer^2 arctan(.) +
    mbs outer^2): five array passes before exp for a BL disk, eight for
    an EL annulus.
    """
    a_s, a_m = cfg.alpha_s, cfg.alpha_m
    inner, outer = _ring(cfg, layer)
    y, tmp = work
    if a_s == 4.0:
        # the y row holds u = c^(1/2) / outer^2
        scale = outer ** 2
        np.multiply(sigma, math.sqrt(t) / scale, out=y)
        if inner > 0.0:
            rho = (inner / outer) ** 2
            np.divide(rho, y, out=tmp)
            tmp += y
            tmp *= 1.0 / (1.0 - rho)
            np.arctan(tmp, out=out)
        else:
            np.arctan(y, out=out)
    else:
        scale = 1.0
        np.multiply(sigma, t ** (2.0 / a_s), out=y)
        np.divide(outer ** 2, y, out=out)
        out[:] = g_alpha_vec(a_s, out)
        if inner > 0.0:
            np.divide(inner ** 2, y, out=tmp)
            out += g_alpha_zero(a_s) - g_alpha_vec(a_s, tmp)
    out *= -math.pi * cfg.lambda_s * scale
    # MBS interference: -pi lambda_m (c p_m/p_s)^(2/alpha_m) G_alpha_m(0)
    mbs = (-math.pi * cfg.lambda_m * (cfg.p_m / cfg.p_s) ** (2.0 / a_m)
           * g_alpha_zero(a_m))
    if a_m == a_s:
        out += mbs * scale
        out *= y
    else:
        out *= y
        out += np.multiply(sigma_m, mbs * t ** (2.0 / a_m), out=tmp)
    return out


@functools.lru_cache(maxsize=4)
def _underflow_c(cfg: NetworkConfig, layer: str) -> float:
    """A c at or above which _cluster_log_p is <= -_UNDERFLOW, or inf.

    The exponent is a Laplace exponent, increasing in c, so bisection finds
    where it crosses _UNDERFLOW; it evaluates _cluster_log_p itself at t = c
    and S = 1.  The exponent's MBS term alone reaches _UNDERFLOW at a
    closed-form c; the SBS term is >= 0, so that c brackets the crossing.
    When that bound overflows, nothing is cut.
    """
    with np.errstate(over="ignore"):
        hi = float(cfg.p_s / cfg.p_m * np.float64(
            _UNDERFLOW / (math.pi * cfg.lambda_m * g_alpha_zero(cfg.alpha_m)))
            ** (cfg.alpha_m / 2.0))
    if not math.isfinite(hi):
        return math.inf
    one, out, work = np.ones(1), np.empty(1), np.empty((2, 1))
    lo = 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        _cluster_log_p(cfg, layer, mid, one, one, out, work)
        if out[0] <= -_UNDERFLOW:
            hi = mid
        else:
            lo = mid
    return hi


# The kernel state of the last serving draw of each layer, keyed on the
# arguments that made it.  One draw per layer bounds the memory it holds.
_STATES: dict = {}


def _cluster_state(cfg: NetworkConfig, layer: str, n: int, seed: int) -> tuple:
    """(S, sigma, sigma_m) of one serving draw of POSITION_SAMPLES
    positions, read-only.

    S is the _serving_scale draw sorted ascending, sigma = S^(-2/alpha_s)
    and sigma_m = S^(-2/alpha_m) (sigma itself when alpha_m = alpha_s).
    The state of the last draw of each layer is kept, so repeated calls at
    one (cfg, n, seed) draw and sort once.
    """
    key = (cfg, n, seed)
    if layer in _STATES and _STATES[layer][0] == key:
        return _STATES[layer][1]
    _STATES.pop(layer, None)    # free the old state before the new one
    s = _serving_scale(cfg, layer, n, POSITION_SAMPLES, seed)
    s.sort()
    sigma = s ** (-2.0 / cfg.alpha_s)
    sigma_m = (sigma if cfg.alpha_m == cfg.alpha_s
               else s ** (-2.0 / cfg.alpha_m))
    for a in (s, sigma, sigma_m):
        a.setflags(write=False)
    _STATES[layer] = (key, (s, sigma, sigma_m))
    return s, sigma, sigma_m


def _cluster_p(cfg, layer, gamma, n_serving, seed):
    """P(SIR_S >= t) averaged over serving positions, as a function of t.

    The samples are sorted by S.  A sample with S <= t / c_max has
    c = t/S >= c_max, so its exponent is >= _UNDERFLOW and its exp is
    exactly 0.0: that prefix of the buffer is zero-filled, the kernel runs
    on the rest, and the mean sums the whole buffer, so it gives the bits
    of the kernel run on every sample.
    """
    if not 1 <= n_serving <= (cfg.n1 if layer == "bl" else cfg.n2):
        raise ValueError("n_serving must lie in 1..cluster size")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    s, sigma, sigma_m = _cluster_state(cfg, layer, n_serving, seed)
    c_max = _underflow_c(cfg, layer)
    out, work = np.empty(s.size), np.empty((2, s.size))

    def p_at(t):
        k = int(np.searchsorted(s, t / c_max, side="right"))
        out[:k] = 0.0
        kept = out[k:]
        _cluster_log_p(cfg, layer, t, sigma[k:], sigma_m[k:], kept,
                       work[:, k:])
        np.exp(kept, out=kept)
        return float(out.sum()) / s.size

    return p_at


def p_success_sbs_bl(cfg: NetworkConfig, gamma_bl: float, n1_serving: int,
                     seed: int = 0) -> float:
    """P(SIR_S,BL >= gamma_bl) with n1_serving cooperative SBSs in the disk."""
    return _cluster_p(cfg, "bl", gamma_bl, n1_serving, seed)(gamma_bl)


def p_success_sbs_el(cfg: NetworkConfig, gamma_el: float, n2_serving: int,
                     seed: int = 0) -> float:
    """P(SIR_S,EL >= gamma_el) with n2_serving cooperative SBSs in the annulus."""
    return _cluster_p(cfg, "el", gamma_el, n2_serving, seed)(gamma_el)


# ---------------------------------------------------------------------------
# Ergodic service rates
# ---------------------------------------------------------------------------

def _tail_rate(cfg: NetworkConfig, gamma: float, p_at) -> float:
    """Ergodic rate conditioned on SIR >= gamma, given t -> P(SIR >= t).

    Conditioning is on the overall success event, so the SIR tail
    probability is averaged over serving positions in the numerator and
    denominator separately:

        R = W log2(1+gamma) + (W/ln2) int_gamma^inf P(SIR>=t)
                                       / ((1+t) P(SIR>=gamma)) dt.

    The tail integral is log-substituted (t = gamma*e^s) and summed over
    segments of width 4 in s until the last segment contributes
    < _TAIL_REL of the total (the default scenario's BL rates take 9
    segments, to s = 36).  Each segment is integrated with the 21-point
    Gauss-Kronrod rule; a piece whose |K21 - G10| exceeds _TAIL_PIECE_REL
    of the total so far (this piece included) is bisected, left half
    first.  The default scenario bisects nothing, so a rate there costs 21
    p_at calls per segment.
    """

    def piece(lo, hi):
        # K21 and |K21 - G10| over [lo, hi]; the centre node is unpaired
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = half * _GK_X
        t = gamma * np.exp(np.concatenate((mid - x, mid + x[:-1])))
        f = np.array([p_at(tk) for tk in t]) * (t / (1.0 + t))
        pairs = f[:11]
        pairs[:-1] += f[11:]
        k21 = half * float(_GK_WK @ pairs)
        if not math.isfinite(k21):
            raise QuadratureError("SIR tail integrand is not finite")
        return k21, abs(k21 - half * float(_GK_WG @ pairs[1::2]))

    p_gamma = p_at(gamma)
    if p_gamma == 0.0:
        raise ZeroDivisionError(
            f"P(SIR >= gamma) is 0 at gamma = {gamma:g}, so the rate "
            "conditioned on SIR >= gamma is undefined")
    total = 0.0
    for k in range(40):
        seg, bisections = 0.0, 0
        todo = [(4.0 * k, 4.0 * k + 4.0)]
        while todo:
            lo, hi = todo.pop()
            k21, err = piece(lo, hi)
            if err <= _TAIL_PIECE_REL * (total + seg + k21):
                seg += k21
                continue
            bisections += 1
            if bisections > _MAX_BISECTIONS:
                raise QuadratureError(
                    f"SIR tail integral needs more than {_MAX_BISECTIONS} "
                    f"bisections on s in [{4 * k}, {4 * k + 4}]")
            todo += [(0.5 * (lo + hi), hi), (lo, 0.5 * (lo + hi))]
        total += seg
        if seg < _TAIL_REL * max(total, 1e-300):
            break
    else:
        raise QuadratureError("SIR tail integral did not truncate")
    return (cfg.w * math.log2(1.0 + gamma)
            + cfg.w / math.log(2.0) * total / p_gamma)


def ergodic_rate_mbs(cfg: NetworkConfig, gamma: float) -> float:
    """Ergodic nearest-MBS service rate conditioned on SIR >= gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return _tail_rate(cfg, gamma, lambda t: p_success_mbs(cfg, t))


def _ergodic_rate_cluster(cfg, layer, gamma, n_serving, seed):
    return _tail_rate(cfg, gamma, _cluster_p(cfg, layer, gamma, n_serving,
                                             seed))


def ergodic_rate_sbs_bl(cfg: NetworkConfig, gamma_bl: float, n1_serving: int,
                        seed: int = 0) -> float:
    """Ergodic cooperative-SBS rate for base-layer delivery."""
    return _ergodic_rate_cluster(cfg, "bl", gamma_bl, n1_serving, seed)


def ergodic_rate_sbs_el(cfg: NetworkConfig, gamma_el: float, n2_serving: int,
                        seed: int = 0) -> float:
    """Ergodic cooperative-SBS rate for enhancement-layer delivery."""
    return _ergodic_rate_cluster(cfg, "el", gamma_el, n2_serving, seed)


# ---------------------------------------------------------------------------
# Rate table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateTable:
    """Precomputed ergodic rates consumed by the sum-rate models."""

    r_m_bl: float                 # nearest-MBS rate at the BL threshold
    r_m_el: float                 # nearest-MBS rate at the EL threshold
    r_s_bl: dict = field(hash=False)   # n1 -> cooperative BL rate
    r_s_el: dict = field(hash=False)   # n2 -> cooperative EL rate
    provenance: str = "Analytic"
    seed: int = 0
    n_samples: int = POSITION_SAMPLES


def build_rate_table(cfg: NetworkConfig, seed: int = 0) -> RateTable:
    """Evaluate all rates needed by the sum-rate expressions: the
    nearest-MBS rate at both thresholds and the cluster rates for every
    n in 1..n1 (BL) and 1..n2 (EL)."""
    r_s_bl = {n: ergodic_rate_sbs_bl(cfg, cfg.gamma_bl, n, seed)
              for n in range(1, cfg.n1 + 1)}
    r_s_el = {n: ergodic_rate_sbs_el(cfg, cfg.gamma_el, n, seed)
              for n in range(1, cfg.n2 + 1)}
    return RateTable(
        r_m_bl=ergodic_rate_mbs(cfg, cfg.gamma_bl),
        r_m_el=ergodic_rate_mbs(cfg, cfg.gamma_el),
        r_s_bl=r_s_bl,
        r_s_el=r_s_el,
        provenance="Analytic",
        seed=seed,
        n_samples=POSITION_SAMPLES,
    )
