"""Closed-form successful-transmission probabilities and ergodic rates.

The interference tail function G_alpha(x) = int_x^inf dt / (1 + t^(alpha/2))
underpins every expression: arctan(1/x) at alpha = 4, a hypergeometric
form otherwise.  Cluster probabilities depend on the serving positions
only through S = sum r^-alpha and are averaged over S by Monte-Carlo
position integration with inverse-CDF radius sampling, POSITION_SAMPLES
positions per seed.  One radius formula serves both rings, the BL disk
being an annulus with inner radius 0: r^2 = inner^2 + (outer^2 - inner^2) u.
A draw is kept as one ascending array of sigma = S^(-2/alpha_s), sorted
once.  One kernel serves every alpha and sums its terms in that order; the
MBS term's sigma_m = S^(-2/alpha_m) is sigma^(alpha_s/alpha_m), which the
kernel forms itself when alpha_m != alpha_s.  At alpha = 4 a sample costs
one arctan in either layer: the EL annulus's outer and head terms merge
into one arctan by the addition formula.
The nearest-MBS radial integral is exact when alpha_m = alpha_s and
otherwise one fixed exp-sinh rule, one array expression over the
thresholds of a call and the rule's nodes.  Every ergodic rate is a
success-conditioned SIR tail integral, taken by one routine over a node
axis: 21-point Gauss-Kronrod segments on a logarithmic scale, bisected
where the embedded 10-point Gauss rule disagrees and extended until they
stop contributing, each rule applied node by node.  The MBS rate is one
node.  A cluster rate swaps the tail integral and the position average
(Fubini):

    R = W log2(1+gamma) + (W/ln2) sum_i w_i Psi(sigma_i) / sum_i w_i,
    Psi(sigma) = int_gamma^inf phi(t, sigma) / phi(gamma, sigma) dt/(1+t),

with phi the kernel's P(SIR_S >= t) at one position sample and w_i its
value at gamma over the largest in the draw, formed in logs, so that R is
defined where every phi(gamma, sigma) underflows.  Psi is the tail at one
sample conditioned on its success, so it varies slowly in ln sigma even
where phi(gamma, sigma) falls by hundreds of orders of magnitude.  It
depends on the layer and gamma but not on the serving count, so it is
tabulated once, as a piecewise Chebyshev interpolant in ln sigma whose
nodes are tail integrals; a rate is then one kernel pass at gamma and one
interpolant pass over its draw.

scipy is imported inside the branches that call it: scipy.special for
hyp2f1 at alpha != 4, and scipy.integrate only for the scalar reference
g_alpha, which no rate or probability calls.  At the default
alpha_m = alpha_s = 4 this module runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from svcache.config import NetworkConfig

# Position samples behind every cluster-averaged quantity.
POSITION_SAMPLES = 200_000
# Position samples per block of the serving draw: a block of n uniforms
# per sample is the draw's only temporary, so the draw's memory does not
# grow with n (the whole (POSITION_SAMPLES, 4) array would be 6.4 MB).
_DRAW_BLOCK = 8192

# Relative tail threshold for truncating the SIR integral over t.
_TAIL_REL = 1e-8

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

# A tail piece is bisected while |K21 - G10| is not below this fraction of the
# integral so far; at most _MAX_BISECTIONS times per width-4 segment.
_TAIL_PIECE_REL = 1e-10
# A Psi node's fraction is at least 64 ulp of |ln phi(gamma)|, the rounding
# its integrand carries (_psi_at): above _TAIL_PIECE_REL past 7000.
_NOISE_REL = 64 * 2.0 ** -52
_MAX_BISECTIONS = 50

# The Psi table's pieces: each spans _PSI_WIDTH in ln sigma, counted down
# from ln(outer^2), and interpolates on the _PSI_NODES Chebyshev points
# u_i = cos(pi (i + 1/2) / _PSI_NODES) of [-1, 1].  _PSI_DCT maps a piece's
# node values to its Chebyshev coefficients.  Pieces of width 1 are 4e-13
# off the tail integrals in the top piece at alpha_s = 6; width 0.5 is
# within 7e-14 on the tested scenarios wherever |ln phi(gamma)| < 100.
_PSI_WIDTH = 0.5
_PSI_NODES = 16
_PSI_U = np.array([math.cos(math.pi * (i + 0.5) / _PSI_NODES)
                   for i in range(_PSI_NODES)])
_PSI_DCT = np.array([[(1.0 if k else 0.5) * 2.0 / _PSI_NODES
                      * math.cos(math.pi * k * (i + 0.5) / _PSI_NODES)
                      for i in range(_PSI_NODES)] for k in range(_PSI_NODES)])
# Samples per block of the interpolant's evaluation, so that its
# temporaries stay small whatever the draw's size.
_PSI_BLOCK = 8192


# The exp-sinh rule on (0, inf) (Takahasi & Mori, "Double exponential
# formulas for numerical integration", Publ. RIMS 9, 1974): nodes
# v_k = exp((pi/2) sinh(k h)) with weights h (pi/2) cosh(k h) v_k, for
# h = 0.05 and k in [-120, 80], 201 nodes from v = 1e-138 to 4e18.
_DE_H = 0.05
_DE_X = _DE_H * np.arange(-120, 81)
_DE_LOG_V = 0.5 * math.pi * np.sinh(_DE_X)
_DE_V = np.exp(_DE_LOG_V)
_DE_W = _DE_H * 0.5 * math.pi * np.cosh(_DE_X) * _DE_V
# The rule's nodes at even k are the rule of step 2h, so |T_h - T_2h| is an
# error estimate that costs no evaluation.  It also sees a tail cut off at
# the last node: the two sums differ there by about half its term.  The
# estimate must stay within this fraction of T_h.  On the tested grid of
# exponents, SBS densities and thresholds it is at most 1.2e-8, while T_h
# itself is within 7e-15 of a log-space quad reference.
_DE_REL = 1e-6


class QuadratureError(RuntimeError):
    """Raised when the scalar G_alpha quadrature misses its tolerance, when
    the exp-sinh rule's error estimate exceeds _DE_REL, or when the
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


def _check_gamma(gamma: float) -> None:
    """Reject an SIR threshold that is not finite and > 0; every public
    p_success_* and ergodic_rate_* checks its threshold here."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma!r}")


# ---------------------------------------------------------------------------
# Serving via the nearest MBS
# ---------------------------------------------------------------------------

def _p_mbs(cfg: NetworkConfig, t) -> np.ndarray:
    """P(SIR_M >= t) at each threshold of the array t, as an array of its
    shape.

    Radial integral over the serving distance, nondimensionalized via
    z = pi*lambda_m*x^2 so the position density becomes exp(-z): the
    exponent is c1*z + c2*z^kappa, MBS interference giving the linear part
    and SBS interference the power.  When alpha_m = alpha_s it is
    (c1 + c2) z, and the integral is 1/(1 + c1 + c2).

    Otherwise the integral in u = (1 + c1) z is
    int_0^inf exp(-u - c2 (u / (1 + c1))^kappa) du / (1 + c1), which the
    exp-sinh rule takes at every (threshold, node) pair at once, in
    v = u / s with s = min(1, (1 + c1) c2^(-1/kappa)): the integrand is cut
    off at v = 1 by the SBS term, or by the MBS term if that comes first,
    so its mass sits on the rule's dense nodes around 1 however far below
    u = 1 the SBS term cuts it.  s is taken in logs, and an exponent past
    the float range is a term of exactly 0.  The rule is checked per
    threshold (see _DE_REL).
    """
    # np.float_power takes libm's pow, as a float's ** does; np.power's
    # SIMD loop gives other last bits for about 5% of inputs (numpy 2.4 on
    # AVX-512), which would move the closed form off its scalar value.
    kappa = cfg.alpha_m / cfg.alpha_s
    c1 = (np.float_power(t, 2.0 / cfg.alpha_m)
          * g_alpha_vec(cfg.alpha_m, np.float_power(t, -2.0 / cfg.alpha_m)))
    c2 = (math.pi * cfg.lambda_s * g_alpha_zero(cfg.alpha_s)
          * np.float_power(t * cfg.p_s / cfg.p_m, 2.0 / cfg.alpha_s)
          * (math.pi * cfg.lambda_m) ** -kappa)
    if cfg.alpha_m == cfg.alpha_s:
        return 1.0 / (1.0 + c1 + c2)
    log_c1, log_c2 = np.log1p(c1), np.log(c2)
    log_s = np.minimum(0.0, log_c1 - log_c2 / kappa)
    # the exponent s v + c2 (s v / (1 + c1))^kappa at each node
    log_sbs = log_c2 + kappa * (log_s - log_c1)
    with np.errstate(over="ignore"):
        expo = np.exp(log_sbs[..., None] + kappa * _DE_LOG_V)
        expo += np.exp(log_s)[..., None] * _DE_V
    terms = np.exp(-expo, out=expo)
    terms *= _DE_W
    total = terms.sum(axis=-1)
    err = np.abs(total - 2.0 * terms[..., ::2].sum(axis=-1))
    if not np.all(err <= _DE_REL * total):
        worst = np.max(err / total)
        raise QuadratureError(
            f"MBS radial rule error {worst:.2e} > {_DE_REL:g} of the integral")
    return np.exp(log_s - log_c1) * total


def p_success_mbs(cfg: NetworkConfig, gamma: float) -> float:
    """P(SIR_M >= gamma): nearest-MBS success probability, exact when
    alpha_m = alpha_s and by a fixed exp-sinh rule otherwise (_p_mbs)."""
    _check_gamma(gamma)
    return float(_p_mbs(cfg, np.float64(gamma)))


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

    One formula serves both rings, the BL disk being the annulus with
    inner radius 0: r^2 = inner^2 + (outer^2 - inner^2) u for a uniform u,
    and S = sum (r^2)^(-alpha_s/2).  The uniforms are drawn _DRAW_BLOCK
    samples at a time, in the generator's order, and both steps run in
    place in each block, so the draw is that of one (n_samples, n) array
    without holding one.  The disk skips the + inner^2 pass, which would
    add 0.

    Each block's rows are summed by columns, left to right: column 0 is
    copied into the result and columns 1..n-1 are added to it in place.
    numpy reduces a row of fewer than 8 entries left to right too, so for
    n <= 7 this gives the bits of r2.sum(axis=1) at a fraction of its cost
    on short rows: with numpy 2.4, 9 and 20 us against 122 and 139 us for
    one block at n = 2 and 4.  From n = 8 numpy sums a row pairwise, so
    the two sums may differ in the last bits (in 25-40% of the samples of
    a draw at n = 8..12, by at most 6.7e-16 relative).  One path serves
    every n: a draw at n >= 8 is the left-to-right sum.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    inner, outer = _ring(cfg, layer)
    s = np.empty(n_samples)
    for lo in range(0, n_samples, _DRAW_BLOCK):
        r2 = rng.random((min(_DRAW_BLOCK, n_samples - lo), n))
        r2 *= outer ** 2 - inner ** 2
        if inner > 0.0:
            r2 += inner ** 2
        r2 **= -0.5 * cfg.alpha_s
        out = s[lo:lo + len(r2)]
        out[:] = r2[:, 0]
        for k in range(1, n):
            out += r2[:, k]
    return s


def _cluster_log_p(cfg: NetworkConfig, layer: str, t: float,
                   sigma) -> np.ndarray:
    """ln P(SIR_S >= t) given serving positions, as a new array.

    One entry per position sample, given sigma = S^(-2/alpha_s) of its
    S = sum r^-alpha_s.  t is a scalar, or a column of thresholds that
    broadcasts against sigma to the result's shape.  With c = t/S,
    y = t^(2/alpha_s) * sigma is c^(2/alpha_s), and the SBSs beyond the
    layer's silent ring contribute G(outer^2 / y).  SBSs inside the ring
    add the head integral G(0) - G(inner^2 / y); a ring starting at 0 has
    none.  The MBS term scales with sigma_m = S^(-2/alpha_m), which is
    sigma itself when alpha_m = alpha_s; otherwise the kernel forms
    sigma_m = sigma^(alpha_s/alpha_m) in its second scratch row.  The two
    scratch rows of the result's shape are allocated apart from it, so the
    result does not keep them alive.

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
    shape = np.broadcast_shapes(np.shape(t), np.shape(sigma))
    out = np.empty(shape)
    y, tmp = np.empty((2,) + shape)
    if a_s == 4.0:
        # the y row holds u = c^(1/2) / outer^2
        scale = outer ** 2
        np.multiply(sigma, np.sqrt(t) / scale, out=y)
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
        np.power(sigma, a_s / a_m, out=tmp)
        tmp *= mbs * t ** (2.0 / a_m)
        out += tmp
    return out


# The kernel state of the last serving draw of each layer, keyed on the
# arguments that made it.  One draw per layer bounds the memory it holds.
_STATES: dict = {}


def _cluster_state(cfg: NetworkConfig, layer: str, n: int,
                   seed: int) -> np.ndarray:
    """sigma of one serving draw of POSITION_SAMPLES positions, ascending
    and read-only.

    sigma = S^(-2/alpha_s) of the _serving_scale draw S is taken in the
    draw's own array, so S is not kept, and sorted there: S in descending
    order.  sigma is at most outer^2, because S >= outer^-alpha_s.  The
    state of the last draw of each layer is kept, so repeated calls at one
    (cfg, n, seed) draw and sort once.
    """
    key = (cfg, n, seed)
    if layer in _STATES and _STATES[layer][0] == key:
        return _STATES[layer][1]
    _STATES.pop(layer, None)    # free the old state before the new one
    s = _serving_scale(cfg, layer, n, POSITION_SAMPLES, seed)
    sigma = np.power(s, -2.0 / cfg.alpha_s, out=s)
    sigma.sort()
    sigma.setflags(write=False)
    _STATES[layer] = (key, sigma)
    return sigma


def _cluster_terms(cfg, layer, gamma, n_serving, seed) -> tuple:
    """(sigma, ln P(SIR_S >= gamma) at each sample, a new array) of the
    _cluster_state draw; n_serving is checked before gamma."""
    if not 1 <= n_serving <= (cfg.n1 if layer == "bl" else cfg.n2):
        raise ValueError("n_serving must lie in 1..cluster size")
    _check_gamma(gamma)
    sigma = _cluster_state(cfg, layer, n_serving, seed)
    return sigma, _cluster_log_p(cfg, layer, gamma, sigma)


def _cluster_p(cfg, layer, gamma, n_serving, seed) -> float:
    """P(SIR_S >= gamma) averaged over the sorted draw: exp of the kernel
    on every sample, summed in sorted order."""
    sigma, terms = _cluster_terms(cfg, layer, gamma, n_serving, seed)
    return float(np.exp(terms, out=terms).sum()) / sigma.size


def p_success_sbs_bl(cfg: NetworkConfig, gamma_bl: float, n1_serving: int,
                     seed: int = 0) -> float:
    """P(SIR_S,BL >= gamma_bl) with n1_serving cooperative SBSs in the disk."""
    return _cluster_p(cfg, "bl", gamma_bl, n1_serving, seed)


def p_success_sbs_el(cfg: NetworkConfig, gamma_el: float, n2_serving: int,
                     seed: int = 0) -> float:
    """P(SIR_S,EL >= gamma_el) with n2_serving cooperative SBSs in the annulus."""
    return _cluster_p(cfg, "el", gamma_el, n2_serving, seed)


# ---------------------------------------------------------------------------
# Ergodic service rates
# ---------------------------------------------------------------------------

def _weighted_sum(weights, rows) -> np.ndarray:
    """sum_i weights[i] * rows[i], accumulated in index order, so that each
    column's value does not depend on the other columns: weights @ rows
    gave other bits in about one column in ten when the column count
    changed (numpy 2.4 with its bundled BLAS)."""
    acc = weights[0] * rows[0]
    for w, row in zip(weights[1:], rows[1:]):
        acc += w * row
    return acc


def _tail_integral(gamma: float, p_at, rel: np.ndarray) -> np.ndarray:
    """int_gamma^inf p(t) / (1 + t) dt for each node, one per entry of rel.

    p_at(t, idx) gives p at the thresholds t (a 1-D array) for the nodes
    idx, as a (t.size, idx.size) array.  The integral is log-substituted
    (t = gamma*e^s) and summed over segments of width 4 in s until a
    node's last segment contributes < _TAIL_REL of its total (on the
    default scenario the BL Psi table takes 9 segments, to s = 36, and an
    MBS rate 11).  Each segment is integrated with the 21-point
    Gauss-Kronrod rule; a piece whose |K21 - G10| is not below the node's
    rel times its total so far (this piece included; so also while that
    total is 0, as when every node underflowed) is bisected for that
    node, left half first.  Both rules act node by node and every step is
    elementwise, so a node's value does not depend on which other nodes
    share the call.
    """

    def piece(lo, hi, idx):
        # K21 and |K21 - G10| over [lo, hi]; the centre node is unpaired
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = half * _GK_X
        t = gamma * np.exp(np.concatenate((mid - x, mid + x[:-1])))
        f = p_at(t, idx) * (t / (1.0 + t))[:, None]
        pairs = f[:11]
        pairs[:-1] += f[11:]
        k21 = half * _weighted_sum(_GK_WK, pairs)
        if not np.isfinite(k21).all():
            raise QuadratureError("SIR tail integrand is not finite")
        return k21, np.abs(k21 - half * _weighted_sum(_GK_WG, pairs[1::2]))

    total = np.zeros(rel.size)
    live = np.arange(rel.size)
    for k in range(40):
        seg, bisections = np.zeros(rel.size), np.zeros(rel.size, dtype=int)
        todo = [(4.0 * k, 4.0 * k + 4.0, live)]
        while todo:
            lo, hi, idx = todo.pop()
            k21, err = piece(lo, hi, idx)
            ok = err < rel[idx] * (total[idx] + seg[idx] + k21)
            seg[idx[ok]] += k21[ok]
            idx = idx[~ok]
            if idx.size == 0:
                continue
            bisections[idx] += 1
            if bisections[idx].max() > _MAX_BISECTIONS:
                raise QuadratureError(
                    f"SIR tail integral needs more than {_MAX_BISECTIONS} "
                    f"bisections on s in [{4 * k}, {4 * k + 4}]")
            todo += [(0.5 * (lo + hi), hi, idx), (lo, 0.5 * (lo + hi), idx)]
        total[live] += seg[live]
        live = live[seg[live] >= _TAIL_REL * np.maximum(total[live], 1e-300)]
        if live.size == 0:
            return total
    raise QuadratureError("SIR tail integral did not truncate")


def _rate(cfg: NetworkConfig, gamma: float, tail: float) -> float:
    """W log2(1+gamma) + (W/ln2) tail, tail conditioned on SIR >= gamma."""
    return cfg.w * math.log2(1.0 + gamma) + cfg.w / math.log(2.0) * tail


def ergodic_rate_mbs(cfg: NetworkConfig, gamma: float) -> float:
    """Ergodic nearest-MBS service rate conditioned on SIR >= gamma: the
    tail integral of p_success_mbs, one node, each rule's thresholds in one
    _p_mbs call, over p_success_mbs at gamma."""
    p_gamma = p_success_mbs(cfg, gamma)
    if p_gamma == 0.0:
        raise ZeroDivisionError(
            f"P(SIR >= gamma) is 0 at gamma = {gamma:g}, so the rate "
            "conditioned on SIR >= gamma is undefined")

    def p_at(t, idx):
        return _p_mbs(cfg, t)[:, None]

    tail = _tail_integral(gamma, p_at, np.array([_TAIL_PIECE_REL]))
    return _rate(cfg, gamma, float(tail[0]) / p_gamma)


def _psi_at(cfg: NetworkConfig, layer: str, gamma: float,
            x: np.ndarray) -> np.ndarray:
    """Psi(sigma) = int_gamma^inf phi(t, sigma) / phi(gamma, sigma) dt/(1+t)
    at each ln sigma in x, one tail-integral node each.

    phi is exp of the kernel; the integrand is
    exp(ln phi(t) - ln phi(gamma)), so it starts at 1 however small
    phi(gamma, sigma) is, and carries about |ln phi(gamma, sigma)| ulp.
    """
    sigma = np.exp(x)
    log_p_gamma = _cluster_log_p(cfg, layer, gamma, sigma)

    def phi(t, idx):
        out = _cluster_log_p(cfg, layer, t[:, None], sigma[idx])
        out -= log_p_gamma[idx]
        return np.exp(out, out=out)

    rel = np.maximum(_TAIL_PIECE_REL, _NOISE_REL * -log_p_gamma)
    return _tail_integral(gamma, phi, rel)


def _psi_top(cfg: NetworkConfig, layer: str) -> float:
    """ln(outer^2), the top edge of the Psi table: sigma <= outer^2."""
    return 2.0 * math.log(_ring(cfg, layer)[1])


# The Psi table of the last (cfg, gamma, seed) of each layer: its key and
# the Chebyshev coefficients of each piece built so far, top piece first.
# Keyed on the seed of the draws it serves, like _STATES, so a new seed
# pays the build again.
_PSI: dict = {}


def _psi_table(cfg: NetworkConfig, layer: str, gamma: float, seed: int,
               pieces: int) -> list:
    """The Chebyshev coefficients of Psi on the first `pieces` pieces.

    With w = _PSI_WIDTH and top = ln(outer^2), piece j spans ln sigma in
    [top - (j+1) w, top - j w]; its nodes are the tail integrals _psi_at
    at top - (j + 1/2) w + u_i w/2, and _PSI_DCT turns them into
    coefficients.  Missing pieces are built in one _psi_at call and added
    to the layer's cached table.  A piece depends only on (cfg, layer,
    gamma, j), so the table does not depend on the order of the calls
    that grew it.
    """
    key = (cfg, gamma, seed)
    if layer not in _PSI or _PSI[layer][0] != key:
        _PSI[layer] = (key, [])
    table = _PSI[layer][1]
    if len(table) < pieces:
        j = np.arange(len(table), pieces)
        x = ((_psi_top(cfg, layer) - (j + 0.5) * _PSI_WIDTH)[:, None]
             + 0.5 * _PSI_WIDTH * _PSI_U)
        psi = _psi_at(cfg, layer, gamma, x.ravel()).reshape(x.shape)
        table += [_PSI_DCT @ row for row in psi]
    return table


def _clenshaw(coef, u: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(u), by Clenshaw's recurrence.

    Each step b_k = 2u b_(k+1) - b_(k+2) + c_k runs in place in three
    buffers, which rotate: the new b_k overwrites the b_(k+2) it no
    longer needs.  The operations and their order are those of
    u2 * b1 - b2 + c, so the result has the same bits as the allocating
    recurrence, at about three quarters of its time (132 against 179 us
    for one _PSI_BLOCK of 16 coefficients).
    """
    u2 = 2.0 * u
    b1, b2, b0 = np.full_like(u, coef[-1]), np.zeros_like(u), np.empty_like(u)
    for c in coef[-2:0:-1]:
        np.multiply(u2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    np.multiply(u, b1, out=b0)
    b0 -= b2
    b0 += coef[0]
    return b0


def _psi_mean(cfg: NetworkConfig, layer: str, gamma: float, seed: int,
              sigma: np.ndarray, weights: np.ndarray) -> float:
    """sum_i weights_i Psi(sigma_i) / sum_i weights_i over an ascending draw.

    The layer's Psi table at (cfg, gamma, seed) is grown to the pieces
    that cover the draw, down past its smallest sigma (its first sample).
    Piece j holds the run of samples with ln sigma in
    (top - (j+1) w, top - j w]; one np.searchsorted over the pieces' lower
    edges gives every run's start, and each run ends where the run of the
    piece above starts.  The interpolant is evaluated run by run in blocks
    of _PSI_BLOCK samples."""
    top = _psi_top(cfg, layer)
    pieces = math.floor((top - math.log(sigma[0])) / _PSI_WIDTH) + 1
    table = _psi_table(cfg, layer, gamma, seed, pieces)
    starts = np.searchsorted(
        sigma, np.exp(top - np.arange(1, pieces + 1) * _PSI_WIDTH),
        side="right")
    stops = np.concatenate(([sigma.size], starts[:-1]))
    total = 0.0
    for j, (start, stop) in enumerate(zip(starts, stops)):
        mid = top - (j + 0.5) * _PSI_WIDTH
        for lo in range(start, stop, _PSI_BLOCK):
            u = np.log(sigma[lo:min(lo + _PSI_BLOCK, stop)])
            u -= mid
            u *= 2.0 / _PSI_WIDTH
            total += float(_clenshaw(table[j], u) @ weights[lo:lo + u.size])
    return total / float(weights.sum())


def _ergodic_rate_cluster(cfg, layer, gamma, n_serving, seed):
    """The rate from one kernel pass at gamma less its .max(), exponentiated
    in place: the weights, the largest 1, of one pass of the Psi table."""
    sigma, weights = _cluster_terms(cfg, layer, gamma, n_serving, seed)
    weights -= weights.max()
    np.exp(weights, out=weights)
    return _rate(cfg, gamma, _psi_mean(cfg, layer, gamma, seed, sigma, weights))


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
