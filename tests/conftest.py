"""Shared fixtures: default scenario, a session-wide rate table, the
position-sample count of the cluster functions, the paper's alpha = 4
formulas and the dense formulation of the objective's per-file rows."""

import math

import numpy as np
import pytest

from svcache import analytic
from svcache.analytic import build_rate_table
from svcache.config import ContentConfig, NetworkConfig, PowerCoefficients
from svcache.objective import ObjectiveContext
from svcache.popularity import build_profile


@pytest.fixture(scope="session")
def net():
    return NetworkConfig()


@pytest.fixture(scope="session")
def content():
    return ContentConfig()


@pytest.fixture(scope="session")
def coeff():
    return PowerCoefficients()


@pytest.fixture(scope="session")
def profile(content):
    return build_profile(content)


@pytest.fixture(scope="session")
def rates(net):
    """Full analytic rate table at the default scenario (seed 0)."""
    return build_rate_table(net, seed=0)


@pytest.fixture(scope="session")
def ctx(rates, profile, net, content, coeff):
    return ObjectiveContext(rates=rates, profile=profile, net=net,
                            content=content, coeff=coeff)


@pytest.fixture
def position_samples(monkeypatch):
    """position_samples(n) sets analytic.POSITION_SAMPLES to n for the test
    and gives the cluster functions a fresh _STATES and _PSI, so that no
    draw of another size or table of another test is reused; all are
    restored after the test."""
    def use(n):
        monkeypatch.setattr(analytic, "POSITION_SAMPLES", n)
        monkeypatch.setattr(analytic, "_STATES", {})
        monkeypatch.setattr(analytic, "_PSI", {})
    return use


def _p_success_mbs_closed(cfg, gamma):
    """The paper's closed form of P(SIR_M >= gamma) at alpha_m = alpha_s
    = 4: 1 / (1 + sqrt(gamma)/lambda_m * (pi/2 lambda_s sqrt(p_s/p_m)
    + lambda_m arccot(1/sqrt(gamma))))."""
    if cfg.alpha_m != 4.0 or cfg.alpha_s != 4.0:
        raise ValueError("closed form requires alpha_m = alpha_s = 4")
    arccot = math.pi / 2.0 - math.atan(gamma ** -0.5)
    penalty = (math.sqrt(gamma) / cfg.lambda_m
               * (math.pi / 2.0 * cfg.lambda_s * math.sqrt(cfg.p_s / cfg.p_m)
                  + cfg.lambda_m * arccot))
    return 1.0 / (1.0 + penalty)


@pytest.fixture(scope="session")
def p_success_mbs_closed():
    return _p_success_mbs_closed


def _arccot_cluster_p(cfg, layer, gamma, n_serving, seed):
    """The paper's alpha = 4 cluster success probability, averaged over the
    library's serving draw of analytic.POSITION_SAMPLES positions: with
    c = gamma/S and root = sqrt(c), the exponent is
    pi*root*(lambda_s*(arccot(outer^2/root) + arctan(inner^2/root))
    + pi/2*lambda_m*sqrt(p_m/p_s))."""
    if cfg.alpha_m != 4.0 or cfg.alpha_s != 4.0:
        raise ValueError("closed form requires alpha_m = alpha_s = 4")
    inner, outer = (0.0, cfg.a) if layer == "bl" else (cfg.a, cfg.b)
    scale = analytic._serving_scale(cfg, layer, n_serving,
                                    analytic.POSITION_SAMPLES, seed)
    root = np.sqrt(gamma / scale)
    sbs = math.pi / 2.0 - np.arctan(outer ** 2 / root)
    if inner > 0.0:
        sbs = np.arctan(inner ** 2 / root) + sbs
    u = (cfg.lambda_s * sbs
         + math.pi / 2.0 * cfg.lambda_m * math.sqrt(cfg.p_m / cfg.p_s))
    return float(np.exp(-math.pi * u * root).mean())


@pytest.fixture(scope="session")
def arccot_cluster_p():
    return _arccot_cluster_p


def _kernel_mean_p(cfg, layer, gamma, n_serving, seed):
    """t -> P(SIR_S >= t) / max_sigma phi(gamma, sigma): exp of the
    library's kernel less its largest value at gamma, averaged over its
    sorted serving draw, every sample evaluated.  A success-conditioned
    rate is a ratio of two such values, which the shift leaves as it is,
    and it stays defined where P(SIR_S >= gamma) underflows."""
    sigma = analytic._cluster_state(cfg, layer, n_serving, seed)
    shift = analytic._cluster_log_p(cfg, layer, gamma, sigma).max()

    def p_at(t):
        log_p = analytic._cluster_log_p(cfg, layer, t, sigma)
        return float(np.exp(log_p - shift).sum()) / sigma.size

    return p_at


def _gk_tail_rate(cfg, gamma, p_at):
    """The success-conditioned ergodic rate by a scalar tail integral of
    p_at: t -> P(SIR >= t), on the library's width-4 log-scaled segments
    under its 21-point Gauss-Kronrod rule, bisection rule and truncation
    rule (one node at a time)."""
    x_k, w_k, w_g = analytic._GK_X, analytic._GK_WK, analytic._GK_WG

    def piece(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = gamma * np.exp(np.concatenate((mid - half * x_k,
                                           mid + half * x_k[:-1])))
        f = np.array([p_at(tk) for tk in t]) * (t / (1.0 + t))
        pairs = f[:11]
        pairs[:-1] += f[11:]
        k21 = half * float(w_k @ pairs)
        return k21, abs(k21 - half * float(w_g @ pairs[1::2]))

    total = 0.0
    for k in range(40):
        seg = 0.0
        todo = [(4.0 * k, 4.0 * k + 4.0)]
        while todo:
            lo, hi = todo.pop()
            k21, err = piece(lo, hi)
            if err <= analytic._TAIL_PIECE_REL * (total + seg + k21):
                seg += k21
            else:
                todo += [(0.5 * (lo + hi), hi), (lo, 0.5 * (lo + hi))]
        total += seg
        if seg < analytic._TAIL_REL * max(total, 1e-300):
            break
    else:
        raise AssertionError("oracle did not truncate")
    return (cfg.w * math.log2(1.0 + gamma)
            + cfg.w / math.log(2.0) * total / p_at(gamma))


def _averaged_cluster_rate(cfg, layer, gamma, n_serving, seed):
    """The cluster rate with the position average inside the tail
    integral: the scalar tail rule over t -> E_sigma[phi(t, sigma)], 190
    (BL) or 64 (EL) kernel passes over the draw on the default
    scenario."""
    return _gk_tail_rate(cfg, gamma,
                         _kernel_mean_p(cfg, layer, gamma, n_serving, seed))


@pytest.fixture(scope="session")
def kernel_mean_p():
    return _kernel_mean_p


@pytest.fixture(scope="session")
def averaged_cluster_rate():
    return _averaged_cluster_rate


def _serving_pmf(mode, n, q):
    """The serving-count distribution D as a dense matrix: shape (n+1, F)
    for an (F,) block q, (B, n+1, F) for a (B, F) block.  Fractional
    caching: 1 - q at k = 0 and q at k = n; random caching:
    Binomial(n, q), with its coefficient row rebuilt on every call.  A
    cluster of size 0 is e0."""
    if mode == "random":
        k = np.arange(n + 1)[:, None]
        comb = np.array([math.comb(n, i) for i in range(n + 1)],
                        dtype=float)[:, None]
        t = q[..., None, :]
        return comb * t ** k * (1.0 - t) ** (n - k)
    d = np.zeros(q.shape[:-1] + (n + 1, q.shape[-1]))
    d[..., n, :] = q
    d[..., 0, :] = 1.0 - q if n else 1.0
    return d


def _serving_pmf_slope(mode, n, q):
    """dD/dq of _serving_pmf as a dense matrix of the same shape:
    -1 at k = 0 and +1 at k = n (fractional), n (B_{n-1}(k-1) - B_{n-1}(k))
    (random); 0 for a cluster of size 0."""
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


def _block_terms(mode, q, n, w, bits, net, coeff, theta=None, slopes=False):
    """One layer block (q, n, w, bits) from the dense D and D', with the
    surrogate log(x/theta + 1) / log(1/theta + 1) (theta None: the exact
    l0 norm): (D, tr, ca, bh) and, with slopes=True, (D', P')."""
    d = _serving_pmf(mode, n, q)
    cached = n > 0
    if not cached:
        q = np.zeros_like(q)
    if mode == "fractional" and theta is None:
        on = lambda x: (np.abs(x) > 1e-12).astype(float)
    elif mode == "fractional":
        on = lambda x: np.log(x / theta + 1.0) / np.log(1.0 / theta + 1.0)
        on_slope = lambda x: 1.0 / ((x + theta) * np.log(1.0 / theta + 1.0))
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


def _dense_file_terms(mode, q1, q2, ctx, theta=None, slopes=False):
    """The objective's per-file rows (R, P) and, with slopes=True, their
    slopes ((R1', R2'), (P1', P2')) from the dense _block_terms, with
    every weight, rate row and constant rebuilt from ctx on each call:
    R = sum_b w r @ D, R' = w r @ D'."""
    p = np.asarray(ctx.profile.p)
    r = ctx.rates
    blocks = ((np.asarray(q1, dtype=float), ctx.net.n1, p, ctx.content.l_b,
               [r.r_m_bl] + [r.r_s_bl[n] for n in range(1, ctx.net.n1 + 1)]),
              (np.asarray(q2, dtype=float), ctx.net.n2,
               p * np.asarray(ctx.profile.g_hdv), ctx.content.l_e,
               [r.r_m_el] + [r.r_s_el[n] for n in range(1, ctx.net.n2 + 1)]))
    rate = power = 0.0
    rate_slopes, power_slopes = [], []
    for q, n, w, bits, rates in blocks:
        rates = np.array(rates)
        d, tr, ca, bh, *slope = _block_terms(mode, q, n, w, bits, ctx.net,
                                             ctx.coeff, theta, slopes)
        rate = rate + w * (rates @ d)
        power = power + (tr + ca + bh)
        if slopes:
            rate_slopes.append(w * (rates @ slope[0]))
            power_slopes.append(slope[1])
    if not slopes:
        return rate, power
    return rate, power, tuple(rate_slopes), tuple(power_slopes)


@pytest.fixture(scope="session")
def serving_pmf():
    return _serving_pmf


@pytest.fixture(scope="session")
def serving_pmf_slope():
    return _serving_pmf_slope


@pytest.fixture(scope="session")
def dense_file_terms():
    return _dense_file_terms
