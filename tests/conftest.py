"""Shared fixtures: default scenario, a session-wide rate table, the
position-sample count of the cluster functions and the paper's alpha = 4
formulas."""

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


def _kernel_mean_p(cfg, layer, n_serving, seed):
    """t -> P(SIR_S >= t): exp of the library's kernel averaged over its
    sorted serving draw, every sample evaluated."""
    _, sigma, sigma_m = analytic._cluster_state(cfg, layer, n_serving, seed)
    out, work = np.empty(sigma.size), np.empty((2, sigma.size))

    def p_at(t):
        analytic._cluster_log_p(cfg, layer, t, sigma, sigma_m, out, work)
        return float(np.exp(out).sum()) / sigma.size

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
                         _kernel_mean_p(cfg, layer, n_serving, seed))


@pytest.fixture(scope="session")
def kernel_mean_p():
    return _kernel_mean_p


@pytest.fixture(scope="session")
def averaged_cluster_rate():
    return _averaged_cluster_rate
