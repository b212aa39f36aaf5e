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
    and gives the cluster functions a fresh _STATES, so that no draw of
    another size is reused; both are restored after the test."""
    def use(n):
        monkeypatch.setattr(analytic, "POSITION_SAMPLES", n)
        monkeypatch.setattr(analytic, "_STATES", {})
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
