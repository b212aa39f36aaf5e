"""End-to-end Monte-Carlo oracle: sampling, SIR statistics, reproducibility."""

import math
from dataclasses import replace

import numpy as np
import pytest

from svcache import analytic, montecarlo
from svcache.cli import GAMMA_GRID_DB
from svcache.config import db_to_linear

DROPS = 20_000


class TestInterference:
    def test_zero_density(self):
        i = montecarlo._interference(np.random.default_rng(0), 0.0, 0.0,
                                     1e4, 1.0, 4.0, 7)
        assert np.array_equal(i, np.zeros(7))


class TestSamplerArguments:
    def test_too_few_drops(self, net):
        with pytest.raises(ValueError, match="n_drops"):
            montecarlo.sir_samples_mbs(net, 0)
        with pytest.raises(ValueError, match="n_drops"):
            montecarlo.sir_samples_sbs_bl(net, 1, -3)


class TestReproducibility:
    def test_identical_seed_identical_samples(self, net):
        a = montecarlo.sir_samples_mbs(net, 4096, seed=1)
        b = montecarlo.sir_samples_mbs(net, 4096, seed=1)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, net):
        a = montecarlo.sir_samples_mbs(net, 4096, seed=1)
        b = montecarlo.sir_samples_mbs(net, 4096, seed=3)
        assert not np.array_equal(a, b)


class TestSuccessEstimates:
    def test_vanishing_threshold(self, net):
        est = montecarlo.estimate_p_success_mbs(net, 1e-9, DROPS, seed=0)
        assert est.mean == pytest.approx(1.0, abs=1e-3)
        est = montecarlo.estimate_p_success_sbs(net, 1e-9, "BL", 2, DROPS,
                                                seed=0)
        assert est.mean == pytest.approx(1.0, abs=1e-3)

    def test_stronger_interferers_lower_success(self, net):
        base = montecarlo.estimate_p_success_mbs(net, 10.0, DROPS, seed=0)
        loud = montecarlo.estimate_p_success_mbs(
            replace(net, p_s=2 * net.p_s), 10.0, DROPS, seed=0)
        combined = math.hypot(base.std_error, loud.std_error)
        assert loud.mean < base.mean - 3 * combined

    def test_cooperation_helps(self, net):
        one = montecarlo.estimate_p_success_sbs(net, net.gamma_bl, "BL", 1,
                                                DROPS, seed=0)
        four = montecarlo.estimate_p_success_sbs(net, net.gamma_bl, "BL", 4,
                                                 DROPS, seed=0)
        combined = math.hypot(one.std_error, four.std_error)
        assert four.mean > one.mean + 3 * combined

    def test_error_halves_with_quadrupled_drops(self, net):
        small = montecarlo.estimate_p_success_mbs(net, 10.0, 5_000, seed=0)
        large = montecarlo.estimate_p_success_mbs(net, 10.0, 20_000, seed=0)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_estimate_fields(self, net):
        est = montecarlo.estimate_p_success_mbs(net, 10.0, 4096, seed=9)
        assert est.n_samples == 4096
        assert est.std_error >= 0.0

    def test_preconditions(self, net):
        with pytest.raises(ValueError):
            montecarlo.estimate_p_success_mbs(net, 10.0, 0)
        with pytest.raises(ValueError):
            montecarlo.estimate_p_success_sbs(net, 10.0, "XX", 1, 100)
        with pytest.raises(ValueError):
            montecarlo.estimate_p_success_sbs(net, 10.0, "BL", 5, 100)


class TestErgodicRateEstimates:
    def test_conditioning_floor(self, net):
        est = montecarlo.estimate_ergodic_rate(net, net.gamma_bl, "MBS",
                                               DROPS, seed=0)
        floor = net.w * math.log2(1.0 + net.gamma_bl)
        assert est.mean >= floor - 3 * est.std_error

    def test_cooperation_helps(self, net):
        one = montecarlo.estimate_ergodic_rate(net, net.gamma_bl, "SBS-BL",
                                               DROPS, seed=0, n_serving=1)
        four = montecarlo.estimate_ergodic_rate(net, net.gamma_bl, "SBS-BL",
                                                DROPS, seed=0, n_serving=4)
        combined = math.hypot(one.std_error, four.std_error)
        assert four.mean > one.mean + 3 * combined

    def test_too_few_conditioning_drops(self, net):
        with pytest.raises(RuntimeError, match="raise n_drops"):
            montecarlo.estimate_ergodic_rate(net, 1e9, "MBS", 2_000, seed=0)

    def test_invalid_source(self, net):
        with pytest.raises(ValueError):
            montecarlo.estimate_ergodic_rate(net, 10.0, "WIFI", 1_000)

    def test_too_few_drops(self, net):
        with pytest.raises(ValueError, match="n_drops"):
            montecarlo.estimate_ergodic_rate(net, 10.0, "MBS", 0)


class TestWindow:
    def test_window_radius(self, net):
        expected = 30.0 / math.sqrt(math.pi * net.lambda_m)
        assert montecarlo.window_radius(net) == pytest.approx(expected)
        assert montecarlo.window_radius(net) == pytest.approx(7500.0)

    def test_truncation_bias_below_1e3(self, net):
        """The module docstring's claim, at alpha = 4: cutting every
        interfering field at R_sim moves each success probability on the
        CLI's gamma grid by less than 1e-3.  The cut replaces each
        interference tail G(x) by G(x) - G(R_sim^2 / scale)."""
        assert net.alpha_m == net.alpha_s == 4.0
        w2 = montecarlo.window_radius(net) ** 2
        samples = 50_000
        rng = np.random.default_rng(0)
        x2 = rng.exponential(1.0 / (math.pi * net.lambda_m), samples)
        s_bl = analytic._serving_scale(net, "bl", net.n1, samples, 0)
        s_el = analytic._serving_scale(net, "el", net.n2, samples, 0)

        def cut(density, scale):
            """Exponent of the interference beyond R_sim."""
            return (math.pi * density * scale
                    * analytic.g_alpha_vec(4.0, w2 / scale))

        def mbs_mode(gamma):
            scale_m = math.sqrt(gamma) * x2
            scale_s = math.sqrt(gamma * net.p_s / net.p_m) * x2
            full = (math.pi * net.lambda_m * scale_m
                    * analytic.g_alpha_vec(4.0, x2 / scale_m)
                    + math.pi * net.lambda_s * scale_s
                    * analytic.g_alpha_zero(4.0))
            return (full, cut(net.lambda_m, scale_m)
                    + cut(net.lambda_s, scale_s))

        def cluster_mode(layer, s_sum):
            def mode(gamma):
                c = gamma / s_sum
                return (analytic._cluster_exponent(net, layer, c),
                        cut(net.lambda_s, np.sqrt(c))
                        + cut(net.lambda_m, np.sqrt(c * net.p_m / net.p_s)))
            return mode

        modes = {"MBS": mbs_mode,
                 "BL": cluster_mode("bl", s_bl),
                 "EL": cluster_mode("el", s_el)}
        for name, mode in modes.items():
            for gamma_db in GAMMA_GRID_DB:
                full, beyond = mode(db_to_linear(gamma_db))
                gap = np.exp(-(full - beyond)).mean() - np.exp(-full).mean()
                assert 0.0 <= gap < 1e-3, (name, gamma_db, gap)
