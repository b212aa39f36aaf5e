"""Closed-form success probabilities and ergodic service rates."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from svcache import analytic
from svcache.config import NetworkConfig, db_to_linear

GAMMA_GRID = [db_to_linear(g) for g in (0.0, 5.0, 10.0, 15.0, 20.0)]


class TestGAlpha:
    def test_reference_values(self):
        assert analytic.g_alpha(4.0, 0.0) == pytest.approx(math.pi / 2,
                                                           abs=1e-10)
        assert analytic.g_alpha(4.0, 1.0) == pytest.approx(math.pi / 4,
                                                           abs=1e-10)
        assert analytic.g_alpha(3.0, 0.0) == pytest.approx(
            4 * math.pi / (3 * math.sqrt(3)), abs=1e-10)

    def test_arccot_identity(self):
        for x in (0.0, 0.5, 1.0, 2.0, 10.0):
            arccot = math.pi / 2 - math.atan(x)
            assert analytic.g_alpha(4.0, x) == pytest.approx(arccot, abs=1e-10)

    def test_strictly_decreasing_positive_vanishing(self):
        xs = [0.0, 0.3, 1.0, 5.0, 50.0, 1e4]
        vals = [analytic.g_alpha(3.5, x) for x in xs]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_vectorized_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for alpha in (3.0, 4.0, 5.5):
            x = np.concatenate([rng.uniform(1e-6, 1.0, 20),
                                rng.uniform(1.0, 1e4, 20)])
            vec = analytic.g_alpha_vec(alpha, x)
            ref = np.array([analytic.g_alpha(alpha, xi) for xi in x])
            assert vec == pytest.approx(ref, abs=1e-12, rel=1e-12)

    def test_divergent_exponent_rejected(self):
        for fn in (analytic.g_alpha_zero,
                   lambda a: analytic.g_alpha(a, 1.0),
                   lambda a: analytic.g_alpha_vec(a, [1.0])):
            with pytest.raises(ValueError):
                fn(2.0)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            analytic.g_alpha(4.0, -1.0)


class TestSuccessMbs:
    def test_vanishing_threshold(self, net):
        # exact value is 1 - Theta(sqrt(gamma)), about 3.1e-5 below 1 here
        assert analytic.p_success_mbs(net, 1e-9) == pytest.approx(1.0,
                                                                  abs=1e-4)

    def test_matches_closed_form(self, net):
        for gamma in GAMMA_GRID:
            general = analytic.p_success_mbs(net, gamma)
            closed = analytic.p_success_mbs_closed(net, gamma)
            assert general == pytest.approx(closed, rel=1e-4)

    def test_in_unit_interval_and_monotone_in_gamma(self, net):
        vals = [analytic.p_success_mbs(net, g) for g in GAMMA_GRID]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_interferer_strength(self, net):
        base = analytic.p_success_mbs(net, 10.0)
        more_power = analytic.p_success_mbs(replace(net, p_s=2 * net.p_s), 10.0)
        more_sbs = analytic.p_success_mbs(
            replace(net, lambda_s=2 * net.lambda_s), 10.0)
        assert more_power < base
        assert more_sbs < base

    def test_invalid_gamma(self, net):
        with pytest.raises(ValueError):
            analytic.p_success_mbs(net, 0.0)


class TestSuccessMbsClosed:
    def test_single_tier_reference(self):
        # negligible small-cell tier: only the arccot(1) = pi/4 penalty
        cfg = NetworkConfig(lambda_s=1e-30)
        expected = 1.0 / (1.0 + math.pi / 4)
        assert analytic.p_success_mbs_closed(cfg, 1.0) == pytest.approx(
            expected, rel=1e-9)

    def test_vanishing_threshold(self, net):
        assert analytic.p_success_mbs_closed(net, 1e-18) == pytest.approx(
            1.0, abs=1e-8)

    def test_exponent_mismatch_rejected(self, net):
        with pytest.raises(ValueError):
            analytic.p_success_mbs_closed(replace(net, alpha_m=3.5), 1.0)


class TestSuccessSbs:
    N_SAMPLES = 50_000

    def test_vanishing_threshold(self, net):
        assert analytic.p_success_sbs_bl(
            net, 1e-9, 2, n_samples=self.N_SAMPLES) == pytest.approx(1.0,
                                                                     abs=1e-3)
        assert analytic.p_success_sbs_el(
            net, 1e-9, 2, n_samples=self.N_SAMPLES) == pytest.approx(1.0,
                                                                     abs=1e-3)

    def test_more_cooperating_stations_help(self, net):
        bl = [analytic.p_success_sbs_bl(net, net.gamma_bl, n,
                                        n_samples=self.N_SAMPLES)
              for n in (1, 2, 4)]
        el = [analytic.p_success_sbs_el(net, net.gamma_el, n,
                                        n_samples=self.N_SAMPLES)
              for n in (1, 2, 4)]
        assert bl[0] < bl[1] < bl[2]
        assert el[0] < el[1] < el[2]

    def test_monotone_in_threshold(self, net):
        bl = [analytic.p_success_sbs_bl(net, g, 2, n_samples=self.N_SAMPLES)
              for g in GAMMA_GRID]
        assert all(a >= b for a, b in zip(bl, bl[1:]))

    def test_closed_form_agreement(self, net):
        for gamma in GAMMA_GRID:
            for fn, closed in [
                (analytic.p_success_sbs_bl, analytic.p_success_sbs_bl_closed),
                (analytic.p_success_sbs_el, analytic.p_success_sbs_el_closed),
            ]:
                general = fn(net, gamma, 2, n_samples=self.N_SAMPLES)
                special = closed(net, gamma, 2, n_samples=self.N_SAMPLES)
                assert general == pytest.approx(special, rel=1e-3)

    def test_deterministic_given_seed(self, net):
        a = analytic.p_success_sbs_bl(net, 10.0, 3, n_samples=10_000, seed=5)
        b = analytic.p_success_sbs_bl(net, 10.0, 3, n_samples=10_000, seed=5)
        c = analytic.p_success_sbs_bl(net, 10.0, 3, n_samples=10_000, seed=6)
        assert a == b
        assert a != c

    def test_preconditions(self, net):
        with pytest.raises(ValueError):
            analytic.p_success_sbs_bl(net, 10.0, 0)
        with pytest.raises(ValueError):
            analytic.p_success_sbs_el(net, 0.0, 1)
        with pytest.raises(ValueError):
            analytic.p_success_sbs_bl_closed(replace(net, alpha_s=3.0), 10.0, 1)


class TestUnderflowCut:
    """_cluster_p evaluates only the samples whose exp(-exponent) can be
    nonzero; every value must equal the full-sample mean bit for bit."""

    N_SAMPLES = 20_000

    @staticmethod
    def _full_mean(net, layer, scale, t, closed_form):
        return float(np.exp(-analytic._cluster_exponent(
            net, layer, t / scale, closed_form)).mean())

    @pytest.mark.parametrize("alpha", [4.0, 3.5])
    @pytest.mark.parametrize("layer", ["bl", "el"])
    @pytest.mark.parametrize("n", [1, 4])
    def test_cut_is_exact(self, net, alpha, layer, n):
        net = replace(net, alpha_m=alpha, alpha_s=alpha)
        closed = alpha == 4.0
        scale = analytic._serving_scale(net, layer, n, self.N_SAMPLES, 0)
        p_at = analytic._cluster_p(net, layer, 1.0, n, self.N_SAMPLES, 0,
                                   closed)
        c_max = analytic._underflow_c(net, layer, closed)
        # t from 1e-2 to 1e60, plus t where the cut falls among the samples
        band = c_max * np.quantile(scale, [0.0, 0.01, 0.5, 0.99, 1.0])
        ts = np.concatenate([np.geomspace(1e-2, 1e60, 25), band, 0.999 * band])
        kept = [(scale > t / c_max).sum() for t in ts]
        assert min(kept) == 0 and max(kept) == scale.size
        assert any(0 < k < scale.size for k in kept)
        for t in ts:
            assert p_at(t) == self._full_mean(net, layer, scale, t, closed)

    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("layer", ["bl", "el"])
    def test_threshold(self, net, layer, closed):
        c_max = analytic._underflow_c(net, layer, closed)
        exponent = analytic._cluster_exponent(
            net, layer, c_max * np.array([1.0, 1.5, 10.0, 1e6]), closed)
        assert (np.exp(-exponent) == 0.0).all()
        # the bisection converged below its MBS-only bracket
        mbs_only = net.p_s / net.p_m * (
            analytic._UNDERFLOW / (math.pi * net.lambda_m
                                   * analytic.g_alpha_zero(net.alpha_m))
        ) ** (net.alpha_m / 2.0)
        assert c_max <= mbs_only
        assert analytic._cluster_exponent(net, layer, 0.5 * c_max,
                                          closed) < analytic._UNDERFLOW

    @pytest.mark.parametrize("layer", ["bl", "el"])
    def test_overflowing_bound_cuts_nothing(self, net, layer):
        net = replace(net, lambda_m=1e-300)
        assert analytic._underflow_c(net, layer, True) == math.inf
        scale = analytic._serving_scale(net, layer, 2, self.N_SAMPLES, 0)
        p_at = analytic._cluster_p(net, layer, 1.0, 2, self.N_SAMPLES, 0, True)
        for t in (1e-2, 1.0, 1e6, 1e30):
            assert p_at(t) == self._full_mean(net, layer, scale, t, True)


class TestErgodicRates:
    def test_rate_floor(self, net, rates):
        assert rates.r_m_bl >= net.w * math.log2(1.0 + net.gamma_bl)
        assert rates.r_m_el >= net.w * math.log2(1.0 + net.gamma_el)
        for r in rates.r_s_bl.values():
            assert r >= net.w * math.log2(1.0 + net.gamma_bl)
        for r in rates.r_s_el.values():
            assert r >= net.w * math.log2(1.0 + net.gamma_el)

    def test_monotone_in_cooperation(self, rates):
        bl = [rates.r_s_bl[n] for n in sorted(rates.r_s_bl)]
        el = [rates.r_s_el[n] for n in sorted(rates.r_s_el)]
        assert all(a <= b for a, b in zip(bl, bl[1:]))
        assert all(a <= b for a, b in zip(el, el[1:]))

    def test_homogeneous_in_bandwidth(self, net):
        base = analytic.ergodic_rate_mbs(net, 10.0)
        doubled = analytic.ergodic_rate_mbs(replace(net, w=2 * net.w), 10.0)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)
        # and the rate vanishes with the bandwidth
        tiny = analytic.ergodic_rate_mbs(replace(net, w=1e-300), 10.0)
        assert tiny < 1e-290

    def test_cluster_rate_floor_and_monotone_direct(self, net):
        r1 = analytic.ergodic_rate_sbs_el(net, net.gamma_el, 1,
                                          n_samples=20_000)
        r2 = analytic.ergodic_rate_sbs_el(net, net.gamma_el, 2,
                                          n_samples=20_000)
        floor = net.w * math.log2(1.0 + net.gamma_el)
        assert floor <= r1 <= r2

    def test_preconditions(self, net):
        with pytest.raises(ValueError):
            analytic.ergodic_rate_mbs(net, 0.0)
        with pytest.raises(ValueError):
            analytic.ergodic_rate_sbs_bl(net, 10.0, 0)


class TestRateTable:
    def test_entry_count(self, net, rates):
        assert len(rates.r_s_bl) == net.n1
        assert len(rates.r_s_el) == net.n2
        # 2 nearest-MBS entries + n1 + n2 cooperative entries
        assert 2 + len(rates.r_s_bl) + len(rates.r_s_el) == 10

    def test_deterministic(self, net):
        a = analytic.build_rate_table(net, n_samples=5_000, seed=3)
        b = analytic.build_rate_table(net, n_samples=5_000, seed=3)
        assert a.r_m_bl == b.r_m_bl and a.r_m_el == b.r_m_el
        assert a.r_s_bl == b.r_s_bl and a.r_s_el == b.r_s_el

    def test_provenance(self, rates):
        assert rates.provenance == "Analytic"
        assert rates.seed == 0


def _direct_rate(net, gamma, p_at):
    """Brute-force scipy quadrature of the success-conditioned tail
    integral, no log substitution."""
    tail, _ = integrate.quad(lambda t: p_at(t) / (1.0 + t), gamma, np.inf,
                             limit=300, epsrel=1e-8)
    return (net.w * math.log2(1.0 + gamma)
            + net.w / math.log(2.0) * tail / p_at(gamma))


class TestTailIntegralOracle:
    def test_mbs_rate_against_direct_quadrature(self, net):
        gamma = net.gamma_bl
        expected = _direct_rate(net, gamma,
                                lambda t: analytic.p_success_mbs(net, t))
        assert analytic.ergodic_rate_mbs(net, gamma) == pytest.approx(
            expected, rel=1e-6)

    @pytest.mark.parametrize("layer", ["bl", "el"])
    def test_cluster_rate_against_direct_quadrature(self, net, layer):
        """The rate uses the alpha = 4 closed form, the oracle's
        probabilities the general form over the same positions."""
        gamma = getattr(net, f"gamma_{layer}")
        p_success = getattr(analytic, f"p_success_sbs_{layer}")
        rate = getattr(analytic, f"ergodic_rate_sbs_{layer}")
        kw = {"n_samples": 2_000, "seed": 1}
        expected = _direct_rate(net, gamma,
                                lambda t: p_success(net, t, 2, **kw))
        assert rate(net, gamma, 2, **kw) == pytest.approx(expected, rel=1e-6)
