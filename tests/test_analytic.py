"""Closed-form success probabilities and ergodic service rates."""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import hyp2f1

from svcache import analytic
from svcache.config import NetworkConfig, db_to_linear

GAMMA_GRID = [db_to_linear(g) for g in (0.0, 5.0, 10.0, 15.0, 20.0)]


def _g_hyp2f1(alpha, x):
    """G_alpha(x) through its hypergeometric head (x <= 1) and tail (x > 1)
    representations, as g_alpha_vec computes it for alpha != 4."""
    beta = alpha / 2.0
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 1.0
    xs, xl = x[small], x[~small]
    out[small] = (analytic.g_alpha_zero(alpha)
                  - xs * hyp2f1(1.0, 1.0 / beta, 1.0 + 1.0 / beta,
                                -xs ** beta))
    out[~small] = (xl ** (1.0 - beta) / (beta - 1.0)
                   * hyp2f1(1.0, 1.0 - 1.0 / beta, 2.0 - 1.0 / beta,
                            -xl ** -beta))
    return out


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

    @pytest.mark.parametrize("alpha", [2.5, 3.0])
    def test_vectorized_matches_quadrature_at_large_x(self, alpha):
        # G_alpha(x) ~ x^(1 - alpha/2) / (alpha/2 - 1) is still 2e-4 at
        # alpha = 2.5, x = 1e8: the quadrature must not lose that tail
        x = np.geomspace(1.0, 1e8, 33)
        vec = analytic.g_alpha_vec(alpha, x)
        ref = np.array([analytic.g_alpha(alpha, xi) for xi in x])
        assert vec == pytest.approx(ref, rel=0.0, abs=1e-10)

    def test_alpha4_matches_quadrature(self):
        x = np.array([0.0, 1e-6, 0.3, 1.0, 2.0, 10.0, 1e2, 1e4, 1e5, 1e6,
                      1e7, 1e8])
        vec = analytic.g_alpha_vec(4.0, x)
        ref = np.array([analytic.g_alpha(4.0, xi) for xi in x])
        assert vec == pytest.approx(ref, rel=0.0, abs=1e-10)

    def test_alpha4_matches_hypergeometric_form(self):
        x = np.geomspace(1e-8, 1e8, 321)
        assert analytic.g_alpha_vec(4.0, x) == pytest.approx(
            _g_hyp2f1(4.0, x), rel=1e-14, abs=0.0)

    def test_alpha4_at_zero_is_half_pi_without_warnings(self):
        with np.errstate(all="raise"):
            assert analytic.g_alpha_vec(4.0, 0.0) == math.pi / 2
            assert analytic.g_alpha_vec(4.0, [0.0, 1.0])[0] == math.pi / 2

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

    def test_matches_closed_form(self, net, p_success_mbs_closed):
        for gamma in GAMMA_GRID:
            general = analytic.p_success_mbs(net, gamma)
            closed = p_success_mbs_closed(net, gamma)
            assert general == pytest.approx(closed, rel=1e-4)

    @pytest.mark.parametrize("alpha", [3.0, 3.5, 4.0, 5.0])
    def test_equal_exponents_match_quadrature(self, net, alpha):
        """At alpha_m = alpha_s the radial integral is 1/(1 + c1 + c2);
        the oracle integrates exp(-z (1 + c1 + c2)) numerically, with G
        from the scalar quadrature."""
        cfg = replace(net, alpha_m=alpha, alpha_s=alpha)
        for gamma_db in np.linspace(-20.0, 45.0, 27):
            gamma = db_to_linear(gamma_db)
            c1 = (gamma ** (2.0 / alpha)
                  * analytic.g_alpha(alpha, gamma ** (-2.0 / alpha)))
            c2 = (math.pi * cfg.lambda_s * analytic.g_alpha_zero(alpha)
                  * (gamma * cfg.p_s / cfg.p_m) ** (2.0 / alpha)
                  / (math.pi * cfg.lambda_m))
            ref, _ = integrate.quad(
                lambda u: math.exp(-u - c2 * u / (1.0 + c1)) / (1.0 + c1),
                0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
            assert analytic.p_success_mbs(cfg, gamma) == pytest.approx(
                ref, rel=1e-13, abs=0.0)

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
    """The paper's alpha = 4 closed form, the oracle of
    TestSuccessMbs.test_matches_closed_form, at its known limits."""

    def test_single_tier_reference(self, p_success_mbs_closed):
        # negligible small-cell tier: only the arccot(1) = pi/4 penalty
        cfg = NetworkConfig(lambda_s=1e-30)
        expected = 1.0 / (1.0 + math.pi / 4)
        assert p_success_mbs_closed(cfg, 1.0) == pytest.approx(
            expected, rel=1e-9)

    def test_vanishing_threshold(self, net, p_success_mbs_closed):
        assert p_success_mbs_closed(net, 1e-18) == pytest.approx(
            1.0, abs=1e-8)


class TestSuccessSbs:
    @pytest.fixture(autouse=True)
    def _draw(self, position_samples):
        position_samples(50_000)

    def test_vanishing_threshold(self, net):
        assert analytic.p_success_sbs_bl(net, 1e-9, 2) == pytest.approx(
            1.0, abs=1e-3)
        assert analytic.p_success_sbs_el(net, 1e-9, 2) == pytest.approx(
            1.0, abs=1e-3)

    def test_more_cooperating_stations_help(self, net):
        bl = [analytic.p_success_sbs_bl(net, net.gamma_bl, n)
              for n in (1, 2, 4)]
        el = [analytic.p_success_sbs_el(net, net.gamma_el, n)
              for n in (1, 2, 4)]
        assert bl[0] < bl[1] < bl[2]
        assert el[0] < el[1] < el[2]

    def test_monotone_in_threshold(self, net):
        bl = [analytic.p_success_sbs_bl(net, g, 2) for g in GAMMA_GRID]
        assert all(a >= b for a, b in zip(bl, bl[1:]))

    def test_closed_form_agreement(self, net, arccot_cluster_p):
        for gamma in GAMMA_GRID:
            for layer in ("bl", "el"):
                fn = getattr(analytic, f"p_success_sbs_{layer}")
                general = fn(net, gamma, 2)
                special = arccot_cluster_p(net, layer, gamma, 2, 0)
                assert general == pytest.approx(special, rel=1e-3)

    def test_deterministic_given_seed(self, net, position_samples):
        position_samples(10_000)
        a = analytic.p_success_sbs_bl(net, 10.0, 3, seed=5)
        b = analytic.p_success_sbs_bl(net, 10.0, 3, seed=5)
        c = analytic.p_success_sbs_bl(net, 10.0, 3, seed=6)
        assert a == b
        assert a != c

    def test_preconditions(self, net):
        with pytest.raises(ValueError):
            analytic.p_success_sbs_bl(net, 10.0, 0)
        with pytest.raises(ValueError):
            analytic.p_success_sbs_el(net, 0.0, 1)
        # no more serving SBSs than the cluster holds, as in montecarlo
        for fn, n in ((analytic.p_success_sbs_bl, net.n1),
                      (analytic.p_success_sbs_el, net.n2)):
            with pytest.raises(ValueError, match="1..cluster size"):
                fn(net, 10.0, n + 1)


def _reference_exponent(cfg, layer, c):
    """-ln P(SIR_S >= .) as a function of c = t/S: powers of c times G
    from its hypergeometric form, with no sorting, cut or per-sample
    powers of S."""
    inner, outer = (0.0, cfg.a) if layer == "bl" else (cfg.a, cfg.b)
    scale = c ** (-2.0 / cfg.alpha_s)
    sbs = _g_hyp2f1(cfg.alpha_s, outer ** 2 * scale)
    if inner > 0.0:
        sbs = (analytic.g_alpha_zero(cfg.alpha_s)
               - _g_hyp2f1(cfg.alpha_s, inner ** 2 * scale)) + sbs
    sbs_term = cfg.lambda_s * c ** (2.0 / cfg.alpha_s) * sbs
    mbs_term = (cfg.lambda_m * (c * cfg.p_m / cfg.p_s) ** (2.0 / cfg.alpha_m)
                * analytic.g_alpha_zero(cfg.alpha_m))
    return math.pi * (sbs_term + mbs_term)


def _log_p_at_c(cfg, layer, c):
    """The kernel's ln P(SIR_S >= t) at t = c and S = 1."""
    one = np.ones(1)
    return analytic._cluster_log_p(cfg, layer, c, one)[0]


def _underflow_c(cfg, layer):
    """The c = t/S at which _reference_exponent crosses 746, where
    exp(-x) rounds to exactly 0.0, by geometric bisection: the exponent
    is a Laplace exponent, increasing in c."""
    lo, hi = 1e-30, 1e60
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if _reference_exponent(cfg, layer, mid) >= 746.0:
            hi = mid
        else:
            lo = mid
    return hi


class TestAlpha4Kernel:
    """At alpha_s = 4 the kernel merges the EL ring's two arctans into one
    and folds outer^2 into its constants; point by point it must still be
    the hypergeometric reference exponent."""

    # c from the exponent's underflow point (about 3.3e12 at alpha_m = 4,
    # 8.1e10 at alpha_m = 3.5) down by 1e9 and more, and c where
    # u = sqrt(c) / outer^2 runs from 1e-19 to 1e16, where the merged
    # arctan tends to pi/2
    C_GRID = np.concatenate([np.geomspace(1e1, 1e13, 241),
                             [1e-30, 1e-20, 1e30, 1e40]])

    @pytest.mark.parametrize("alpha_m", [4.0, 3.5])
    @pytest.mark.parametrize("layer", ["bl", "el"])
    def test_matches_reference_exponent(self, net, layer, alpha_m):
        net = replace(net, alpha_m=alpha_m)
        for c in self.C_GRID:
            assert -_log_p_at_c(net, layer, c) == pytest.approx(
                _reference_exponent(net, layer, c), rel=1e-13, abs=0.0)


class TestUnderflowCut:
    """p_success_sbs_* on thresholds where the exponent of some, all or
    none of the samples passes 746, so that their exp underflows to 0.0:
    the kernel's mean over the sorted draw must match the mean of
    _reference_exponent over the unsorted draw to 1e-12."""

    N_SAMPLES = 20_000

    @pytest.fixture(autouse=True)
    def _draw(self, position_samples):
        position_samples(self.N_SAMPLES)

    def _t_grid(self, net, layer, n):
        """t from 1e-2 to 1e60, plus t where the underflow point falls
        among the samples."""
        scale = analytic._serving_scale(net, layer, n, self.N_SAMPLES, 0)
        c_max = _underflow_c(net, layer)
        band = c_max * np.quantile(scale, [0.0, 0.01, 0.5, 0.99, 1.0])
        ts = np.concatenate([np.geomspace(1e-2, 1e60, 25), band, 0.999 * band])
        kept = [(scale > t / c_max).sum() for t in ts]
        assert min(kept) == 0 and max(kept) == scale.size
        assert any(0 < k < scale.size for k in kept)
        return ts

    @pytest.mark.parametrize("alphas", [(4.0, 4.0), (3.5, 3.5), (3.0, 3.0),
                                        (3.5, 4.0), (4.0, 3.2)])
    @pytest.mark.parametrize("layer", ["bl", "el"])
    @pytest.mark.parametrize("n", [1, 4])
    def test_matches_reference_expression(self, net, alphas, layer, n):
        """An exponent near 746 carries up to 746 ulp per term, so the
        agreement is to 1e-12, not bit for bit."""
        net = replace(net, alpha_m=alphas[0], alpha_s=alphas[1])
        scale = analytic._serving_scale(net, layer, n, self.N_SAMPLES, 0)
        p_success = getattr(analytic, f"p_success_sbs_{layer}")
        for t in self._t_grid(net, layer, n):
            ref = float(np.exp(-_reference_exponent(net, layer,
                                                    t / scale)).mean())
            assert p_success(net, t, n, seed=0) == pytest.approx(
                ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mixed", [True, False])
    @pytest.mark.parametrize("layer", ["bl", "el"])
    def test_threshold(self, net, layer, mixed):
        """The kernel's exp is exactly 0.0 from _underflow_c up, where
        _t_grid places its band, and not yet at half of it: at
        alpha_m = alpha_s = 4, and at alpha_m = 3.5 != alpha_s = 4 (mixed),
        where the MBS term has its own power of S."""
        if mixed:
            net = replace(net, alpha_m=3.5)
        c_max = _underflow_c(net, layer)
        for c in c_max * np.array([1.0, 1.5, 10.0, 1e6]):
            assert math.exp(_log_p_at_c(net, layer, c)) == 0.0
        # the SBS term moved the crossing below the MBS term's own
        mbs_only = net.p_s / net.p_m * (
            746.0 / (math.pi * net.lambda_m
                     * analytic.g_alpha_zero(net.alpha_m))
        ) ** (net.alpha_m / 2.0)
        assert c_max <= mbs_only
        assert -_log_p_at_c(net, layer, 0.5 * c_max) < 746.0

    @pytest.mark.parametrize("layer", ["bl", "el"])
    def test_overflowing_bound_cuts_nothing(self, net, layer):
        """With an MBS term so small that its own underflow point
        overflows, every sample still goes through the kernel: the rate is
        the kernel's mean over the whole sorted draw, bit for bit, and the
        reference mean to 1e-12."""
        net = replace(net, lambda_m=1e-300)
        with np.errstate(over="ignore"):
            mbs_only = net.p_s / net.p_m * np.float64(
                746.0 / (math.pi * net.lambda_m
                         * analytic.g_alpha_zero(net.alpha_m))
            ) ** (net.alpha_m / 2.0)
        assert not math.isfinite(mbs_only)
        sigma = analytic._cluster_state(net, layer, 2, 0)
        scale = analytic._serving_scale(net, layer, 2, self.N_SAMPLES, 0)
        p_success = getattr(analytic, f"p_success_sbs_{layer}")
        for t in (1e-2, 1.0, 1e6, 1e30):
            full = np.exp(analytic._cluster_log_p(net, layer, t, sigma))
            assert p_success(net, t, 2, seed=0) == \
                float(full.sum()) / sigma.size
            ref = float(np.exp(-_reference_exponent(net, layer,
                                                    t / scale)).mean())
            assert p_success(net, t, 2, seed=0) == pytest.approx(
                ref, rel=1e-12, abs=0.0)


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

    def test_cluster_rate_floor_and_monotone_direct(self, net,
                                                    position_samples):
        position_samples(20_000)
        r1 = analytic.ergodic_rate_sbs_el(net, net.gamma_el, 1)
        r2 = analytic.ergodic_rate_sbs_el(net, net.gamma_el, 2)
        floor = net.w * math.log2(1.0 + net.gamma_el)
        assert floor <= r1 <= r2

    def test_preconditions(self, net):
        with pytest.raises(ValueError):
            analytic.ergodic_rate_mbs(net, 0.0)
        with pytest.raises(ValueError):
            analytic.ergodic_rate_sbs_bl(net, 10.0, 0)
        for fn, n in ((analytic.ergodic_rate_sbs_bl, net.n1),
                      (analytic.ergodic_rate_sbs_el, net.n2)):
            with pytest.raises(ValueError, match="1..cluster size"):
                fn(net, 10.0, n + 1)


class TestRateTable:
    def test_entry_count(self, net, rates):
        assert len(rates.r_s_bl) == net.n1
        assert len(rates.r_s_el) == net.n2
        # 2 nearest-MBS entries + n1 + n2 cooperative entries
        assert 2 + len(rates.r_s_bl) + len(rates.r_s_el) == 10

    def test_deterministic(self, net, position_samples):
        position_samples(5_000)
        a = analytic.build_rate_table(net, seed=3)
        b = analytic.build_rate_table(net, seed=3)
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
    def test_cluster_rate_against_direct_quadrature(self, net, layer,
                                                    position_samples):
        """The rate's log-substituted Gauss-Legendre segments against
        scipy quadrature of the same p_success over the same positions."""
        position_samples(2_000)
        gamma = getattr(net, f"gamma_{layer}")
        p_success = getattr(analytic, f"p_success_sbs_{layer}")
        rate = getattr(analytic, f"ergodic_rate_sbs_{layer}")
        expected = _direct_rate(net, gamma,
                                lambda t: p_success(net, t, 2, seed=1))
        assert rate(net, gamma, 2, seed=1) == pytest.approx(expected, rel=1e-6)


def _legendre_tail_rate(cfg, gamma, p_at):
    """The tail rate on _tail_rate's width-4 segments and truncation rule,
    each segment under one fixed 160-node Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(160)
    total = 0.0
    for k in range(40):
        t = gamma * np.exp(4.0 * k + 2.0 * (x + 1.0))
        seg = 2.0 * float(w @ (np.array([p_at(tk) for tk in t])
                               * t / (1.0 + t)))
        total += seg
        if seg < analytic._TAIL_REL * max(total, 1e-300):
            break
    else:
        raise AssertionError("oracle did not truncate")
    return (cfg.w * math.log2(1.0 + gamma)
            + cfg.w / math.log(2.0) * total / p_at(gamma))


_TAIL_SCENARIOS = {
    "default": (NetworkConfig(), None),
    "alpha-2.2": (NetworkConfig(alpha_m=2.2, alpha_s=2.2), None),
    "alpha-4-6": (NetworkConfig(alpha_s=6.0), None),
    "45dB": (NetworkConfig(), db_to_linear(45.0)),
}


def _one_node(p_at):
    """A scalar t -> P(SIR >= t) as the tail routine's integrand of one
    node."""
    return lambda t, idx: np.array([[p_at(tk)] for tk in t])


class TestTailRule:
    """The 21-point Gauss-Kronrod rule and its embedded 10-point Gauss rule
    behind _tail_integral."""

    def test_embedded_gauss_rule_is_leggauss_10(self):
        x, w = np.polynomial.legendre.leggauss(10)
        g = analytic._GK_X[1::2]
        np.testing.assert_allclose(np.concatenate((-g, g[::-1])), x,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            np.concatenate((analytic._GK_WG, analytic._GK_WG[::-1])), w,
            rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", range(32))
    def test_kronrod_rule_exact_to_degree_31(self, d):
        """int_0^1 x^d dx = 1/(d+1), with the rule mapped to [0, 1] so the
        odd degrees are not zero by symmetry."""
        x = np.concatenate((-analytic._GK_X, analytic._GK_X[-2::-1]))
        w = np.concatenate((analytic._GK_WK, analytic._GK_WK[-2::-1]))
        assert 0.5 * w @ (0.5 * (x + 1.0)) ** d == pytest.approx(
            1.0 / (d + 1), rel=2e-15)

    @pytest.mark.parametrize("layer", ["mbs", "bl", "el"])
    @pytest.mark.parametrize("scenario", list(_TAIL_SCENARIOS))
    def test_matches_160_node_legendre_oracle(self, scenario, layer,
                                              position_samples, kernel_mean_p):
        """Same segments, same truncation, same p_at: the rates differ only
        by quadrature error.  The EL tails at alpha = 2.2 and at 45 dB need
        bisection; a fixed 40-node Gauss-Legendre rule per segment is
        2.7e-12 and 1.6e-10 off there."""
        cfg, gamma = _TAIL_SCENARIOS[scenario]
        gamma = gamma or (cfg.gamma_el if layer == "el" else cfg.gamma_bl)
        if layer == "mbs":
            p_at = functools.partial(analytic.p_success_mbs, cfg)
        else:
            position_samples(2_000)
            p_at = kernel_mean_p(cfg, layer, 1, 0)
        tail = analytic._tail_integral(gamma, _one_node(p_at), 1)
        assert tail.shape == (1,)
        assert analytic._conditioned_rate(
            cfg, gamma, p_at(gamma), lambda: tail[0]) == pytest.approx(
                _legendre_tail_rate(cfg, gamma, p_at), rel=1e-13)

    def test_nan_integrand_raises_at_once(self, net):
        """A NaN at one of three nodes ends the integral in the first
        piece."""
        calls = []

        def p_at(t, idx):
            calls.extend(t)
            p = np.ones((t.size, idx.size))
            p[3, idx == 1] = math.nan
            return p

        with pytest.raises(analytic.QuadratureError, match="not finite"):
            analytic._tail_integral(net.gamma_bl, p_at, 3)
        assert len(calls) == 21          # one piece

    def test_bisection_cap_raises(self, net):
        """A noisy integrand never meets the piece tolerance: the segment
        stops after _MAX_BISECTIONS bisections of each node."""
        rng = np.random.default_rng(0)
        calls = []

        def p_at(t, idx):
            calls.extend(t)
            return rng.random((t.size, idx.size))

        with pytest.raises(analytic.QuadratureError, match="bisections"):
            analytic._tail_integral(net.gamma_bl, p_at, 2)
        assert len(calls) == 21 * (analytic._MAX_BISECTIONS + 1)

    def test_no_truncation_raises(self, net, monkeypatch):
        """With a truncation threshold of 0 no segment is small enough to
        end the integral, which stops after its 40 segments."""
        monkeypatch.setattr(analytic, "_TAIL_REL", 0.0)
        with pytest.raises(analytic.QuadratureError, match="did not truncate"):
            analytic.ergodic_rate_mbs(net, net.gamma_bl)


class TestQuadratureMisses:
    """Each adaptive quadrature raises QuadratureError when scipy reports
    an error above its tolerance."""

    @pytest.fixture
    def sloppy_quad(self, monkeypatch):
        quad = integrate.quad

        def sloppy(*args, **kwargs):
            return quad(*args, **kwargs)[0], 1.0

        monkeypatch.setattr(integrate, "quad", sloppy)

    @pytest.mark.parametrize("x", [0.5, 2.0], ids=["head", "inverted"])
    def test_g_alpha(self, sloppy_quad, x):
        with pytest.raises(analytic.QuadratureError, match="G_alpha"):
            analytic.g_alpha(3.5, x)

    def test_mixed_alpha_radial_integral(self, sloppy_quad, net):
        with pytest.raises(analytic.QuadratureError, match="radial"):
            analytic.p_success_mbs(replace(net, alpha_m=3.5), net.gamma_bl)


_SWAP_SCENARIOS = {
    **_TAIL_SCENARIOS,
    "alpha-3.5": (NetworkConfig(alpha_m=3.5, alpha_s=3.5), None),
    "alpha-3.5-4": (NetworkConfig(alpha_m=3.5), None),
}


def _threshold(scenario, layer):
    cfg, gamma = _SWAP_SCENARIOS[scenario]
    return cfg, gamma or (cfg.gamma_el if layer == "el" else cfg.gamma_bl)


class TestSwappedRate:
    """A cluster rate is E[phi(gamma) Psi] / E[phi(gamma)] over the draw,
    Psi interpolated from a table of tail integrals; the position average
    inside the tail integral is its oracle."""

    @pytest.fixture(autouse=True)
    def _draw(self, position_samples):
        position_samples(2_000)

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("layer", ["bl", "el"])
    @pytest.mark.parametrize("scenario", list(_SWAP_SCENARIOS))
    def test_matches_averaged_rate(self, scenario, layer, n,
                                   averaged_cluster_rate):
        cfg, gamma = _threshold(scenario, layer)
        rate = getattr(analytic, f"ergodic_rate_sbs_{layer}")
        assert rate(cfg, gamma, n, seed=0) == pytest.approx(
            averaged_cluster_rate(cfg, layer, gamma, n, 0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("layer", ["bl", "el"])
    @pytest.mark.parametrize("scenario", list(_SWAP_SCENARIOS))
    def test_interpolant_matches_nodewise_tail(self, scenario, layer):
        """At each piece's midpoint and edges, and at the smallest and
        largest sigma of the draws at n = 1 and 4.  A node's integrand
        exp(ln phi(t) - ln phi(gamma)) carries about |ln phi(gamma)| ulp,
        so the tolerance grows past |ln phi(gamma)| = 100 (at 45 dB the
        EL table reaches 726)."""
        cfg, gamma = _threshold(scenario, layer)
        top, width = analytic._psi_top(cfg, layer), analytic._PSI_WIDTH
        extremes = np.log([analytic._cluster_state(cfg, layer, n, 0)[i]
                           for n in (1, 4) for i in (0, -1)])
        table = analytic._psi_table(
            cfg, layer, gamma, 0,
            math.floor((top - extremes.min()) / width) + 1)
        j = np.arange(len(table))
        x = np.concatenate([top - (j[:, None] + np.array([0.0, 0.5, 1.0]))
                            * width, extremes[:, None]], axis=None)
        piece = np.minimum(((top - x) // width).astype(int), j[-1])
        u = 2.0 * (x - (top - (piece + 0.5) * width)) / width
        assert np.all(np.abs(u) <= 1.0 + 1e-12)
        got = np.array([analytic._clenshaw(table[k], np.array([uk]))[0]
                        for k, uk in zip(piece, u)])
        want = analytic._psi_at(cfg, layer, gamma, x)
        log_p_gamma = analytic._cluster_log_p(cfg, layer, gamma, np.exp(x))
        assert np.all(np.abs(got - want) <= 1e-13 * want
                      * np.maximum(1.0, -log_p_gamma / 100.0))

    def test_piece_does_not_depend_on_its_batch(self, net):
        """Pieces built one call at a time, or grown from a shorter table,
        equal those of one call bit for bit."""
        def table(*counts):
            analytic._PSI.clear()
            for pieces in counts:
                got = analytic._psi_table(net, "bl", net.gamma_bl, 0, pieces)
            return np.array(got)

        whole = table(12)
        assert np.array_equal(table(3, 4, 12), whole)
        assert np.array_equal(table(*range(1, 13)), whole)

    def test_table_does_not_depend_on_history(self, net, position_samples):
        """A rate table at seed 3 built after one at seed 0 equals a table
        at seed 3 built in a fresh process state."""
        position_samples(5_000)
        analytic.build_rate_table(net, seed=0)
        after = analytic.build_rate_table(net, seed=3)
        position_samples(5_000)     # fresh draw and Psi caches
        assert after == analytic.build_rate_table(net, seed=3)


def _allocating_clenshaw(coef, u):
    """Clenshaw's recurrence with one new array per operation."""
    u2 = 2.0 * u
    b1, b2 = np.full_like(u, coef[-1]), np.zeros_like(u)
    for c in coef[-2:0:-1]:
        b1, b2 = u2 * b1 - b2 + c, b1
    return u * b1 - b2 + coef[0]


class TestClenshaw:
    @pytest.mark.parametrize("size", [1, 7, 8192])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_as_allocating_recurrence(self, size, seed):
        """The in-place recurrence gives the allocating one's bits, for
        16 coefficients over ten decades and u over [-1, 1] with its
        edges; the input is left as it is."""
        rng = np.random.default_rng(seed)
        coef = (rng.standard_normal(analytic._PSI_NODES)
                * 10.0 ** rng.uniform(-5.0, 5.0, analytic._PSI_NODES))
        u = rng.uniform(-1.0, 1.0, size)
        u[:2] = (-1.0, 1.0)[:size]
        before = u.copy()
        assert np.array_equal(analytic._clenshaw(coef, u),
                              _allocating_clenshaw(coef, u))
        assert np.array_equal(u, before)


def _psi_blocks(monkeypatch, cfg, layer, n, seed):
    """(sigma, pieces, blocks) of _psi_mean over the layer's (n, seed)
    draw at its threshold, from a fresh Psi table: the ascending draw, the
    table's piece count, and (j, ln sigma) of each block handed to
    _clenshaw, j the piece it is evaluated on and ln sigma recovered from
    the block's u."""
    monkeypatch.setattr(analytic, "_PSI", {})
    sigma = analytic._cluster_state(cfg, layer, n, seed)
    gamma = cfg.gamma_bl if layer == "bl" else cfg.gamma_el
    top, width = analytic._psi_top(cfg, layer), analytic._PSI_WIDTH
    clenshaw, blocks = analytic._clenshaw, []

    def recording(coef, u):
        j = next(k for k, c in enumerate(analytic._PSI[layer][1])
                 if c is coef)
        blocks.append((j, top - (j + 0.5) * width + 0.5 * width * u))
        return clenshaw(coef, u)

    with monkeypatch.context() as m:
        m.setattr(analytic, "_clenshaw", recording)
        analytic._psi_mean(cfg, layer, gamma, seed, sigma,
                           np.ones(sigma.size))
    return sigma, len(analytic._PSI[layer][1]), blocks


@pytest.mark.parametrize("seed", [0, 11])
def test_full_draws_lie_inside_psi_table(net, seed, monkeypatch):
    """Every sample of the POSITION_SAMPLES draws at n = 1..4 is evaluated
    once, on a piece of the Psi table whose interval holds it: nothing is
    extrapolated."""
    width = analytic._PSI_WIDTH
    for layer, n in itertools.product(("bl", "el"), range(1, 5)):
        sigma, _, blocks = _psi_blocks(monkeypatch, net, layer, n, seed)
        assert sigma.size == analytic.POSITION_SAMPLES == 200_000
        assert np.all(np.diff(sigma) >= 0.0)
        top = analytic._psi_top(net, layer)
        for j, x in blocks:
            assert np.all(x <= top - j * width + 1e-12)
            assert np.all(x >= top - (j + 1) * width - 1e-12)
        x = np.sort(np.concatenate([x for _, x in blocks]))
        assert x.shape == sigma.shape
        assert np.all(np.abs(x - np.log(sigma)) <= 1e-12)


def test_psi_runs_match_the_scale_search(net, position_samples, monkeypatch):
    """The runs that one searchsorted over the ascending sigma gives each
    piece are those that the ascending draw S = sigma^(-alpha_s/2) gives by
    np.searchsorted at exp(alpha_s/2 ((j+1) w - top)), at seeds 0 and 11,
    for every n; the table ends at the piece that holds the smallest
    sigma."""
    position_samples(20_000)
    for layer, n, seed in itertools.product(("bl", "el"), range(1, 5),
                                            (0, 11)):
        _, pieces, blocks = _psi_blocks(monkeypatch, net, layer, n, seed)
        s = np.sort(analytic._serving_scale(net, layer, n, 20_000, seed))
        top = analytic._psi_top(net, layer)
        stops = np.searchsorted(s, np.exp(0.5 * net.alpha_s * (
            (np.arange(pieces) + 1) * analytic._PSI_WIDTH - top)))
        assert stops[-1] == s.size and (pieces == 1 or stops[-2] < s.size)
        sizes = np.zeros(pieces, dtype=int)
        for j, x in blocks:
            sizes[j] += x.size
        assert sizes.tolist() == np.diff(stops, prepend=0).tolist()


_PUBLIC = ("p_success_mbs", "ergodic_rate_mbs", "p_success_sbs_bl",
           "p_success_sbs_el", "ergodic_rate_sbs_bl", "ergodic_rate_sbs_el")


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", _PUBLIC)
def test_threshold_must_be_finite_and_positive(net, name, gamma):
    args = () if name.endswith("mbs") else (1,)
    with pytest.raises(ValueError, match="finite and > 0"):
        getattr(analytic, name)(net, gamma, *args)
