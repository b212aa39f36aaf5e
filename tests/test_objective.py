"""Sum rates, l0 smoothing, EE objective and its closed-form gradient,
checked against a finite-difference oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from svcache.analytic import RateTable
from svcache.config import (CachingPolicy, ContentConfig, NetworkConfig,
                            PowerCoefficients)
from svcache.objective import (ObjectiveContext, _ee, _file_terms, ee_gradient,
                               ee_value)
from svcache.popularity import PopularityProfile, build_profile
from svcache.power import _smooth_or_l0, _surrogate


def _policy(mode, q1, q2):
    return CachingPolicy(mode=mode, q1=tuple(q1), q2=tuple(q2))


def _rate(mode, q1, q2, ctx):
    """Sum rate of the (F,) blocks q1, q2 under the scheme of mode."""
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    return _file_terms(mode, q1, q2, ctx, None)[0].sum(axis=-1)


def _shifted_ee(policy, ctx, which, values):
    """EE with coordinate f of one block set to values[j][f], for each j
    and f: row f of the j-th slab of one stacked _ee evaluation."""
    blocks = [np.asarray(policy.q1, dtype=float),
              np.asarray(policy.q2, dtype=float)]
    block = int(which[1]) - 1
    f_count = len(blocks[block])
    rows = np.tile(blocks[block], (len(values), f_count, 1))
    diag = np.arange(f_count)
    rows[:, diag, diag] = values
    blocks[block] = rows.reshape(-1, f_count)
    return _ee(policy.mode, *blocks, ctx).reshape(len(values), f_count)


def _fd_gradient(policy, ctx, which, step=1e-6):
    """Finite-difference oracle of ee_gradient: each coordinate moved up
    and down by step, clipped to [0, 1] (central in the interior,
    one-sided at the box boundary)."""
    base = np.asarray(getattr(policy, which), dtype=float)
    hi = np.minimum(base + step, 1.0)
    lo = np.maximum(base - step, 0.0)
    ee_hi, ee_lo = _shifted_ee(policy, ctx, which, (hi, lo))
    return (ee_hi - ee_lo) / (hi - lo)


def _one_sided_gradient(policy, ctx, which, step=1e-6):
    """Second-order one-sided difference (-3 f0 + 4 f1 - f2) / (2h) of
    the EE in each coordinate of one block, stepping into [0, 1]: up from
    a coordinate below 1/2, down from one above."""
    base = np.asarray(getattr(policy, which), dtype=float)
    h = np.where(base < 0.5, step, -step)
    f1, f2 = _shifted_ee(policy, ctx, which, (base + h, base + 2.0 * h))
    return (-3.0 * ee_value(policy, ctx) + 4.0 * f1 - f2) / (2.0 * h)


class TestSmoothL0:
    def test_endpoints(self):
        for theta in (1e-4, 0.01, 0.5):
            assert _smooth_or_l0(0.0, _surrogate(theta)) == 0.0
            assert _smooth_or_l0(1.0, _surrogate(theta)) == pytest.approx(
                1.0, rel=1e-15)

    def test_reference_value(self):
        assert _smooth_or_l0(0.5, _surrogate(0.01)) == pytest.approx(
            math.log(51.0) / math.log(101.0), rel=1e-12)
        assert _smooth_or_l0(0.5, _surrogate(0.01)) == pytest.approx(
            0.851944, abs=5e-6)

    @given(st.floats(min_value=0.001, max_value=0.999),
           st.floats(min_value=1e-4, max_value=1.0))
    def test_increasing_and_concave(self, x, theta):
        h = 1e-4 * min(x, 1.0 - x)
        lo, mid, hi = (_smooth_or_l0(v, _surrogate(theta))
                       for v in (x - h, x, x + h))
        assert lo < mid < hi                 # increasing
        assert mid >= (lo + hi) / 2.0        # midpoint above the chord


class TestSumRateScheme1:
    def test_mbs_only_extreme(self, ctx):
        f = ctx.content.f_count
        expected = sum(p * (ctx.rates.r_m_bl + h * ctx.rates.r_m_el)
                       for p, h in zip(ctx.profile.p, ctx.profile.g_hdv))
        assert _rate("fractional", [0.0] * f, [0.0] * f, ctx) == \
            pytest.approx(expected, rel=1e-12)

    def test_cache_everything_extreme(self, ctx):
        f = ctx.content.f_count
        r_bl = ctx.rates.r_s_bl[ctx.net.n1]
        r_el = ctx.rates.r_s_el[ctx.net.n2]
        expected = sum(p * (r_bl + h * r_el)
                       for p, h in zip(ctx.profile.p, ctx.profile.g_hdv))
        assert _rate("fractional", [1.0] * f, [1.0] * f, ctx) == \
            pytest.approx(expected, rel=1e-12)

    def test_affine_in_policy(self, ctx):
        f = ctx.content.f_count
        rng = np.random.default_rng(3)
        a1, a2 = rng.random(f), rng.random(f)
        b1, b2 = rng.random(f), rng.random(f)
        for lam in (0.25, 0.5, 0.8):
            blend = _rate("fractional", lam * a1 + (1 - lam) * b1,
                                     lam * a2 + (1 - lam) * b2, ctx)
            direct = (lam * _rate("fractional", a1, a2, ctx)
                      + (1 - lam) * _rate("fractional", b1, b2, ctx))
            assert blend == pytest.approx(direct, rel=1e-9)

    def test_uniform_policy_is_convex_combination(self, ctx):
        f = ctx.content.f_count
        u1, u2 = ctx.content.m_b / f, ctx.content.m_e / f
        zeros, ones = [0.0] * f, [1.0] * f
        mixed = _rate("fractional", [u1] * f, [u2] * f, ctx)
        # each layer interpolates independently between its extremes
        bl_part = (u1 * _rate("fractional", ones, zeros, ctx)
                   + (1 - u1) * _rate("fractional", zeros, zeros, ctx))
        el_shift = u2 * (_rate("fractional", zeros, ones, ctx)
                         - _rate("fractional", zeros, zeros, ctx))
        assert mixed == pytest.approx(bl_part + el_shift, rel=1e-9)

    def test_length_mismatch(self, ctx):
        with pytest.raises(ValueError):
            _rate("fractional", [0.5], [0.5], ctx)


class TestSumRateScheme2:
    def test_no_caching_matches_scheme1(self, ctx):
        f = ctx.content.f_count
        zeros = [0.0] * f
        assert _rate("random", zeros, zeros, ctx) == pytest.approx(
            _rate("fractional", zeros, zeros, ctx), rel=1e-12)

    def test_certain_caching_degenerates(self, ctx):
        f = ctx.content.f_count
        ones = [1.0] * f
        assert _rate("random", ones, ones, ctx) == pytest.approx(
            _rate("fractional", ones, ones, ctx), rel=1e-12)

    def test_binary_policies_match_scheme1(self, ctx):
        f = ctx.content.f_count
        t1 = [1.0] * 5 + [0.0] * (f - 5)
        t2 = [1.0] * 2 + [0.0] * (f - 2)
        assert _rate("random", t1, t2, ctx) == pytest.approx(
            _rate("fractional", t1, t2, ctx), rel=1e-12)

    @given(st.integers(min_value=0, max_value=16),
           st.floats(min_value=0.0, max_value=1.0))
    @example(n=4, t=0.0)
    @example(n=4, t=1.0)
    @example(n=0, t=0.3)
    def test_binomial_partition_of_unity(self, serving_pmf, serving_pmf_slope,
                                         n, t):
        """Both schemes' serving-count distributions sum to one; certain
        caching, and a cluster of size 0, are exact point masses.  Their
        derivatives in q sum to zero and match a central difference.  The
        dense formulation of conftest is the oracle that
        TestBlockCore checks the block core against."""
        h = 1e-6
        for mode in ("fractional", "random"):
            pmf = serving_pmf(mode, n, np.array([t]))
            assert pmf.shape == (n + 1, 1)
            assert abs(pmf.sum() - 1.0) <= 1e-12
            if t in (0.0, 1.0) or n == 0:
                assert np.array_equal(pmf[:, 0], np.eye(n + 1)[int(t) * n])
            if mode == "fractional":
                assert not pmf[1:n].any()        # all SBSs or none
            slope = serving_pmf_slope(mode, n, np.array([t]))
            assert slope.shape == pmf.shape
            assert abs(slope.sum()) <= 1e-12 * max(n, 1)
            central = (serving_pmf(mode, n, np.array([t + h]))
                       - serving_pmf(mode, n, np.array([t - h]))) / (2 * h)
            assert np.abs(slope - central).max() <= 1e-6

    def test_mixture_weights_at_reference_point(self, serving_pmf):
        pmf = serving_pmf("random", 4, np.array([0.3]))[:, 0]
        assert pmf[0] == pytest.approx(0.7 ** 4, rel=1e-12)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


class TestEeValue:
    def test_no_caching_equal_across_schemes(self, ctx):
        f = ctx.content.f_count
        zeros = (0.0,) * f
        ee1 = ee_value(_policy("fractional", zeros, zeros), ctx)
        ee2 = ee_value(_policy("random", zeros, zeros), ctx)
        assert ee1 == pytest.approx(ee2, rel=1e-12)

    def test_bandwidth_homogeneity(self, ctx):
        k = 3.0
        scaled_rates = RateTable(
            r_m_bl=k * ctx.rates.r_m_bl, r_m_el=k * ctx.rates.r_m_el,
            r_s_bl={n: k * r for n, r in ctx.rates.r_s_bl.items()},
            r_s_el={n: k * r for n, r in ctx.rates.r_s_el.items()})
        scaled = replace(ctx, rates=scaled_rates,
                         net=replace(ctx.net, w=k * ctx.net.w))
        f = ctx.content.f_count
        pol = _policy("fractional", (0.25,) * f, (0.1,) * f)
        assert ee_value(pol, scaled) == pytest.approx(k * ee_value(pol, ctx),
                                                      rel=1e-12)

    def test_composes_rate_and_power_oracles(self, ctx):
        from svcache.baselines import mpcp_policy
        from svcache.power import power_scheme1
        pol = mpcp_policy(ctx.content)
        pb = power_scheme1(pol, ctx.profile, ctx.net, ctx.content, ctx.coeff)
        expected = (_rate("fractional", pol.q1, pol.q2, ctx)
                    / (pb.p_tr + pb.p_ca + pb.p_bh + pb.p_fix))
        assert ee_value(pol, ctx, exact_l0=True) == pytest.approx(expected,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("layer", ["r_s_bl", "r_s_el"])
    def test_incomplete_rate_table_rejected(self, ctx, layer):
        short = replace(ctx.rates, **{layer: {1: getattr(ctx.rates, layer)[1]}})
        with pytest.raises(ValueError, match="rate table incomplete"):
            replace(ctx, rates=short)

    def test_positive(self, ctx):
        f = ctx.content.f_count
        pol = _policy("random", (0.2,) * f, (0.1,) * f)
        assert ee_value(pol, ctx) > 0.0

    @pytest.mark.parametrize("empty", ["n1", "n2"])
    @pytest.mark.parametrize("mode", ["fractional", "random"])
    def test_empty_cluster_served_by_mbs(self, ctx, empty, mode):
        net = replace(ctx.net, **{empty: 0})
        rates = RateTable(
            r_m_bl=ctx.rates.r_m_bl, r_m_el=ctx.rates.r_m_el,
            r_s_bl={n: ctx.rates.r_s_bl[n] for n in range(1, net.n1 + 1)},
            r_s_el={n: ctx.rates.r_s_el[n] for n in range(1, net.n2 + 1)})
        empty_ctx = replace(ctx, net=net, rates=rates)
        f = ctx.content.f_count
        pol = _policy(mode, (0.25,) * f, (0.1,) * f)
        ee = ee_value(pol, empty_ctx)
        assert math.isfinite(ee) and ee > 0.0
        # with no serving SBS the cached fractions change neither the rate
        # nor the power, so neither the EE
        no_cache = (0.0,) * f
        q = (pol.q1, no_cache) if empty == "n1" else (no_cache, pol.q2)
        assert _rate(mode, *q, empty_ctx) == pytest.approx(
            _rate(mode, no_cache, no_cache, empty_ctx), rel=1e-12)
        for exact_l0 in (False, True):
            assert ee_value(_policy(mode, *q), empty_ctx, exact_l0) == \
                pytest.approx(ee_value(_policy(mode, no_cache, no_cache),
                                       empty_ctx, exact_l0), rel=1e-12)

    def test_theta_validation(self, ctx):
        # 1e300: log(1/theta + 1) rounds to 0; 1e-320: 1/theta overflows
        for theta in (0.0, math.nan, math.inf, 1e300, 1e-320):
            with pytest.raises(ValueError, match="theta must be finite"):
                replace(ctx, theta=theta)


def _flat_context(rates, rate_value=1e7):
    """Context whose objective is policy-independent: equal rates, zero
    marginal power (only the fixed term survives)."""
    net = NetworkConfig()
    content = ContentConfig()
    coeff = PowerCoefficients(c_ca=0.0, c_bh=0.0, zeta_s=0.0, zeta_m=0.0)
    flat = RateTable(r_m_bl=rate_value, r_m_el=rate_value,
                     r_s_bl={n: rate_value for n in range(1, net.n1 + 1)},
                     r_s_el={n: rate_value for n in range(1, net.n2 + 1)})
    return ObjectiveContext(rates=flat, profile=build_profile(content),
                            net=net, content=content, coeff=coeff)


class TestEeGradient:
    def test_constant_objective_zero_gradient(self, rates):
        ctx = _flat_context(rates)
        f = ctx.content.f_count
        pol = _policy("fractional", (0.25,) * f, (0.1,) * f)
        scale = ee_value(pol, ctx)
        for which in ("q1", "q2"):
            grad = ee_gradient(pol, ctx, which)
            assert np.abs(grad).max() <= 1e-8 * scale

    def test_popularity_orders_gradient(self, ctx):
        f = ctx.content.f_count
        pol = _policy("random", (0.25,) * f, (0.1,) * f)
        grad = ee_gradient(pol, ctx, "q1")
        # identical rates and uniform fractions: only popularity (and the
        # monotone quality preference) differentiates files, so the BL
        # gradient must decay with file index
        assert np.all(np.diff(grad) < 0)

    def test_step_halving_consistency(self, ctx):
        rng = np.random.default_rng(5)
        f = ctx.content.f_count
        pol = _policy("random", 0.1 + 0.8 * rng.random(f),
                      0.1 + 0.8 * rng.random(f))
        g_coarse = _fd_gradient(pol, ctx, "q1", step=1e-6)
        g_fine = _fd_gradient(pol, ctx, "q2", step=1e-7)
        g_coarse2 = _fd_gradient(pol, ctx, "q2", step=1e-6)
        scale = np.abs(g_coarse2).max()
        mask = np.abs(g_coarse2) > 1e-3 * scale
        rel = np.abs(g_fine[mask] - g_coarse2[mask]) / np.abs(g_coarse2[mask])
        assert rel.max() <= 1e-4
        assert np.all(np.isfinite(g_coarse))

    def test_one_sided_at_bounds(self, ctx):
        f = ctx.content.f_count
        pol = _policy("random", (0.0,) * 5 + (1.0,) * 5 + (0.5,) * (f - 10),
                      (0.1,) * f)
        grad = ee_gradient(pol, ctx, "q1")
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("mode", ["fractional", "random"])
    @pytest.mark.parametrize("point", ["interior", "bounds"])
    def test_matches_per_coordinate_reference(self, ctx, mode, point):
        """The stacked oracle reproduces the per-coordinate central or
        one-sided difference of the public ee_value."""
        f = ctx.content.f_count
        rng = np.random.default_rng(7)
        q1, q2 = 0.1 + 0.8 * rng.random(f), 0.1 + 0.8 * rng.random(f)
        if point == "bounds":
            q1[:3], q1[3:6], q2[:2], q2[2:4] = 0.0, 1.0, 1.0, 0.0
        pol = _policy(mode, q1, q2)
        for which in ("q1", "q2"):
            base = np.asarray(getattr(pol, which))
            want = np.empty(f)
            for i in range(f):
                hi, lo = min(base[i] + 1e-6, 1.0), max(base[i] - 1e-6, 0.0)
                ends = []
                for x in (hi, lo):
                    vec = base.copy()
                    vec[i] = x
                    ends.append(ee_value(replace(pol, **{which: tuple(vec)}),
                                         ctx))
                want[i] = (ends[0] - ends[1]) / (hi - lo)
            got = _fd_gradient(pol, ctx, which)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["fractional", "random"])
    def test_closed_form_matches_oracle_inside(self, ctx, mode):
        f = ctx.content.f_count
        rng = np.random.default_rng(13)
        for _ in range(20):
            pol = _policy(mode, 0.1 + 0.8 * rng.random(f),
                          0.1 + 0.8 * rng.random(f))
            for which in ("q1", "q2"):
                got = ee_gradient(pol, ctx, which)
                want = _fd_gradient(pol, ctx, which)
                assert np.abs(got - want).max() <= 1e-6 * np.abs(got).max()

    @pytest.mark.parametrize("mode", ["fractional", "random"])
    def test_closed_form_matches_one_sided_at_bounds(self, ctx, mode):
        """At 0/1 coordinates the central difference is clipped to a
        first-order one; the second-order one-sided difference is not."""
        f = ctx.content.f_count
        rng = np.random.default_rng(17)
        for _ in range(20):
            q1, q2 = 0.1 + 0.8 * rng.random(f), 0.1 + 0.8 * rng.random(f)
            q1[:3], q1[3:6], q2[:2], q2[2:4] = 0.0, 1.0, 1.0, 0.0
            pol = _policy(mode, q1, q2)
            for which, bound in (("q1", slice(0, 6)), ("q2", slice(0, 4))):
                got = ee_gradient(pol, ctx, which)
                want = _one_sided_gradient(pol, ctx, which)
                assert np.abs(got[bound] - want[bound]).max() <= \
                    1e-6 * np.abs(got).max()

    @pytest.mark.parametrize("empty", ["n1", "n2"])
    @pytest.mark.parametrize("mode", ["fractional", "random"])
    def test_empty_cluster_block_gradient_is_zero(self, ctx, empty, mode):
        net = replace(ctx.net, **{empty: 0})
        empty_ctx = replace(ctx, net=net)
        f = ctx.content.f_count
        rng = np.random.default_rng(19)
        pol = _policy(mode, rng.random(f), rng.random(f))
        which = "q1" if empty == "n1" else "q2"
        assert np.all(ee_gradient(pol, empty_ctx, which) == 0.0)
        other = "q2" if empty == "n1" else "q1"
        assert np.any(ee_gradient(pol, empty_ctx, other) != 0.0)

    def test_invalid_block(self, ctx):
        f = ctx.content.f_count
        pol = _policy("random", (0.5,) * f, (0.5,) * f)
        with pytest.raises(ValueError):
            ee_gradient(pol, ctx, "q3")


class TestBlockCore:
    """The block core, with its constants built once per context, against
    conftest's dense formulation (full D and D' matrices, every constant
    rebuilt per call): the power rows and slopes bit for bit, the rate
    rows and slopes to 1e-14 of their largest entry."""

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("mode", ["fractional", "random"])
    @pytest.mark.parametrize("batch", [None, 3], ids=["row", "stack"])
    def test_matches_dense_formulation(self, ctx, dense_file_terms, n, mode,
                                       batch):
        # n1 = n and n2 = 4 - n (2 at n = 0): both blocks take every size
        net = replace(ctx.net, n1=n, n2=4 - n if n else 2)
        sized = replace(ctx, net=net)
        f = ctx.content.f_count
        rng = np.random.default_rng(n)
        shape = (f,) if batch is None else (batch, f)
        q1, q2 = rng.random(shape), rng.random(shape)
        q1[..., :2], q2[..., 2:4] = 0.0, 1.0
        for exact_l0 in (False, True):
            theta = None if exact_l0 else ctx.theta
            slopes = not exact_l0
            got = _file_terms(mode, q1, q2, sized,
                              None if exact_l0 else sized._smoothing, slopes)
            want = dense_file_terms(mode, q1, q2, sized, theta, slopes)
            assert np.array_equal(got[1], want[1])                # P
            _assert_rows_close(got[0], want[0])                  # R
            if slopes:
                for r_got, r_want in zip(got[3], want[2]):       # R1', R2'
                    _assert_rows_close(np.broadcast_to(r_got, shape), r_want)
                for p_got, p_want in zip(got[4], want[3]):       # P1', P2'
                    assert np.array_equal(p_got, p_want)


def _assert_rows_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestRelabelingInvariance:
    def test_ee_invariant_for_exchangeable_files(self, rates):
        """Files with identical popularity and quality preference can be
        permuted together with the policy without changing the EE."""
        f = 6
        profile = PopularityProfile(p=(1.0 / f,) * f, g_hdv=(0.5,) * f)
        net = NetworkConfig()
        content = ContentConfig(f_count=f)
        ctx = ObjectiveContext(rates=rates, profile=profile, net=net,
                               content=content,
                               coeff=PowerCoefficients())
        rng = np.random.default_rng(11)
        q1, q2 = rng.random(f), rng.random(f)
        perm = rng.permutation(f)
        a = ee_value(_policy("fractional", q1, q2), ctx)
        b = ee_value(_policy("fractional", q1[perm], q2[perm]), ctx)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("mode", ["fractional", "random"])
    def test_layer_exchange(self, ctx, mode):
        """With g_hdv = 1 the BL and EL blocks differ only in their
        constants (n, l, rates), so exchanging those together with q1 and
        q2 keeps the EE and trades the two gradient blocks."""
        r, f = ctx.rates, ctx.content.f_count
        profile = replace(ctx.profile, g_hdv=(1.0,) * f)
        base = replace(ctx, profile=profile, net=replace(ctx.net, n1=3))
        swapped = replace(
            base, net=replace(base.net, n1=base.net.n2, n2=base.net.n1),
            content=replace(base.content, l_b=base.content.l_e,
                            l_e=base.content.l_b),
            rates=RateTable(r_m_bl=r.r_m_el, r_m_el=r.r_m_bl,
                            r_s_bl=r.r_s_el, r_s_el=r.r_s_bl))
        rng = np.random.default_rng(29)
        for _ in range(20):
            q1, q2 = rng.random(f), rng.random(f)
            pol, exchanged = _policy(mode, q1, q2), _policy(mode, q2, q1)
            exact = (False, True) if mode == "fractional" else (False,)
            for exact_l0 in exact:
                a = ee_value(pol, base, exact_l0)
                assert abs(ee_value(exchanged, swapped, exact_l0) - a) <= \
                    1e-14 * a
            for which, other in (("q1", "q2"), ("q2", "q1")):
                g = ee_gradient(pol, base, which)
                assert np.abs(ee_gradient(exchanged, swapped, other) - g
                              ).max() <= 1e-14 * np.abs(g).max()
