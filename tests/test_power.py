"""Power-consumption models for fractional and random caching."""

import math

import pytest

from svcache.config import CachingPolicy
from svcache.power import power_scheme1, power_scheme2


def _policy(mode, q1, q2):
    return CachingPolicy(mode=mode, q1=tuple(q1), q2=tuple(q2))


def _all(mode, f_count, value):
    return _policy(mode, [value] * f_count, [value] * f_count)


class TestScheme1:
    def test_all_zero_policy(self, profile, net, content, coeff):
        f = content.f_count
        pb = power_scheme1(_all("fractional", f, 0.0), profile, net, content,
                           coeff)
        assert pb.p_ca == 0.0
        expected_tr = sum(p * coeff.zeta_m * (1.0 + h) * net.p_m
                          for p, h in zip(profile.p, profile.g_hdv))
        expected_bh = coeff.c_bh * sum(
            p * (content.l_b + h * content.l_e)
            for p, h in zip(profile.p, profile.g_hdv))
        assert pb.p_tr == pytest.approx(expected_tr, rel=1e-12)
        assert pb.p_bh == pytest.approx(expected_bh, rel=1e-12)

    def test_all_one_policy(self, profile, net, content, coeff):
        f = content.f_count
        pb = power_scheme1(_all("fractional", f, 1.0), profile, net, content,
                           coeff)
        assert pb.p_bh == 0.0
        expected_ca = coeff.c_ca * f * (content.l_b * net.n1
                                        + content.l_e * net.n2)
        assert pb.p_ca == pytest.approx(expected_ca, rel=1e-12)

    def test_fixed_power(self, profile, net, content, coeff):
        pb = power_scheme1(_all("fractional", content.f_count, 0.3),
                           profile, net, content, coeff)
        assert pb.p_fix == (net.n1 + net.n2) * coeff.p_s_fix + coeff.p_m_fix

    def test_ucp_hand_computed(self, profile, net, content, coeff):
        """Independent spreadsheet-style evaluation of the uniform policy."""
        f = content.f_count
        q1, q2 = content.m_b / f, content.m_e / f
        pb = power_scheme1(_policy("fractional", [q1] * f, [q2] * f),
                           profile, net, content, coeff)
        # every fraction is strictly inside (0,1): all indicators are 1
        p_tr = sum(p * (net.p_s * coeff.zeta_s * (net.n1 + h * net.n2)
                        + net.p_m * coeff.zeta_m * (1.0 + h))
                   for p, h in zip(profile.p, profile.g_hdv))
        p_ca = coeff.c_ca * f * (q1 * content.l_b * net.n1
                                 + q2 * content.l_e * net.n2)
        p_bh = coeff.c_bh * sum(
            p * ((1.0 - q1) * content.l_b + h * (1.0 - q2) * content.l_e)
            for p, h in zip(profile.p, profile.g_hdv))
        assert pb.p_tr == pytest.approx(p_tr, rel=1e-12)
        assert pb.p_ca == pytest.approx(p_ca, rel=1e-12)
        assert pb.p_bh == pytest.approx(p_bh, rel=1e-12)

    def test_mode_mismatch(self, profile, net, content, coeff):
        with pytest.raises(ValueError, match="mode"):
            power_scheme1(_all("random", content.f_count, 0.5),
                          profile, net, content, coeff)

    def test_length_mismatch(self, profile, net, content, coeff):
        with pytest.raises(ValueError, match="length"):
            power_scheme1(_all("fractional", content.f_count + 1, 0.5),
                          profile, net, content, coeff)


class TestScheme2:
    def test_all_zero_matches_scheme1(self, profile, net, content, coeff):
        f = content.f_count
        s1 = power_scheme1(_all("fractional", f, 0.0), profile, net, content,
                           coeff)
        s2 = power_scheme2(_all("random", f, 0.0), profile, net, content,
                           coeff)
        assert s2.p_tr == pytest.approx(s1.p_tr, rel=1e-12)
        assert s2.p_ca == s1.p_ca == 0.0
        assert s2.p_bh == pytest.approx(s1.p_bh, rel=1e-12)
        assert s2.p_fix == s1.p_fix

    def test_certain_caching_kills_backhaul(self, profile, net, content,
                                            coeff):
        pb = power_scheme2(_all("random", content.f_count, 1.0),
                           profile, net, content, coeff)
        assert pb.p_bh == 0.0

    def test_uniform_hand_computed(self, profile, net, content, coeff):
        f = content.f_count
        t = content.m_b / f  # same probability for both layers, for brevity
        pb = power_scheme2(_policy("random", [t] * f, [t] * f),
                           profile, net, content, coeff)
        p_tr = sum(p * (net.p_s * coeff.zeta_s * (net.n1 * t + h * net.n2 * t)
                        + net.p_m * coeff.zeta_m * ((1 - t) + h * (1 - t)))
                   for p, h in zip(profile.p, profile.g_hdv))
        p_ca = coeff.c_ca * f * t * (content.l_b * net.n1
                                     + content.l_e * net.n2)
        p_bh = coeff.c_bh * sum(
            p * ((1 - t) ** net.n1 * content.l_b
                 + h * (1 - t) ** net.n2 * content.l_e)
            for p, h in zip(profile.p, profile.g_hdv))
        assert pb.p_tr == pytest.approx(p_tr, rel=1e-12)
        assert pb.p_ca == pytest.approx(p_ca, rel=1e-12)
        assert pb.p_bh == pytest.approx(p_bh, rel=1e-12)

    def test_binary_policies_agree_across_schemes(self, profile, net, content,
                                                  coeff):
        f = content.f_count
        q1 = [1.0] * 5 + [0.0] * (f - 5)
        q2 = [1.0] * 2 + [0.0] * (f - 2)
        s1 = power_scheme1(_policy("fractional", q1, q2), profile, net,
                           content, coeff)
        s2 = power_scheme2(_policy("random", q1, q2), profile, net, content,
                           coeff)
        for field in ("p_tr", "p_ca", "p_bh", "p_fix"):
            assert getattr(s2, field) == pytest.approx(getattr(s1, field),
                                                       rel=1e-12)


class TestMonotonicity:
    @pytest.mark.parametrize("scheme", ["fractional", "random"])
    def test_caching_more_shifts_backhaul_to_cache(self, scheme, profile, net,
                                                   content, coeff):
        f = content.f_count
        fn = power_scheme1 if scheme == "fractional" else power_scheme2
        lo = [0.2] * f
        for idx in (0, f // 2, f - 1):
            hi1 = list(lo)
            hi1[idx] = 0.8
            a = fn(_policy(scheme, lo, lo), profile, net, content, coeff)
            b = fn(_policy(scheme, hi1, lo), profile, net, content, coeff)
            assert b.p_bh <= a.p_bh
            assert b.p_ca >= a.p_ca
