"""Zipf request probabilities and the HD-share preference model."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcache.config import ContentConfig
from svcache.popularity import PopularityProfile, build_profile, zipf


class TestZipf:
    def test_uniform_at_zero_skew(self):
        assert zipf(4, 0.0) == pytest.approx([0.25] * 4)

    def test_two_files(self):
        assert zipf(2, 1.0) == pytest.approx([2 / 3, 1 / 3])

    def test_top_probability_is_inverse_harmonic(self):
        # independent oracle: exact rational harmonic sum
        h20 = sum(Fraction(1, n) for n in range(1, 21))
        assert zipf(20, 1.0)[0] == pytest.approx(float(1 / h20), rel=1e-12)
        assert zipf(20, 1.0)[0] == pytest.approx(0.27795, abs=5e-6)

    @given(st.integers(min_value=1, max_value=2000),
           st.floats(min_value=0.0, max_value=5.0))
    def test_sums_to_one(self, f_count, alpha):
        assert abs(zipf(f_count, alpha).sum() - 1.0) <= 1e-12

    def test_sums_to_one_large_catalog(self):
        assert abs(zipf(10 ** 6, 5.0).sum() - 1.0) <= 1e-12

    def test_non_increasing(self):
        p = zipf(50, 1.3)
        assert np.all(np.diff(p) <= 0)

    def test_skew_concentrates_mass(self):
        tops = [zipf(20, a)[0] for a in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert np.all(np.diff(tops) > 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            zipf(0, 1.0)
        with pytest.raises(ValueError):
            zipf(5, -0.1)


class TestQualityPreference:
    """The HD share g_hdv = 1 - (f-1)/(F-1) of file f in build_profile."""

    def test_most_popular_watched_in_hd(self):
        assert build_profile(ContentConfig(f_count=20)).g_hdv[0] == 1.0

    def test_least_popular_watched_in_sd(self):
        assert build_profile(ContentConfig(f_count=20)).g_hdv[-1] == 0.0

    def test_interior(self):
        g_hdv = build_profile(ContentConfig(f_count=20)).g_hdv
        assert g_hdv[10] == pytest.approx(9 / 19)

    @given(st.integers(min_value=2, max_value=100))
    def test_hd_share_falls_linearly_with_rank(self, f_count):
        g_hdv = build_profile(ContentConfig(f_count=f_count)).g_hdv
        exact = [1 - Fraction(f - 1, f_count - 1) for f in range(1, f_count + 1)]
        # within one rounding of the subtraction 1 - (f-1)/(F-1)
        assert g_hdv == pytest.approx([float(x) for x in exact], rel=0,
                                      abs=2.0 ** -52)

    def test_out_of_range(self):
        for g_hdv in ((1.0, 1.5), (-0.1, 0.0), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="g_hdv"):
                PopularityProfile(p=(0.5, 0.5), g_hdv=g_hdv)

    @pytest.mark.parametrize("g_hdv", [(1.0,), (1.0, 0.5, 0.0)])
    def test_length_mismatch_rejected(self, g_hdv):
        """One share per file: a g_hdv shorter or longer than p would be
        broadcast over the catalog, or fail deep in the power model."""
        with pytest.raises(ValueError, match=r"^g_hdv: length \d != 2 files$"):
            PopularityProfile(p=(0.5, 0.5), g_hdv=g_hdv)

    @pytest.mark.parametrize("f_count", [2, 20, 10 ** 5])
    def test_same_bits_as_scalar_expression(self, f_count):
        """The array build gives, bit for bit, the scalar expression
        1 - (f-1)/(F-1) over Python ints: both round one exact integer
        quotient and one subtraction."""
        g_hdv = build_profile(ContentConfig(f_count=f_count)).g_hdv
        scalar = [1.0 - (f - 1) / (f_count - 1) for f in range(1, f_count + 1)]
        assert g_hdv.dtype == np.float64
        assert g_hdv.tolist() == scalar


class TestProfile:
    def test_build_profile_shape(self, content, profile):
        assert profile.f_count == content.f_count
        assert abs(sum(profile.p) - 1.0) <= 1e-12
        assert len(profile.g_hdv) == content.f_count
        assert np.all(np.diff(profile.g_hdv) <= 0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PopularityProfile(p=(0.5, 0.4), g_hdv=(1.0, 0.0))

    def test_rejects_increasing_popularity(self):
        with pytest.raises(ValueError):
            PopularityProfile(p=(0.4, 0.6), g_hdv=(1.0, 0.0))

    @pytest.mark.parametrize("p", [(1.5, -0.5), (float("nan"), 1.0)])
    def test_rejects_entry_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"^p: entry"):
            PopularityProfile(p=p, g_hdv=(1.0, 0.0))

    def test_holds_read_only_copies(self):
        p, g_hdv = np.array([0.5, 0.3, 0.2]), np.array([1.0, 0.5, 0.0])
        profile = PopularityProfile(p=p, g_hdv=g_hdv)
        p[0], g_hdv[0] = 0.9, 0.1
        assert profile.p.tolist() == [0.5, 0.3, 0.2]
        assert profile.g_hdv.tolist() == [1.0, 0.5, 0.0]
        # compared by identity: equal entries do not make equal profiles
        assert profile == profile
        assert profile != PopularityProfile(p=profile.p, g_hdv=profile.g_hdv)
        for vec in (profile.p, profile.g_hdv):
            assert vec.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 0.0

    @pytest.mark.parametrize("f_count", [10 ** 5, 10 ** 6])
    def test_large_uniform_catalog_is_accepted(self, f_count):
        """A left-to-right float sum of F equal probabilities misses 1 by
        -1.9e-12 at F = 1e5 and by 7.9e-12 at 1e6; numpy's pairwise sum,
        which the check uses, misses it by 0 and 4.4e-16."""
        profile = build_profile(ContentConfig(f_count=f_count,
                                              zipf_alpha=0.0))
        assert profile.f_count == f_count
        assert profile.p[0] == profile.p[-1] == 1.0 / f_count

    def test_zero_skew_content(self):
        profile = build_profile(ContentConfig(f_count=4, zipf_alpha=0.0))
        assert profile.p == pytest.approx((0.25,) * 4)
