"""Benchmark placements: top-popularity, uniform and random binary."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from svcache.baselines import (icp_expected_ee, icp_policy, mpcp_policy,
                               ucp_policy)
from svcache.config import ContentConfig
from svcache.objective import ee_value
from svcache.popularity import build_profile


def _same(a, b):
    """Value equality of two policies: mode and both blocks, bit for bit."""
    return (a.mode == b.mode and np.array_equal(a.q1, b.q1)
            and np.array_equal(a.q2, b.q2))


class TestMpcp:
    def test_caches_top_files_whole(self, content):
        pol = mpcp_policy(content)
        np.testing.assert_array_equal(
            pol.q1, (1.0,) * content.m_b + (0.0,) * (content.f_count
                                                     - content.m_b))
        np.testing.assert_array_equal(
            pol.q2, (1.0,) * content.m_e + (0.0,) * (content.f_count
                                                     - content.m_e))

    def test_full_catalog_fits(self):
        content = ContentConfig(f_count=4, m_cache=1e12)
        pol = mpcp_policy(content)
        np.testing.assert_array_equal(pol.q1, (1.0,) * 4)
        np.testing.assert_array_equal(pol.q2, (1.0,) * 4)

    def test_maximizes_hit_probability(self):
        """Among all binary placements of the same cardinality, caching
        the most popular files maximizes the cache-hit probability;
        verified by exhaustive enumeration on a small catalog."""
        content = ContentConfig(f_count=8, m_cache=3e8)
        assert content.m_b == 3
        profile = build_profile(content)
        p = np.array(profile.p)
        best = max(sum(p[list(combo)])
                   for combo in itertools.combinations(range(8), 3))
        mpcp_hit = float(np.dot(p, mpcp_policy(content).q1))
        assert mpcp_hit == pytest.approx(best, rel=1e-12)


class TestUcp:
    def test_uniform_fractions(self, content):
        pol = ucp_policy(content)
        f = content.f_count
        assert pol.q1 == pytest.approx((content.m_b / f,) * f)
        assert pol.q2 == pytest.approx((content.m_e / f,) * f)

    def test_exact_budget(self, content):
        pol = ucp_policy(content)
        assert sum(pol.q1) == pytest.approx(content.m_b, abs=1e-9)
        assert sum(pol.q2) == pytest.approx(content.m_e, abs=1e-9)
        pol.validate_budget(content)


@pytest.mark.parametrize("f_count", [2, 20, 10 ** 5])
@pytest.mark.parametrize("build", [mpcp_policy, ucp_policy])
def test_array_builders_meet_their_budgets(build, f_count):
    content = ContentConfig(f_count=f_count, zipf_alpha=0.0)
    pol = build(content)
    assert pol.q1.dtype == pol.q2.dtype == np.float64
    assert pol.f_count == f_count
    pol.validate_budget(content)


class TestIcp:
    def test_exact_cardinality(self, content):
        for seed in range(20):
            pol = icp_policy(content, seed=seed)
            assert set(pol.q1) <= {0.0, 1.0} and set(pol.q2) <= {0.0, 1.0}
            assert sum(pol.q1) == content.m_b
            assert sum(pol.q2) == content.m_e
            pol.validate_budget(content)

    def test_uniform_inclusion_frequency(self, content):
        n = 10_000
        hits = np.zeros(content.f_count)
        for seed in range(n):
            hits += np.array(icp_policy(content, seed=seed).q1)
        p = content.m_b / content.f_count
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert np.abs(hits / n - p).max() <= 3.5 * sigma

    def test_reproducible(self, content):
        assert _same(icp_policy(content, seed=7), icp_policy(content, seed=7))
        assert not _same(icp_policy(content, seed=7),
                         icp_policy(content, seed=8))

    @pytest.mark.parametrize("n1, n2", [(0, 2), (1, 3), (2, 2), (4, 4),
                                        (4, 0)])
    def test_ee_same_in_every_mode(self, ctx, n1, n2):
        """A 0/1 placement, ICP's or MPCP's, has the same EE under Scheme I,
        smoothed or exact, and under Scheme II, at every cluster size."""
        sized = replace(ctx, net=replace(ctx.net, n1=n1, n2=n2))
        placements = [icp_policy(ctx.content, seed=seed) for seed in range(5)]
        for pol in placements + [mpcp_policy(ctx.content)]:
            smoothed = ee_value(pol, sized)
            assert ee_value(pol, sized, exact_l0=True) == smoothed
            assert ee_value(replace(pol, mode="random"), sized) == smoothed


def _icp_loop_reference(ctx, n_realizations, seed):
    """Mean and standard error of ee_value over one CachingPolicy per
    realization, drawn from the same seeds as icp_expected_ee."""
    seeds = np.random.SeedSequence(seed).generate_state(n_realizations)
    values = np.array([ee_value(icp_policy(ctx.content, int(s)), ctx)
                       for s in seeds])
    return (float(values.mean()),
            float(values.std(ddof=1) / np.sqrt(n_realizations)))


class TestIcpExpectedEe:
    @pytest.mark.parametrize("n_realizations, seed", [(200, 0), (37, 5)])
    def test_matches_per_policy_loop(self, ctx, n_realizations, seed):
        est = icp_expected_ee(ctx, n_realizations, seed)
        assert (est.mean, est.std_error) == _icp_loop_reference(
            ctx, n_realizations, seed)

    def test_large_catalog_in_bounded_memory(self, ctx):
        """At F = 10^5, 20 realizations are scored in chunks: bit for bit
        the per-policy loop's values, at a tracemalloc peak of at most
        64 MB (one stacked call over all 20 peaked at 208 MB)."""
        content = ContentConfig(f_count=100_000, zipf_alpha=0.0)
        large = replace(ctx, profile=build_profile(content), content=content)
        tracemalloc.start()
        try:
            est = icp_expected_ee(large, 20, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (est.mean, est.std_error) == _icp_loop_reference(large, 20, 0)
        assert peak <= 64e6

    def test_comparable_to_uniform_placement(self, ctx):
        """Averaging random binary placements lands near the uniform
        fractional placement; the EE ratio is nonlinear in the policy,
        so they differ by several percent rather than coinciding."""
        est = icp_expected_ee(ctx, n_realizations=200, seed=0)
        ucp_ee = ee_value(ucp_policy(ctx.content), ctx)
        assert abs(est.mean - ucp_ee) <= 0.15 * ucp_ee

    def test_estimate_fields(self, ctx):
        est = icp_expected_ee(ctx, n_realizations=50, seed=3)
        assert est.n_samples == 50
        assert est.std_error > 0.0

    def test_deterministic(self, ctx):
        a = icp_expected_ee(ctx, n_realizations=30, seed=1)
        b = icp_expected_ee(ctx, n_realizations=30, seed=1)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_precondition(self, ctx):
        with pytest.raises(ValueError):
            icp_expected_ee(ctx, n_realizations=0)
