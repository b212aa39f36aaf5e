"""End-to-end Monte-Carlo oracle: sampling, SIR statistics, reproducibility."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcache import analytic, montecarlo
from svcache.cli import GAMMA_GRID_DB
from svcache.config import db_to_linear

DROPS = 20_000


def _fsum_faded(rng, r2, counts, power, alpha):
    """_faded_sums with one new array per step and each drop's terms summed
    by math.fsum, correctly rounded; r2 is left as it is."""
    terms = rng.exponential(1.0, r2.size) * power * r2 ** (-alpha / 2.0)
    ends = np.cumsum(counts)
    return np.array([math.fsum(terms[e - c:e]) for e, c in zip(ends, counts)])


def _fsum_interference(rng, density, r2_lo, r2_hi, power, alpha, n_drops):
    """The interference sum with one new array per step and each drop
    summed by math.fsum."""
    if r2_hi <= r2_lo:
        return np.zeros(n_drops)
    counts = rng.poisson(density * math.pi * (r2_hi - r2_lo), n_drops)
    r2 = rng.uniform(r2_lo, r2_hi, int(counts.sum()))
    return _fsum_faded(rng, r2, counts, power, alpha)


def _fsum_ambient_worker(cfg, seed_seq, size):
    """The ambient batch with one new array per step and each drop's sum
    over each field taken by math.fsum: rows near, rest, in, ring, out."""
    w2 = montecarlo.window_radius(cfg) ** 2
    a2, b2 = min(cfg.a ** 2, w2), min(cfg.b ** 2, w2)
    rng = np.random.default_rng(seed_seq)
    counts = rng.poisson(cfg.lambda_m * math.pi * w2, size)
    min_r2 = w2 * (1.0 - rng.random(size) ** (1.0 / counts))
    near = (rng.exponential(1.0, size) * cfg.p_m
            * min_r2 ** (-cfg.alpha_m / 2.0))
    n_interf = counts - 1
    lo = np.repeat(min_r2, n_interf)
    r2 = lo + rng.uniform(0.0, 1.0, int(n_interf.sum())) * (w2 - lo)
    far = (montecarlo._far_mean(cfg.lambda_m, cfg.p_m, cfg.alpha_m, w2)
           + montecarlo._far_mean(cfg.lambda_s, cfg.p_s, cfg.alpha_s, w2))
    rest = _fsum_faded(rng, r2, n_interf, cfg.p_m, cfg.alpha_m) + far
    return np.array([near, rest] + [
        _fsum_interference(rng, cfg.lambda_s, lo2, hi2, cfg.p_s, cfg.alpha_s,
                           size)
        for lo2, hi2 in ((0.0, a2), (a2, b2), (b2, w2))])


def _allocating_serving_scale(cfg, layer, n, n_samples, seed):
    """The serving draw as one (n_samples, n) array of uniforms, not built
    in place block by block: the squared radii inner^2 + (outer^2 -
    inner^2) u, then S = sum (r^2)^(-alpha_s/2)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = rng.random((n_samples, n))
    inner, outer = (0.0, cfg.a) if layer == "bl" else (cfg.a, cfg.b)
    r2 = (outer ** 2 - inner ** 2) * u + inner ** 2
    return (r2 ** (-0.5 * cfg.alpha_s)).sum(axis=1)


class TestInterference:
    def test_zero_density(self):
        i = montecarlo._interference(np.random.default_rng(0), 0.0, 0.0,
                                     1e4, 1.0, 4.0, 7)
        assert np.array_equal(i, np.zeros(7))

    @pytest.mark.parametrize("r2_lo, r2_hi", [(0.0, 1e6), (2.5e3, 1e6),
                                              (1e5, 1.3e5)])
    def test_draws_the_rng_uniform_array(self, r2_lo, r2_hi):
        """Built in place from rng.random, the squared radii are the
        numbers rng.uniform(r2_lo, r2_hi, k) draws, so the sums are too."""
        args = (1e-4, r2_lo, r2_hi, 200.0, 3.5, 512)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = montecarlo._interference(rng, *args)
        counts = ref_rng.poisson(1e-4 * math.pi * (r2_hi - r2_lo), 512)
        r2 = ref_rng.uniform(r2_lo, r2_hi, int(counts.sum()))
        want = montecarlo._faded_sums(ref_rng, r2, counts, 200.0, 3.5)
        assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("alpha, density", [
        (4.0, 1e-4), (3.5, 1e-4), (4.0, 3e-7), (3.5, 3e-7)])
    def test_same_bits_as_allocating_sum(self, alpha, density):
        """In place, the sum keeps every RNG draw, and each drop lies
        within 1e-13 of the allocating sum's correctly rounded (fsum) value
        of its own terms (up to about 900 positive terms); at 3e-7 about
        39% of the drops have no interferer and sum to exactly 0."""
        args = (density, 0.0, 1e6, 200.0, alpha, 1024)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = montecarlo._interference(rng, *args)
        want = _fsum_interference(ref_rng, *args)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.array_equal(got == 0.0, want == 0.0)
        if density < 1e-6:
            assert 0 < np.count_nonzero(got == 0.0) < got.size
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("alpha", [4.0, 3.5])
    def test_mbs_batch_same_bits_as_allocating_worker(self, net, alpha):
        """The in-place ambient batch draws what the allocating worker
        draws, and each nearest-MBS SIR lies within 1e-13 of the one from
        fsum interference."""
        cfg = replace(net, alpha_m=alpha, alpha_s=alpha)
        (child,) = np.random.SeedSequence(17).spawn(1)
        near, rest, i_in, i_ring, i_out = _fsum_ambient_worker(cfg, child, 64)
        want = near / (rest + i_in + i_ring + i_out)
        got = montecarlo.sir_samples_mbs(cfg, 64, seed=17)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("alpha", [4.0, 3.5])
    def test_region_sums_within_1e15_of_fsum(self, net, alpha, seed):
        """Over three batches, every per-drop column of the ambient draw
        (the nearest MBS, the other MBSs with the far mean, and the SBSs
        of each region) lies within 1e-15 relative of its fsum value; the
        nearest MBS's term and every empty region are exact."""
        cfg = replace(net, alpha_m=alpha, alpha_s=alpha)
        batch = montecarlo._BATCH
        got = montecarlo._ambient(cfg, 3 * batch, seed)
        want = np.concatenate([_fsum_ambient_worker(cfg, child, batch)
                               for child in
                               np.random.SeedSequence(seed).spawn(3)], axis=1)
        assert np.array_equal(got[0], want[0])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert np.array_equal(got == 0.0, want == 0.0)

    def test_close_interferer_costs_no_other_drop_precision(self):
        """One interferer at r2 = 1e-6 in drop 0 is a term about 1e24 times
        any other; a running sum over the batch loses every later drop to
        it.  Drops 5 and 1023 are empty."""
        rng = np.random.default_rng(8)
        counts = rng.poisson(600.0, 1024)
        counts[0], counts[5], counts[-1] = 1, 0, 0
        r2 = rng.uniform(1.0, 1e6, int(counts.sum()))
        r2[0] = 1e-6
        got_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        want = _fsum_faded(ref_rng, r2, counts, 200.0, 4.0)
        got = montecarlo._faded_sums(got_rng, r2, counts, 200.0, 4.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert got[5] == 0.0 and got[-1] == 0.0
        assert np.count_nonzero(got == 0.0) == 2
        assert got_rng.random() == ref_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=40),
           log_r2=st.lists(st.floats(-6.0, 6.0), min_size=240,
                           max_size=240),
           alpha=st.sampled_from([4.0, 3.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_counts_each_drop_summed_on_its_own(self, counts, log_r2,
                                                     alpha, seed):
        """Leading, interior, trailing and all-empty drops, with r2 over 12
        decades: every drop within 1e-13 of its fsum, every empty drop
        exactly 0.0, and the RNG in step."""
        counts = np.array(counts)
        r2 = 10.0 ** np.array(log_r2[:int(counts.sum())])
        got_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        want = _fsum_faded(ref_rng, r2, counts, 3.0, alpha)
        got = montecarlo._faded_sums(got_rng, r2, counts, 3.0, alpha)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.all(got[counts == 0] == 0.0)
        assert got_rng.random() == ref_rng.random()

    def test_peak_memory_two_per_point_arrays(self, net):
        """One default-scenario batch of the ambient SBS field holds two
        float64 arrays of its point count at its peak, not five."""
        w2 = montecarlo.window_radius(net) ** 2
        drops = 1024
        expected_points = net.lambda_s * math.pi * w2 * drops
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            montecarlo._interference(rng, net.lambda_s, 0.0, w2, net.p_s,
                                     net.alpha_s, drops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * 8 * expected_points


class TestServingScale:
    @pytest.mark.parametrize("alpha", [4.0, 3.5])
    @pytest.mark.parametrize("layer", ["bl", "el"])
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7])
    def test_same_bits_as_allocating_draw(self, net, alpha, layer, n):
        """Below 8 entries numpy sums a row left to right, as the draw's
        column sum does."""
        cfg = replace(net, alpha_m=alpha, alpha_s=alpha)
        got = analytic._serving_scale(cfg, layer, n, 5_000, 23)
        assert np.array_equal(got,
                              _allocating_serving_scale(cfg, layer, n, 5_000,
                                                        23))

    @pytest.mark.parametrize("alpha", [4.0, 3.5])
    @pytest.mark.parametrize("layer", ["bl", "el"])
    @pytest.mark.parametrize("n", [8, 12])
    def test_within_1e15_of_pairwise_row_sums(self, net, alpha, layer, n):
        """From 8 entries numpy sums a row pairwise, so the left-to-right
        column sum may differ from it in the last bits, but no further."""
        cfg = replace(net, alpha_m=alpha, alpha_s=alpha)
        got = analytic._serving_scale(cfg, layer, n, 5_000, 23)
        np.testing.assert_allclose(
            got, _allocating_serving_scale(cfg, layer, n, 5_000, 23),
            rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("layer", ["bl", "el"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_blocks_stitch_into_one_draw(self, net, layer, n):
        """20,000 samples are two full blocks of the draw and a partial
        one; together they are the one-array draw, bit for bit."""
        assert 2 * analytic._DRAW_BLOCK < 20_000 < 3 * analytic._DRAW_BLOCK
        got = analytic._serving_scale(net, layer, n, 20_000, 23)
        assert np.array_equal(got,
                              _allocating_serving_scale(net, layer, n, 20_000,
                                                        23))

    def test_last_draw_of_each_layer_is_kept_read_only(self, net,
                                                       position_samples):
        """The cluster kernel keeps sigma of the draw of each layer, in
        ascending order."""
        position_samples(1_000)

        def draw(layer, n):
            return analytic._cluster_state(net, layer, n, 31)

        bl = draw("bl", 2)
        assert not bl.flags.writeable
        descending = np.sort(
            analytic._serving_scale(net, "bl", 2, 1_000, 31))[::-1].copy()
        assert np.array_equal(bl, descending ** (-2.0 / net.alpha_s))
        assert draw("el", 2) is not bl
        assert draw("bl", 2) is bl
        draw("bl", 3)
        again = draw("bl", 2)
        assert again is not bl and np.array_equal(again, bl)


class TestSamplerArguments:
    def test_too_few_drops(self, net):
        with pytest.raises(ValueError, match="n_drops"):
            montecarlo.sir_samples_mbs(net, 0)
        with pytest.raises(ValueError, match="n_drops"):
            montecarlo.sir_samples_sbs_bl(net, 1, -3)


class TestSharedField:
    """One ambient draw serves every delivery mode; each mode silences
    exactly its ring."""

    @pytest.mark.parametrize("lambda_m", [None, 1e-2],
                             ids=["default", "b-beyond-window"])
    def test_each_mode_silences_exactly_its_ring(self, net, monkeypatch,
                                                 lambda_m):
        """The SBS field is drawn over three regions that partition the
        window at a^2 and b^2 (each capped at R_sim^2; at lambda_m = 1e-2,
        R_sim is 56 m, between a and b).  Nearest-MBS service hears all
        three, BL service no SBS inside a, EL service none from a to b;
        both cluster modes hear the nearest MBS."""
        if lambda_m is not None:
            net = replace(net, lambda_m=lambda_m)
        regions = {}
        interference = montecarlo._interference

        def spy(rng, density, r2_lo, r2_hi, *args):
            sums = interference(rng, density, r2_lo, r2_hi, *args)
            regions.setdefault((r2_lo, r2_hi), []).append(sums.copy())
            return sums

        monkeypatch.setattr(montecarlo, "_interference", spy)
        drops, seed = 3 * montecarlo._BATCH // 2, 12
        montecarlo._ambient.cache_clear()
        near, rest, *sbs = montecarlo._ambient(net, drops, seed)
        w2 = montecarlo.window_radius(net) ** 2
        a2, b2 = net.a ** 2, min(net.b ** 2, w2)
        assert a2 < w2
        assert list(regions) == [(0.0, a2), (a2, b2), (b2, w2)]
        i_in, i_ring, i_out = (np.concatenate(regions[k]) for k in regions)
        assert all(np.array_equal(got, want)
                   for got, want in zip(sbs, (i_in, i_ring, i_out)))
        assert np.count_nonzero(i_in) and np.count_nonzero(i_ring)

        def exact(sir, signal, *heard):
            return np.array_equal(sir, signal / sum(heard[1:], heard[0]))

        assert exact(montecarlo.sir_samples_mbs(net, drops, seed),
                     near, rest, i_in, i_ring, i_out)
        s_bl = montecarlo._serving(net, "BL", 2, drops, seed)
        assert exact(montecarlo.sir_samples_sbs_bl(net, 2, drops, seed),
                     s_bl, near, rest, i_ring, i_out)
        s_el = montecarlo._serving(net, "EL", 3, drops, seed)
        assert exact(montecarlo.sir_samples_sbs_el(net, 3, drops, seed),
                     s_el, near, rest, i_in, i_out)

    def test_every_serving_count_shares_one_ambient_draw(self, net):
        montecarlo._ambient.cache_clear()
        for sampler in (montecarlo.sir_samples_sbs_bl,
                        montecarlo.sir_samples_sbs_el):
            for n in range(1, 5):
                sampler(net, n, 512, 4)
        assert montecarlo._ambient.cache_info().misses == 1


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
        expected = 10.0 / math.sqrt(math.pi * net.lambda_m)
        assert montecarlo.window_radius(net) == pytest.approx(expected)
        assert montecarlo.window_radius(net) == pytest.approx(2500.0)

    @pytest.mark.parametrize("alpha", [4.0, 3.5, 3.0])
    def test_truncation_bias_below_1e3(self, net, alpha):
        """The module docstring's claim: cutting every interfering field at
        R_sim and adding its Campbell mean beyond R_sim moves each success
        probability on the CLI's gamma grid by less than 1e-3.

        A field of density lam whose Laplace variable s makes scale =
        (s*P)^(2/alpha) has exponent pi*lam*scale*G(u/scale) beyond radius^2
        u.  The cut replaces G(x) by G(x) - G(R_sim^2 / scale); the far mean
        adds s * _far_mean, which is pi*lam*scale times G's leading term
        y^(1-alpha/2) / (alpha/2 - 1) at y = R_sim^2 / scale.  That term
        bounds G(y) from above, so the oracle errs low."""
        cfg = replace(net, alpha_m=alpha, alpha_s=alpha)
        w2 = montecarlo.window_radius(cfg) ** 2
        samples = 50_000
        rng = np.random.default_rng(0)
        x2 = rng.exponential(1.0 / (math.pi * cfg.lambda_m), samples)
        s_bl = analytic._serving_scale(cfg, "bl", cfg.n1, samples, 0)
        s_el = analytic._serving_scale(cfg, "el", cfg.n2, samples, 0)

        def window(density, scale):
            """Exponent change from the cut and the far mean."""
            y = w2 / scale
            far = y ** (1.0 - alpha / 2.0) / (alpha / 2.0 - 1.0)
            return (math.pi * density * scale
                    * (far - analytic.g_alpha_vec(alpha, y)))

        def mbs_mode(gamma):
            # s = gamma x^alpha / p_m
            scale_m = gamma ** (2.0 / alpha) * x2
            scale_s = (gamma * cfg.p_s / cfg.p_m) ** (2.0 / alpha) * x2
            full = (math.pi * cfg.lambda_m * scale_m
                    * analytic.g_alpha_vec(alpha, x2 / scale_m)
                    + math.pi * cfg.lambda_s * scale_s
                    * analytic.g_alpha_zero(alpha))
            return full, (window(cfg.lambda_m, scale_m)
                          + window(cfg.lambda_s, scale_s))

        def cluster_mode(layer, s_sum):
            sigma = s_sum ** (-2.0 / alpha)

            def mode(gamma):
                # s = c / p_s
                c = gamma / s_sum
                log_p = analytic._cluster_log_p(cfg, layer, gamma, sigma)
                return (-log_p,
                        window(cfg.lambda_s, c ** (2.0 / alpha))
                        + window(cfg.lambda_m,
                                 (c * cfg.p_m / cfg.p_s) ** (2.0 / alpha)))
            return mode

        modes = {"MBS": mbs_mode,
                 "BL": cluster_mode("bl", s_bl),
                 "EL": cluster_mode("el", s_el)}
        for name, mode in modes.items():
            for gamma_db in GAMMA_GRID_DB:
                full, change = mode(db_to_linear(gamma_db))
                gap = np.exp(-(full + change)).mean() - np.exp(-full).mean()
                assert -1e-3 < gap <= 0.0, (name, gamma_db, gap)
