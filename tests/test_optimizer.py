"""Capped-simplex projection and the projected-gradient EE maximizer."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcache.analytic import RateTable
from svcache.baselines import icp_expected_ee, mpcp_policy, ucp_policy
from svcache.config import CachingPolicy
from svcache.objective import _ee, ee_gradient, ee_value
from svcache.optimizer import (SolverSettings, make_initial_policy, optimize,
                               project_capped_simplex)
from svcache.power import _block_terms, _layer_blocks


def _oracle_project(v, budget):
    """Exact projection onto {x in [0,1]^F : sum x = budget} by
    enumerating every {clipped-at-0, free, clipped-at-1} pattern, all 3^F
    of them at once, one row each."""
    v = np.asarray(v, dtype=float)
    f_count = len(v)
    patterns = np.indices((3,) * f_count).reshape(f_count, -1).T
    zeros, free, ones = patterns == 0, patterns == 1, patterns == 2
    n_free, n_ones = free.sum(axis=1), ones.sum(axis=1)
    # the threshold u of each pattern; one with no free entry has none
    with np.errstate(divide="ignore", invalid="ignore"):
        u = ((n_ones + np.where(free, v, 0.0).sum(axis=1) - budget)
             / n_free)[:, None]
    x = np.where(ones, 1.0, np.where(free, v - u, 0.0))
    # KKT consistency of each candidate pattern
    bad = (free & ((x < -1e-12) | (x > 1 + 1e-12))
           | zeros & (v - u > 1e-12) | ones & (v - u < 1 - 1e-12))
    ok = np.where(n_free == 0, np.abs(n_ones - budget) <= 1e-12,
                  ~bad.any(axis=1))
    if not ok.any():
        return None
    dist = np.where(ok, ((x - v) ** 2).sum(axis=1), np.inf)
    return np.clip(x[np.argmin(dist)], 0.0, 1.0)


class TestProjection:
    def test_feasible_point_is_fixed(self):
        v = np.array([0.3, 0.7, 1.0, 0.0])
        assert project_capped_simplex(v, 2.0) == pytest.approx(v, abs=1e-9)

    def test_symmetric_split(self):
        assert project_capped_simplex([2.0, 2.0], 1.0) == pytest.approx(
            [0.5, 0.5], abs=1e-9)

    def test_cap_binds(self):
        assert project_capped_simplex([1.5, 0.5, 0.2], 1.0) == pytest.approx(
            [1.0, 0.0, 0.0], abs=1e-9)

    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            project_capped_simplex([0.5, 0.5], 3.0)
        with pytest.raises(ValueError):
            project_capped_simplex([0.5, 0.5], -0.1)

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            f_count = int(rng.integers(2, 7))
            v = rng.normal(0.0, 2.0, f_count)
            budget = float(rng.uniform(0.0, f_count))
            got = project_capped_simplex(v, budget)
            want = _oracle_project(v, budget)
            assert got == pytest.approx(want, abs=1e-6)
            assert got.sum() == pytest.approx(budget, abs=1e-9)
            assert np.all((got >= 0.0) & (got <= 1.0))

    @given(st.lists(st.floats(min_value=-50.0, max_value=50.0),
                    min_size=2, max_size=12),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, v, frac):
        budget = frac * len(v)
        once = project_capped_simplex(v, budget)
        twice = project_capped_simplex(once, budget)
        assert np.abs(twice - once).max() <= 1e-12

    def test_large_magnitude_inputs_terminate(self):
        # float64 spacing at |v| ~ 1e8 is about 1e-8; the threshold must
        # still put the projection on the budget
        v = np.array([3e8, 1e8, -2e8])
        x = project_capped_simplex(v, 1.5)
        assert x.sum() == pytest.approx(1.5, abs=1e-9)


class TestInitialPolicies:
    def test_ucp(self, content):
        pol = make_initial_policy("ucp", content)
        assert pol == ucp_policy(content)
        assert pol.q1 == pytest.approx((0.25,) * content.f_count)
        assert pol.q2 == pytest.approx((0.1,) * content.f_count)

    def test_mpcp(self, content):
        assert make_initial_policy("mpcp", content, mode="random") == \
            mpcp_policy(content, mode="random")

    @pytest.mark.parametrize("kind", ["ucp", "mpcp", "popularity-proportional"])
    def test_seed_read_only_by_random(self, content, kind):
        assert make_initial_policy(kind, content, seed=0) == \
            make_initial_policy(kind, content, seed=99)

    def test_popularity_proportional_feasible(self, content):
        pol = make_initial_policy("popularity-proportional", content)
        pol.validate_budget(content)
        # more popular files get at least as much cache
        assert all(a >= b for a, b in zip(pol.q1, pol.q1[1:]))

    def test_random_reproducible(self, content):
        a = make_initial_policy("random", content, seed=4)
        b = make_initial_policy("random", content, seed=4)
        c = make_initial_policy("random", content, seed=5)
        assert a == b and a != c
        a.validate_budget(content)

    def test_unknown_kind(self, content):
        with pytest.raises(ValueError):
            make_initial_policy("greedy", content)


class TestOptimize:
    def test_infeasible_initial_rejected(self, ctx):
        f = ctx.content.f_count
        bad = CachingPolicy(mode="fractional", q1=(0.0,) * f, q2=(0.0,) * f)
        with pytest.raises(ValueError, match="project"):
            optimize(bad, ctx)

    def test_constant_objective_stops_immediately(self, ctx):
        from test_objective import _flat_context
        flat = _flat_context(ctx.rates)
        initial = ucp_policy(flat.content, mode="fractional")
        policy, trace = optimize(initial, flat)
        assert trace.termination == "converged"
        assert len(trace.rows) == 1
        assert trace.residual == 0.0   # the gradient is exactly zero
        assert ee_value(policy, flat) == pytest.approx(
            ee_value(initial, flat), rel=1e-12)

    def test_deterministic(self, ctx):
        settings_ = SolverSettings(max_iters=40)
        a_pol, a_tr = optimize(ucp_policy(ctx.content, mode="random"), ctx,
                               settings_)
        b_pol, b_tr = optimize(ucp_policy(ctx.content, mode="random"), ctx,
                               settings_)
        assert a_pol == b_pol
        assert a_tr.rows == b_tr.rows
        assert a_tr.termination == b_tr.termination

    def test_improves_over_start_and_stays_feasible(self, ctx):
        initial = ucp_policy(ctx.content, mode="random")
        policy, trace = optimize(initial, ctx, SolverSettings(max_iters=100))
        assert ee_value(policy, ctx) > ee_value(initial, ctx)
        policy.validate_budget(ctx.content)
        assert all(0.0 <= x <= 1.0 for x in policy.q1 + policy.q2)

    def test_running_max_stabilizes(self, ctx):
        _, trace = optimize(mpcp_policy(ctx.content, mode="random"), ctx,
                            SolverSettings(max_iters=200, rel_tol=0.0))
        ees = trace.ee_values()
        assert len(ees) == 200
        running_max = np.maximum.accumulate(ees)
        spread = running_max[-50:].max() - running_max[-50:].min()
        assert spread < 0.005 * running_max[-1]

    def test_theta_mismatch_rejected(self, ctx):
        """The context's theta is the one smoothed; settings may not
        silently replace it."""
        with pytest.raises(ValueError, match="0.01.*0.5"):
            optimize(ucp_policy(ctx.content), replace(ctx, theta=0.5),
                     SolverSettings(max_iters=3))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(max_iters=0)
        for field in ("rel_tol", "theta"):
            for value in (-1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    SolverSettings(**{field: value})

    @pytest.mark.parametrize("mode", ["fractional", "random"])
    def test_residual_of_returned_iterate(self, ctx, mode):
        """The residual is the larger block's ||Proj(q + g/||g||_inf) - q||_inf
        at the returned policy."""
        policy, trace = optimize(ucp_policy(ctx.content, mode=mode), ctx,
                                 SolverSettings(max_iters=40))
        want = 0.0
        for which, budget in (("q1", ctx.content.m_b), ("q2", ctx.content.m_e)):
            q = np.asarray(getattr(policy, which))
            g = ee_gradient(policy, ctx, which)
            step = project_capped_simplex(q + g / np.abs(g).max(), budget)
            want = max(want, np.abs(step - q).max())
        assert trace.residual == want > 0.0

    def test_rate_table_ulp_moves_no_trace_row(self, ctx):
        """One ulp up on every rate-table entry moves no trace EE by more
        than 1e-12 relative and no iteration count: the gradient does not
        amplify rounding the way a finite-difference step would."""
        r = ctx.rates
        up = lambda x: float(np.nextafter(x, np.inf))
        moved = replace(ctx, rates=RateTable(
            r_m_bl=up(r.r_m_bl), r_m_el=up(r.r_m_el),
            r_s_bl={n: up(v) for n, v in r.r_s_bl.items()},
            r_s_el={n: up(v) for n, v in r.r_s_el.items()}))
        for mode in ("fractional", "random"):
            initial = ucp_policy(ctx.content, mode=mode)
            _, base = optimize(initial, ctx)
            _, other = optimize(initial, moved)
            assert other.termination == base.termination == "converged"
            a, b = base.ee_values(), other.ee_values()
            assert len(a) == len(b)
            assert np.abs(b - a).max() <= 1e-12 * np.abs(a).max()


def _top_or_bottom(weights, budget):
    """The 0/1 rows that cache the budget files of highest and of lowest
    weight."""
    order = np.argsort(-np.asarray(weights), kind="stable")
    top, bottom = np.zeros(len(order)), np.zeros(len(order))
    top[order[:budget]] = 1.0
    bottom[order[len(order) - budget:]] = 1.0
    return top, bottom


class TestSchemeOneVertexOracle:
    """Scheme 1's exact-l0 EE is maximized at a 0/1 placement that caches
    the top or the bottom M files of each block, ranked by p_f (BL) and by
    p_f g_hdv,f (EL): four candidates."""

    @pytest.fixture(scope="class")
    def best_candidate(self, ctx):
        p, g_hdv = np.asarray(ctx.profile.p), np.asarray(ctx.profile.g_hdv)
        bl = _top_or_bottom(p, ctx.content.m_b)
        el = _top_or_bottom(p * g_hdv, ctx.content.m_e)
        q1 = np.array([b for b in bl for _ in el])
        q2 = np.array([e for _ in bl for e in el])
        return _ee("fractional", q1, q2, ctx, exact_l0=True).max()

    def test_no_sampled_policy_beats_the_best_candidate(self, ctx,
                                                        best_candidate):
        f, m_b, m_e = ctx.content.f_count, ctx.content.m_b, ctx.content.m_e
        rng = np.random.default_rng(23)
        n = 5000
        feasible = [np.array([project_capped_simplex(v, m)
                              for v in rng.random((n, f))])
                    for m in (m_b, m_e)]
        ranks = [np.argsort(rng.random((n, f)), axis=1) for _ in (m_b, m_e)]
        vertices = [(rank < m).astype(float) for rank, m in zip(ranks, (m_b, m_e))]
        for q1, q2 in (feasible, vertices):
            sampled = _ee("fractional", q1, q2, ctx, exact_l0=True)
            assert sampled.max() <= best_candidate

    def test_ascent_stays_at_or_below_the_best_candidate(self, ctx,
                                                         best_candidate):
        policy, _ = optimize(ucp_policy(ctx.content), ctx)
        assert ee_value(policy, ctx, exact_l0=True) <= \
            best_candidate * (1.0 + 1e-12)


def _block_dual(h, x, budget):
    """Lagrangian dual min over lam of lam M + sum_f max_k (h[k, f] - lam x_k)
    of max sum_f h_f(x_f) subject to sum_f x_f = M, for one block sampled
    at the grid x (Everett, Operations Research 11, 1963).  The dual is
    convex in lam; bisection on its subgradient M - sum_f x*_f(lam) brackets
    the minimum, and every lam gives an upper bound."""
    lo = ((h[-1] - h[:-1]) / (1.0 - x[:-1, None])).min()
    hi = ((h[1:] - h[0]) / x[1:, None]).max()
    value = lambda lam: lam * budget + (h - lam * x[:, None]).max(axis=0).sum()
    for _ in range(60):
        lam = 0.5 * (lo + hi)
        if x[np.argmax(h - lam * x[:, None], axis=0)].sum() > budget:
            lo = lam
        else:
            hi = lam
    return min(value(lo), value(hi))


class TestSchemeTwoDualBound:
    """Dinkelbach: EE* <= t whenever max_q R(q) - t P(q) <= 0.  That inner
    problem splits by layer block, each with its own budget, and per file
    within a block; each block's Lagrangian dual bounds its part."""

    @pytest.fixture(scope="class")
    def bound(self, ctx):
        """The smallest t, by bisection, at which the summed block duals of
        h_bf(x) = R_bf(x) - t P_bf(x) on a 2001-point grid, minus t p_fix,
        are <= 0."""
        f = ctx.profile.f_count
        x = np.linspace(0.0, 1.0, 2001)
        grid = np.repeat(x[:, None], f, axis=1)
        blocks, p_fix = _layer_blocks(grid, grid, ctx.profile, ctx.net,
                                      ctx.content, ctx.coeff)
        rows = []
        for (q, n, w, bits), r, budget in zip(blocks, (ctx._r_bl, ctx._r_el),
                                           (ctx.content.m_b, ctx.content.m_e)):
            d, tr, ca, bh = _block_terms("random", q, n, w, bits, ctx.net,
                                         ctx.coeff)
            rows.append((w * (r @ d), tr + ca + bh, budget))
        excess = lambda t: sum(_block_dual(rate - t * power, x, budget)
                               for rate, power, budget in rows) - t * p_fix
        # no policy has a rate above every file's best, or a power below p_fix
        lo = 0.0
        hi = sum(rate.max(axis=0).sum() for rate, _, _ in rows) / p_fix
        assert excess(hi) <= 0.0 < excess(lo)
        while hi - lo > 1e-10 * hi:
            t = 0.5 * (lo + hi)
            lo, hi = (lo, t) if excess(t) <= 0.0 else (t, hi)
        return hi

    def test_ascent_and_baselines_stay_below(self, ctx, bound):
        policy, _ = optimize(ucp_policy(ctx.content, mode="random"), ctx)
        ascent = ee_value(policy, ctx)
        assert ascent <= bound
        # the bound is an oracle, not a vacuous ceiling: the ascent stops
        # 9.1e-4 below it
        assert bound <= ascent * (1.0 + 2e-3)
        for baseline in (mpcp_policy(ctx.content, mode="random"),
                         ucp_policy(ctx.content, mode="random")):
            assert ee_value(baseline, ctx) <= bound
        assert icp_expected_ee(ctx, n_realizations=200, seed=0).mean <= bound
