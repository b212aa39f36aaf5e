"""Benchmark content-placement policies: MPCP, UCP and ICP.

A 0/1 placement, as MPCP and ICP make, has the same EE in both schemes,
smoothed or exact, so ICP is drawn and scored in fractional mode.
"""

from __future__ import annotations

import numpy as np

from svcache.config import CachingPolicy, ContentConfig
from svcache.montecarlo import Estimate
from svcache.objective import ObjectiveContext, _ee

# Most (realization x file) entries icp_expected_ee scores in one stacked
# _ee call.  A chunk's placements and _ee's temporaries take about 104
# bytes per entry (a tracemalloc peak of 10.4 MB per realization at
# F = 10^5), so whatever the realization count the chunks cap its memory
# at about 14 MB, or at one realization's where the catalog has more than
# 2^17 files.  A catalog of 20 files scores up to 6,553 realizations at
# once.
_ICP_CHUNK = 2 ** 17


def mpcp_policy(content: ContentConfig, mode: str = "fractional") -> CachingPolicy:
    """Most Popular Content Placement: cache the top-M_B/M_E files whole
    (files are sorted by request probability)."""
    f = np.arange(content.f_count)
    return CachingPolicy(mode=mode, q1=(f < content.m_b) * 1.0,
                         q2=(f < content.m_e) * 1.0)


def ucp_policy(content: ContentConfig, mode: str = "fractional") -> CachingPolicy:
    """Uniform Content Placement: equal fractions M_B/F and M_E/F everywhere."""
    f_count = content.f_count
    return CachingPolicy(mode=mode, q1=np.full(f_count, content.m_b / f_count),
                         q2=np.full(f_count, content.m_e / f_count))


def _icp_rows(content: ContentConfig, seed) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    q1 = np.zeros(content.f_count)
    q1[rng.choice(content.f_count, size=content.m_b, replace=False)] = 1.0
    q2 = np.zeros(content.f_count)
    q2[rng.choice(content.f_count, size=content.m_e, replace=False)] = 1.0
    return q1, q2


def icp_policy(content: ContentConfig, seed: int = 0) -> CachingPolicy:
    """Independent Content Placement: one uniform-random binary placement."""
    return CachingPolicy("fractional", *_icp_rows(content, seed))


def icp_expected_ee(ctx: ObjectiveContext, n_realizations: int = 1000,
                    seed: int = 0) -> Estimate:
    """Average EE of ICP over independently re-drawn placements.

    They are drawn and scored in stacked chunks of at most _ICP_CHUNK
    entries (one realization per chunk if it alone holds more).  A row's
    EE does not depend on the rows stacked with it, so the chunking moves
    no value."""
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    seeds = np.random.SeedSequence(seed).generate_state(n_realizations)
    step = max(1, _ICP_CHUNK // ctx.content.f_count)

    def score(chunk):
        placements = np.array([_icp_rows(ctx.content, int(s)) for s in chunk])
        return _ee("fractional", placements[:, 0], placements[:, 1], ctx)

    values = np.concatenate([score(seeds[lo:lo + step])
                             for lo in range(0, n_realizations, step)])
    se = float(values.std(ddof=1) / np.sqrt(n_realizations)) \
        if n_realizations > 1 else 0.0
    return Estimate(mean=float(values.mean()), std_error=se,
                    n_samples=n_realizations)
