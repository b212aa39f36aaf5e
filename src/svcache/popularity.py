"""Content request popularity and perceptual-quality preference models.

Every user requests a file's base layer; a user who prefers HD video
also requests its enhancement layer.  The HD share g_hdv of file f is
1 - (f-1)/(F-1), so the most popular file is watched only in HD and the
least popular only in SD.  The SD share needs no term of its own: an SD
request asks for the base layer, which every request already counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from svcache.config import ContentConfig


def zipf(f_count: int, zipf_alpha: float) -> np.ndarray:
    """Zipf request probabilities p_f = f^-alpha / sum_n n^-alpha.

    Files are indexed 1..F in descending popularity.  The normalizer is
    summed from the smallest terms up (f = F down to 1) to limit
    floating-point error.
    """
    if f_count < 1:
        raise ValueError("f_count must be >= 1")
    if zipf_alpha < 0:
        raise ValueError("zipf_alpha must be >= 0")
    f = np.arange(1, f_count + 1, dtype=float)
    weights = f ** (-zipf_alpha)
    norm = weights[::-1].sum()
    return weights / norm


@dataclass(frozen=True)
class PopularityProfile:
    """Per-file request probabilities and HD shares."""

    p: tuple
    g_hdv: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        object.__setattr__(self, "g_hdv", tuple(float(x) for x in self.g_hdv))
        if abs(math.fsum(self.p) - 1.0) > 1e-12:
            raise ValueError("request probabilities must sum to 1")
        if any(self.p[i] < self.p[i + 1] - 1e-15 for i in range(len(self.p) - 1)):
            raise ValueError("request probabilities must be non-increasing")
        if not all(0.0 <= h <= 1.0 for h in self.g_hdv):
            raise ValueError("g_hdv entries must lie in [0, 1]")

    @property
    def f_count(self) -> int:
        return len(self.p)


def build_profile(content: ContentConfig) -> PopularityProfile:
    """Assemble the request/preference profile for a content catalog."""
    f_count = content.f_count
    g_hdv = [1.0 - (f - 1) / (f_count - 1) for f in range(1, f_count + 1)]
    return PopularityProfile(p=tuple(zipf(f_count, content.zipf_alpha)),
                             g_hdv=tuple(g_hdv))
