"""Content request popularity and perceptual-quality preference models.

Every user requests a file's base layer; a user who prefers HD video
also requests its enhancement layer.  The HD share g_hdv of file f is
1 - (f-1)/(F-1), so the most popular file is watched only in HD and the
least popular only in SD.  The SD share needs no term of its own: an SD
request asks for the base layer, which every request already counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from svcache.config import ContentConfig, _unit_entries


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


@dataclass(frozen=True, eq=False)
class PopularityProfile:
    """Per-file request probabilities p and HD shares g_hdv: read-only
    length-F float64 copies, checked once here; compared by identity."""

    p: np.ndarray
    g_hdv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _unit_entries("p", self.p))
        object.__setattr__(self, "g_hdv", _unit_entries("g_hdv", self.g_hdv))
        if abs(self.p.sum() - 1.0) > 1e-12:
            raise ValueError("request probabilities must sum to 1")
        if (self.p[:-1] < self.p[1:] - 1e-15).any():
            raise ValueError("request probabilities must be non-increasing")
        if len(self.g_hdv) != self.f_count:
            raise ValueError(f"g_hdv: length {len(self.g_hdv)} != {self.f_count} files")

    @property
    def f_count(self) -> int:
        return len(self.p)


def build_profile(content: ContentConfig) -> PopularityProfile:
    """Assemble the request/preference profile for a content catalog."""
    f_count = content.f_count
    return PopularityProfile(p=zipf(f_count, content.zipf_alpha),
                             g_hdv=1.0 - np.arange(f_count) / (f_count - 1))
