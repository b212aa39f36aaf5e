"""End-to-end Monte-Carlo oracle for SIR statistics.

Samples Poisson fields of base stations and Rayleigh fading, computes
the exact SIR expressions (coherent cooperative sum for cluster service,
nearest-MBS service otherwise) and estimates success probabilities and
conditional ergodic rates empirically.

One ambient draw of the interfering fields serves every delivery mode.
Per drop it holds the MBS field (the nearest MBS, and the others beyond
it) and the SBS field as three independent PPPs over the squared radii
[0, a^2], [a^2, b^2] and [b^2, R_sim^2].  A PPP on the window is the
union of independent PPPs on a partition of it, and a PPP restricted to
a region is a PPP on that region, so each mode sees the law it would see
alone; the three modes of one drop are correlated, and no estimate uses
their joint law.  A mode's interference is the sum of the regions it
does not silence:

- nearest-MBS service: the other MBSs and every SBS;
- base-layer service: every MBS and the SBSs beyond a;
- enhancement-layer service: every MBS and the SBSs inside a or beyond b.

Cluster members that do not serve stay silent until the next
transmission.  The coherent serving signal of each (layer, n) is drawn
from its own stream of the seed, independent of the ambient stream, so
every serving count of both layers shares one ambient draw.

Drops are drawn serially in fixed-size batches; batch i of a stream
draws from child i of the stream's SeedSequence, so a seeded call
returns the same array on every run.  Each interference sum is built in
place, so its memory is two float64 arrays the size of the region's
point count in one batch, whatever the number of drops.  Each drop's
interference is summed on its own, so it does not depend on the drops
beside it in the batch, and no sum is formed by subtracting another.

The simulation window is a disk of radius R_sim = 10 / sqrt(pi*lambda_m)
centred on the user.  Each field that the window cuts off contributes
its Campbell mean 2*pi*lambda*P*R_sim^(2-alpha)/(alpha-2) to every drop
(Haenggi, Stochastic Geometry for Wireless Networks, 2012); with it,
truncation moves each success probability by less than 1e-3 for
path-loss exponents from 3 to 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from svcache.config import NetworkConfig

# Fixed batch size: it bounds the memory of one draw, and every seeded
# result depends on it through the draws.  An interference sum over a
# batch holds two arrays with one float64 per point (see _faded_sums):
# about 2 x 1.3 MB for the SBSs beyond b in the default scenario.  Each
# drop's sum is its own, whatever else the batch holds.
_BATCH = 256

WINDOW_FACTOR = 10.0

# Most points a batch may expect to draw; at two float64s a point, 2^27
# points hold 2 GiB.
_MAX_BATCH_POINTS = 2 ** 27

# Minimum number of drops that must satisfy the QoS condition before a
# conditional rate estimate is reported.
MIN_CONDITIONING_DROPS = 100


def window_radius(cfg: NetworkConfig) -> float:
    return WINDOW_FACTOR / math.sqrt(math.pi * cfg.lambda_m)


def _window(cfg: NetworkConfig) -> tuple[float, float]:
    """(R_sim^2, far): the window once the points a batch expects in it
    are known to fit, and the Campbell mean of the MBS and SBS fields
    beyond it, added to every drop's interference."""
    w2 = window_radius(cfg) ** 2
    points = (cfg.lambda_m + cfg.lambda_s) * math.pi * w2 * _BATCH
    if not points <= _MAX_BATCH_POINTS:
        raise ValueError(
            f"Monte-Carlo window too large: lambda_m = {cfg.lambda_m:g} and "
            f"lambda_s = {cfg.lambda_s:g} expect {points:.3g} points per "
            f"batch of {_BATCH} drops, above the limit of 2^27")
    return w2, (_far_mean(cfg.lambda_m, cfg.p_m, cfg.alpha_m, w2)
                + _far_mean(cfg.lambda_s, cfg.p_s, cfg.alpha_s, w2))


def _far_mean(density, power, alpha, r2):
    """Campbell mean of a PPP field's interference beyond radius^2 r2."""
    return (2.0 * math.pi * density * power * r2 ** (1.0 - alpha / 2.0)
            / (alpha - 2.0))


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int


def _faded_sums(rng, r2, counts, power, alpha):
    """Per-drop sums of fade * power * r2^(-alpha/2), where drop i holds the
    next counts[i] points of r2 and the unit-mean fades are drawn here.

    Each drop is summed on its own (np.add.reduceat over its segment), so
    its sum does not depend on the drops beside it in the batch: a huge
    term from a very close interferer costs no other drop any precision.
    r2 is overwritten.  The fades are drawn straight into a buffer of one
    more entry than r2, which holds 0.0 so that trailing empty drops have a
    valid start, and the terms are formed in it in place; a call holds two
    per-point arrays: r2 and that buffer.  At alpha = 4 the terms divide by
    r2 * r2.  A drop with no points sums to exactly 0.0.
    """
    buf = np.empty(r2.size + 1)
    terms = buf[:-1]
    # Draws the same numbers as rng.exponential(1.0, r2.size).
    rng.standard_exponential(out=terms)
    buf[-1] = 0.0
    if alpha == 4.0:
        r2 *= r2
        terms /= r2
    else:
        np.power(r2, -alpha / 2.0, out=r2)
        terms *= r2
    sums = np.add.reduceat(buf, np.cumsum(counts) - counts)
    # reduceat gives an empty drop the next drop's first term.
    sums[counts == 0] = 0.0
    sums *= power
    return sums


def _interference(rng, density, r2_lo, r2_hi, power, alpha, n_drops):
    """Per-drop PPP interference powers over an annular region (radii^2)."""
    if r2_hi <= r2_lo:
        return np.zeros(n_drops)
    counts = rng.poisson(density * math.pi * (r2_hi - r2_lo), n_drops)
    # The numbers of rng.uniform(r2_lo, r2_hi, k), built in place.
    r2 = rng.random(int(counts.sum()))
    r2 *= r2_hi - r2_lo
    r2 += r2_lo
    return _faded_sums(rng, r2, counts, power, alpha)


def _run_batches(worker, n_drops: int, seed: int,
                 stream: tuple = ()) -> np.ndarray:
    """worker(seed_seq, size) for each batch, joined along the last axis
    into one read-only array.  Batch i draws from child i of the seed's
    stream: SeedSequence(seed, spawn_key=stream)."""
    if n_drops < 1:
        raise ValueError("n_drops must be >= 1")
    seeds = np.random.SeedSequence(seed, spawn_key=stream).spawn(
        (n_drops + _BATCH - 1) // _BATCH)
    out = np.concatenate([worker(s, min(_BATCH, n_drops - i * _BATCH))
                          for i, s in enumerate(seeds)], axis=-1)
    out.setflags(write=False)
    return out


# The ambient draw keeps its last result only: one run asks for one
# (cfg, n_drops, seed), and an older draw would stay in memory.
@functools.lru_cache(maxsize=1)
def _ambient(cfg: NetworkConfig, n_drops: int, seed: int) -> np.ndarray:
    """One draw of every interfering field: a read-only (5, n_drops)
    array whose rows are, per drop, the nearest MBS's faded power (near),
    the other MBSs' plus the Campbell mean beyond the window (rest), and
    the SBSs' over the squared radii [0, a^2], [a^2, b^2] and
    [b^2, R_sim^2] (in, ring, out), each edge capped at R_sim^2."""
    w2, far = _window(cfg)
    a2, b2 = min(cfg.a ** 2, w2), min(cfg.b ** 2, w2)
    mean_mbs = cfg.lambda_m * math.pi * w2

    def worker(seed_seq, size):
        rng = np.random.default_rng(seed_seq)
        # mean_mbs = WINDOW_FACTOR^2 = 100 for every config, so a drop has
        # no MBS with probability e^-100, about 3.7e-44: negligible.
        counts = rng.poisson(mean_mbs, size)
        # Nearest-of-m uniform-in-disk distance, remaining MBSs beyond it.
        min_r2 = w2 * (1.0 - rng.random(size) ** (1.0 / counts))
        near = (rng.exponential(1.0, size) * cfg.p_m
                * min_r2 ** (-cfg.alpha_m / 2.0))
        n_interf = counts - 1
        # r2 = lo + u * (w2 - lo) with lo the drop's min_r2, built in place.
        r2 = rng.random(int(n_interf.sum()))
        r2 *= np.repeat(w2 - min_r2, n_interf)
        r2 += np.repeat(min_r2, n_interf)
        rest = _faded_sums(rng, r2, n_interf, cfg.p_m, cfg.alpha_m)
        rest += far
        return np.stack([near, rest] + [
            _interference(rng, cfg.lambda_s, lo, hi, cfg.p_s, cfg.alpha_s,
                          size)
            for lo, hi in ((0.0, a2), (a2, b2), (b2, w2))])

    return _run_batches(worker, n_drops, seed)


def _serving(cfg: NetworkConfig, layer: str, n_serving: int, n_drops: int,
             seed: int) -> np.ndarray:
    """Per-drop coherent signal power p_s |sum_i h_i r_i^(-alpha_s/2)|^2 of
    n_serving SBSs uniform in the layer's ring (the disk of radius a for
    'BL', the annulus from a to b for 'EL'), with CN(0, 1) fades h_i.  It
    is drawn from the stream SeedSequence(seed, spawn_key=(tag, n_serving)),
    tag 1 for 'BL' and 2 for 'EL', apart from the ambient stream."""
    tag, n_cluster, lo2, hi2 = ((1, cfg.n1, 0.0, cfg.a ** 2) if layer == "BL"
                                else (2, cfg.n2, cfg.a ** 2, cfg.b ** 2))
    if not 1 <= n_serving <= n_cluster:
        raise ValueError("n_serving must lie in 1..cluster size")

    def worker(seed_seq, size):
        rng = np.random.default_rng(seed_seq)
        r2 = rng.uniform(lo2, hi2, (size, n_serving))
        h = (rng.standard_normal((size, n_serving))
             + 1j * rng.standard_normal((size, n_serving))) / math.sqrt(2)
        amp = (h * r2 ** (-cfg.alpha_s / 4.0)).sum(axis=1)
        return cfg.p_s * np.abs(amp) ** 2

    return _run_batches(worker, n_drops, seed, (tag, n_serving))


def _sir(signal, *interference) -> np.ndarray:
    """signal over the interference columns summed left to right, as a
    read-only array."""
    sir = signal / sum(interference[1:], interference[0])
    sir.setflags(write=False)
    return sir


# Each sampler keeps its last draw only: one run asks each sampler for one
# (cfg, n_serving, n_drops, seed), and an older draw would stay in memory.
@functools.lru_cache(maxsize=1)
def sir_samples_mbs(cfg: NetworkConfig, n_drops: int, seed: int = 0) -> np.ndarray:
    """SIR samples for nearest-MBS service (one value per drop)."""
    near, rest, i_in, i_ring, i_out = _ambient(cfg, n_drops, seed)
    return _sir(near, rest, i_in, i_ring, i_out)


@functools.lru_cache(maxsize=1)
def sir_samples_sbs_bl(cfg: NetworkConfig, n_serving: int, n_drops: int,
                       seed: int = 0) -> np.ndarray:
    """SIR samples for cooperative base-layer delivery: the SBSs inside a
    are silent."""
    signal = _serving(cfg, "BL", n_serving, n_drops, seed)
    near, rest, _, i_ring, i_out = _ambient(cfg, n_drops, seed)
    return _sir(signal, near, rest, i_ring, i_out)


@functools.lru_cache(maxsize=1)
def sir_samples_sbs_el(cfg: NetworkConfig, n_serving: int, n_drops: int,
                       seed: int = 0) -> np.ndarray:
    """SIR samples for cooperative enhancement-layer delivery: the SBSs
    from a to b are silent."""
    signal = _serving(cfg, "EL", n_serving, n_drops, seed)
    near, rest, i_in, _, i_out = _ambient(cfg, n_drops, seed)
    return _sir(signal, near, rest, i_in, i_out)


def _success_estimate(sir: np.ndarray, gamma: float) -> Estimate:
    p = float((sir >= gamma).mean())
    se = math.sqrt(p * (1.0 - p) / len(sir))
    return Estimate(mean=p, std_error=se, n_samples=len(sir))


def _sir_samples(cfg: NetworkConfig, source: str, n_serving: int,
                 n_drops: int, seed: int) -> np.ndarray:
    # The samplers are looked up as module globals at call time, so a
    # wrapper set on the module attribute sees every estimate's draw.
    if source == "MBS":
        return sir_samples_mbs(cfg, n_drops, seed)
    if source == "SBS-BL":
        return sir_samples_sbs_bl(cfg, n_serving, n_drops, seed)
    if source == "SBS-EL":
        return sir_samples_sbs_el(cfg, n_serving, n_drops, seed)
    raise ValueError(f"unknown source {source!r}: "
                     "must be 'MBS', 'SBS-BL' or 'SBS-EL'")


def estimate_p_success_mbs(cfg: NetworkConfig, gamma: float, n_drops: int,
                           seed: int = 0) -> Estimate:
    """Empirical P(SIR_M >= gamma)."""
    return _success_estimate(_sir_samples(cfg, "MBS", 1, n_drops, seed),
                             gamma)


def estimate_p_success_sbs(cfg: NetworkConfig, gamma: float, layer: str,
                           n_serving: int, n_drops: int,
                           seed: int = 0) -> Estimate:
    """Empirical P(SIR_S,layer >= gamma) for layer in {'BL', 'EL'}."""
    return _success_estimate(
        _sir_samples(cfg, f"SBS-{layer}", n_serving, n_drops, seed), gamma)


def estimate_ergodic_rate(cfg: NetworkConfig, gamma: float, source: str,
                          n_drops: int, seed: int = 0,
                          n_serving: int = 1) -> Estimate:
    """W-scaled conditional mean of log2(1+SIR) over drops with SIR >= gamma.

    source is 'MBS', 'SBS-BL' or 'SBS-EL'; the latter two require
    n_serving.  Raises if fewer than MIN_CONDITIONING_DROPS drops meet
    the condition.
    """
    sir = _sir_samples(cfg, source, n_serving, n_drops, seed)
    hits = sir[sir >= gamma]
    if len(hits) < MIN_CONDITIONING_DROPS:
        raise RuntimeError(
            f"only {len(hits)} drops satisfied SIR >= {gamma}; "
            f"raise n_drops (need >= {MIN_CONDITIONING_DROPS})")
    logs = np.log2(1.0 + hits)
    mean = cfg.w * float(logs.mean())
    se = cfg.w * float(logs.std(ddof=1)) / math.sqrt(len(hits))
    return Estimate(mean=mean, std_error=se, n_samples=len(hits))
