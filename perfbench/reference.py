"""Fixed reference computations that gauge how fast the machine runs now.

On a shared machine the same repetition can take 1.5 to 2 times as long,
for seconds or for minutes, while the process's CPU time still equals its
wall time.  The computations come in three kinds of step, one for each kind
of work svcache does, each a few milliseconds long:

* ``vector``   - element-wise maths on a 200k-element array (the analytic
  layer);
* ``objects``  - small frozen dataclasses and tiny arrays (the objective and
  optimizer);
* ``sampling`` - random draws with ragged sums (the Monte-Carlo samplers).

``Sampler`` runs steps during a repetition, every quarter second, and the
benchmark reports repetition time in units of the mean step time
(``run_ref``).  That cancels most of the drift, because the steps run on the
same CPU, at the same moments and next to the same data as the repetition.
``reference_s`` runs a whole pass of all three kinds, which gauges set-up
time.

The steps must never change: a different step changes every ``run_ref``,
and the baseline has to be measured again.
"""

from __future__ import annotations

import functools
import math
import signal
import time
from dataclasses import dataclass

import numpy as np

_BASE = np.linspace(0.0, 1.0, 20)
_RNG = np.random.default_rng(12345)


@dataclass(frozen=True)
class _Box:
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(float(x) for x in self.q))


@functools.cache
def _scale() -> np.ndarray:
    return ((np.random.default_rng(12345).random((200_000, 4)) * 2500.0 + 1.0)
            ** -2.0).sum(axis=1)


def _vector(k: int) -> float:
    c = (1.0 + k % 72) / _scale()
    return float(np.exp(-math.pi * np.sqrt(c) * (
        1e-4 * (math.pi / 2.0 - np.arctan(2500.0 / np.sqrt(c))) + 1e-5)).mean())


def _objects(k: int) -> float:
    acc = 0.0
    for j in range(300):
        v = np.asarray(_Box(_BASE + (300 * k + j) * 1e-9).q)
        acc += float(np.sum(v * (1.0 - v)))
    return acc


def _sampling(k: int) -> float:
    counts = _RNG.poisson(6.0, 15_000)
    total = int(counts.sum())
    r2 = _RNG.uniform(1.0, 2.0, total)
    csum = np.concatenate(([0.0], np.cumsum(_RNG.exponential(1.0, total)
                                            / (r2 * r2))))
    ends = np.cumsum(counts)
    return float((csum[ends] - csum[ends - counts]).mean())


STEPS = {"vector": _vector, "objects": _objects, "sampling": _sampling}


def _check(acc: float) -> None:
    if not math.isfinite(acc):
        raise ArithmeticError("reference step produced a non-finite sum")


def reference_s() -> float:
    """Wall time of one pass: 72 steps of each kind, 0.7-0.9 s on the
    machine of the first baseline."""
    t0 = time.perf_counter()
    _check(sum(step(k) for step in STEPS.values() for k in range(72)))
    return time.perf_counter() - t0


class Sampler:
    """While active, runs one step of each of ``kinds`` every ``interval``
    seconds of wall time, from a ``SIGALRM`` handler in the main thread,
    and sums the steps' time in ``step_s`` over ``count`` >= 1 steps."""

    def __init__(self, kinds: tuple, interval: float = 0.25):
        self.steps = [STEPS[kind] for kind in kinds]
        self.interval = interval
        self.step_s, self.count = 0.0, 0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _check(sum(step(self.count) for step in self.steps))
        self.step_s += time.perf_counter() - t0
        self.count += 1

    def __enter__(self):
        for step in self.steps:  # untimed: the first call allocates
            step(0)
        self.step_s, self.count = 0.0, 0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.count == 0:  # a repetition shorter than one interval
            self._handler(None, None)
        return False
