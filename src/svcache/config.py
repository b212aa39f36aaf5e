"""Scenario description: network, content and power constants.

All physical quantities are stored in SI units (watts, hertz, metres,
bits, linear SIR).  The scenario file may give powers in dBm and SIR
thresholds in dB; they are converted on load.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class NetworkConfig:
    """Physical-layer constants of the two-tier network.

    Densities are points per square metre, powers in watts, radii in
    metres, bandwidth in Hz, QoS thresholds in linear SIR.
    """

    lambda_m: float = 1.0 / (250.0 ** 2 * math.pi)  # MBS density
    lambda_s: float = 1.0 / (100.0 ** 2 * math.pi)  # SBS density
    p_m: float = dbm_to_watts(43.0)    # MBS transmit power
    p_s: float = dbm_to_watts(23.0)    # SBS transmit power
    alpha_m: float = 4.0               # MBS path-loss exponent
    alpha_s: float = 4.0               # SBS path-loss exponent
    a: float = 50.0                    # inner cluster radius
    b: float = 100.0                   # outer cluster radius
    n1: int = 4                        # SBS count in the inner cluster
    n2: int = 4                        # SBS count in the outer cluster
    w: float = 10e6                    # bandwidth
    gamma_bl: float = db_to_linear(10.0)  # BL QoS threshold
    gamma_el: float = db_to_linear(5.0)   # EL QoS threshold

    def __post_init__(self):
        _require_finite(self)
        _require(self.lambda_m > 0, "lambda_m", "must be > 0")
        _require(self.lambda_s > 0, "lambda_s", "must be > 0")
        _require(self.p_m > 0, "p_m", "must be > 0")
        _require(self.p_s > 0, "p_s", "must be > 0")
        _require(self.alpha_m > 2, "alpha_m", "must be > 2")
        _require(self.alpha_s > 2, "alpha_s", "must be > 2")
        _require(0 < self.a, "a", "must be > 0")
        _require(self.a < self.b, "a", "must satisfy a < b")
        _require(self.n1 >= 0, "n1", "must be >= 0")
        _require(self.n2 >= 0, "n2", "must be >= 0")
        _require(self.w > 0, "w", "must be > 0")
        _require(self.gamma_bl > 0, "gamma_bl", "must be > 0")
        _require(self.gamma_el > 0, "gamma_el", "must be > 0")


@dataclass(frozen=True)
class ContentConfig:
    """Video catalog and per-SBS cache capacity (sizes in bits)."""

    f_count: int = 20        # catalog size
    l_b: float = 1e8         # base-layer size
    l_e: float = 2e8         # enhancement-layer size
    m_cache: float = 5e8     # per-SBS cache size
    zipf_alpha: float = 1.0  # popularity skewness

    def __post_init__(self):
        _require_finite(self)
        _require(self.f_count >= 2, "f_count", "must be >= 2")
        _require(self.l_b >= 0, "l_b", "must be >= 0")
        _require(self.l_e >= 0, "l_e", "must be >= 0")
        _require(self.m_cache >= 0, "m_cache", "must be >= 0")
        _require(self.zipf_alpha >= 0, "zipf_alpha", "must be >= 0")

    @property
    def m_b(self) -> int:
        """Number of cacheable base layers, clamped to the catalog size."""
        if self.l_b == 0:
            return self.f_count
        return int(min(self.m_cache // self.l_b, self.f_count))

    @property
    def m_e(self) -> int:
        """Number of cacheable enhancement layers, clamped to the catalog size."""
        if self.l_e == 0:
            return self.f_count
        return int(min(self.m_cache // self.l_e, self.f_count))


@dataclass(frozen=True)
class PowerCoefficients:
    """Caching / backhaul / amplifier / fixed power constants."""

    c_ca: float = 6.25e-12   # caching coefficient, W/bit
    c_bh: float = 5e-7       # backhaul coefficient, W/bit
    zeta_s: float = 4.7      # SBS amplifier efficiency coefficient
    zeta_m: float = 4.7      # MBS amplifier efficiency coefficient
    p_s_fix: float = 6.8     # SBS fixed power, W
    p_m_fix: float = 130.0   # MBS fixed power, W

    def __post_init__(self):
        _require_finite(self)
        for key in ("c_ca", "c_bh", "zeta_s", "zeta_m", "p_s_fix", "p_m_fix"):
            _require(getattr(self, key) >= 0, key, "must be >= 0")
        if self.c_ca > self.c_bh:
            warnings.warn(
                "c_ca > c_bh: caching costs more power per bit than backhaul",
                stacklevel=3,
            )


@dataclass(frozen=True, eq=False)
class CachingPolicy:
    """Per-file caching fractions (fractional) or probabilities (random).

    q1 covers base layers, q2 enhancement layers: read-only length-F
    float64 copies in [0, 1], checked once here; compared by identity.
    """

    mode: str           # "fractional" (Scheme I) or "random" (Scheme II)
    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        _require(self.mode in ("fractional", "random"), "mode",
                 "must be 'fractional' or 'random'")
        object.__setattr__(self, "q1", _unit_entries("q1", self.q1, 1e-12))
        object.__setattr__(self, "q2", _unit_entries("q2", self.q2, 1e-12))
        _require(len(self.q1) == len(self.q2), "q1", "length mismatch with q2")

    @property
    def f_count(self) -> int:
        return len(self.q1)

    def validate_budget(self, content: ContentConfig) -> None:
        """Check the cache-size budget equalities sum(q1)=M_B, sum(q2)=M_E."""
        check_budget(self.q1, self.q2, content)


_BUDGET_TOL = 1e-9


def check_budget(q1, q2, content: ContentConfig) -> None:
    """Check sum(q1)=M_B and sum(q2)=M_E for length-F float arrays.  numpy's
    pairwise sum misses the exact sum of a uniform catalog by at most
    4.4e-16 up to F = 10^6, far inside the 1e-9 tolerance."""
    _require(len(q1) == content.f_count, "q1",
             f"length {len(q1)} != catalog size {content.f_count}")
    for name, q, budget, layer in (("q1", q1, content.m_b, "BL"),
                                   ("q2", q2, content.m_e, "EL")):
        total = float(q.sum())
        if abs(total - budget) > _BUDGET_TOL:
            raise ValueError(f"{name}: sum {total} != {layer} budget {budget}")


def _require(cond: bool, key: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"{key}: {msg}")


def _require_finite(config) -> None:
    """Reject inf or NaN in any float field of a scenario dataclass."""
    for f in fields(config):
        # Annotations are strings here (postponed evaluation).
        if f.type == "float":
            _require(math.isfinite(getattr(config, f.name)), f.name,
                     "must be finite")


def _unit_entries(key: str, values, tol: float = 0.0) -> np.ndarray:
    """A read-only float64 copy of values, each in [-tol, 1 + tol] (not NaN)."""
    vec = np.array(values, dtype=float)
    bad = ~((vec >= -tol) & (vec <= 1 + tol))
    if bad.any():
        raise ValueError(f"{key}: entry {vec[bad.argmax()]} outside [0, 1]")
    vec.setflags(write=False)
    return vec


# Scenario file schema: flat "key = value" lines, '#' comments.  A key is a
# field of one of the config classes, or one of the alternate spellings
# below.  Values are finite numbers, integers for the int fields.  Unlisted
# keys fall back to defaults.
_SCENARIO_CLASSES = (NetworkConfig, ContentConfig, PowerCoefficients)
# Spellings of the NetworkConfig fields that have a unit choice, with the
# conversion to SI; a scenario gives at most one spelling per field.
_ALT_KEYS = {"p_m_w": ("p_m", float), "p_m_dbm": ("p_m", dbm_to_watts),
             "p_s_w": ("p_s", float), "p_s_dbm": ("p_s", dbm_to_watts),
             "gamma_bl": ("gamma_bl", float),
             "gamma_bl_db": ("gamma_bl", db_to_linear),
             "gamma_el": ("gamma_el", float),
             "gamma_el_db": ("gamma_el", db_to_linear)}


def _parse_kv(path, int_keys) -> dict:
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        try:
            value = float(value.strip())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value for {key!r}") from None
        if key in int_keys:
            if not value.is_integer():
                raise ValueError(
                    f"{path}:{lineno}: {key}: must be an integer, got {value!r}")
            value = int(value)
        elif not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: {key} must be finite")
        raw[key] = value
    return raw


def load_scenario(path) -> tuple[NetworkConfig, ContentConfig, PowerCoefficients]:
    """Load and validate a scenario file, filling gaps with defaults."""
    spelled_only = {name for name, _ in _ALT_KEYS.values()}
    # Annotations are strings here (postponed evaluation).
    direct = {f.name: f.type for cls in _SCENARIO_CLASSES for f in fields(cls)
              if f.name not in spelled_only}
    raw = _parse_kv(path, {key for key, kind in direct.items() if kind == "int"})
    for key in raw:
        if key not in direct and key not in _ALT_KEYS:
            raise ValueError(f"{key}: unknown scenario key")
    values = {key: value for key, value in raw.items() if key in direct}

    spelled = {}
    for key, (name, convert) in _ALT_KEYS.items():
        if key in raw:
            if name in spelled:
                raise ValueError(f"{name}: both {spelled[name]} and {key} given")
            spelled[name] = key
            try:
                values[name] = convert(raw[key])
            except OverflowError:
                raise ValueError(f"{key}: {raw[key]:g} is out of range") from None

    net, content, coeff = (cls(**{f.name: values[f.name] for f in fields(cls)
                                  if f.name in values})
                           for cls in _SCENARIO_CLASSES)
    return net, content, coeff
