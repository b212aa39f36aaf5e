"""Scenario constants: validation, unit conversion and file loading."""

import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from svcache.config import (_ALT_KEYS, _SCENARIO_CLASSES, CachingPolicy,
                            ContentConfig, NetworkConfig, PowerCoefficients,
                            check_budget, db_to_linear, dbm_to_watts,
                            load_scenario)

README = Path(__file__).resolve().parents[1] / "README.md"
# (class, field) of every float field of the scenario dataclasses
FLOAT_FIELDS = [(cls, f.name) for cls in _SCENARIO_CLASSES
                for f in fields(cls) if f.type == "float"]


class TestConversions:
    def test_dbm_reference_points(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(23.0) == pytest.approx(0.199526, rel=1e-5)
        assert dbm_to_watts(43.0) == pytest.approx(19.9526, rel=1e-5)

    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(-10.0) == pytest.approx(0.1)


class TestNetworkConfig:
    def test_defaults(self, net):
        assert net.lambda_m == pytest.approx(1.0 / (250.0 ** 2 * math.pi))
        assert net.lambda_s == pytest.approx(1.0 / (100.0 ** 2 * math.pi))
        assert net.p_s == pytest.approx(dbm_to_watts(23.0))
        assert net.p_m == pytest.approx(dbm_to_watts(43.0))
        assert net.alpha_m == net.alpha_s == 4.0
        assert (net.a, net.b) == (50.0, 100.0)
        assert (net.n1, net.n2) == (4, 4)
        assert net.w == 10e6
        assert net.gamma_bl == pytest.approx(10.0)
        assert net.gamma_el == pytest.approx(db_to_linear(5.0))

    @pytest.mark.parametrize("kwargs", [
        {"a": 100.0, "b": 50.0},
        {"alpha_m": 2.0},
        {"alpha_s": 1.5},
        {"lambda_m": 0.0},
        {"p_s": -1.0},
        {"w": 0.0},
        {"gamma_bl": 0.0},
        {"n1": -1},
    ])
    def test_invariant_violations(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)


class TestContentConfig:
    def test_cache_budgets(self, content):
        # 5e8-bit cache, 1e8-bit base layers, 2e8-bit enhancement layers
        assert content.m_b == 5
        assert content.m_e == 2

    def test_zero_cache(self):
        c = ContentConfig(m_cache=0.0)
        assert c.m_b == 0 and c.m_e == 0

    def test_budget_clamped_to_catalog(self):
        c = ContentConfig(m_cache=1e12)
        assert c.m_b == c.f_count and c.m_e == c.f_count
        # m_cache / l_b overflows to inf before the clamp
        c = ContentConfig(l_b=1e-320, l_e=1e-320)
        assert c.m_b == c.f_count and c.m_e == c.f_count

    def test_floor_semantics(self):
        c = ContentConfig(m_cache=2.99e8)
        assert c.m_b == 2 and c.m_e == 1

    def test_catalog_too_small(self):
        with pytest.raises(ValueError):
            ContentConfig(f_count=1)

    @pytest.mark.parametrize("size, budget", [("l_b", "m_b"), ("l_e", "m_e")])
    def test_zero_layer_size_caches_the_whole_catalog(self, size, budget):
        c = ContentConfig(**{size: 0.0})
        assert getattr(c, budget) == c.f_count


class TestPowerCoefficients:
    def test_defaults(self, coeff):
        assert coeff.c_ca == 6.25e-12
        assert coeff.c_bh == 5e-7
        assert coeff.zeta_s == coeff.zeta_m == 4.7
        assert coeff.p_s_fix == 6.8
        assert coeff.p_m_fix == 130.0

    def test_warns_when_caching_costs_more_than_backhaul(self):
        with pytest.warns(UserWarning) as record:
            PowerCoefficients(c_ca=1.0, c_bh=0.5)
        # the warning names the line that built the coefficients
        assert Path(record[0].filename) == Path(__file__)

    def test_equal_costs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PowerCoefficients(c_ca=0.0, c_bh=0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PowerCoefficients(c_bh=-1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("cls, key", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{key}" for cls, key in FLOAT_FIELDS])
def test_non_finite_field_rejected(cls, key, value):
    """A dataclass built directly rejects inf and NaN with one line, as
    load_scenario does for a scenario file."""
    with pytest.raises(ValueError) as exc:
        cls(**{key: value})
    assert str(exc.value) == f"{key}: must be finite"


class TestCachingPolicy:
    def test_valid(self):
        p = CachingPolicy(mode="fractional", q1=(0.5, 0.5), q2=(1.0, 0.0))
        assert p.f_count == 2

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            CachingPolicy(mode="greedy", q1=(0.5,), q2=(0.5,))

    def test_out_of_box(self):
        with pytest.raises(ValueError):
            CachingPolicy(mode="random", q1=(1.5,), q2=(0.5,))

    @pytest.mark.parametrize("bad, shown", [(1.5, "1.5"), (-0.25, "-0.25"),
                                            (math.nan, "nan")])
    @pytest.mark.parametrize("block", ["q1", "q2"])
    def test_first_bad_entry_named(self, block, bad, shown):
        """An out-of-range or NaN entry is rejected, and the message names
        the first bad entry of its block."""
        vec = [0.5, 1.0, bad, 2.0, 0.0]
        other = [0.5] * len(vec)
        kwargs = {"q1": other, "q2": other, block: vec}
        with pytest.raises(ValueError,
                           match=rf"^{block}: entry {shown} outside \[0, 1\]$"):
            CachingPolicy(mode="fractional", **kwargs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CachingPolicy(mode="random", q1=(0.5, 0.5), q2=(0.5,))

    def test_holds_read_only_copies(self):
        q1, q2 = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        policy = CachingPolicy(mode="fractional", q1=q1, q2=q2)
        q1[0], q2[0] = 0.25, 0.0
        assert policy.q1.tolist() == [0.5, 0.5]
        assert policy.q2.tolist() == [1.0, 0.0]
        # compared by identity: equal entries do not make equal policies
        assert policy == policy
        assert policy != CachingPolicy(mode="fractional", q1=policy.q1,
                                       q2=policy.q2)
        for vec in (policy.q1, policy.q2):
            assert vec.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 0.0

    def test_budget_validation(self, content):
        f = content.f_count
        good = CachingPolicy(mode="fractional",
                             q1=(content.m_b / f,) * f,
                             q2=(content.m_e / f,) * f)
        good.validate_budget(content)
        bad = CachingPolicy(mode="fractional", q1=(0.0,) * f, q2=(0.0,) * f)
        with pytest.raises(ValueError):
            bad.validate_budget(content)

    def test_budget_check_at_large_catalog(self):
        """At F = 1e5 the uniform placement meets both budgets, and a miss
        of 2e-9, twice the tolerance, in either block is rejected."""
        content = ContentConfig(f_count=10 ** 5, zipf_alpha=0.0)
        f = content.f_count
        q1, q2 = np.full(f, content.m_b / f), np.full(f, content.m_e / f)
        check_budget(q1, q2, content)
        short, over = q1.copy(), q2.copy()
        short[0] -= 2e-9
        over[-1] += 2e-9
        with pytest.raises(ValueError, match="q1: sum"):
            check_budget(short, q2, content)
        with pytest.raises(ValueError, match="q2: sum"):
            check_budget(q1, over, content)


class TestLoadScenario:
    def test_empty_file_gives_defaults(self, tmp_path, net, content, coeff):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        n, c, pw = load_scenario(p)
        assert n == net and c == content and pw == coeff

    def test_loading_twice_identical(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("a = 40\nb = 80\nf_count = 10\n")
        assert load_scenario(p) == load_scenario(p)

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("# header\n\na = 40  # inline\n")
        n, _, _ = load_scenario(p)
        assert n.a == 40.0

    def test_dbm_and_db_alternates(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("p_s_dbm = 30\np_m_w = 10\ngamma_bl_db = 3\n")
        n, _, _ = load_scenario(p)
        assert n.p_s == pytest.approx(1.0)
        assert n.p_m == 10.0
        assert n.gamma_bl == pytest.approx(db_to_linear(3.0))

    def test_conflicting_power_keys(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("p_s_dbm = 30\np_s_w = 1\n")
        with pytest.raises(ValueError):
            load_scenario(p)

    @pytest.mark.parametrize("text", ["gamma_bl = 3\ngamma_bl_db = 10\n",
                                      "gamma_el_db = 5\ngamma_el = 2\n"])
    def test_conflicting_threshold_keys(self, tmp_path, text):
        p = tmp_path / "s.cfg"
        p.write_text(text)
        with pytest.raises(ValueError, match="gamma_.l: both"):
            load_scenario(p)

    @pytest.mark.parametrize("key, value", [("n1", "2.5"), ("n2", "inf"),
                                            ("f_count", "20.7")])
    def test_non_integral_count_rejected(self, tmp_path, key, value):
        p = tmp_path / "s.cfg"
        p.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"{key}: must be an integer"):
            load_scenario(p)

    def test_integral_counts_load_as_int(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("n1 = 3.0\nn2 = 2\nf_count = 1e1\n")
        n, c, _ = load_scenario(p)
        assert (n.n1, n.n2, c.f_count) == (3, 2, 10)
        assert all(type(x) is int for x in (n.n1, n.n2, c.f_count))

    def test_invalid_radii(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("a = 100\nb = 50\n")
        with pytest.raises(ValueError, match="a"):
            load_scenario(p)

    def test_zero_cache_scenario(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("m_cache = 0\n")
        _, c, _ = load_scenario(p)
        assert c.m_b == 0 and c.m_e == 0

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("bandwidth = 10\n")
        with pytest.raises(ValueError, match="unknown"):
            load_scenario(p)

    @pytest.mark.parametrize("key", ["p_m", "p_s"])
    def test_power_needs_its_unit(self, tmp_path, key):
        p = tmp_path / "s.cfg"
        p.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match=f"{key}: unknown"):
            load_scenario(p)

    def test_readme_example_loads(self, tmp_path, net, content, coeff):
        block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        p = tmp_path / "readme.cfg"
        p.write_text(block)
        loaded = load_scenario(p)
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
                if "=" in line.split("#", 1)[0]}
        named = {_ALT_KEYS[k][0] if k in _ALT_KEYS else k for k in keys}
        # the example spells out every field at its (rounded) default
        for got, default in zip(loaded, (net, content, coeff)):
            for f in fields(default):
                assert f.name in named
                assert getattr(got, f.name) == pytest.approx(
                    getattr(default, f.name), rel=1e-3), f.name

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            load_scenario(p)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("a = fifty\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_scenario(p)
