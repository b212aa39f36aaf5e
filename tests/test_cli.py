"""Command-line entry points: outputs, manifests and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from svcache import analytic, cli, montecarlo
from svcache.baselines import ucp_policy
from svcache.config import _ALT_KEYS, _SCENARIO_CLASSES, load_scenario
from svcache.objective import ObjectiveContext, ee_value
from svcache.popularity import build_profile

LIGHT_SCENARIO = """\
# small single-helper network for fast end-to-end runs
n1 = 1
n2 = 1
f_count = 10
m_cache = 3e8
"""
ZERO_POWER_SCENARIO = LIGHT_SCENARIO + "".join(
    f"{key} = 0\n"
    for key in ("c_ca", "c_bh", "zeta_s", "zeta_m", "p_s_fix", "p_m_fix"))
FLOAT_KEYS = sorted([f.name for cls in _SCENARIO_CLASSES for f in fields(cls)
                     if f.type == "float" and f.name not in
                     {name for name, _ in _ALT_KEYS.values()}] + list(_ALT_KEYS))


@pytest.fixture(scope="module")
def light_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "light.cfg"
    path.write_text(LIGHT_SCENARIO)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestValidate:
    def test_cross_check_passes(self, light_cfg, tmp_path):
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "--drops", "4096", "validate"])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "validate.csv")
        assert header == ["quantity", "gamma_db", "analytic", "mc_mean",
                          "mc_std_error", "status"]
        assert len(rows) == len(cli.GAMMA_GRID_DB) * 6
        statuses = {r[-1] for r in rows}
        assert statuses <= {"pass", "inconclusive"}
        assert "pass" in statuses

    @pytest.mark.parametrize("drops", [3, 20, 512])
    def test_too_few_drops_is_inconclusive_not_fail(self, light_cfg, tmp_path,
                                                    drops):
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "--drops", str(drops), "validate"])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "validate.csv")
        assert "fail" not in {r[-1] for r in rows}

    def test_probability_verdict_uses_the_binomial_error_at_the_analytic_value(
            self):
        """No drop succeeding gives a plug-in error of 0, which must not
        make the row conclusive: 20 drops all miss a p of 0.039 45% of the
        time."""
        def status(kind, value, mean, std_error, n):
            return cli._status(kind, value,
                               montecarlo.Estimate(mean, std_error, n))

        assert status("p_success", 0.039, 0.0, 0.0, 20) == "inconclusive"
        assert status("p_success", 2.4e-6, 0.0, 0.0, 20) == "pass"
        assert status("p_success", 0.1, 0.5, 0.005, 10_000) == "fail"
        # a rate keeps the estimate's own error: 3% of the value is too wide
        assert status("ergodic_rate", 1e6, 1e6, 3e4, 500) == "inconclusive"
        assert status("ergodic_rate", 1e6, 1.05e6, 1e3, 500) == "fail"


class TestAnalyze:
    def test_writes_probabilities_and_rate_table(self, light_cfg, tmp_path):
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "analyze"])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "analyze.csv")
        assert header == ["quantity", "gamma_db", "value"]
        # 3 probabilities per threshold plus 2 + n1 + n2 rate entries
        assert len(rows) == len(cli.GAMMA_GRID_DB) * 3 + 4
        names = {r[0] for r in rows}
        assert {"p_success_mbs", "rate_mbs_bl_threshold",
                "rate_sbs_bl_n1", "rate_sbs_el_n1"} <= names

    def test_deterministic_output(self, light_cfg, tmp_path):
        for sub in ("a", "b"):
            out = tmp_path / sub
            out.mkdir()
            assert cli.main(["--config", light_cfg, "--out-dir", str(out),
                             "analyze"]) == 0
        a = (tmp_path / "a" / "analyze.csv").read_bytes()
        b = (tmp_path / "b" / "analyze.csv").read_bytes()
        assert a == b

    def test_plot_manifest(self, light_cfg, tmp_path):
        cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                  "analyze"])
        manifest = json.loads(
            (tmp_path / "analyze.manifest.json").read_text())
        assert manifest["csv"] == "analyze.csv"
        assert manifest["schema_version"] == 1
        assert manifest["columns"]["y"] == ["value"]

    def test_near_free_space_mbs_path_loss_runs(self, tmp_path):
        """At alpha_m = 2.2 every EL P(SIR >= gamma) of the grid underflows
        to 0.0, and the rates conditioned on it are still written: finite
        and at least W log2(1+gamma)."""
        cfg = tmp_path / "free.cfg"
        cfg.write_text(LIGHT_SCENARIO + "alpha_m = 2.2\n")
        assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                         "analyze"]) == 0
        net = load_scenario(str(cfg))[0]
        values = {(r[0], r[1]): float(r[2])
                  for r in _read_csv(tmp_path / "analyze.csv")[1]}
        assert all(values[("p_success_sbs_el", str(g))] == 0.0
                   for g in cli.GAMMA_GRID_DB)
        rate = values[("rate_sbs_el_n1", "")]
        assert math.isfinite(rate)
        assert rate >= net.w * math.log2(1.0 + net.gamma_el)

    def test_without_config_runs_the_default_scenario(self, position_samples,
                                                      tmp_path):
        position_samples(2_000)
        rc = cli.main(["--out-dir", str(tmp_path), "analyze"])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "analyze.csv")
        # the default n1 = n2 = 4
        assert len(rows) == len(cli.GAMMA_GRID_DB) * 3 + 2 + 4 + 4


class TestServingDraws:
    """A CLI run draws the serving positions of each (layer, n) once: the
    p_success calls reuse the draw a rate call at the same n leaves."""

    @pytest.fixture
    def draws(self, monkeypatch, position_samples, tmp_path):
        calls = []
        draw = analytic._serving_scale

        def counting(cfg, layer, n, size, seed):
            calls.append((layer, n))
            return draw(cfg, layer, n, size, seed)

        monkeypatch.setattr(analytic, "_serving_scale", counting)
        # a small draw; the draw size decides no reuse
        position_samples(2_000)
        cfg = tmp_path / "n2n3.cfg"
        cfg.write_text(LIGHT_SCENARIO.replace("n1 = 1", "n1 = 2")
                       .replace("n2 = 1", "n2 = 3"))
        return calls, ["--config", str(cfg), "--out-dir", str(tmp_path)]

    def test_analyze_draws_n1_plus_n2_times(self, draws):
        calls, base = draws
        assert cli.main(base + ["analyze"]) == 0
        assert sorted(calls) == [("bl", 1), ("bl", 2),
                                 ("el", 1), ("el", 2), ("el", 3)]

    def test_validate_draws_once_per_layer(self, draws):
        calls, base = draws
        assert cli.main(base + ["--drops", "200", "validate"]) in (0, 1)
        assert sorted(calls) == [("bl", 2), ("el", 3)]


class TestSamplerDraws:
    """A run draws the interfering fields once and each serving cluster
    once, and each draw keeps only its last result."""

    SAMPLERS = (montecarlo.sir_samples_mbs, montecarlo.sir_samples_sbs_bl,
                montecarlo.sir_samples_sbs_el)

    @pytest.fixture
    def batches(self, monkeypatch):
        """The (seed, stream) of each _run_batches call, from empty
        caches."""
        calls = []
        run = montecarlo._run_batches

        def counting(worker, n_drops, seed, stream=()):
            calls.append((seed, stream))
            return run(worker, n_drops, seed, stream)

        monkeypatch.setattr(montecarlo, "_run_batches", counting)
        for cached in self.SAMPLERS + (montecarlo._ambient,):
            cached.cache_clear()
        return calls

    @pytest.mark.parametrize("argv", [["validate"], ["simulate", "--dump"]],
                             ids=["validate", "simulate-dump"])
    def test_one_draw_per_sampler(self, batches, argv, light_cfg, tmp_path):
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "--seed", "3", "--drops", "300"] + argv)
        assert rc == 0
        # the ambient fields, then the one-SBS BL and EL serving draws
        assert batches == [(3, ()), (3, (1, 1)), (3, (2, 1))]
        assert montecarlo._ambient.cache_info().misses == 1
        assert [s.cache_info().misses for s in self.SAMPLERS] == [1, 1, 1]

    def test_second_seed_evicts_first(self, batches, net):
        for seed in (1, 2, 1):
            for sampler, serving in zip(self.SAMPLERS, ((), (1,), (1,))):
                sampler(net, *serving, 64, seed)
        assert batches == [(seed, stream) for seed in (1, 2, 1)
                           for stream in ((), (1, 1), (2, 1))]
        assert montecarlo._ambient.cache_info().currsize == 1
        assert [s.cache_info().currsize for s in self.SAMPLERS] == [1, 1, 1]


class TestSimulate:
    def test_estimates_and_dump(self, light_cfg, tmp_path):
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "--drops", "2048", "simulate", "--dump"])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "simulate.csv")
        assert header == ["quantity", "gamma_db", "mc_mean", "mc_std_error",
                          "n_samples"]
        assert len(rows) == len(cli.GAMMA_GRID_DB) * 3
        assert all(int(r[-1]) == 2048 for r in rows)
        dump = (tmp_path / "sir_drops.txt").read_text().splitlines()
        assert dump[0].startswith("#")
        assert len(dump) == 1 + 2048
        assert all(float(x) > 0 for x in dump[1].split()[1:])


class TestOptimize:
    def test_trace_and_policy_outputs(self, light_cfg, tmp_path, capsys):
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "optimize", "--scheme", "2", "--init", "ucp",
                       "--max-iters", "50"])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert float(line.split("residual = ")[1]) >= 0.0
        header, trace_rows = _read_csv(tmp_path / "trace.csv")
        assert header == ["iteration", "ee", "step", "max_delta"]
        assert 1 <= len(trace_rows) <= 50
        # every cell is a plain number, not a numpy scalar's repr
        numbers = [[float(x) for x in r] for r in trace_rows]
        ees = [r[1] for r in numbers]
        running_max = [max(ees[:i + 1]) for i in range(len(ees))]
        assert running_max == sorted(running_max)
        header, pol_rows = _read_csv(tmp_path / "policy.csv")
        assert header == ["file", "q1", "q2"]
        assert len(pol_rows) == 10
        q1 = [float(r[1]) for r in pol_rows]
        q2 = [float(r[2]) for r in pol_rows]
        assert all(0.0 <= x <= 1.0 for x in q1 + q2)
        assert sum(q1) == pytest.approx(3.0, abs=1e-6)  # m_cache / l_b
        assert sum(q2) == pytest.approx(1.0, abs=1e-6)  # m_cache / l_e

    @pytest.mark.parametrize("empty", ["n1", "n2"])
    @pytest.mark.parametrize("scheme", ["1", "2"])
    def test_empty_cluster_runs(self, empty, scheme, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(LIGHT_SCENARIO.replace(f"{empty} = 1", f"{empty} = 0"))
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                       "optimize", "--scheme", scheme, "--max-iters", "3"])
        assert rc == 0

    def test_large_uniform_catalog_runs(self, position_samples, tmp_path):
        """F = 1e5 files of equal popularity: the profile's sum check and
        the projection's budget hold at this size."""
        position_samples(2_000)
        cfg = tmp_path / "uniform.cfg"
        cfg.write_text("f_count = 100000\nzipf_alpha = 0\n")
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                       "optimize", "--max-iters", "2"])
        assert rc == 0
        _, pol_rows = _read_csv(tmp_path / "policy.csv")
        assert len(pol_rows) == 100_000

    @pytest.mark.parametrize("size, column", [("l_b", 1), ("l_e", 2)])
    def test_zero_layer_size_caches_every_file(self, size, column, tmp_path):
        """A layer of size 0 fits any cache: its budget is the catalog."""
        cfg = tmp_path / "zero-size.cfg"
        cfg.write_text(LIGHT_SCENARIO + f"{size} = 0\n")
        base = ["--config", str(cfg), "--out-dir", str(tmp_path)]
        assert cli.main(base + ["optimize", "--max-iters", "3"]) == 0
        _, pol_rows = _read_csv(tmp_path / "policy.csv")
        assert [float(r[column]) for r in pol_rows] == [1.0] * 10
        assert cli.main(base + ["compare", "--sweep", "cache_size", "--grid",
                                "3e8", "--max-iters", "3",
                                "--icp-realizations", "5"]) == 0


class TestManifests:
    def test_every_csv_has_its_manifest(self, light_cfg, tmp_path):
        base = ["--config", light_cfg, "--out-dir", str(tmp_path),
                "--drops", "300"]
        for argv in (["validate"], ["analyze"], ["simulate"],
                     ["optimize", "--max-iters", "3"],
                     ["compare", "--sweep", "cache_size", "--grid", "3e8",
                      "--max-iters", "3", "--icp-realizations", "3"]):
            assert cli.main(base + argv) <= 1
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert csvs == ["analyze.csv", "compare_cache_size.csv", "policy.csv",
                        "simulate.csv", "trace.csv", "validate.csv"]
        for name in csvs:
            manifest = json.loads(
                (tmp_path / name).with_suffix(".manifest.json").read_text())
            assert manifest["csv"] == name
            header, _ = _read_csv(tmp_path / name)
            roles = manifest["columns"]
            assert roles["x"] in header and set(roles["y"]) <= set(header)


class TestEmptyCluster:
    def test_analyze_simulate_validate_skip_the_empty_layer(self, tmp_path):
        """With n1 = 0 the BL cluster serves nothing: analyze, simulate
        and validate leave out its rows and its dump column."""
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(LIGHT_SCENARIO.replace("n1 = 1", "n1 = 0"))
        base = ["--config", str(cfg), "--out-dir", str(tmp_path),
                "--drops", "300"]
        assert cli.main(base + ["analyze"]) == 0
        assert cli.main(base + ["simulate", "--dump"]) == 0
        assert cli.main(base + ["validate"]) <= 1
        for name in ("analyze", "simulate", "validate"):
            _, rows = _read_csv(tmp_path / f"{name}.csv")
            quantities = {r[0] for r in rows}
            assert "p_success_sbs_el" in quantities
            assert not any("sbs_bl" in q for q in quantities)
        header, *drops = (tmp_path / "sir_drops.txt").read_text().splitlines()
        assert header == "# seed sir_mbs sir_sbs_el"
        assert len(drops) == 300
        assert all(len(line.split()) == 3 for line in drops)


class TestCompare:
    def test_cache_sweep_with_empty_cache_tie(self, light_cfg, tmp_path):
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "compare", "--sweep", "cache_size",
                       "--grid", "0,3e8", "--max-iters", "40",
                       "--icp-realizations", "20"])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "compare_cache_size.csv")
        assert header == ["cache_size", "policy", "ee"]
        assert len(rows) == 2 * 6
        # with no cache every placement collapses to serve-from-MBS
        empty = [float(r[2]) for r in rows if float(r[0]) == 0.0]
        assert len(empty) == 6
        assert max(empty) == pytest.approx(min(empty), rel=1e-9)
        # a real cache budget must not hurt the optimized schemes
        full = {r[1]: float(r[2]) for r in rows if float(r[0]) > 0.0}
        assert full["scheme1"] >= empty[0] - 1e-6 * empty[0]
        assert full["scheme2"] >= empty[0] - 1e-6 * empty[0]

    def test_network_sweep_rebuilds_rate_table(self, light_cfg, tmp_path):
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "compare", "--sweep", "p_s", "--grid", "0.1,0.2",
                       "--max-iters", "5", "--icp-realizations", "5"])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "compare_p_s.csv")
        ee = {(float(r[0]), r[1]): float(r[2]) for r in rows}
        for policy in ("scheme1", "scheme2", "mpcp", "ucp", "icp"):
            assert ee[0.1, policy] != ee[0.2, policy]
        # the last grid point is scored with its own rate table
        net, content, coeff = load_scenario(light_cfg)
        net = replace(net, p_s=0.2)
        ctx = ObjectiveContext(rates=analytic.build_rate_table(net, seed=0),
                               profile=build_profile(content), net=net,
                               content=content, coeff=coeff)
        assert ee[0.2, "ucp"] == ee_value(ucp_policy(content), ctx,
                                          exact_l0=True)

    @pytest.mark.parametrize("sweep, grid, tables", [
        ("gamma_bl", "5,20", 2), ("zipf_alpha", "0.5,1.5", 1)])
    def test_sweep_kinds(self, sweep, grid, tables, light_cfg, tmp_path,
                         monkeypatch):
        """A network sweep builds one rate table per grid point, a content
        sweep one for the whole grid."""
        built = []
        build = analytic.build_rate_table

        def counting(net, seed=0):
            built.append(net)
            return build(net, seed=seed)

        monkeypatch.setattr(analytic, "build_rate_table", counting)
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "compare", "--sweep", sweep, "--grid", grid,
                       "--max-iters", "3", "--icp-realizations", "5"])
        assert rc == 0
        _, rows = _read_csv(tmp_path / f"compare_{sweep}.csv")
        assert Counter(float(r[0]) for r in rows) == {
            float(v): 6 for v in grid.split(",")}
        assert len(built) == tables


class TestModuleLookup:
    def test_mode_functions_fetched_from_their_modules(self, light_cfg,
                                                       tmp_path, monkeypatch):
        """A wrapper set on a module attribute sees every call of
        validate and analyze; the benchmark's traced run relies on it."""
        calls = Counter()
        depth = [0]

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                # Only the CLI's own calls count, not those inside another
                # counted call (the MBS rate calls p_success_mbs).  The
                # shared estimators are counted per source or layer.
                if not depth[0]:
                    calls[(name, *(a for a in args if isinstance(a, str)))] += 1
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(module, name, counted)

        for mode in ("mbs", "sbs_bl", "sbs_el"):
            count(analytic, f"p_success_{mode}")
            count(analytic, f"ergodic_rate_{mode}")
        for name in ("estimate_p_success_mbs", "estimate_p_success_sbs",
                     "estimate_ergodic_rate"):
            count(montecarlo, name)
        n = len(cli.GAMMA_GRID_DB)

        assert cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                         "--drops", "300", "validate"]) == 0
        assert calls == {key: n for key in [
            ("p_success_mbs",), ("p_success_sbs_bl",), ("p_success_sbs_el",),
            ("ergodic_rate_mbs",), ("ergodic_rate_sbs_bl",),
            ("ergodic_rate_sbs_el",), ("estimate_p_success_mbs",),
            ("estimate_p_success_sbs", "BL"), ("estimate_p_success_sbs", "EL"),
            ("estimate_ergodic_rate", "MBS"),
            ("estimate_ergodic_rate", "SBS-BL"),
            ("estimate_ergodic_rate", "SBS-EL")]}

        calls.clear()
        assert cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                         "analyze"]) == 0
        # the rate table adds the MBS rate at both thresholds and each
        # cluster rate at n = 1
        assert calls == {("p_success_mbs",): n, ("p_success_sbs_bl",): n,
                         ("p_success_sbs_el",): n, ("ergodic_rate_mbs",): 2,
                         ("ergodic_rate_sbs_bl",): 1,
                         ("ergodic_rate_sbs_el",): 1}


class TestExitCodes:
    def test_bad_scenario_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_speed = 9\n")
        rc = cli.main(["--config", str(bad), "--out-dir", str(tmp_path),
                       "analyze"])
        assert rc == 1

    @pytest.mark.parametrize("text", ["n1 = 2.5\n", "gamma_bl = 3\n"
                                      "gamma_bl_db = 10\n"])
    def test_rejected_scenario_exits_1(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        rc = cli.main(["--config", str(bad), "--out-dir", str(tmp_path),
                       "analyze"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_scenario_value_exits_1(self, key, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(f"{key} = inf\n")
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                       "analyze"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}:1: {key} must be finite\n"

    @pytest.mark.parametrize("argv", [
        ["--theta", "nan", "optimize", "--max-iters", "3"],
        ["optimize", "--rel-tol", "nan", "--max-iters", "3"],
        ["compare", "--sweep", "cache_size", "--grid", "0,inf",
         "--max-iters", "3", "--icp-realizations", "3"]],
        ids=["theta", "rel-tol", "grid"])
    def test_non_finite_flag_exits_1(self, argv, light_cfg, tmp_path, capsys):
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path)]
                      + argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err

    @pytest.mark.parametrize("theta", ["1e300", "1e-320"])
    def test_theta_without_smoothing_exits_1(self, theta, light_cfg, tmp_path,
                                             capsys):
        """A theta whose log(1/theta + 1) rounds to 0, or whose 1/theta
        overflows, is an input error, not a numeric range error."""
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "--theta", theta, "optimize", "--scheme", "1",
                       "--max-iters", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: theta ") and err.count("\n") == 1

    @pytest.mark.parametrize("line", [
        "lambda_s = 1e300", "b = 1e300",
        pytest.param("alpha_m = 3.5\nlambda_s = 1e300",
                     id="alpha_m = 3.5, lambda_s = 1e300")])
    def test_numeric_range_error_exits_2(self, line, tmp_path, capsys):
        """A huge SBS density overflows the MBS interference term of the
        MBS rate's tail; at alpha_m != alpha_s the MBS P(SIR >= gamma) is
        0.0 instead, so the rate conditioned on it is undefined; a huge
        cluster radius overflows its square."""
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(LIGHT_SCENARIO + line + "\n")
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                       "analyze"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric range error") and err.count("\n") == 1
        if line == "lambda_s = 1e300":
            assert err == ("numeric range error (FloatingPointError): "
                           "overflow encountered in multiply\n")
        elif line != "b = 1e300":
            assert err.startswith("numeric range error (ZeroDivisionError): "
                                  "P(SIR >= gamma) is 0 at gamma = ")
            assert "conditioned on SIR >= gamma is undefined" in err

    @pytest.mark.parametrize("key", ["p_s_dbm", "p_m_dbm"])
    def test_overflowing_db_value_exits_1(self, key, tmp_path, capsys):
        """10^(397) overflows a float while the scenario loads: bad input."""
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(LIGHT_SCENARIO + f"{key} = 4000\n")
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                       "analyze"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {key}: 4000 is out of range\n"

    def test_tiny_disk_exits_2_with_one_line(self, tmp_path, capsys):
        """a = 1e-300 overflows every r^-alpha of the BL serving draw; the
        run ends on that overflow, with no numpy warning before it."""
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(LIGHT_SCENARIO + "a = 1e-300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                           "analyze"])
        assert rc == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numeric range error (FloatingPointError)")

    def test_huge_window_exits_1_with_one_line(self, tmp_path, capsys):
        """A tiny MBS density widens the window until one batch would ask
        for terabytes; the sampler refuses before it draws."""
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(LIGHT_SCENARIO + "lambda_m = 1e-12\n")
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                       "--drops", "300", "simulate"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Monte-Carlo window too large")
        assert err.count("\n") == 1
        assert "lambda_m = 1e-12" in err and "lambda_s = " in err

    def test_unallocatable_draw_exits_1_with_one_line(self, tmp_path, capsys):
        """Drops in a cluster of 1e12 SBSs ask numpy for a 728 TiB array,
        more than a 47-bit address space holds; numpy refuses before it
        allocates anything."""
        cfg = tmp_path / "crowded.cfg"
        cfg.write_text(LIGHT_SCENARIO.replace("n1 = 1", "n1 = 1000000000000"))
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                       "--drops", "100", "simulate"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_exits_1_naming_the_flag(self, seed, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--seed", seed, "--out-dir", str(tmp_path), "analyze"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == ("svcache: error: argument --seed: "
                                        "expected a non-negative integer, "
                                        f"got {seed!r}")

    @pytest.mark.parametrize("argv", [
        ["optimize", "--max-iters", "3"],
        ["compare", "--sweep", "cache_size", "--grid", "3e8",
         "--max-iters", "3", "--icp-realizations", "3"]],
        ids=["optimize", "compare"])
    def test_zero_power_exits_1(self, argv, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(ZERO_POWER_SCENARIO)
        with warnings.catch_warnings():
            # c_ca = c_bh = 0: caching costs no more than backhaul
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path)]
                          + argv)
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: total power is zero; no valid EE\n"

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        rc = cli.main(["--config", str(tmp_path / "missing.cfg"),
                       "--out-dir", str(tmp_path), "analyze"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_file_as_out_dir_exits_1(self, light_cfg, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        for out_dir in (taken, taken / "sub"):
            rc = cli.main(["--config", light_cfg, "--out-dir", str(out_dir),
                           "analyze"])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["optimize", "--scheme", "3"],
                                      ["optimize", "--init", "uniform"],
                                      ["frobnicate"]],
                             ids=["bad-scheme", "removed-init", "bad-command"])
    def test_usage_error_exits_1(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out-dir", str(tmp_path)] + argv)
        assert exc.value.code == 1

    def test_quadrature_failure_exits_2(self, light_cfg, tmp_path,
                                        monkeypatch):
        def boom(*args, **kwargs):
            raise analytic.QuadratureError("tail integral did not settle")

        monkeypatch.setattr(analytic, "p_success_mbs", boom)
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "analyze"])
        assert rc == 2

    def test_tail_integral_without_truncation_exits_2_with_one_line(
            self, light_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analytic, "_TAIL_REL", 0.0)
        rc = cli.main(["--config", light_cfg, "--out-dir", str(tmp_path),
                       "analyze"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric non-convergence: ")
        assert err.count("\n") == 1


# Runs each argv of the JSON list argv[1] through cli.main in this fresh
# interpreter and prints the scipy modules it has loaded.
_FRESH_RUN = """\
import json, sys
from svcache import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] == "scipy")))
"""


def _scipy_after(scenario, runs, tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(scenario)
    base = ["--config", str(cfg), "--out-dir", str(tmp_path)]
    src = str(Path(analytic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN,
         json.dumps([base + argv for argv in runs])],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestLazyScipy:
    """scipy is imported only by the branches that call it."""

    def test_default_scenario_imports_no_scipy(self, tmp_path):
        loaded = _scipy_after(LIGHT_SCENARIO,
                              [["analyze"], ["--drops", "300", "simulate"],
                               ["optimize", "--max-iters", "3"]], tmp_path)
        assert loaded == set()

    def test_general_alpha_imports_hyp2f1_only(self, tmp_path):
        scenario = LIGHT_SCENARIO + "alpha_m = 3.5\nalpha_s = 3.5\n"
        loaded = _scipy_after(scenario, [["analyze"]], tmp_path)
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded

    def test_mixed_alpha_imports_hyp2f1_not_quadrature(self, tmp_path):
        """alpha_m != alpha_s needs hyp2f1 for G_alpha_m; its radial
        integral is a fixed numpy rule, not scipy's quad."""
        scenario = LIGHT_SCENARIO + "alpha_m = 3.5\nalpha_s = 4\n"
        loaded = _scipy_after(scenario, [["analyze"]], tmp_path)
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded
