"""Self-tests of the benchmark's pins, seeds, tracing, checks and spec."""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from svcache.analytic import build_rate_table
from svcache.baselines import ucp_policy
from svcache.config import ContentConfig, NetworkConfig
from svcache.optimizer import SolverSettings

import workloads as wl
from reference import Sampler
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_pinned_table_equals_library():
    pinned = wl.table_from_json(json.loads(wl.TABLE_FILE.read_text())["table"])
    fresh = build_rate_table(NetworkConfig(), seed=0)
    # Vectorized transcendental functions may differ in the last ulp
    # between CPU dispatch targets; anything larger is a stale pin.
    for name in ("r_m_bl", "r_m_el"):
        assert getattr(pinned, name) == pytest.approx(getattr(fresh, name),
                                                      rel=1e-12)
    for name in ("r_s_bl", "r_s_el"):
        assert getattr(pinned, name) == pytest.approx(getattr(fresh, name),
                                                      rel=1e-12)
    assert (pinned.seed, pinned.n_samples) == (fresh.seed, fresh.n_samples)


def test_rep_seeds_distinct_and_reproducible():
    for workload_seed in (0, 1, 7, 2**31):
        seeds = [wl.rep_seed(workload_seed, k) for k in range(1000)]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [wl.rep_seed(workload_seed, k) for k in range(1000)]
    assert wl.rep_seed(0, 0) != wl.rep_seed(1, 0)


def test_child_spans_lie_inside_parents():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            tracer.wrap("grandchild", sum)(range(1000))
        tracer.wrap("child", math.sqrt)(2.0)
    assert tracer.nesting_errors() == []
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, 0]
    assert tracer.children_total(0) == pytest.approx(tracer.total("child"))
    assert tracer.self_time(tracer.spans[0]) == pytest.approx(
        tracer.spans[0]["end"] - tracer.spans[0]["start"]
        - tracer.total("child"))
    tracer.spans[2]["end"] = tracer.spans[0]["end"] + 1.0
    assert len(tracer.nesting_errors()) == 1


def test_instrument_wraps_and_restores_module_functions():
    import svcache.analytic as analytic
    original = analytic.g_alpha
    tracer = Tracer()
    with tracer.instrument({analytic: ("g_alpha",)}):
        assert analytic.g_alpha is not original
        assert analytic.g_alpha(4.0, x=0.5) == original(4.0, 0.5)
    assert analytic.g_alpha is original
    tracer.finish()
    (span,) = tracer.find("analytic.g_alpha")
    assert span["args"] == {"alpha": 4.0, "x": 0.5}


def test_sampler_runs_steps_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler(("vector", "objects", "sampling"), interval=0.02) as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
    assert sampler.count >= 3 and sampler.step_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    with Sampler(("objects",), interval=10.0) as sampler:
        pass
    assert sampler.count == 1


def test_metric_names_match_spec():
    per_layer = {m["name"]: m for m in SPEC["per_layer"]}
    assert list(per_layer) == list(wl.PER_LAYER)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(wl.END_TO_END)
    for metric in [*SPEC["per_layer"], *SPEC["end_to_end"]]:
        assert metric["unit"]
        assert metric["better"] in ("lower", "higher")
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_checks_reject_wrong_outputs():
    net = NetworkConfig()
    ref = {("p", 0.0): 0.5, ("p", 5.0): 0.4}
    assert wl.check_probabilities([("p", 0.0, 0.5), ("p", 5.0, 0.4)], ref) == []
    assert wl.check_probabilities([("p", 0.0, 0.4), ("p", 5.0, 0.5)],
                                  {("p", 0.0): 0.4, ("p", 5.0): 0.5})
    assert wl.check_probabilities([("p", 0.0, 0.52), ("p", 5.0, 0.4)], ref)
    assert wl.check_probabilities([("p", 0.0, 1.2)], {("p", 0.0): 1.2})
    floor = net.w * math.log2(1.0 + net.gamma_bl)
    assert wl.check_rate_floor(net, "r", net.gamma_bl, floor) == []
    assert wl.check_rate_floor(net, "r", net.gamma_bl, floor * (1 - 1e-9))


def test_optimize_check_enforces_the_gate():
    content = ContentConfig()
    sc = SimpleNamespace(content=content, settings=SolverSettings())
    good = {"policy1": ucp_policy(content),
            "policy2": ucp_policy(content, mode="random"),
            "termination2": "converged", "iterations2": 297,
            "ee1": 3.0e5, "ee2": 3.1e5, "mpcp": 2.9e5, "ucp": 2.5e5,
            "icp": 2.4e5}
    assert wl.check_optimize(sc, good) == []
    for change in ({"ee2": 2.99e5}, {"icp": 3.01e5},
                   {"termination2": "max_iters"}, {"iterations2": 501}):
        assert wl.check_optimize(sc, {**good, **change}), change


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
