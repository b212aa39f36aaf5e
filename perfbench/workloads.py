"""The three benchmark workloads, their output checks and their traced metrics.

Every workload runs the paper's default scenario with the CLI's own
default settings.  One repetition is:

* ``analyze``  - ``svcache analyze`` through ``svcache.cli.main``;
* ``optimize`` - Scheme 1 and Scheme 2 ascent from UCP on the pinned
  seed-0 rate table, then the MPCP, UCP and ICP baselines, as ``compare``
  evaluates them at one grid point;
* ``validate`` - ``svcache validate`` through ``svcache.cli.main``.

A traced repetition runs the same code with the public functions in
``TRACED`` wrapped in spans (``Tracer.instrument``); ``span_metrics``
turns those spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from svcache import analytic, baselines, cli, montecarlo, optimizer
from svcache.analytic import RateTable
from svcache.baselines import ucp_policy
from svcache.config import (CachingPolicy, ContentConfig, NetworkConfig,
                            PowerCoefficients, db_to_linear)
from svcache.objective import ObjectiveContext, ee_gradient, ee_value
from svcache.optimizer import SolverSettings, project_capped_simplex
from svcache.popularity import build_profile
from svcache.power import power_scheme1, power_scheme2

from tracing import Tracer, duration

DATA_DIR = Path(__file__).resolve().parent / "data"
TABLE_FILE = DATA_DIR / "rate_table_seed0.json"
ANALYZE_FILE = DATA_DIR / "analyze_seed0.json"

WORKLOADS = ("analyze", "optimize", "validate")

# The kinds of reference step (``reference.STEPS``) that gauge each
# workload's speed: those that do the kind of work that dominates it.
GAUGE = {"analyze": ("vector",), "optimize": ("objects",),
         "validate": ("vector", "sampling")}

# Per-layer metrics reported by every traced run, in report order.  Units
# and directions live in BENCHMARK.json; the self-test keeps both in step.
PER_LAYER = (
    *(f"analytic.ergodic_rate_sbs_{layer}.n{n}_s"
      for layer in ("bl", "el") for n in (1, 2, 3, 4)),
    "analytic.ergodic_rate_sbs_bl.sweep_s",
    "analytic.ergodic_rate_sbs_el.sweep_s",
    "analytic.ergodic_rate_mbs_s",
    "analytic.p_success_mbs_s",
    "analytic.p_success_sbs_bl_s",
    "analytic.p_success_sbs_el_s",
    "analytic.g_alpha_vec_us_per_kpt",
    "montecarlo.sir_samples_mbs.drops_per_s",
    "montecarlo.sir_samples_sbs_bl.drops_per_s",
    "montecarlo.sir_samples_sbs_el.drops_per_s",
    "montecarlo.estimate_s",
    "montecarlo.points_per_drop",
    "objective.ee_value.scheme1_us",
    "objective.ee_value.scheme2_us",
    "objective.ee_gradient.scheme1_ms",
    "objective.ee_gradient.scheme2_ms",
    "power.power_scheme1_us",
    "power.power_scheme2_us",
    "config.caching_policy_us",
    "popularity.build_profile_us",
    "optimizer.project_capped_simplex_us",
    "optimizer.scheme1.iterations",
    "optimizer.scheme2.iterations",
    "optimizer.scheme1.ms_per_iter",
    "optimizer.scheme2.ms_per_iter",
    "ee_scheme1_bits_per_j",
    "ee_scheme2_bits_per_j",
    "baselines.icp_expected_ee_s",
    "cli.self_s",
    "cli.validate.fail_rows",
    "cli.validate.inconclusive_rows",
    "bench.cpu_s",
    "bench.trace_overhead_ratio",
)

END_TO_END = ("run_ref", "setup_s", "peak_rss_mb")

# Output checks: the analytic values of any seed stay this close to the
# seed-0 reference (the seed-to-seed spread is below 0.5%).
_REF_REL, _REF_ABS = 1e-2, 1e-4
# Slack of the acceptance gate's dominance comparisons.
_GATE_REL = 1e-9

# Micro-benchmark sizes of the traced run.
_G_ALPHA_POINTS = 200_000
_PROJECTION_INSTANCES = 1_000
_SMALL_CALLS = 200
_GRADIENT_CALLS = 5


def rep_seed(workload_seed: int, rep: int) -> int:
    """Seed of repetition ``rep``: analytic positions, drops and ICP draws.

    Distinct repetitions get distinct seeds, so ``montecarlo``'s
    ``lru_cache`` cannot serve one repetition from an earlier one.
    """
    return int(np.random.SeedSequence([workload_seed, rep])
               .generate_state(1, dtype=np.uint32)[0])


def scenario_hash(net, content, coeff) -> str:
    blob = json.dumps({"net": asdict(net), "content": asdict(content),
                       "coeff": asdict(coeff)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def table_to_json(table: RateTable) -> dict:
    return {"r_m_bl": float(table.r_m_bl), "r_m_el": float(table.r_m_el),
            "r_s_bl": {str(n): float(r) for n, r in table.r_s_bl.items()},
            "r_s_el": {str(n): float(r) for n, r in table.r_s_el.items()},
            "provenance": table.provenance, "seed": table.seed,
            "n_samples": table.n_samples}


def table_from_json(data: dict) -> RateTable:
    return RateTable(r_m_bl=data["r_m_bl"], r_m_el=data["r_m_el"],
                     r_s_bl={int(n): r for n, r in data["r_s_bl"].items()},
                     r_s_el={int(n): r for n, r in data["r_s_el"].items()},
                     provenance=data["provenance"], seed=data["seed"],
                     n_samples=data["n_samples"])


@dataclass
class Scenario:
    """Everything a repetition needs that is built once, in set-up."""

    net: NetworkConfig
    content: ContentConfig
    coeff: PowerCoefficients
    hash: str
    drops: int
    settings: SolverSettings
    icp_realizations: int
    ctx: ObjectiveContext
    reference: dict          # (quantity, gamma_db) -> seed-0 analyze value
    out_dir: Path


def setup(out_dir: Path) -> Scenario:
    """Build the default scenario from the CLI's defaults and load the
    pinned inputs; raises if the pins belong to another scenario."""
    parser = cli.build_parser()
    opt = parser.parse_args(["optimize", "--init", "ucp"])
    val = parser.parse_args(["validate"])
    cmp_ = parser.parse_args(["compare", "--sweep", "p_s", "--grid", "0"])
    net, content, coeff = NetworkConfig(), ContentConfig(), PowerCoefficients()
    digest = scenario_hash(net, content, coeff)
    pinned_table = json.loads(TABLE_FILE.read_text())
    pinned_analyze = json.loads(ANALYZE_FILE.read_text())
    for name, pinned in (("rate table", pinned_table),
                         ("analyze reference", pinned_analyze)):
        if pinned["scenario_hash"] != digest:
            raise RuntimeError(f"pinned {name} is for scenario "
                               f"{pinned['scenario_hash']}, not {digest}; "
                               "regenerate it with perfbench/pin.py")
    ctx = ObjectiveContext(rates=table_from_json(pinned_table["table"]),
                           profile=build_profile(content), net=net,
                           content=content, coeff=coeff, theta=opt.theta)
    out_dir.mkdir(parents=True, exist_ok=True)
    return Scenario(
        net=net, content=content, coeff=coeff, hash=digest, drops=val.drops,
        settings=SolverSettings(max_iters=opt.max_iters, rel_tol=opt.rel_tol,
                                theta=opt.theta),
        icp_realizations=cmp_.icp_realizations, ctx=ctx,
        reference={(q, g): v for q, g, v in pinned_analyze["rows"]},
        out_dir=out_dir)


# ---------------------------------------------------------------------------
# Untraced repetitions
# ---------------------------------------------------------------------------

def _number(text: str):
    return None if text == "" else float(text)


def run_cli(sc: Scenario, seed: int, command: str) -> dict:
    """``svcache <command>`` through ``cli.main``; its exit code and CSV rows."""
    out = sc.out_dir / command
    # A run that fails before writing must not be judged on the last CSV.
    (out / f"{command}.csv").unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--seed", str(seed), "--out-dir", str(out), command])
    with open(out / f"{command}.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [tuple(_number(x) if i not in (0, 5) else x
                      for i, x in enumerate(row)) for row in reader]
    return {"rc": rc, "rows": rows}


def run_optimize(sc: Scenario, seed: int) -> dict:
    """One optimize repetition.  The package's functions are looked up
    through their modules, so that a traced repetition sees them wrapped."""
    ctx, content = sc.ctx, sc.content
    result = {}
    for scheme, mode in ((1, "fractional"), (2, "random")):
        initial = baselines.ucp_policy(content, mode=mode)
        policy, trace = optimizer.optimize(initial, ctx, sc.settings)
        result[f"policy{scheme}"] = policy
        result[f"iterations{scheme}"] = len(trace.rows)
        result[f"termination{scheme}"] = trace.termination
    result["ee1"] = ee_value(result["policy1"], ctx, exact_l0=True)
    result["ee2"] = ee_value(result["policy2"], ctx)
    result["mpcp"] = ee_value(baselines.mpcp_policy(content), ctx,
                              exact_l0=True)
    result["ucp"] = ee_value(baselines.ucp_policy(content), ctx,
                             exact_l0=True)
    result["icp"] = baselines.icp_expected_ee(ctx, sc.icp_realizations,
                                              seed).mean
    return result


RUN = {"analyze": partial(run_cli, command="analyze"),
       "optimize": run_optimize,
       "validate": partial(run_cli, command="validate")}

# The public functions a traced repetition wraps in spans.  Each is called
# through its module: by ``run_cli`` and ``run_optimize``, by ``cli``
# (``analytic.*``, ``montecarlo.*``), by ``build_rate_table`` (the
# ``ergodic_rate_*``) and by the ``estimate_*`` (the ``sir_samples_*``).
# ``objective.ee_value`` is left out: ``ee_gradient`` calls it through its
# module tens of thousands of times per repetition.
TRACED = {
    cli: ("main",),
    analytic: ("p_success_mbs", "p_success_sbs_bl", "p_success_sbs_el",
               "build_rate_table", "ergodic_rate_mbs", "ergodic_rate_sbs_bl",
               "ergodic_rate_sbs_el"),
    montecarlo: ("estimate_p_success_mbs", "estimate_p_success_sbs",
                 "estimate_ergodic_rate", "sir_samples_mbs",
                 "sir_samples_sbs_bl", "sir_samples_sbs_el"),
    optimizer: ("optimize",),
    baselines: ("ucp_policy", "mpcp_policy", "icp_expected_ee"),
}


# ---------------------------------------------------------------------------
# Output checks; each returns a list of problems, empty when all hold
# ---------------------------------------------------------------------------

def check_probabilities(rows, reference: dict) -> list[str]:
    """p_success rows: in [0, 1], non-increasing in gamma, near the reference."""
    problems = []
    series = defaultdict(list)
    for quantity, gamma_db, value in rows:
        series[quantity].append((gamma_db, value))
        if not 0.0 <= value <= 1.0:
            problems.append(f"{quantity} at {gamma_db} dB = {value} "
                            "outside [0, 1]")
        ref = reference.get((quantity, gamma_db))
        if ref is None:
            problems.append(f"{quantity} at {gamma_db} dB has no reference")
        elif abs(value - ref) > max(_REF_REL * abs(ref), _REF_ABS):
            problems.append(f"{quantity} at {gamma_db} dB = {value}, "
                            f"reference {ref}")
    for quantity, points in series.items():
        values = [v for _, v in sorted(points)]
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append(f"{quantity} increases with gamma: {values}")
    return problems


def check_rate_floor(net: NetworkConfig, name: str, gamma: float,
                     value: float) -> list[str]:
    floor = net.w * math.log2(1.0 + gamma)
    return [] if value >= floor else [f"{name} = {value} below W*log2(1+gamma) "
                                      f"= {floor}"]


def _analyze_rate_gamma(net: NetworkConfig, quantity: str) -> float:
    return net.gamma_bl if "_bl" in quantity else net.gamma_el


def check_analyze(sc: Scenario, out: dict) -> list[str]:
    problems = [] if out["rc"] == 0 else [f"analyze exit code {out['rc']}"]
    rows = out["rows"]
    probs = [r for r in rows if r[0].startswith("p_success")]
    problems += check_probabilities(probs, sc.reference)
    rates = {q: v for q, g, v in rows if q.startswith("rate_")}
    for q, v in rates.items():
        problems += check_rate_floor(sc.net, q, _analyze_rate_gamma(sc.net, q), v)
        ref = sc.reference.get((q, None))
        if ref is None or abs(v - ref) > max(_REF_REL * abs(ref), _REF_ABS):
            problems.append(f"{q} = {v}, reference {ref}")
    for layer, n_max in (("bl", sc.net.n1), ("el", sc.net.n2)):
        coop = [rates.get(f"rate_sbs_{layer}_n{n}") for n in range(1, n_max + 1)]
        if None in coop:
            problems.append(f"rate table lacks some sbs_{layer} entries")
        elif any(b < a for a, b in zip(coop, coop[1:])):
            problems.append(f"sbs_{layer} rates decrease with n: {coop}")
    if len(rows) != len(sc.reference):
        problems.append(f"{len(rows)} analyze rows, reference has "
                        f"{len(sc.reference)}")
    return problems


def check_validate(sc: Scenario, out: dict) -> list[str]:
    """Exit code 0 or 1 and 30 rows whose analytic column passes the
    analyze checks.  A 3-sigma ``fail`` row is a statistical verdict, not
    a failed operation; it is only counted."""
    problems = [] if out["rc"] in (0, 1) else [f"validate exit code {out['rc']}"]
    rows = out["rows"]
    expected = 6 * len(cli.GAMMA_GRID_DB)
    if len(rows) != expected:
        problems.append(f"{len(rows)} validate rows, expected {expected}")
    probs = [(q, g, a) for q, g, a, *_ in rows if q.startswith("p_success")]
    problems += check_probabilities(probs, sc.reference)
    for q, g, a, *_ in rows:
        if q.startswith("ergodic_rate"):
            problems += check_rate_floor(sc.net, f"{q} at {g} dB",
                                         db_to_linear(g), a)
    if (out["rc"] == 1) != any(r[5] == "fail" for r in rows):
        problems.append(f"exit code {out['rc']} disagrees with the row statuses")
    return problems


def check_optimize(sc: Scenario, out: dict) -> list[str]:
    problems = []
    for scheme in (1, 2):
        try:
            out[f"policy{scheme}"].validate_budget(sc.content)
        except ValueError as exc:
            problems.append(f"scheme {scheme} breaks the budget: {exc}")
    if (out["termination2"] != "converged"
            or out["iterations2"] > sc.settings.max_iters):
        problems.append(f"scheme 2 ended {out['termination2']} after "
                        f"{out['iterations2']} iterations")
    ee1, ee2 = out["ee1"], out["ee2"]
    for name in ("mpcp", "ucp", "icp"):
        if ee1 < out[name] - _GATE_REL * abs(out[name]):
            problems.append(f"scheme 1 EE {ee1} below {name} {out[name]}")
    if ee2 < ee1 - _GATE_REL * abs(ee1):
        problems.append(f"scheme 2 EE {ee2} below scheme 1 EE {ee1}")
    return problems


CHECK = {"analyze": check_analyze, "optimize": check_optimize,
         "validate": check_validate}


def deterministic_part(workload: str, out: dict):
    """The outputs that must repeat exactly from repetition to repetition."""
    if workload != "optimize":
        return None
    return (out["ee1"], out["ee2"], out["iterations1"], out["iterations2"])


def status_counts(out: dict) -> Counter:
    return Counter(r[5] for r in out["rows"])


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of a traced repetition of each workload
# ---------------------------------------------------------------------------

def span_metrics(tracer: Tracer, roots: dict, outs: dict) -> dict:
    """``roots`` maps each workload to the root span of its traced
    repetition and ``outs`` to that repetition's outputs."""
    metrics = {}
    (analyze,) = tracer.find("cli.main", under=roots["analyze"]["id"])
    (validate,) = tracer.find("cli.main", under=roots["validate"]["id"])
    (table,) = tracer.find("analytic.build_rate_table", under=analyze["id"])
    for layer, n_arg in (("bl", "n1_serving"), ("el", "n2_serving")):
        name = f"analytic.ergodic_rate_sbs_{layer}"
        for span in tracer.find(name, under=table["id"]):
            metrics[f"{name}.n{span['args'][n_arg]}_s"] = duration(span)
        metrics[f"{name}.sweep_s"] = tracer.total(name, under=validate["id"])
    metrics["analytic.ergodic_rate_mbs_s"] = tracer.total(
        "analytic.ergodic_rate_mbs")
    for q in ("mbs", "sbs_bl", "sbs_el"):
        metrics[f"analytic.p_success_{q}_s"] = tracer.total(
            f"analytic.p_success_{q}", under=analyze["id"])
        # The first call draws; the later ones are served by the lru_cache.
        draw = tracer.find(f"montecarlo.sir_samples_{q}")[0]
        metrics[f"montecarlo.sir_samples_{q}.drops_per_s"] = (
            draw["args"]["n_drops"] / duration(draw))
    metrics["montecarlo.estimate_s"] = sum(
        tracer.self_time(s) for s in tracer.spans
        if s["name"].startswith("montecarlo.estimate_"))
    opt = outs["optimize"]
    runs = tracer.find("optimizer.optimize", under=roots["optimize"]["id"])
    for scheme, span in zip((1, 2), runs, strict=True):
        iterations = opt[f"iterations{scheme}"]
        metrics[f"optimizer.scheme{scheme}.iterations"] = iterations
        metrics[f"optimizer.scheme{scheme}.ms_per_iter"] = (
            duration(span) * 1e3 / iterations)
        metrics[f"ee_scheme{scheme}_bits_per_j"] = opt[f"ee{scheme}"]
    metrics["baselines.icp_expected_ee_s"] = tracer.total(
        "baselines.icp_expected_ee")
    statuses = status_counts(outs["validate"])
    metrics["cli.validate.fail_rows"] = statuses["fail"]
    metrics["cli.validate.inconclusive_rows"] = statuses["inconclusive"]
    metrics["cli.self_s"] = sum(tracer.self_time(s)
                                for s in tracer.find("cli.main"))
    return metrics


# ---------------------------------------------------------------------------
# Micro-benchmarks of single public functions
# ---------------------------------------------------------------------------

def _median_call_s(fn, calls: int) -> float:
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def probes(sc: Scenario, tracer, seed: int, optima: dict) -> dict:
    """Per-call times of the small public functions, at UCP and at the
    optima the traced ``optimize`` repetition returned."""
    ctx, content, net = sc.ctx, sc.content, sc.net
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    metrics = {}
    with tracer.span("probe.g_alpha_vec", points=_G_ALPHA_POINTS):
        x = 10.0 ** rng.uniform(-3.0, 3.0, _G_ALPHA_POINTS)
        per_call = _median_call_s(lambda: analytic.g_alpha_vec(4.0, x), 5)
        metrics["analytic.g_alpha_vec_us_per_kpt"] = (
            per_call * 1e6 / (_G_ALPHA_POINTS / 1000))
    with tracer.span("probe.project_capped_simplex",
                     instances=_PROJECTION_INSTANCES):
        f = content.f_count
        budgets = (content.m_b, content.m_e)
        times = []
        for i in range(_PROJECTION_INSTANCES):
            budget = budgets[i % 2]
            v = budget / f + rng.normal(0.0, 0.3, f)
            t0 = time.perf_counter()
            project_capped_simplex(v, budget)
            times.append(time.perf_counter() - t0)
        metrics["optimizer.project_capped_simplex_us"] = float(
            np.median(times)) * 1e6
    with tracer.span("probe.config_popularity"):
        ucp = ucp_policy(content)

        def make_policy():
            CachingPolicy(mode="fractional", q1=ucp.q1, q2=ucp.q2) \
                .validate_budget(content)

        metrics["config.caching_policy_us"] = _median_call_s(
            make_policy, _SMALL_CALLS) * 1e6
        metrics["popularity.build_profile_us"] = _median_call_s(
            lambda: build_profile(content), _SMALL_CALLS) * 1e6
    for scheme, mode, power in ((1, "fractional", power_scheme1),
                                (2, "random", power_scheme2)):
        points = (ucp_policy(content, mode=mode), optima[scheme])
        with tracer.span(f"probe.objective.scheme{scheme}"):
            power_s, value_s, gradient_s = [], [], []
            for policy in points:
                power_s.append(_median_call_s(
                    lambda: power(policy, ctx.profile, net, content,
                                  ctx.coeff), _SMALL_CALLS))
                value_s.append(_median_call_s(
                    lambda: ee_value(policy, ctx), _SMALL_CALLS))
                for block in ("q1", "q2"):
                    gradient_s.append(_median_call_s(
                        lambda: ee_gradient(policy, ctx, block),
                        _GRADIENT_CALLS))
        metrics[f"power.power_scheme{scheme}_us"] = float(np.median(power_s)) * 1e6
        metrics[f"objective.ee_value.scheme{scheme}_us"] = float(
            np.median(value_s)) * 1e6
        metrics[f"objective.ee_gradient.scheme{scheme}_ms"] = float(
            np.median(gradient_s)) * 1e3
    r_sim = montecarlo.window_radius(net)
    # Computed from the densities and window, not counted from draws.
    metrics["montecarlo.points_per_drop"] = (
        (net.lambda_m + net.lambda_s) * math.pi * r_sim ** 2)
    return metrics
