"""One benchmark process: set up, then run one workload untraced or traced.

Started by ``run.py``, which times the set-up from process start to the
``@bench ready`` line and reads the ``@bench result`` line at the end.
Untraced, repetitions run back to back (a closed loop, one process, one
thread) until the next one would end after ``--seconds``; reference steps
run during each.  Traced, every workload runs once with
the package's public functions wrapped in spans, the run's own workload
straight after an untraced repetition of it, and then the
micro-benchmarks, so that every traced run reports every per-layer metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import svcache  # noqa: E402

import workloads as wl  # noqa: E402
from reference import Sampler  # noqa: E402
from tracing import Tracer, duration  # noqa: E402


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository.  Git
    does not look above ``root`` for a repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ,
                                       GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_record(sc: wl.Scenario, args, rep_seeds: list) -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "svcache": svcache.__version__,
        "git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
        "scenario_hash": sc.hash, "workload": args.workload,
        "workload_seed": args.seed, "rep_seeds": rep_seeds,
        "trace": args.trace, "seconds": args.seconds,
    }


def timed_rep(sc: wl.Scenario, workload: str, seed: int,
              kinds: tuple = ()) -> tuple[dict, dict | None]:
    """Run and check one repetition; a repetition that raises is failed.
    With ``kinds``, reference steps of those kinds run during it (see
    ``reference.Sampler``), and their time is taken out of ``wall_s`` and
    ``cpu_s``."""
    sampler = Sampler(kinds)
    t0, c0 = time.perf_counter(), time.process_time()
    with sampler if kinds else contextlib.nullcontext():
        try:
            out = wl.RUN[workload](sc, seed)
        except Exception:  # a failed repetition is counted, not fatal
            out = None
            problems = [traceback.format_exc(limit=4)]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if out is not None:
        problems = wl.CHECK[workload](sc, out)
    rep = {"seed": seed, "wall_s": wall - sampler.step_s,
           "cpu_s": cpu - sampler.step_s, "step_s": sampler.step_s,
           "steps": sampler.count, "problems": problems}
    if out is not None and workload == "validate":
        rep["statuses"] = dict(wl.status_counts(out))
    if out is not None and workload == "optimize":
        rep.update(ee1=out["ee1"], ee2=out["ee2"], icp=out["icp"],
                   iterations1=out["iterations1"],
                   iterations2=out["iterations2"])
    return rep, out


def untraced(sc: wl.Scenario, args) -> dict:
    """Back-to-back repetitions, each with reference steps of the kinds
    that gauge the workload running during it."""
    reps, first = [], None
    start = time.perf_counter()
    while True:
        rep, out = timed_rep(sc, args.workload,
                             wl.rep_seed(args.seed, len(reps)),
                             wl.GAUGE[args.workload])
        if out is not None:
            det = wl.deterministic_part(args.workload, out)
            first = det if first is None else first
            if det != first:
                rep["problems"].append(f"outputs {det} differ from the first "
                                       f"repetition's {first}")
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + max(r["wall_s"] + r["step_s"] for r in reps) > args.seconds:
            break
    return {"reps": reps, "problems": [r["problems"] for r in reps],
            "record": run_record(sc, args, [r["seed"] for r in reps])}


def traced(sc: wl.Scenario, args) -> dict:
    """A traced repetition of every workload, so that every traced run
    reports every per-layer metric, then the micro-benchmarks.

    The run's own workload comes last, straight after an untraced
    repetition of it with another seed: the other two workloads warm the
    process up for both, so the pair gives the tracing overhead."""
    seed = wl.rep_seed(args.seed, 0)
    untraced_seed = wl.rep_seed(args.seed, 1)
    tracer = Tracer(rep=0)
    order = [w for w in wl.WORKLOADS if w != args.workload] + [args.workload]
    outs, roots, problems = {}, {}, {}
    for name in order:
        if name == args.workload:
            rep, _ = timed_rep(sc, name, untraced_seed)
        with tracer.instrument(wl.TRACED), \
                tracer.span(f"workload.{name}", seed=seed) as roots[name]:
            outs[name] = wl.RUN[name](sc, seed)
        problems[name] = wl.CHECK[name](sc, outs[name])
    tracer.finish()

    opt = outs["optimize"]
    metrics = wl.probes(sc, tracer, seed, {1: opt["policy1"], 2: opt["policy2"]})
    metrics.update(wl.span_metrics(tracer, roots, outs))
    problems[args.workload] += tracer.nesting_errors()
    traced_s = duration(roots[args.workload])
    metrics["bench.cpu_s"] = rep["cpu_s"]
    metrics["bench.trace_overhead_ratio"] = traced_s / rep["wall_s"]
    return {"reps": [rep],
            "problems": [rep["problems"], *problems.values()],
            "metrics": metrics, "untraced_s": rep["wall_s"],
            "traced_s": traced_s, "spans": tracer.spans,
            "record": run_record(sc, args, [seed, untraced_seed])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(svcache.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"svcache imported from {svcache.__file__}, "
                           f"not from {ROOT / 'src'}")
    sc = wl.setup(OUT_DIR / "cli")
    print("@bench ready", flush=True)
    if args.setup_only:
        return 0

    result = traced(sc, args) if args.trace else untraced(sc, args)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1, default=str))
    result.pop("spans", None)
    print("@bench result " + json.dumps(result, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
