"""svcache benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 perfbench/run.py --workload analyze|optimize|validate \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
with BLAS and OpenMP pinned to one thread.  Untraced, set-up is timed in
``SETUPS`` set-up-only children, each followed by a pass of the reference
kernel, which gauges the machine's current speed.
Human-readable report lines come first; the last line of standard output
is the JSON result.  Exits 2 when the checkout has no svcache sources, 1
when an output check failed, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze", "optimize", "validate")
SETUPS = 6
# setup_s is given in seconds of a machine on which one pass of the
# reference kernel takes this long; see the noise section of README.md.
REF_PASS_S = 0.5
# Every run must end within 180 s; the worker is killed after this.
DEADLINE_S = 170.0
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(argv: list, env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its result, if any."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith("@bench ready"):
                setup_s = time.perf_counter() - t0
            elif line.startswith("@bench result "):
                result = json.loads(line[len("@bench result "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return setup_s, result


def tail_percentile(values: list) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(p / 100.0 * n))]
    return None


def report_untraced(result: dict, pairs: list, run_ref: float,
                    setup_s: float) -> list[str]:
    reps = result["reps"]
    walls = [r["wall_s"] for r in reps]
    failed = sum(1 for p in result["problems"] if p)
    lines = [f"run_s        {statistics.median(walls):.4f} s    median wall time of "
             f"{len(walls)} repetitions (closed loop, 1 process, 1 thread)"]
    tail = tail_percentile(walls)
    lines.append(f"             p{tail[0]:g} = {tail[1]:.4f} s" if tail else
                 "             no percentile has 10 samples beyond it")
    lines += [
        f"run_ref      {run_ref:.4f}      mean repetition time / mean time "
        "of the reference steps run during them: " + ", ".join(
            f"{r['steps']} steps of {r['step_s'] / r['steps'] * 1e3:.3f} ms"
            for r in reps),
        f"setup_s      {setup_s:.4f} s    {REF_PASS_S} s x median of set-up / "
        f"kernel over {len(pairs)} pairs; raw set-up median "
        f"{statistics.median(s for s, _ in pairs):.4f} s",
        "             pairs (s) " + ", ".join(f"{s:.3f}/{k:.3f}" for s, k in pairs),
        f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB",
        f"fail_ratio   {failed / len(reps):g}      {failed} of {len(reps)} "
        "repetitions failed",
        f"bench.cpu_s  {statistics.median(r['cpu_s'] for r in reps):.4f} s    "
        "median process CPU per repetition",
    ]
    if "ee1" in reps[0]:
        lines += [
            f"ee_scheme1_bits_per_j  {reps[0]['ee1']!r} bits/J (exact l0)",
            f"ee_scheme2_bits_per_j  {reps[0]['ee2']!r} bits/J",
            f"optimizer iterations   scheme 1: {reps[0]['iterations1']}, "
            f"scheme 2: {reps[0]['iterations2']}",
        ]
    if "statuses" in reps[0]:
        lines += [f"validate statuses      rep {i}: {r['statuses']}"
                  for i, r in enumerate(reps)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "svcache" / "__init__.py").is_file():
        print(f"error: no svcache sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    env = dict(os.environ, **{k: "1" for k in _THREAD_ENV})
    # The workers inherit this: the reference kernel then gauges the same
    # CPU the set-ups run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # Pairs of (set-up time, kernel pass right after it).  A traced
        # run reports no set-up time.
        pairs = [(run_worker(common + ["--setup-only"], env, deadline)[0],
                  reference_s())
                 for _ in range(0 if args.trace else SETUPS)]
        _, result = run_worker(common, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["metrics"]
        lines = [f"traced {args.workload}: untraced repetition "
                 f"{result['untraced_s']:.4f} s, traced repetition "
                 f"{result['traced_s']:.4f} s, overhead "
                 f"{result['traced_s'] - result['untraced_s']:+.4f} s"]
    else:
        reps = result["reps"]
        mean_step_s = (sum(r["step_s"] for r in reps)
                       / sum(r["steps"] for r in reps))
        run_ref = statistics.mean(r["wall_s"] for r in reps) / mean_step_s
        setup_s = REF_PASS_S * statistics.median(s / k for s, k in pairs)
        metrics = {"run_ref": run_ref, "setup_s": setup_s,
                   "peak_rss_mb": result["peak_rss_mb"]}
        lines = report_untraced(result, pairs, run_ref, setup_s)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json {kind}", file=sys.stderr)
        return 1
    problems = result["problems"]
    failed = sum(1 for p in problems if p)
    print(f"workload {args.workload}, seed {args.seed}, record "
          + json.dumps(result["record"]))
    for line in lines:
        print(line)
    for p in (p for ps in problems for p in ps):
        print("check failed: " + p.rstrip().replace("\n", " | "))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(problems), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in (m["name"] for m in spec[kind])},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
