"""Batch experiment runner.

Subcommands:
  validate  - cross-check every analytic quantity against the Monte-Carlo
              oracle over a gamma grid
  analyze   - evaluate the analytic probabilities and the full rate table
  simulate  - Monte-Carlo estimates only, with an optional raw SIR dump
  optimize  - run the gradient-projection EE maximizer for one scheme
  compare   - EE of both schemes and all baselines over a parameter sweep

--drops is read by validate and simulate, --theta by optimize and
compare.  Every CSV, trace.csv included, is written with a JSON "plot
manifest" describing its column roles.  Exit codes: 0 success, 1
validation failure, bad input (non-finite numbers, a negative seed and
arrays too large to allocate included) or usage error, 2 numeric
non-convergence, or a floating-point overflow, division by zero or invalid
value.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from svcache import analytic, montecarlo
from svcache.analytic import QuadratureError
from svcache.baselines import icp_expected_ee, mpcp_policy, ucp_policy
from svcache.config import (NetworkConfig, ContentConfig, PowerCoefficients,
                            db_to_linear, load_scenario)
from svcache.objective import ObjectiveContext, ee_value
from svcache.optimizer import (INITIAL_KINDS, SolverSettings, TraceRow,
                               make_initial_policy, optimize, optimize_best)
from svcache.popularity import build_profile

GAMMA_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0)

# A standard error above this fraction of the scale (1 for a probability,
# the analytic value for a rate) is reported as inconclusive rather than
# pass/fail; see _status for which error each row uses.
_MAX_CONCLUSIVE_SIGMA = 0.02

# The delivery modes: name suffix of their analytic and sampler functions,
# Monte-Carlo source, and the NetworkConfig field holding the serving count.
# The functions are fetched from their modules at each call, so a wrapper
# set on a module attribute sees every call.
_MODES = (("mbs", "MBS", None), ("sbs_bl", "SBS-BL", "n1"),
          ("sbs_el", "SBS-EL", "n2"))


def _write_csv(path: Path, header: list, rows: list, roles: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    manifest = {"csv": path.name, "schema_version": 1, "columns": roles}
    path.with_suffix(".manifest.json").write_text(json.dumps(manifest, indent=2))


def _load(args):
    if args.config:
        return load_scenario(args.config)
    return NetworkConfig(), ContentConfig(), PowerCoefficients()


def _modes(net):
    """(name, source, serving-count arguments) of each delivery mode; a
    cluster of size 0 serves nothing and is left out."""
    return [(name, source, () if field is None else (getattr(net, field),))
            for name, source, field in _MODES
            if field is None or getattr(net, field) > 0]


def _analytic(kind, name, serving, net, gamma, seed):
    fn = getattr(analytic, f"{kind}_{name}")
    return fn(net, gamma, *serving, seed=seed) if serving else fn(net, gamma)


def _estimate(kind, source, serving, net, gamma, args):
    if kind == "ergodic_rate":
        return montecarlo.estimate_ergodic_rate(net, gamma, source, args.drops,
                                                args.seed, *serving)
    if not serving:
        return montecarlo.estimate_p_success_mbs(net, gamma, args.drops,
                                                 args.seed)
    return montecarlo.estimate_p_success_sbs(
        net, gamma, source.removeprefix("SBS-"), *serving, args.drops, args.seed)


def _status(kind, analytic_value, est):
    """The verdict on one validate row.  A probability is judged on the
    scale 1 by the binomial error sqrt(p (1 - p) / n) at the analytic p:
    the estimate's own plug-in error is 0 whenever no drop, or every
    drop, succeeds.  A rate is judged on the scale of its analytic value
    by the estimate's error."""
    if kind == "p_success":
        scale = 1.0
        sigma = math.sqrt(analytic_value * (1.0 - analytic_value)
                          / est.n_samples)
    else:
        scale, sigma = analytic_value, est.std_error
    if sigma > _MAX_CONCLUSIVE_SIGMA * scale:
        return "inconclusive"
    tolerance = max(3.0 * sigma, 0.01 * scale)
    return "pass" if abs(analytic_value - est.mean) <= tolerance else "fail"


def cmd_validate(args) -> int:
    net, content, _ = _load(args)
    rows = []
    failed = False
    for gamma_db in GAMMA_GRID_DB:
        gamma = db_to_linear(gamma_db)
        for kind in ("p_success", "ergodic_rate"):
            for name, source, serving in _modes(net):
                value = _analytic(kind, name, serving, net, gamma, args.seed)
                try:
                    est = _estimate(kind, source, serving, net, gamma, args)
                    status = _status(kind, value, est)
                except RuntimeError:
                    # too few drops met the QoS condition for a rate
                    est = montecarlo.Estimate(math.nan, math.inf, 0)
                    status = "inconclusive"
                failed |= status == "fail"
                rows.append([f"{kind}_{name}", gamma_db, value, est.mean,
                             est.std_error, status])

    out = Path(args.out_dir) / "validate.csv"
    _write_csv(out, ["quantity", "gamma_db", "analytic", "mc_mean",
                     "mc_std_error", "status"],
               rows, {"x": "gamma_db", "series": "quantity",
                      "y": ["analytic", "mc_mean"], "error": "mc_std_error"})
    print(f"wrote {out}")
    return 1 if failed else 0


def cmd_analyze(args) -> int:
    net, content, _ = _load(args)
    # The table first: its last entry of each layer leaves the serving draw
    # at n1 (n2) in place for the p_success grid.
    table = analytic.build_rate_table(net, seed=args.seed)
    rows = []
    for gamma_db in GAMMA_GRID_DB:
        gamma = db_to_linear(gamma_db)
        for name, _, serving in _modes(net):
            rows.append([f"p_success_{name}", gamma_db,
                         _analytic("p_success", name, serving, net, gamma,
                                   args.seed)])
    rows.append(["rate_mbs_bl_threshold", None, table.r_m_bl])
    rows.append(["rate_mbs_el_threshold", None, table.r_m_el])
    for n, r in table.r_s_bl.items():
        rows.append([f"rate_sbs_bl_n{n}", None, r])
    for n, r in table.r_s_el.items():
        rows.append([f"rate_sbs_el_n{n}", None, r])
    out = Path(args.out_dir) / "analyze.csv"
    _write_csv(out, ["quantity", "gamma_db", "value"],
               rows, {"x": "gamma_db", "series": "quantity", "y": ["value"]})
    print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    net, content, _ = _load(args)
    rows = []
    for gamma_db in GAMMA_GRID_DB:
        gamma = db_to_linear(gamma_db)
        for name, source, serving in _modes(net):
            est = _estimate("p_success", source, serving, net, gamma, args)
            rows.append([f"p_success_{name}", gamma_db, est.mean,
                         est.std_error, est.n_samples])
    out = Path(args.out_dir) / "simulate.csv"
    _write_csv(out, ["quantity", "gamma_db", "mc_mean", "mc_std_error",
                     "n_samples"],
               rows, {"x": "gamma_db", "series": "quantity", "y": ["mc_mean"],
                      "error": "mc_std_error"})
    print(f"wrote {out}")
    if args.dump:
        dump = Path(args.out_dir) / "sir_drops.txt"
        modes = _modes(net)
        with open(dump, "w") as fh:
            fh.write("# seed " + " ".join(f"sir_{name}" for name, _, _ in modes)
                     + "\n")
            samples = [getattr(montecarlo, f"sir_samples_{name}")(
                net, *serving, args.drops, args.seed)
                for name, _, serving in modes]
            for vals in zip(*samples):
                fh.write(f"{args.seed} "
                         + " ".join(repr(float(v)) for v in vals) + "\n")
        print(f"wrote {dump}")
    return 0


def _context(args, net, content, coeff):
    table = analytic.build_rate_table(net, seed=args.seed)
    return ObjectiveContext(rates=table, profile=build_profile(content),
                            net=net, content=content, coeff=coeff,
                            theta=args.theta)


def cmd_optimize(args) -> int:
    net, content, coeff = _load(args)
    settings = SolverSettings(max_iters=args.max_iters, rel_tol=args.rel_tol,
                              theta=args.theta)
    ctx = _context(args, net, content, coeff)
    mode = "fractional" if args.scheme == 1 else "random"
    initial = make_initial_policy(args.init, content, args.seed, mode=mode)
    policy, trace = optimize(initial, ctx, settings)

    out_dir = Path(args.out_dir)
    _write_csv(out_dir / "trace.csv", [f.name for f in fields(TraceRow)],
               [astuple(r) for r in trace.rows], {"x": "iteration", "y": ["ee"]})
    rows = list(zip(range(1, content.f_count + 1), policy.q1.tolist(),
                    policy.q2.tolist()))
    _write_csv(out_dir / "policy.csv", ["file", "q1", "q2"], rows,
               {"x": "file", "y": ["q1", "q2"]})
    ee = ee_value(policy, ctx)
    print(f"scheme {args.scheme}: EE = {ee:.6g} bits/J, "
          f"termination = {trace.termination}, iterations = {len(trace.rows)}, "
          f"residual = {trace.residual:.3g}")
    if policy.mode == "fractional":
        print(f"exact-l0 EE = {ee_value(policy, ctx, exact_l0=True):.6g} bits/J")
    return 0


_SWEEPS = {
    "p_s": lambda net, content, v: (replace(net, p_s=v), content),
    "gamma_bl": lambda net, content, v: (replace(net, gamma_bl=v), content),
    "cache_size": lambda net, content, v: (net, replace(content, m_cache=v)),
    "zipf_alpha": lambda net, content, v: (net, replace(content, zipf_alpha=v)),
}


def cmd_compare(args) -> int:
    net0, content0, coeff = _load(args)
    grid = [float(x) for x in args.grid.split(",")]
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"--grid entries must be finite, got {args.grid}")
    settings = SolverSettings(max_iters=args.max_iters, rel_tol=args.rel_tol,
                              theta=args.theta)
    rows = []
    table_net = None
    for value in grid:
        net, content = _SWEEPS[args.sweep](net0, content0, value)
        if net != table_net:
            table, table_net = analytic.build_rate_table(net, seed=args.seed), net
        ctx = ObjectiveContext(rates=table, profile=build_profile(content),
                               net=net, content=content, coeff=coeff,
                               theta=args.theta)
        pol1, _ = optimize_best(ctx, "fractional", settings)
        pol2, _ = optimize_best(ctx, "random", settings)
        rows.append([value, "scheme1", ee_value(pol1, ctx)])
        rows.append([value, "scheme1_exact_l0", ee_value(pol1, ctx, exact_l0=True)])
        rows.append([value, "scheme2", ee_value(pol2, ctx)])
        rows.append([value, "mpcp",
                     ee_value(mpcp_policy(content), ctx, exact_l0=True)])
        rows.append([value, "ucp", ee_value(ucp_policy(content), ctx,
                                            exact_l0=True)])
        rows.append([value, "icp",
                     icp_expected_ee(ctx, args.icp_realizations, args.seed).mean])
    out = Path(args.out_dir) / f"compare_{args.sweep}.csv"
    _write_csv(out, [args.sweep, "policy", "ee"],
               rows, {"x": args.sweep, "series": "policy", "y": ["ee"]})
    print(f"wrote {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Exit 1, not argparse's 2: here 2 means numeric non-convergence.
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="svcache", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="scenario file (key = value lines)")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--drops", type=int, default=20_000,
                        help="Monte-Carlo drops per quantity (validate, simulate)")
    parser.add_argument("--theta", type=float, default=0.01,
                        help="l0 smoothing parameter (optimize, compare)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="analytic vs Monte-Carlo cross-check")
    sub.add_parser("analyze", help="analytic quantities and rate table")
    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimates only")
    p_sim.add_argument("--dump", action="store_true",
                       help="dump raw per-drop SIR samples")
    p_opt = sub.add_parser("optimize", help="run the EE maximizer")
    p_opt.add_argument("--scheme", type=int, choices=(1, 2), default=2)
    p_opt.add_argument("--init", default="ucp", choices=INITIAL_KINDS)
    p_opt.add_argument("--max-iters", type=int, default=500)
    p_opt.add_argument("--rel-tol", type=float, default=1e-6)
    p_cmp = sub.add_parser("compare", help="EE sweep across policies")
    p_cmp.add_argument("--sweep", choices=tuple(_SWEEPS), required=True)
    p_cmp.add_argument("--grid", required=True,
                       help="comma-separated grid values (SI units)")
    p_cmp.add_argument("--max-iters", type=int, default=200)
    p_cmp.add_argument("--rel-tol", type=float, default=1e-6)
    p_cmp.add_argument("--icp-realizations", type=int, default=200)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"validate": cmd_validate, "analyze": cmd_analyze,
               "simulate": cmd_simulate, "optimize": cmd_optimize,
               "compare": cmd_compare}[args.command]
    try:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        # An overflow, division by zero or invalid value in numpy ends the
        # run here with one line, not with a warning and a NaN carried on.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return handler(args)
    except QuadratureError as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric range error ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: numpy refuses an array too large to allocate (a huge
        # cluster size, say) before it allocates anything.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
