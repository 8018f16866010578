"""Command-line front end: single-point reports, sweeps, verification runs.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 I/O error, 4 oracle convergence failure, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError, ReportFailure, check_mu
from .fock import FockConfig, s_overlap_converged
from .global_bounds import s_overlap_global
from .local_bounds import verify_heterodyne_optimality
from .report import (
    REPORT_FIELDS,
    discrimination_report,
    discrimination_reports,
    report_violations,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ORACLE_CONVERGENCE = 4
EXIT_INVARIANT = 5

ORACLE_MU_LIMIT = 2.5
ORACLE_TOL = 1e-3


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def cmd_point(args: argparse.Namespace) -> int:
    report = discrimination_report(args.mu)
    violations = report_violations(report)
    if violations:
        print("internal invariant violation: " + "; ".join(violations), file=sys.stderr)
        return EXIT_INVARIANT
    payload = {
        name: (None if math.isnan(getattr(report, name)) else getattr(report, name))
        for name in REPORT_FIELDS
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def sweep_grid(mu_min: float, mu_max: float, points: int, spacing: str) -> np.ndarray:
    check_mu(mu_min)
    check_mu(mu_max)
    if points < 2:
        raise DomainError(f"a sweep needs at least 2 points, got {points}")
    if mu_max <= mu_min:
        raise DomainError(f"mu-max must exceed mu-min, got [{mu_min}, {mu_max}]")
    if spacing == "linear":
        return np.linspace(mu_min, mu_max, points)
    if spacing == "log":
        return np.logspace(np.log10(mu_min), np.log10(mu_max), points)
    raise DomainError(f"unknown spacing {spacing!r}")


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = sweep_grid(args.mu_min, args.mu_max, args.points, args.spacing)
    lines = [",".join(REPORT_FIELDS)]
    for report in discrimination_reports(grid):
        violations = report_violations(report)
        if violations:
            print(
                f"internal invariant violation at mu={report.mu:g}: " + "; ".join(violations),
                file=sys.stderr,
            )
            return EXIT_INVARIANT
        lines.append(",".join(_fmt(v) for v in report.as_row()))
    payload = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(grid)} rows to {args.out}")
    return EXIT_OK


def cmd_verify_het(args: argparse.Namespace) -> int:
    failures = 0
    for mu in args.mu:
        for frac in args.g_frac:
            g = frac * (mu - 1.0)
            for s in args.s:
                try:
                    scan = verify_heterodyne_optimality(mu, g, s)
                except ReportFailure as exc:
                    failures += 1
                    print(f"FAIL mu={mu:g} g={g:g} s={s:g}: {exc}")
                else:
                    print(
                        f"ok   mu={mu:g} g={g:g} s={s:g}: min at lambda="
                        f"{scan.min_lambda:g}, derivative {scan.derivative_at_unit:+.2e}"
                    )
    if failures:
        print(f"{failures} grid point(s) failed")
        return EXIT_VERIFY_FAILED
    print("heterodyne optimality confirmed on the full grid")
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    for mu in args.mu:
        if not 1.0 <= mu <= ORACLE_MU_LIMIT:
            raise DomainError(
                f"oracle scope is 1 <= mu <= {ORACLE_MU_LIMIT}, got {mu}"
            )
    config = FockConfig(args.cutoff, args.nodes)
    worst = 0.0
    print(f"{'mu':>6} {'s':>5} {'closed form':>14} {'fock oracle':>14} {'|diff|':>10}")
    for mu in args.mu:
        oracle = s_overlap_converged(mu, args.s, config)
        for s in args.s:
            closed = s_overlap_global(mu, s)
            diff = abs(closed - oracle[float(s)])
            worst = max(worst, diff)
            print(
                f"{mu:6g} {s:5g} {closed:14.10f} {oracle[float(s)]:14.10f} {diff:10.2e}"
            )
    if worst > ORACLE_TOL:
        print(f"worst deviation {worst:.2e} exceeds {ORACLE_TOL:g}")
        return EXIT_VERIFY_FAILED
    print(f"all overlaps within {ORACLE_TOL:g} (worst {worst:.2e})")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="gaussdisc",
        description=(
            "Bounds on the error probability of detecting correlations in "
            "two-mode Gaussian states, for global and local detectors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="all quantities at a single thermal variance")
    point.add_argument("--mu", type=float, required=True)
    point.set_defaults(func=cmd_point)

    sweep = sub.add_parser("sweep", help="CSV sweep over a grid of thermal variances")
    sweep.add_argument("--mu-min", type=float, default=1.001)
    sweep.add_argument("--mu-max", type=float, default=1000.0)
    sweep.add_argument("--points", type=int, default=200)
    sweep.add_argument("--spacing", choices=("linear", "log"), default="log")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser(
        "verify-het", help="scan POVM asymmetries to confirm heterodyne optimality"
    )
    verify.add_argument("--mu", type=float, nargs="+", default=[1.5, 2.0, 5.0, 20.0])
    verify.add_argument(
        "--g-frac",
        type=float,
        nargs="+",
        default=[0.4, 1.0],
        help="correlations as fractions of mu - 1",
    )
    verify.add_argument("--s", type=float, nargs="+", default=[0.1, 0.3, 0.5, 0.7, 0.9])
    verify.set_defaults(func=cmd_verify_het)

    oracle = sub.add_parser(
        "oracle-check", help="compare closed-form overlaps with the Fock oracle"
    )
    oracle.add_argument("--mu", type=float, nargs="+", default=[1.5, 2.0])
    oracle.add_argument("--s", type=float, nargs="+", default=[0.3, 0.5, 0.7])
    oracle.add_argument("--cutoff", type=int, default=20)
    oracle.add_argument("--nodes", type=int, default=16)
    oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"oracle convergence failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CONVERGENCE
    except ReportFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
