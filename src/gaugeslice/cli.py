"""Scenario-driven command-line front end.

Subcommands ``trotter``, ``amplitude``, ``gauge`` and ``all`` each load a
scenario file, run the corresponding study, write a CSV table and a JSON
diagnostics document into the output directory, and exit 0 only if every
configured assertion passed, 1 if one failed and 2 if the run could not be
completed (an unreadable or invalid scenario, a bad flag, a tripped evaluation
cap, an amplitude gap that excises a whole axis, a scalar potential that
swamps the reference's spectral interval, a field evaluation on a registered
singular point, or an output directory that cannot be made or written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import GaugesliceError
from . import scenarios


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugeslice",
        description="Convergence studies for gauge-split time-sliced propagators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("trotter", "split-step vs dense-exponential convergence table"),
        ("amplitude", "excised path-integral amplitude study"),
        ("gauge", "gauge conjugation and midpoint-discrepancy checks"),
        ("all", "run every study for the scenario"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--scenario", required=True, type=Path, help="scenario JSON file")
        p.add_argument("--out", type=Path, default=Path("reports"), help="output directory")
        p.add_argument("--threads", type=int, default=1, help="worker threads (>= 1)")
    return parser


def _print_summary(report: scenarios.Report) -> None:
    for row in report.rows:
        ref = "" if row.reference is None else f" ref={row.reference:.6g}"
        err = "" if row.abs_error is None else f" abs_err={row.abs_error:.3g}"
        print(f"{row.scenario} {row.quantity} [{row.k_or_step}] value={row.value:.6g}{ref}{err} ({row.oracle})")
    print(f"{report.scenario}: {'PASS' if report.passed else 'FAIL'}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be a positive integer, got {args.threads}")
    try:
        scenario = scenarios.load_scenario(args.scenario)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load scenario {args.scenario}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

    try:
        # made before any study runs, so a bad --out fails fast
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "trotter":
            report = scenarios.run_trotter_study(scenario, threads=args.threads)
        elif args.command == "amplitude":
            report = scenarios.run_amplitude_study(scenario)
        elif args.command == "gauge":
            report = scenarios.run_gauge_check(scenario)
        else:
            report = scenarios.run_all(scenario, threads=args.threads)
        stem = f"{scenario.name}_{args.command}"
        report.write_csv(args.out / f"{stem}.csv")
        report.write_json(args.out / f"{stem}.json")
    except (GaugesliceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_summary(report)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
