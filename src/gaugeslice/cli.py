"""Scenario-driven command-line front end.

Subcommands ``trotter``, ``amplitude``, ``gauge`` and ``all`` each load a
scenario file, run the command's studies through :func:`scenarios.run`, write
a CSV table and a JSON diagnostics document into the output directory, and
print a line per report row, a ``FAIL <check>: <observed> vs <bound>`` line per
failed check (``FAIL <check> [<k_or_step>]: ...`` for a check made once per
row) and a ``<name>: PASS`` or ``<name>: FAIL`` verdict.  The exit code
is 0 if every check held, 1 if one failed and 2 if the run could not be
completed: an unreadable or invalid scenario, a bad flag, a run that raised a
:class:`GaugesliceError` (README.md lists each cause), a grid too large to
allocate, or an output directory that cannot be made or written.  Each such
failure prints one ``error:`` line.
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
        ("trotter", "split-step vs reference-evolution convergence table"),
        ("amplitude", "excised path-integral amplitude study"),
        ("gauge", "gauge conjugation and midpoint-discrepancy checks"),
        ("all", "run every study for the scenario"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--scenario", required=True, type=Path, help="scenario JSON file")
        p.add_argument("--out", type=Path, default=Path("reports"), help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored (>= 1): every study runs in the calling thread")
    return parser


def _show(value) -> str:
    """A check's observed value or bound: a real to 6 significant digits, a list entry by entry."""
    if isinstance(value, (list, tuple)):
        return f"[{', '.join(map(_show, value))}]"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_summary(report: scenarios.Report) -> None:
    for row in report.rows:
        ref = "" if row.reference is None else f" ref={row.reference:.6g}"
        err = "" if row.abs_error is None else f" abs_err={row.abs_error:.3g}"
        print(f"{row.scenario} {row.quantity} [{row.k_or_step}] value={row.value:.6g}{ref}{err} ({row.oracle})")
    for failure in report.failures:
        at = f" [{failure['at']}]" if "at" in failure else ""
        print(f"FAIL {failure['check']}{at}: {_show(failure['observed'])} vs {_show(failure['bound'])}")
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
        report = scenarios.run(scenario, args.command)
        stem = f"{scenario.name}_{args.command}"
        report.write_csv(args.out / f"{stem}.csv")
        report.write_json(args.out / f"{stem}.json")
    except (GaugesliceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2

    _print_summary(report)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
