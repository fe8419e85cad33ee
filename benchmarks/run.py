"""Benchmark entry point: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload amplitude-1d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ``src/``.
The run writes its seeded scenario documents and reports under ``.bench_work/``,
times set-up in fresh processes, runs the closed loop in one more fresh process,
prints every metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics and ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import summarize  # noqa: E402
from workloads import WORKLOADS, write_documents  # noqa: E402

SETUP_PROBES = 3  # fresh processes timing set-up, besides the measuring one
TIME_LIMIT_S = 170.0


def declared_units() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units by name, in BENCHMARK.json's order."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in declared[key]} for key in ("end_to_end", "per_layer"))


class BenchError(Exception):
    """The run could not produce a result."""


def _child(args: list[str], deadline: float) -> dict:
    """Run a worker process to completion and return the JSON of its last line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {args[0]} timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    end_to_end_units, layer_units = declared_units()
    src = root / "src" / "gaugeslice" / "__init__.py"
    shipped = root / "scenarios"
    if not src.is_file() or not shipped.is_dir():
        raise BenchError(f"no gaugeslice source checkout at {root}")

    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        docs = [str(p) for p in write_documents(workload, seed, shipped, work / "docs")]
        probes = [_child(["setup", str(root), *docs], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        trace_file = root / ".bench_work" / "traces" / f"{workload}-{seed}.json"
        result = _child(["measure", str(root), workload, str(seconds), "1" if trace else "0",
                         str(work / "reports"), str(trace_file), *docs], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall, slowest = summarize(result["walls"])
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(probes + [result["setup_s"]]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    walls = " ".join(f"{w:.3f}" for w in result["walls"])
    print(f"workload {workload} seed {seed}: untraced cycles [{walls}] s, slowest {slowest:.6g} s, "
          f"{result['attempted']} invocations, failed_ratio {result['failed_ratio']:.6g}, "
          f"oracle_err_max {result['oracle_err_max']:.6g}")
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    for name, unit in end_to_end_units.items():
        print(f"  {name:34s} {end_to_end[name]:.6g} {unit}")
    if trace:
        for name, unit in layer_units.items():
            print(f"  {name:34s} {result['layers'][name]:.6g} {unit}")
    chosen, units = (result["layers"], layer_units) if trace else (end_to_end, end_to_end_units)
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM unwind through subprocess.run, which kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
