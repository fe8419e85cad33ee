"""Fresh-process side of the benchmark: set-up probes and the measured closed loop.

    worker.py setup ROOT DOC...
    worker.py measure ROOT WORKLOAD SECONDS TRACE OUT_DIR TRACE_FILE DOC...

Both print one JSON object as their last line of standard output.  ``setup``
times the import of gaugeslice plus loading every scenario document.  ``measure``
does the same, then drives ``gaugeslice.cli.main`` in a closed loop: one client,
each invocation starting after the previous one returns, whole cycles over the
workload's documents until the next cycle would overrun ``SECONDS``.  With
``TRACE`` 1 it follows the untraced cycles with two traced ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import gaugeslice
    from gaugeslice import cli, scenarios

    if Path(gaugeslice.__file__).resolve().parent != (src / "gaugeslice").resolve():
        raise SystemExit(f"gaugeslice imported from {gaugeslice.__file__}, not from {src}")
    return cli, scenarios


def _setup(root: Path, docs: list[Path]):
    start = time.perf_counter()
    cli, scenarios = _import_program(root)
    for path in docs:
        scenarios.load_scenario(path)
    return time.perf_counter() - start, cli


def _complex(value) -> complex:
    if isinstance(value, dict):
        return complex(value["re"], value["im"])
    return complex(value)


def free_amplitude(doc: dict) -> complex:
    """Unconjugated pairing of the final state with the freely evolved initial state.

    Evolved with exp(-i t k^2) on a fine periodic FFT grid, independently of
    gaugeslice, for 1D documents with no scalar or vector potential.
    """
    import numpy as np

    def packet(state, x):
        c, w, p = state["center"][0], state["width"][0], state["momentum"][0]
        return (2.0 * np.pi * w * w) ** -0.25 * np.exp(-((x - c) ** 2) / (4.0 * w * w) + 1j * p * (x - c))

    n = 2**15
    x = np.linspace(-80.0, 80.0, n, endpoint=False)
    dx = x[1] - x[0]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    psi_t = np.fft.ifft(np.exp(-1j * doc["time"] * k * k) * np.fft.fft(packet(doc["initial_state"], x)))
    return complex(np.sum(packet(doc["final_state"], x) * psi_t) * dx)


def _is_free_1d(doc: dict) -> bool:
    return (doc["dimension"] == 1
            and doc.get("scalar_potential", {}).get("family", "free") == "free"
            and doc.get("vector_potential", {}).get("family", "zero") == "zero")


def quadrature_meshes(report: dict) -> dict:
    """Kernel pairs (sum of slices * mesh_size^2) and the largest mesh of a report's amplitudes."""
    runs = [(int(key[len("amplitude_k"):]), diag["mesh_sizes"])
            for key, diag in report["diagnostics"].items() if key.startswith("amplitude_k")]
    return {"kernel_pairs": sum(k * sum(m * m for m in sizes) for k, sizes in runs),
            "mesh_points_max": max((max(sizes) for _, sizes in runs), default=0)}


def check_invocation(code, stdout: str, report_path: Path, doc: dict, rows: tuple,
                     free_ref: complex | None, meshes: dict | None):
    """(failure or None, largest rel_error over rows that carry a reference).

    ``meshes`` are the recorded quadrature meshes of the document, if it has
    an amplitude study: speed must not come from coarser ones.
    """
    if code != 0:
        return f"{doc['name']}: exit code {code}", 0.0
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != f"{doc['name']}: PASS":
        return f"{doc['name']}: no PASS verdict", 0.0
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return f"{doc['name']}: unreadable report ({exc})", 0.0
    if not report.get("passed") or "trotter_skipped" in report.get("diagnostics", {}):
        return f"{doc['name']}: report not passed or trotter study skipped", 0.0
    present = {r["quantity"] for r in report["rows"]}
    missing = [q for q in rows if q not in present]
    if missing:
        return f"{doc['name']}: missing rows {missing}", 0.0
    errors = [r["rel_error"] for r in report["rows"]
              if r["reference"] is not None and r["rel_error"] is not None]
    if not all(math.isfinite(e) for e in errors):
        return f"{doc['name']}: non-finite rel_error", 0.0
    if meshes is not None and (got := quadrature_meshes(report)) != meshes:
        return f"{doc['name']}: quadrature meshes {got}, recorded {meshes}", 0.0
    if free_ref is not None:
        tol = doc["checks"]["amplitude_rel_tol"]
        for r in report["rows"]:
            if r["quantity"] == "amplitude" and abs(_complex(r["value"]) - free_ref) > tol * abs(free_ref):
                return f"{doc['name']}: amplitude {r['value']} off the free oracle {free_ref}", 0.0
    return None, max(errors, default=0.0)


class Loop:
    """Closed loop of CLI invocations over one workload's documents."""

    def __init__(self, cli, workload: str, docs: list[Path], out_dir: Path):
        self.cli = cli
        self.command, self.flags, self.rows, _ = WORKLOADS[workload]
        self.paths = docs
        self.docs = [json.loads(p.read_text()) for p in docs]
        self.free_refs = [free_amplitude(d) if _is_free_1d(d) else None for d in self.docs]
        recorded = json.loads((HERE / "baseline.json").read_text())["meshes"]
        self.meshes = [recorded.get(d["name"]) for d in self.docs]
        self.out_dir = out_dir
        self.outcomes: list[str | None] = []
        self.oracle_err_max = 0.0
        self.recorder: spans.Recorder | None = None
        self.counters: layers.Counters | None = None
        self.cycle_of_request: dict[int, int] = {}

    def cycle(self, index: int) -> float:
        """One pass over the documents; returns the summed invocation wall time."""
        wall = 0.0
        if self.counters is not None:
            self.counters.cycle = index
        for path, doc, free_ref, meshes in zip(self.paths, self.docs, self.free_refs, self.meshes):
            report_path = self.out_dir / f"{doc['name']}_{self.command}.json"
            report_path.unlink(missing_ok=True)
            argv = [self.command, "--scenario", str(path), "--out", str(self.out_dir), *self.flags]
            if self.recorder is not None:
                self.recorder.request += 1
                self.cycle_of_request[self.recorder.request] = index
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = self.cli.main(argv)
                failure = None
            except Exception as exc:  # a crashing invocation is a failed one, the loop goes on
                failure = f"{doc['name']}: raised {exc!r}"
            wall += time.perf_counter() - start
            if failure is None:
                failure, err = check_invocation(code, out.getvalue(), report_path, doc, self.rows,
                                                free_ref, meshes)
                self.oracle_err_max = max(self.oracle_err_max, err)
            self.outcomes.append(failure)
        return wall

    def run(self, seconds: float, minimum: int, first_index: int = 0) -> list[float]:
        """Whole cycles until the next one would end after ``seconds``; at least ``minimum``."""
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(self.cycle(first_index + len(walls)))
            elapsed = time.perf_counter() - start
            if len(walls) >= minimum and elapsed + walls[-1] > seconds:
                return walls


def layer_metrics(loop: Loop, traced_walls, untraced_walls,
                  first_cycle: int) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced cycles) and a failure if counters differ.

    Counters must repeat exactly across the traced cycles of one seed.
    """
    recorder, counters = loop.recorder, loop.counters
    selfs = spans.self_times(recorder.spans, recorder.events)
    n = len(traced_walls)
    times = [dict.fromkeys(set(layers.TIME_METRICS.values()), 0.0) for _ in range(n)]
    for span in recorder.spans:
        cycle = loop.cycle_of_request[span.request] - first_cycle
        times[cycle][layers.TIME_METRICS[span.name]] += selfs[span.id]
    counts = [counters.cycle_counts(first_cycle + i) for i in range(n)]
    failures = []
    if any(c != counts[0] for c in counts[1:]):
        failures.append(f"work counters differ between cycles of one seed: {counts}")

    per_cycle = []
    for wall, cycle_times, cycle_counts in zip(traced_walls, times, counts):
        metrics = {**cycle_times, **cycle_counts}
        pathint_s = metrics["pathint.quadrature_s"] + metrics["pathint.raw_sum_s"]
        metrics["pathint.kernel_pairs_per_s"] = (
            metrics["pathint.kernel_pairs"] / pathint_s if pathint_s > 0 else 0.0)
        metrics["reference.eigh_per_scenario"] = metrics["reference.eigh_calls"] / len(loop.docs)
        metrics["trace.wall_s"] = wall
        metrics["trace.coverage"] = sum(cycle_times.values()) / wall
        per_cycle.append(metrics)
    out = {key: statistics.median(m[key] for m in per_cycle) for key in per_cycle[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(untraced_walls)
    out["oracle_err_max"] = loop.oracle_err_max
    return out, failures


def measure(root: Path, workload: str, seconds: float, trace: bool, out_dir: Path,
            trace_file: Path, docs: list[Path]) -> dict:
    setup_s, cli = _setup(root, docs)
    loop = Loop(cli, workload, docs, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    walls = loop.run(seconds, minimum=1)
    result = {"setup_s": setup_s, "walls": walls,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    failures = []
    if trace:
        loop.recorder, loop.counters = spans.Recorder(), layers.Counters()
        saved = layers.install(loop.recorder, loop.counters)
        try:
            # two traced cycles: enough to compare every counter across cycles of one seed
            traced = loop.run(0.0, minimum=2, first_index=len(walls))
        finally:
            layers.uninstall(saved)
        result["layers"], failures = layer_metrics(loop, traced, walls, first_cycle=len(walls))
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(loop.recorder.to_json()))
    attempted, failed, ratio = spans.failed_ratio(loop.outcomes)
    failures += [o for o in loop.outcomes if o is not None]
    result.update(attempted=attempted, failed=failed, failed_ratio=ratio,
                  oracle_err_max=loop.oracle_err_max, failures=failures[:10])
    return result


def main(argv: list[str]) -> int:
    mode, root = argv[0], Path(argv[1])
    if mode == "setup":
        setup_s, _ = _setup(root, [Path(p) for p in argv[2:]])
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workload, seconds, trace, out_dir, trace_file = argv[2:7]
    result = measure(root, workload, float(seconds), trace == "1", Path(out_dir),
                     Path(trace_file), [Path(p) for p in argv[7:]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
