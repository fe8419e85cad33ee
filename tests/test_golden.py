"""Every command's report on the shipped scenarios and the seed-1 benchmark documents, held to a golden copy.

Each golden is a report's JSON without ``timings``: its verdict, failures,
rows and diagnostics.  Keys, key order, row order, strings and verdicts must
match exactly, and each float within ``|a - b| <= 1e-10 |b| + 1e-14``.  A
change that moves a report on purpose rewrites the goldens with
``PYTHONPATH=src python tests/test_golden.py`` and says which values moved.

The drift of a float is ``|a - b| / (|b| + 1e-4)``, its difference relative
to the scale the tolerance uses, so the tolerance bounds it by 1e-10.  The
test summary prints the largest drift the goldens accepted and where.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from gaugeslice.scenarios import run, scenario_from_dict

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("all", "gauge", "trotter", "amplitude")


def _workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases() -> list[tuple[str, dict, str]]:
    """(golden path relative to GOLDEN, document, command) for every run.

    The shipped scenarios go under ``shipped/`` and each workload's documents
    under its name, so the workload copies of ``free_1d`` and ``harmonic_1d``
    keep their own goldens; ``amplitude`` runs only where there is a block.
    """
    docs = [("shipped", json.loads(path.read_text())) for path in sorted(SCENARIOS.glob("*.json"))]
    workloads = _workloads()
    docs += [(workload, doc) for workload in workloads.WORKLOADS
             for doc in workloads.make_documents(workload, 1, SCENARIOS)]
    return [(f"{folder}/{doc['name']}_{command}.json", doc, command) for folder, doc in docs
            for command in COMMANDS if command != "amplitude" or doc.get("amplitude")]


def report(doc: dict, command: str, path: Path) -> dict:
    """The report of ``command`` on ``doc``, written to ``path`` and read back without its timings."""
    run(scenario_from_dict(doc), command).write_json(path)
    written = json.loads(path.read_text())
    del written["timings"]
    return written


def assert_matches(got, want, where: str = "report") -> tuple[float, str]:
    """``got`` has ``want``'s structure exactly and its floats within the golden tolerance.

    Returns the largest drift of a float and where it is.
    """
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys {list(got)}"
        return max((assert_matches(got[key], want[key], f"{where}.{key}") for key in want),
                   default=(0.0, where))
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length of {got!r}"
        return max((assert_matches(g, w, f"{where}[{i}]") for i, (g, w) in enumerate(zip(got, want))),
                   default=(0.0, where))
    if type(want) is float:
        assert type(got) is float and abs(got - want) <= 1e-10 * abs(want) + 1e-14, f"{where}: {got!r} != {want!r}"
        return abs(got - want) / (abs(want) + 1e-4), where
    assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"
    return 0.0, where


CASES = cases()


def test_every_run_has_a_golden():
    assert len(CASES) == 33
    assert sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*.json")) == sorted(c[0] for c in CASES)


@pytest.mark.parametrize("name, doc, command", CASES, ids=[c[0] for c in CASES])
def test_report_matches_its_golden(tmp_path, golden_drift, name, doc, command):
    golden = json.loads((GOLDEN / name).read_text())
    assert golden["passed"] and golden["failures"] == []
    drift, where = assert_matches(report(doc, command, tmp_path / "report.json"), golden)
    if drift > golden_drift["drift"]:
        golden_drift.update(drift=drift, where=f"{name} {where}")


def test_a_time_scaled_by_1e_8_fails(tmp_path):
    name, doc, command = next(c for c in CASES if c[0] == "shipped/harmonic_1d_trotter.json")
    moved = dict(doc, time=doc["time"] * (1 + 1e-8))
    with pytest.raises(AssertionError, match="rows"):
        assert_matches(report(moved, command, tmp_path / "report.json"), json.loads((GOLDEN / name).read_text()))


def test_swapped_rows_fail_and_one_ulp_passes():
    golden = json.loads((GOLDEN / "shipped" / "harmonic_1d_all.json").read_text())
    swapped = json.loads(json.dumps(golden))
    swapped["rows"][0], swapped["rows"][1] = swapped["rows"][1], swapped["rows"][0]
    with pytest.raises(AssertionError, match=r"rows\[0\]"):
        assert_matches(swapped, golden)
    nudged = json.loads(json.dumps(golden))
    row = nudged["rows"][2]
    assert row["quantity"] == "split_vs_dense_error"
    row["value"] = math.nextafter(row["value"], math.inf)
    drift, where = assert_matches(nudged, golden)
    assert 0 < drift <= 1e-10 and where == "report.rows[2].value"


def regenerate() -> None:
    """Rewrite every golden from the current code."""
    for name, doc, command in CASES:
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        written = report(doc, command, path)
        path.write_text(json.dumps(written, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
