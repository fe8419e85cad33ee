"""Seeded scenario documents and CLI invocations for each benchmark workload.

Every workload fixes its work-setting fields (grid, time, slice counts and the
amplitude schedule).  The seed only moves state centres and momenta, each by at
most +-0.25, so the work counters do not depend on it.  A document a seed makes
is run as generated: a seed whose run fails is reported as a failure.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

PERTURBATION = 0.25

# Report rows each workload's documents must produce, beyond the PASS verdict.
AMPLITUDE_ROWS = ("conjugation_residual", "split_vs_dense_error", "amplitude")
TROTTER_ROWS = ("conjugation_residual", "split_vs_dense_error")

_EXCISED_COMMON = {
    "schema_version": 1,
    "dimension": 1,
    "grid": {"lo": [-8.0], "hi": [8.0], "shape": [256]},
    "vector_potential": {"family": "zero"},
    "initial_state": {"center": [2.0], "width": [0.6], "momentum": [0.5]},
    "final_state": {"center": [2.2], "width": [0.6], "momentum": [0.0]},
    "time": 0.2,
    "slice_counts": [4, 8, 16, 32],
    "amplitude": {
        "slices": [2], "r_start": 5.0, "steps": 8,
        "gap": 1e-2, "gap_final": 1e-3, "tail_window": 6,
    },
    "checks": {},
}


def _excised_docs() -> list[dict]:
    inverse = copy.deepcopy(_EXCISED_COMMON)
    inverse["name"] = "inverse_power_1d"
    inverse["scalar_potential"] = {
        "family": "inverse-power-singular", "params": {"power": 0.5, "center": [0.0]},
    }
    inverse["vector_potential"] = {
        "family": "sinusoidal", "params": {"amplitude": 0.5, "period": 16.0},
    }
    step = copy.deepcopy(_EXCISED_COMMON)
    step["name"] = "step_1d"
    step["scalar_potential"] = {
        "family": "step-discontinuity", "params": {"height": 1.0, "edge": 1.0},
    }
    return [inverse, step]


def _trotter_docs(shipped: Path) -> list[dict]:
    doc = json.loads((shipped / "constant_field_2d.json").read_text())
    doc["name"] = "constant_field_2d_48"
    doc["grid"]["shape"] = [48, 48]
    doc["slice_counts"] = [2, 4, 8, 16]
    doc.pop("amplitude", None)
    return [doc]


def _shipped_1d(shipped: Path) -> list[dict]:
    return [json.loads((shipped / f"{name}.json").read_text())
            for name in ("free_1d", "harmonic_1d")]


# name -> (CLI subcommand, extra CLI flags, rows every report must carry, documents)
WORKLOADS = {
    "amplitude-1d": ("all", [], AMPLITUDE_ROWS, _shipped_1d),
    "amplitude-excised": ("all", [], AMPLITUDE_ROWS, lambda shipped: _excised_docs()),
    "trotter-2d": ("all", ["--threads", "2"], TROTTER_ROWS, _trotter_docs),
}


def _perturb(doc: dict, rng: random.Random) -> dict:
    doc = copy.deepcopy(doc)
    ndim = int(doc["dimension"])
    for key in ("initial_state", "final_state"):
        state = doc.setdefault(key, {})
        for field in ("center", "momentum"):
            base = state.get(field, [0.0] * ndim)
            state[field] = [float(v) + rng.uniform(-PERTURBATION, PERTURBATION) for v in base]
    return doc


def make_documents(workload: str, seed: int, shipped: Path) -> list[dict]:
    """Scenario documents of one workload, perturbed by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return [_perturb(doc, rng) for doc in WORKLOADS[workload][3](shipped)]


def write_documents(workload: str, seed: int, shipped: Path, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in make_documents(workload, seed, shipped):
        path = out_dir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=2))
        paths.append(path)
    return paths
