"""Which gaugeslice functions are traced, the layer metric each feeds, and work counters.

Each wrapped name is patched where its caller looks it up: module attributes,
class methods, and the ``sample_field`` bindings that ``gauge``, ``splitstep``
and ``reference`` import from ``fields``.  Counters are computed from public
arguments and return values only.
"""

from __future__ import annotations

import inspect
import threading
import weakref
from collections import defaultdict

# span name -> self-time metric it adds to
TIME_METRICS = {
    "pathint.amplitude_quadrature": "pathint.quadrature_s",
    "pathint.raw_sliced_amplitude": "pathint.raw_sum_s",
    "reference.assemble_hamiltonian": "reference.assemble_s",
    "reference.eigendecomposition": "reference.eigh_s",
    "reference.expm_evolve": "reference.expm_evolve_s",
    "gauge.gauge_phase_table": "gauge.phase_table_s",
    "gauge.gauge_conjugation_residual": "gauge.conjugation_residual_s",
    "gauge.midpoint_discrepancy": "gauge.midpoint_discrepancy_s",
    "splitstep.SliceOperator": "splitstep.operator_setup_s",
    "splitstep.evolve": "splitstep.evolve_s",
    "splitstep.apply_slice": "splitstep.evolve_s",
    "scenarios.load_scenario": "scenarios.load_s",
    "scenarios.run_gauge_check": "scenarios.gauge_study_s",
    "scenarios.run_trotter_study": "scenarios.trotter_study_s",
    "scenarios.run_amplitude_study": "scenarios.amplitude_study_s",
    "scenarios.write_report": "scenarios.report_write_s",
    "cli.main": "cli.main_s",
    "fields.sample_field": "fields.sample_s",
}

# counters summed over a cycle, and counters that keep the largest value seen
SUM_COUNTERS = (
    "pathint.raw_sums", "pathint.kernel_pairs", "reference.eigh_calls",
    "gauge.phase_table_calls", "gauge.phase_table_lines",
    "splitstep.operator_setups", "splitstep.slices_applied",
)
MAX_COUNTERS = ("pathint.mesh_points_max", "pathint.eval_cap_use", "reference.assemble_order")


class Counters:
    """Work counters per cycle, filled from wrapped calls' arguments and results."""

    def __init__(self):
        self.by_cycle: dict[int, dict[str, int | float]] = defaultdict(lambda: defaultdict(int))
        self.cycle = 0
        # Hamiltonians already diagonalised, by id; entries vanish with their object
        self.diagonalised = weakref.WeakValueDictionary()
        self._lock = threading.Lock()  # pool threads count slices concurrently

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.by_cycle[self.cycle][key] += value

    def keep_max(self, key: str, value: float) -> None:
        with self._lock:
            current = self.by_cycle[self.cycle]
            current[key] = max(current[key], value)

    def cycle_counts(self, cycle: int) -> dict[str, float]:
        counts = self.by_cycle[cycle]
        return {key: counts[key] for key in SUM_COUNTERS + MAX_COUNTERS}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(recorder, counters: Counters) -> list[tuple[object, str, object]]:
    """Patch every traced name; returns what :func:`uninstall` needs to restore them."""
    from gaugeslice import cli, fields, gauge, pathint, reference, scenarios, splitstep

    def on_quadrature(args, kwargs, est):
        max_evals = _bound(quadrature, args, kwargs)["max_evals"]
        counters.add("pathint.kernel_pairs", est.slices * sum(m * m for m in est.mesh_sizes))
        counters.keep_max("pathint.mesh_points_max", max(est.mesh_sizes))
        counters.keep_max("pathint.eval_cap_use", est.slices * max(est.mesh_sizes) ** 2 / max_evals)

    def on_raw_sum(args, kwargs, result):
        counters.add("pathint.raw_sums", 1)

    def on_assemble(args, kwargs, ham):
        counters.keep_max("reference.assemble_order", ham.matrix.shape[0])

    def on_eigh(args, kwargs, result):
        ham = args[0]
        if counters.diagonalised.get(id(ham)) is not ham:
            counters.diagonalised[id(ham)] = ham
            counters.add("reference.eigh_calls", 1)

    def on_phase_table(args, kwargs, table):
        arguments = _bound(phase_table, args, kwargs)
        grid, axis = arguments["grid"], arguments["axis"]
        counters.add("gauge.phase_table_calls", 1)
        counters.add("gauge.phase_table_lines", grid.size // grid.shape[axis])

    def on_setup(args, kwargs, result):
        counters.add("splitstep.operator_setups", 1)

    def on_slice(args, kwargs, result):
        counters.add("splitstep.slices_applied", 1)

    quadrature = pathint.amplitude_quadrature
    phase_table = gauge.gauge_phase_table
    targets = [
        (pathint, "amplitude_quadrature", "pathint.amplitude_quadrature", on_quadrature),
        (pathint, "raw_sliced_amplitude", "pathint.raw_sliced_amplitude", on_raw_sum),
        (reference, "assemble_hamiltonian", "reference.assemble_hamiltonian", on_assemble),
        (reference.DiscretizedHamiltonian, "eigendecomposition", "reference.eigendecomposition", on_eigh),
        (reference, "expm_evolve", "reference.expm_evolve", None),
        (gauge, "gauge_phase_table", "gauge.gauge_phase_table", on_phase_table),
        (gauge, "gauge_conjugation_residual", "gauge.gauge_conjugation_residual", None),
        (gauge, "midpoint_discrepancy", "gauge.midpoint_discrepancy", None),
        (splitstep.SliceOperator, "__init__", "splitstep.SliceOperator", on_setup),
        (splitstep, "evolve", "splitstep.evolve", None),
        (splitstep, "apply_slice", "splitstep.apply_slice", on_slice),
        (scenarios, "load_scenario", "scenarios.load_scenario", None),
        (scenarios, "run_gauge_check", "scenarios.run_gauge_check", None),
        (scenarios, "run_trotter_study", "scenarios.run_trotter_study", None),
        (scenarios, "run_amplitude_study", "scenarios.run_amplitude_study", None),
        (scenarios.Report, "write_csv", "scenarios.write_report", None),
        (scenarios.Report, "write_json", "scenarios.write_report", None),
        (cli, "main", "cli.main", None),
    ]
    targets += [(module, "sample_field", "fields.sample_field", None)
                for module in (fields, gauge, splitstep, reference)]

    saved = []
    for owner, attr, span_name, on_return in targets:
        original = owner.__dict__.get(attr)
        if original is None:  # a later version dropped this name; its layer reads zero
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(span_name, original, on_return))
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
