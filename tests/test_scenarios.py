"""Scenario parsing, potential families, report bookkeeping, studies."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gaugeslice import Scenario, load_scenario, scenario_from_dict
from gaugeslice.scenarios import (
    SCALAR_FAMILIES,
    VECTOR_FAMILIES,
    Report,
    _fit_loglog_slope,
    run_all,
    run_amplitude_study,
    run_gauge_check,
    run_trotter_study,
)
from gaugeslice import gauge, reference, splitstep

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def minimal_config(**overrides):
    cfg = {
        "schema_version": 1,
        "name": "tiny",
        "dimension": 1,
        "grid": {"lo": [-8.0], "hi": [8.0], "shape": [64]},
        "scalar_potential": {"family": "harmonic"},
        "vector_potential": {"family": "sinusoidal", "params": {"amplitude": 0.3, "period": 16.0}},
        "initial_state": {"center": [0.0], "width": [1.0], "momentum": [0.5]},
        "final_state": {"center": [0.3], "width": [1.0]},
        "time": 0.2,
        "slice_counts": [2, 4],
    }
    cfg.update(overrides)
    return cfg


class TestParsing:
    def test_roundtrip(self):
        s = scenario_from_dict(minimal_config())
        assert s.name == "tiny"
        assert s.ndim == 1
        assert s.slice_counts == (2, 4)
        assert s.initial_state.momentum == (0.5,)

    def test_schema_version_enforced(self):
        with pytest.raises(ValueError, match="schema version"):
            scenario_from_dict(minimal_config(schema_version=99))
        with pytest.raises(ValueError, match="schema version"):
            scenario_from_dict({k: v for k, v in minimal_config().items() if k != "schema_version"})

    def test_unknown_families_rejected(self):
        with pytest.raises(ValueError, match="scalar potential family"):
            scenario_from_dict(minimal_config(scalar_potential={"family": "quartic"}))
        with pytest.raises(ValueError, match="vector potential family"):
            scenario_from_dict(minimal_config(vector_potential={"family": "wild"}))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            scenario_from_dict(minimal_config(dimension=2))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="amplitude_rel_tolerance"):
            scenario_from_dict(minimal_config(checks={"amplitude_rel_tolerance": 1e-30}))
        with pytest.raises(ValueError, match="rstart"):
            scenario_from_dict(minimal_config(amplitude={"slices": [1], "rstart": 5.0}))
        with pytest.raises(ValueError, match="slicecounts"):
            scenario_from_dict(minimal_config(slicecounts=[2]))
        with pytest.raises(ValueError, match="centre"):
            scenario_from_dict(minimal_config(final_state={"centre": [0.3]}))

    def test_amplitude_and_checks_converted(self):
        s = scenario_from_dict(minimal_config(
            amplitude={"slices": 2, "gap": 0.01, "max_evals": 1e8},
            checks={"trotter_order_band": [1, 2], "amplitude_rel_tol": 1},
        ))
        assert s.amplitude_params == {
            "slices": [2], "r_start": 6.0, "steps": 16, "gap": 0.01, "gap_final": 0.01,
            "tail_window": 8, "max_evals": 100_000_000,
        }
        assert type(s.amplitude_params["max_evals"]) is int
        assert s.checks == {"trotter_order_band": (1.0, 2.0), "amplitude_rel_tol": 1.0}

    @pytest.mark.parametrize("block, values, fragment", [
        ("amplitude", {"steps": 2.5}, "amplitude steps"),
        ("amplitude", {"tail_window": True}, "amplitude tail_window"),
        ("amplitude", {"slices": [1, "2"]}, "amplitude slices"),
        ("amplitude", {"max_evals": 0}, "amplitude max_evals"),
        ("amplitude", {"r_start": 0}, "r_start > 0"),
        ("amplitude", {"r_start": float("nan")}, "amplitude r_start"),
        ("amplitude", {"gap": -0.1}, "gap >= 0"),
        ("amplitude", {"gap": 0.01, "gap_final": 0.02}, "gap_final equal to gap"),
        ("checks", {"trotter_order_band": [0.7, 1.0, 1.3]}, "checks trotter_order_band"),
        ("checks", {"trotter_floor": float("inf")}, "checks trotter_floor"),
        ("amplitude", {"slices": [2, 2]}, "amplitude slices must be distinct"),
        ("slice_counts", [4], "at least two entries"),
        ("slice_counts", [4, 4], "strictly increasing"),
        ("slice_counts", [8, 4], "strictly increasing"),
        ("checks", {"trotter_order_band": [1.3, 0.7]}, "checks trotter_order_band .* low <= high"),
        ("checks", {"gauge_residual_tol": -1e-6}, "checks gauge_residual_tol .* nonnegative"),
        ("checks", {"trotter_floor": -1e-8}, "checks trotter_floor .* nonnegative"),
        ("checks", {"amplitude_rel_tol": -0.1}, "checks amplitude_rel_tol .* nonnegative"),
        ("checks", {"trotter_floor": 1e-8, "trotter_order_band": [0.7, 1.3]}, "excludes trotter_order_band"),
        ("name", "../escaped", "not a bare file name"),
        ("name", "reports/escaped", "not a bare file name"),
        ("name", "a\\b", "not a bare file name"),
        ("name", "..", "not a bare file name"),
        ("name", "a\0b", "not a bare file name"),
        ("name", ".", "not a bare file name"),
        ("name", "", "not a bare file name"),
        ("name", 5, "name 5 is not a bare file name"),
        ("checks", [], "checks must be a JSON object, got list"),
        ("amplitude", [], "amplitude must be a JSON object, got list"),
        ("grid", [], "grid must be a JSON object, got list"),
        ("initial_state", [], "initial_state must be a JSON object, got list"),
        ("final_state", [], "final_state must be a JSON object, got list"),
        ("scalar_potential", [], "scalar_potential must be a JSON object, got list"),
        ("vector_potential", [], "vector_potential must be a JSON object, got list"),
        ("scalar_potential", {"family": "harmonic", "params": []},
         "harmonic params must be a JSON object, got list"),
        ("vector_potential", {"family": "sinusoidal", "params": []},
         "sinusoidal params must be a JSON object, got list"),
    ])
    def test_bad_amplitude_and_check_values_rejected(self, block, values, fragment):
        with pytest.raises(ValueError, match=fragment):
            scenario_from_dict(minimal_config(**{block: values}))

    def test_empty_slice_counts_rejected_with_floor(self):
        # a floor checked against no slice count would pass vacuously
        with pytest.raises(ValueError, match="at least one entry"):
            scenario_from_dict(minimal_config(slice_counts=[], checks={"trotter_floor": 1e-8}))

    def test_single_slice_count_allowed_with_floor(self):
        s = scenario_from_dict(minimal_config(slice_counts=[4], checks={"trotter_floor": 1e-8}))
        assert s.slice_counts == (4,)

    def test_unknown_family_params_rejected(self):
        with pytest.raises(ValueError, match="strenght"):
            scenario_from_dict(minimal_config(
                scalar_potential={"family": "harmonic", "params": {"strenght": 5.0}}
            ))
        with pytest.raises(ValueError, match="amplitde"):
            scenario_from_dict(minimal_config(
                vector_potential={"family": "sinusoidal", "params": {"amplitde": 0.3}}
            ))
        with pytest.raises(ValueError, match="value"):
            scenario_from_dict(minimal_config(scalar_potential={"family": "free", "params": {"value": 1.0}}))

    def test_every_family_accepts_its_declared_params(self):
        # one document per family with every params key it reads
        scalar = {
            "free": {},
            "harmonic": {"strength": 2.0, "center": [0.5]},
            "constant": {"value": 2.0},
            "step-discontinuity": {"height": 1.0, "edge": 0.3},
            "regularized-coulomb": {"charge": 1.0, "softening": 0.2, "center": [0.1]},
            "inverse-power-singular": {"coeff": 1.0, "power": 0.5, "center": [0.0]},
        }
        vector = {
            "zero": {},
            "constant": {"values": [0.2]},
            "sinusoidal": {"amplitude": 0.3, "period": 16.0},
            "linear": {"matrix": [[0.1]]},
        }
        assert set(scalar) == set(SCALAR_FAMILIES)
        assert set(vector) | {"constant-field-2d"} == set(VECTOR_FAMILIES)
        for family, params in scalar.items():
            scenario_from_dict(minimal_config(scalar_potential={"family": family, "params": params}))
        for family, params in vector.items():
            scenario_from_dict(minimal_config(vector_potential={"family": family, "params": params}))
        assert VECTOR_FAMILIES["constant-field-2d"](2, {"field": 0.5}) is not None

    def test_shipped_scenarios_parse(self):
        for name in ("free_1d", "harmonic_1d", "constant_field_2d", "constant_field_2d_128"):
            s = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json")
            assert isinstance(s, Scenario)
            assert s.name == name


class TestFamilies:
    def test_harmonic_values(self):
        spec = SCALAR_FAMILIES["harmonic"](2, {"strength": 2.0, "center": [1.0, 0.0]})
        assert spec(np.array([2.0, 2.0])) == pytest.approx(2.0 * 5.0)

    def test_inverse_power_registers_singularity(self):
        spec = SCALAR_FAMILIES["inverse-power-singular"](1, {"power": 0.5})
        assert spec.singular_points == ((0.0,),)
        assert spec(np.array([4.0])) == pytest.approx(0.5)

    def test_step_registers_edge(self):
        spec = SCALAR_FAMILIES["step-discontinuity"](1, {"height": 2.0, "edge": 0.3})
        assert spec.singular_points == ((0.3,),)
        assert spec(np.array([1.0])) == pytest.approx(2.0)
        assert spec(np.array([0.0])) == pytest.approx(0.0)

    def test_constant_field_requires_2d(self):
        with pytest.raises(ValueError):
            VECTOR_FAMILIES["constant-field-2d"](1, {})
        vec = VECTOR_FAMILIES["constant-field-2d"](2, {"field": 2.0})
        p = np.array([1.0, 3.0])
        assert vec.component(0, p) == pytest.approx(-3.0)
        assert vec.component(1, p) == pytest.approx(1.0)

    def test_linear_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            VECTOR_FAMILIES["linear"](2, {"matrix": [[1.0, 0.0]]})

    def test_free_families_are_none(self):
        assert SCALAR_FAMILIES["free"](1, {}) is None
        assert VECTOR_FAMILIES["zero"](3, {}) is None


class TestReport:
    def test_add_computes_errors(self):
        rep = Report("s")
        rep.add("q", 1, 1.1, reference=1.0, oracle="dense")
        row = rep.rows[0]
        assert row.abs_error == pytest.approx(0.1)
        assert row.rel_error == pytest.approx(0.1)
        assert row.oracle == "dense"

    def test_merge_propagates_failure(self):
        a, b = Report("s"), Report("s")
        b.passed = False
        a.merge(b)
        assert not a.passed

    def test_csv_and_json_outputs(self, tmp_path):
        rep = Report("s")
        rep.add("amp", 2, 0.5 + 0.25j, reference=0.5 + 0.25j, oracle="closed-form")
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        rep.write_csv(csv_path)
        rep.write_json(json_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == "scenario,quantity,k_or_step,value,reference,abs_error,rel_error,oracle"
        doc = json.loads(json_path.read_text())
        assert doc["passed"] is True
        assert doc["rows"][0]["value"] == {"re": 0.5, "im": 0.25}

    def test_loglog_slope_recovers_power(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert _fit_loglog_slope(x, 3.0 * x**2) == pytest.approx(2.0)


class TestStudies:
    def test_gauge_check_small_scenario(self):
        s = scenario_from_dict(minimal_config())
        rep = run_gauge_check(s)
        assert rep.passed
        quantities = {r.quantity for r in rep.rows}
        assert "conjugation_residual" in quantities
        assert "midpoint_slope" in quantities

    def test_trotter_errors_decrease(self):
        s = scenario_from_dict(minimal_config(slice_counts=[2, 4, 8]))
        rep = run_trotter_study(s)
        assert rep.passed
        errs = [float(e) for e in rep.diagnostics["trotter_errors"].values()]
        assert errs[0] > errs[1] > errs[2]

    def test_trotter_threads_match_serial(self):
        # the pool shares one operator; more threads than cores and a short
        # switch interval interleave its readers as often as possible
        s = scenario_from_dict(minimal_config(slice_counts=[2, 3, 4, 5, 6, 8]))
        serial = run_trotter_study(s, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run_trotter_study(s, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert serial.diagnostics["trotter_errors"] == parallel.diagnostics["trotter_errors"]

    def test_closed_form_amplitude_far_from_origin(self):
        # packets far from the origin: a fixed integration window would miss them
        doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "free_1d.json").read_text())
        doc["grid"] = {"lo": [33.0], "hi": [57.0], "shape": [512]}
        doc["initial_state"]["center"] = [45.0]
        doc["final_state"]["center"] = [45.8]
        doc["amplitude"].update({"slices": [1], "r_start": 50.0, "max_evals": 1e11})
        rep = run_amplitude_study(scenario_from_dict(doc))
        closed = [r for r in rep.rows if r.oracle == "closed-form"]
        assert len(closed) == 1
        assert abs(closed[0].reference) > 0.5
        assert closed[0].rel_error < doc["checks"]["amplitude_rel_tol"]
        assert rep.passed

    def test_amplitude_rel_tol_checks_the_primary_row(self):
        amplitude = {"slices": [1], "r_start": 5.0, "steps": 2, "tail_window": 2}
        s = scenario_from_dict(minimal_config(amplitude=amplitude))
        rel = run_amplitude_study(s).rows[0].rel_error
        assert rel > 0
        for tol, passed in ((rel * (1 - 1e-9), False), (rel * (1 + 1e-9), True)):
            checked = scenario_from_dict(minimal_config(
                amplitude=amplitude, checks={"amplitude_rel_tol": tol}
            ))
            assert run_amplitude_study(checked).passed is passed

    def test_run_all_shares_one_dense_evolution(self, monkeypatch):
        amplitude = {"slices": [1], "r_start": 5.0, "steps": 2, "tail_window": 2}
        s = scenario_from_dict(minimal_config(amplitude=amplitude))
        separate = run_trotter_study(s).rows + run_amplitude_study(s).rows

        evolutions = []
        original = reference.chebyshev_evolve

        def counting(*args, **kwargs):
            evolutions.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(reference, "chebyshev_evolve", counting)
        combined = run_all(s)
        assert len(evolutions) == 1
        dense_rows = [
            (r.quantity, r.k_or_step, r.value, r.reference)
            for r in combined.rows if r.oracle == "dense"
        ]
        assert dense_rows == [
            (r.quantity, r.k_or_step, r.value, r.reference)
            for r in separate if r.oracle == "dense"
        ]
        assert any(q == "amplitude" for q, *_ in dense_rows)

    def test_run_all_builds_no_dense_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the studies must not assemble or diagonalise a dense H")

        monkeypatch.setattr(reference, "assemble_hamiltonian", forbidden)
        monkeypatch.setattr(reference.DiscretizedHamiltonian, "eigendecomposition", forbidden)
        amplitude = {"slices": [1], "r_start": 5.0, "steps": 2, "tail_window": 2}
        rep = run_all(scenario_from_dict(minimal_config(amplitude=amplitude)))
        assert rep.passed
        info = rep.diagnostics["reference_evolution"]
        assert info["method"] == "chebyshev"
        assert info["terms"] > 1
        lo, hi = info["spectral_interval"]
        assert lo < hi

    def test_run_all_tabulates_one_gauge_table_per_study_axis(self, count_calls):
        # the phases do not depend on eps: the gauge check, the Trotter study
        # and the amplitude study each tabulate the one axis once
        calls = count_calls(gauge, "gauge_phase_table")
        assert run_all(load_scenario(SCENARIO_DIR / "harmonic_1d.json")).passed
        assert calls == {"gauge_phase_table": 3}

    def test_trotter_study_shares_one_operator(self, count_calls):
        # one operator serves every slice count, so one table per axis
        tables = count_calls(gauge, "gauge_phase_table")
        operators = count_calls(splitstep, "SliceOperator")
        scenario = load_scenario(SCENARIO_DIR / "constant_field_2d.json")
        assert len(scenario.slice_counts) > 1
        assert run_trotter_study(scenario).passed
        assert tables == {"gauge_phase_table": scenario.ndim}
        assert operators == {"SliceOperator": 1}

    def test_each_study_reports_its_reference_evolution(self):
        s = scenario_from_dict(minimal_config(amplitude={"slices": [1], "r_start": 5.0, "steps": 2}))
        assert "reference_evolution" in run_trotter_study(s).diagnostics
        assert "reference_evolution" in run_amplitude_study(s).diagnostics
        assert "reference_evolution" not in run_gauge_check(s).diagnostics

    def test_128_squared_scenario_runs_every_study(self):
        # 16384 points: the reference evolution builds no matrix, so no grid size is capped
        path = Path(__file__).resolve().parents[1] / "scenarios" / "constant_field_2d_128.json"
        rep = run_all(load_scenario(path))
        assert rep.passed
        assert [r.k_or_step for r in rep.rows if r.quantity == "split_vs_dense_error"] == [
            "2", "4", "8", "16"
        ]
        assert rep.diagnostics["reference_evolution"]["terms"] > 1
