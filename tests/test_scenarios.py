"""Scenario parsing, potential families, report bookkeeping, studies."""

import json
from pathlib import Path

import numpy as np
import pytest

from gaugeslice import NonFiniteError, Scenario, ScheduleError, load_scenario, scenario_from_dict
from gaugeslice.scenarios import (
    SCALAR_FAMILIES,
    VECTOR_FAMILIES,
    Report,
    _closed_form_free_amplitude,
    _fit_loglog_slope,
    run,
)
from gaugeslice import cli, gauge, pathint, reference, splitstep

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


def _loglog_cases():
    """An exact power law, then noisy ones on random increasing x, with np.polyfit's slope."""
    x = np.array([1.0, 2.0, 4.0, 8.0])
    yield pytest.param(x, 3.0 * x**2, 2.0, id="exact")
    rng = np.random.default_rng(24)
    for size in (2, 3, 5, 8, 13):
        x = np.cumsum(rng.uniform(0.05, 2.0, size))
        power = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0)
        y = rng.uniform(0.1, 10.0) * x**power * np.exp(rng.normal(0.0, 0.2, size))
        yield pytest.param(x, y, np.polyfit(np.log(x), np.log(y), 1)[0], id=f"noisy{size}")


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
        ("amplitude", {"slices": []}, "amplitude slices needs at least one entry"),
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

    def test_slice_counts_bounded_by_the_reference_work_bound(self):
        # one split-step slice per count: a count the reference's series could not match is refused
        bound = int(reference.MAX_CHEBYSHEV_RADIUS)
        assert scenario_from_dict(minimal_config(slice_counts=[2, bound])).slice_counts == (2, bound)
        for count in (bound + 1, 1e12, 1e308):
            with pytest.raises(ValueError, match="slice_counts entry"):
                scenario_from_dict(minimal_config(slice_counts=[2, count]))

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

    def test_regularized_coulomb_values(self):
        params = {"charge": 2.0, "softening": 0.5, "center": [1.0, 0.0]}
        spec = SCALAR_FAMILIES["regularized-coulomb"](2, params)
        assert spec.singular_points == ()
        assert spec(np.array([1.0, 0.0])) == pytest.approx(-2.0 / 0.5)
        assert spec(np.array([4.0, 4.0])) == pytest.approx(-2.0 / np.sqrt(25.0 + 0.25))

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
        assert doc["passed"] is True and doc["failures"] == []
        assert list(doc)[:3] == ["scenario", "passed", "failures"]
        assert doc["rows"][0]["value"] == {"re": 0.5, "im": 0.25}

    def test_check_records_only_a_rule_that_fails(self, tmp_path):
        rep = Report("s")
        rep.check("held", True, 1.0, 2.0)
        assert rep.passed and rep.failures == []
        rep.check("band", False, 3.0, (1.5, 2.0))
        rep.check("ratio", np.float64(2.0) < 1.0, np.float64(2.0), None)
        assert not rep.passed
        rep.write_json(tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["passed"] is False
        assert doc["failures"] == [{"check": "band", "observed": 3.0, "bound": [1.5, 2.0]},
                                   {"check": "ratio", "observed": 2.0, "bound": None}]

    @pytest.mark.parametrize("x, y, slope", list(_loglog_cases()))
    def test_loglog_slope_recovers_power(self, x, y, slope):
        assert _fit_loglog_slope(x, y) == pytest.approx(slope, rel=1e-12)


class TestStudies:
    def test_gauge_check_small_scenario(self):
        s = scenario_from_dict(minimal_config())
        rep = run(s, "gauge")
        assert rep.passed
        quantities = {r.quantity for r in rep.rows}
        assert "conjugation_residual" in quantities
        assert "midpoint_slope" in quantities

    @pytest.mark.parametrize("command, stages", [
        ("all", ["dense_reference", "gauge", "trotter", "amplitude"]),
        ("gauge", ["gauge"]),
        ("trotter", ["dense_reference", "trotter"]),
        ("amplitude", ["dense_reference", "amplitude"]),
    ])
    def test_timings_name_each_stage_run_in_order(self, command, stages):
        amplitude = {"slices": [1], "r_start": 5.0, "steps": 2, "tail_window": 2}
        report = run(scenario_from_dict(minimal_config(amplitude=amplitude)), command)
        assert list(report.timings) == stages
        assert all(type(seconds) is float and seconds >= 0.0 for seconds in report.timings.values())

    def test_trotter_errors_decrease(self):
        s = scenario_from_dict(minimal_config(slice_counts=[2, 4, 8]))
        rep = run(s, "trotter")
        assert rep.passed
        errs = [float(e) for e in rep.diagnostics["trotter_errors"].values()]
        assert errs[0] > errs[1] > errs[2]

    def test_closed_form_amplitude_far_from_origin(self):
        # packets far from the origin: a fixed integration window would miss them
        doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "free_1d.json").read_text())
        doc["grid"] = {"lo": [33.0], "hi": [57.0], "shape": [512]}
        doc["initial_state"]["center"] = [45.0]
        doc["final_state"]["center"] = [45.8]
        doc["amplitude"].update({"slices": [1], "r_start": 50.0, "max_evals": 1e11})
        rep = run(scenario_from_dict(doc), "amplitude")
        closed = [r for r in rep.rows if r.oracle == "closed-form"]
        assert len(closed) == 1
        assert abs(closed[0].reference) > 0.5
        assert closed[0].rel_error < doc["checks"]["amplitude_rel_tol"]
        assert rep.passed

    def test_closed_form_amplitude_of_very_wide_states(self):
        doc = json.loads((SCENARIO_DIR / "free_1d.json").read_text())
        shipped = _closed_form_free_amplitude(scenario_from_dict(doc))
        # the value the (4 pi^2 w1^2 w0^2)^(-1/4) form gave at the shipped unit widths
        assert shipped == pytest.approx(0.5520178567306622 + 0.17355819172823045j, rel=1e-15, abs=0)
        for block in ("initial_state", "final_state"):
            doc[block].update(width=[1e100], momentum=[0.0])
        wide = _closed_form_free_amplitude(scenario_from_dict(doc))
        # 4 pi^2 w1^2 w0^2 overflowed to inf here, which made the closed form 0; equal momenta and
        # centres 0.8 apart make the pairing of two such packets 1 to rounding
        assert np.isfinite(wide) and wide == pytest.approx(1.0, abs=1e-12)

    def test_run_all_shares_one_dense_evolution(self, monkeypatch):
        amplitude = {"slices": [1], "r_start": 5.0, "steps": 2, "tail_window": 2}
        s = scenario_from_dict(minimal_config(amplitude=amplitude))
        separate = run(s, "trotter").rows + run(s, "amplitude").rows

        evolutions = []
        original = reference.chebyshev_evolve

        def counting(*args, **kwargs):
            evolutions.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(reference, "chebyshev_evolve", counting)
        combined = run(s)
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
        rep = run(scenario_from_dict(minimal_config(amplitude=amplitude)))
        assert rep.passed
        info = rep.diagnostics["reference_evolution"]
        assert info["method"] == "chebyshev"
        assert info["terms"] > 1
        lo, hi = info["spectral_interval"]
        assert lo < hi

    @pytest.mark.parametrize("command", ["all", "gauge", "trotter", "amplitude"])
    @pytest.mark.parametrize("name", ["harmonic_1d", "constant_field_2d"])
    def test_run_all_tabulates_each_axis_once(self, count_calls, name, command):
        # the phases do not depend on eps: one operator serves every study a command
        # runs, and the reference is evolved at most once, only for its oracle rows
        tables = count_calls(gauge, "gauge_phase_table")
        operators = count_calls(splitstep, "SliceOperator")
        evolutions = count_calls(reference, "evolve")
        scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
        if command == "amplitude" and not scenario.amplitude_params:
            # refused before any work
            with pytest.raises(ScheduleError, match="has no amplitude block"):
                run(scenario, command)
            assert (tables, operators, evolutions) == (
                {"gauge_phase_table": 0}, {"SliceOperator": 0}, {"evolve": 0}
            )
            return
        assert run(scenario, command).passed
        assert tables == {"gauge_phase_table": scenario.ndim}
        assert operators == {"SliceOperator": 1}
        assert evolutions == {"evolve": 0 if command == "gauge" else 1}

    @pytest.mark.parametrize("entry", [
        run,
        lambda s: run(s, "gauge"),
        lambda s: splitstep.SliceOperator(s.grid, None, s.vector),
    ], ids=["run_all", "run_gauge_check", "SliceOperator"])
    def test_run_all_refuses_a_field_too_large_to_square_before_any_table(self, count_calls, entry):
        # the split-step operator samples the field, and refuses it, before its first table
        tables = count_calls(gauge, "gauge_phase_table")
        huge = {"family": "constant", "params": {"values": [1e200]}}
        with pytest.raises(NonFiniteError, match="not finite"):
            entry(scenario_from_dict(minimal_config(vector_potential=huge)))
        assert tables == {"gauge_phase_table": 0}

    @pytest.mark.parametrize("name", ["harmonic_1d", "constant_field_2d"])
    def test_each_study_alone_gives_its_rows_in_run_all(self, name):
        # a command that runs one study builds its own operator and reference evolution
        scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
        alone = run(scenario, "gauge").rows + run(scenario, "trotter").rows
        if scenario.amplitude_params:
            alone += run(scenario, "amplitude").rows
        assert run(scenario, "all").rows == alone

    def test_each_study_reports_its_reference_evolution(self):
        s = scenario_from_dict(minimal_config(amplitude={"slices": [1], "r_start": 5.0, "steps": 2}))
        assert "reference_evolution" in run(s, "trotter").diagnostics
        assert "reference_evolution" in run(s, "amplitude").diagnostics
        assert "reference_evolution" not in run(s, "gauge").diagnostics

    @pytest.mark.parametrize("name, transforms", [("constant_field_2d", 4), ("harmonic_1d", 4)])
    def test_reference_evolution_reports_transforms_per_term(self, name, transforms):
        # the symmetric gauge is constant along each own axis: one pair per axis;
        # the sinusoidal field varies along its axis: one batched pair of two
        report = run(load_scenario(SCENARIO_DIR / f"{name}.json"), "trotter")
        assert report.diagnostics["reference_evolution"]["transforms_per_term"] == transforms

    @pytest.mark.parametrize("name, method, transforms", [
        ("free_1d", "fourier", 2), ("harmonic_1d", "chebyshev", 4), ("constant_field_2d", "chebyshev", 4),
    ])
    def test_reference_evolution_names_its_path(self, name, method, transforms):
        # free_1d has no field that varies, so H is one Fourier multiplier: one term of one pair
        info = run(load_scenario(SCENARIO_DIR / f"{name}.json"), "trotter").diagnostics["reference_evolution"]
        assert (info["method"], info["transforms_per_term"]) == (method, transforms)
        assert (info["terms"] == 1) == (method == "fourier")
        assert info["terms"] >= 1

    def test_128_squared_scenario_runs_every_study(self):
        # 16384 points: the reference evolution builds no matrix, so no grid size is capped
        path = Path(__file__).resolve().parents[1] / "scenarios" / "constant_field_2d_128.json"
        rep = run(load_scenario(path))
        assert rep.passed
        assert [r.k_or_step for r in rep.rows if r.quantity == "split_vs_dense_error"] == [
            "2", "4", "8", "16"
        ]
        assert rep.diagnostics["reference_evolution"]["terms"] > 1


class TestVerdicts:
    """Each check a study makes, driven to PASS and to FAIL, and named where it fails."""

    @staticmethod
    def trotter(**overrides):
        return run(scenario_from_dict(minimal_config(slice_counts=[2, 4, 8], **overrides)), "trotter")

    # the rules checked once per row; each failure names its row's k_or_step as "at"
    PER_ROW = {"norm_drift", "gauge_residual_tol", "amplitude_converged", "amplitude_rel_tol"}

    @staticmethod
    def failed(report, tmp_path, capsys) -> list[str]:
        """The checks ``report`` failed, in order, as its JSON and its printed summary both name them."""
        report.write_json(tmp_path / "report.json")
        failures = json.loads((tmp_path / "report.json").read_text())["failures"]
        assert all(("at" in failure) is (failure["check"] in TestVerdicts.PER_ROW) for failure in failures)
        cli._print_summary(report)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL ")] == [
            f"FAIL {failure['check']}" + (f" [{failure['at']}]" if "at" in failure else "")
            for failure in failures
        ]
        assert lines[-1] == f"{report.scenario}: {'FAIL' if failures else 'PASS'}"
        return [failure["check"] for failure in failures]

    @pytest.mark.parametrize("excess, passed", [(0.5, True), (2.0, False)])
    def test_norm_drift_bound_is_k_times_1e_12(self, monkeypatch, tmp_path, capsys, excess, passed):
        # the evolved norm (about 1) is scaled by 1 + excess * k * 1e-12
        original = splitstep.evolve

        def drifting(op, psi, t, slices):
            evolved = original(op, psi, t, slices)
            return evolved.with_values(evolved.values * (1.0 + excess * slices * 1e-12))

        monkeypatch.setattr(splitstep, "evolve", drifting)
        report = self.trotter()
        drifts = [r.value for r in report.rows if r.quantity == "norm_drift"]
        assert drifts == pytest.approx([excess * k * 1e-12 for k in (2, 4, 8)], rel=1e-3)
        assert report.passed is passed
        assert self.failed(report, tmp_path, capsys) == ([] if passed else ["norm_drift"] * 3)
        assert [(f["at"], f["observed"], f["bound"]) for f in report.failures] == (
            [] if passed else [(str(k), drift, k * 1e-12) for drift, k in zip(drifts, (2, 4, 8))])

    def test_trotter_floor_bounds_every_error(self, tmp_path, capsys):
        worst = max(self.trotter().diagnostics["trotter_errors"].values())
        for floor, passed in ((worst * (1 + 1e-9), True), (worst * (1 - 1e-9), False)):
            report = self.trotter(checks={"trotter_floor": floor})
            assert report.passed is passed
            assert self.failed(report, tmp_path, capsys) == ([] if passed else ["trotter_floor"])
            assert report.diagnostics["trotter_floor"] == floor
            # the floor replaces the order fit
            assert "fitted_order" not in report.diagnostics
            assert all(r.quantity != "fitted_order" for r in report.rows)

    @pytest.mark.parametrize("frozen, passed", [(False, True), (True, False)])
    def test_errors_must_decrease(self, monkeypatch, tmp_path, capsys, frozen, passed):
        if frozen:
            # every slice count evolved with two slices: equal errors do not decrease
            original = splitstep.evolve
            monkeypatch.setattr(splitstep, "evolve", lambda op, psi, t, slices: original(op, psi, t, 2))
        report = self.trotter()
        errors = list(report.diagnostics["trotter_errors"].values())
        assert (len(set(errors)) == 1) is frozen
        assert report.passed is passed
        assert self.failed(report, tmp_path, capsys) == ([] if passed else ["trotter_decreasing"])

    def test_fitted_order_within_band(self, tmp_path, capsys):
        order = self.trotter().diagnostics["fitted_order"]
        for band, passed in (([order - 0.1, order + 0.1], True), ([order + 0.1, order + 0.2], False),
                             ([order - 0.2, order - 0.1], False)):
            report = self.trotter(checks={"trotter_order_band": band})
            assert report.passed is passed
            assert self.failed(report, tmp_path, capsys) == ([] if passed else ["trotter_order_band"])

    def test_order_band_failure_printed_before_the_verdict(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "harmonic_1d.json").read_text())
        doc["checks"]["trotter_order_band"] = [1.5, 2]
        scen = tmp_path / "harmonic_1d.json"
        scen.write_text(json.dumps(doc))
        assert cli.main(["trotter", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 1
        order = json.loads((tmp_path / "r" / "harmonic_1d_trotter.json").read_text())["diagnostics"]["fitted_order"]
        assert not 1.5 <= order <= 2
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"FAIL trotter_order_band: {order:.6g} vs [1.5, 2]", "harmonic_1d: FAIL"]

    def test_midpoint_slope_min(self, tmp_path, capsys):
        slope = run(scenario_from_dict(minimal_config()), "gauge").diagnostics["midpoint_slope"]
        for min_slope, passed in ((slope - 0.1, True), (slope + 0.1, False)):
            checked = scenario_from_dict(minimal_config(checks={"midpoint_slope_min": min_slope}))
            report = run(checked, "gauge")
            assert report.passed is passed
            assert self.failed(report, tmp_path, capsys) == ([] if passed else ["midpoint_slope_min"])

    def test_gauge_residual_tol(self, tmp_path, capsys):
        resid = run(scenario_from_dict(minimal_config()), "gauge").rows[0].value
        assert resid > 0
        for tol, passed in ((resid * (1 + 1e-9), True), (resid * (1 - 1e-9), False)):
            report = run(scenario_from_dict(minimal_config(checks={"gauge_residual_tol": tol})), "gauge")
            assert report.passed is passed
            assert self.failed(report, tmp_path, capsys) == ([] if passed else ["gauge_residual_tol"])
            assert [(f["at"], f["observed"], f["bound"]) for f in report.failures] == (
                [] if passed else [("axis0", resid, tol)])

    def test_constant_field_reports_the_midpoint_discrepancy(self, tmp_path, capsys):
        # the midpoint rule is exact for a constant a: the discrepancy is reported, no slope is fitted
        doc = json.loads((SCENARIO_DIR / "free_1d.json").read_text())
        doc["vector_potential"] = {"family": "constant", "params": {"values": [0.5]}}
        scen = tmp_path / "free_1d.json"
        scen.write_text(json.dumps(doc))
        assert cli.main(["gauge", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "free_1d midpoint_discrepancy_max [-] value=0 ref=0 abs_err=0 (symbolic)", "free_1d: PASS"]
        written = json.loads((tmp_path / "r" / "free_1d_gauge.json").read_text())
        assert written["diagnostics"] == {"midpoint_constant_field": True}

    def test_amplitude_rel_tol_checks_the_primary_row(self, tmp_path, capsys):
        amplitude = {"slices": [1], "r_start": 5.0, "steps": 2, "tail_window": 2}
        s = scenario_from_dict(minimal_config(amplitude=amplitude))
        rel = run(s, "amplitude").rows[0].rel_error
        assert rel > 0
        for tol, passed in ((rel * (1 - 1e-9), False), (rel * (1 + 1e-9), True)):
            checked = scenario_from_dict(minimal_config(
                amplitude=amplitude, checks={"amplitude_rel_tol": tol}
            ))
            report = run(checked, "amplitude")
            assert report.passed is passed
            assert self.failed(report, tmp_path, capsys) == ([] if passed else ["amplitude_rel_tol"])

    @pytest.mark.filterwarnings("default")
    def test_each_failure_names_its_slice_count(self, tmp_path, capsys):
        # states 1e100 wide: the closed-form reference underflows to 0, so both slice counts fail
        doc = json.loads((SCENARIO_DIR / "free_1d.json").read_text())
        for state in ("initial_state", "final_state"):
            doc[state]["width"] = [1e100]
        scen = tmp_path / "free_1d.json"
        scen.write_text(json.dumps(doc))
        assert cli.main(["amplitude", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[-3:] == [
            "FAIL amplitude_rel_tol [1]: None vs 0.01", "FAIL amplitude_rel_tol [2]: None vs 0.01", "free_1d: FAIL"]
        assert err.splitlines() == [
            "warning: wavepacket carries significant mass in the boundary cells; "
            "periodic wrap-around will contaminate the evolution"]
        failures = json.loads((tmp_path / "r" / "free_1d_amplitude.json").read_text())["failures"]
        assert failures == [{"check": "amplitude_rel_tol", "at": k, "observed": None, "bound": 0.01}
                            for k in ("1", "2")]

    @pytest.mark.parametrize("r_start, converged", [(5.0, True), (1.0, False)])
    def test_amplitude_must_converge(self, tmp_path, capsys, r_start, converged):
        # a first box of radius 1 truncates the unit-width packets, so the two-step tail spreads
        amplitude = {"slices": [1], "r_start": r_start, "steps": 2, "tail_window": 2}
        report = run(scenario_from_dict(minimal_config(amplitude=amplitude)), "amplitude")
        oscillation = report.diagnostics["amplitude_k1"]["tail_oscillation"]
        assert (oscillation < pathint.TAIL_OSCILLATION_TOL) is converged
        assert report.passed is converged
        assert self.failed(report, tmp_path, capsys) == ([] if converged else ["amplitude_converged"])
        assert [(f["observed"], f["bound"]) for f in report.failures] == (
            [] if converged else [(oscillation, pathint.TAIL_OSCILLATION_TOL)])

    @pytest.mark.parametrize("dimension, grid", [
        (1, {"lo": [-8.0], "hi": [8.0], "shape": [64]}),
        (2, {"lo": [-6.0, -6.0], "hi": [6.0, 6.0], "shape": [16, 16]}),
    ])
    def test_gauge_check_without_vector_potential(self, count_calls, dimension, grid):
        # no field: zero residual rows, no midpoint fit, and no table is built; nothing can fail
        tables = count_calls(gauge, "gauge_phase_table")
        state = {"center": [0.0] * dimension, "width": [1.0] * dimension}
        report = run(scenario_from_dict(minimal_config(
            dimension=dimension, grid=grid, vector_potential={"family": "zero"},
            initial_state=state, final_state=state,
        )), "gauge")
        assert report.passed and report.failures == []
        assert [(r.quantity, r.k_or_step, r.value) for r in report.rows] == [
            ("conjugation_residual", f"axis{axis}", 0.0) for axis in range(dimension)
        ]
        assert report.diagnostics == {}
        assert tables == {"gauge_phase_table": 0}
