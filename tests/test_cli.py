"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from gaugeslice import cli

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "name": "cli_tiny",
        "dimension": 1,
        "grid": {"lo": [-8.0], "hi": [8.0], "shape": [64]},
        "scalar_potential": {"family": "harmonic"},
        "vector_potential": {"family": "sinusoidal", "params": {"amplitude": 0.3, "period": 16.0}},
        "initial_state": {"center": [0.0], "width": [1.0], "momentum": [0.5]},
        "final_state": {"center": [0.3], "width": [1.0]},
        "time": 0.2,
        "slice_counts": [2, 4],
        "checks": {"gauge_residual_tol": 1e-06},
    }
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def write_harmonic_1d(tmp_path, edit):
    """The shipped harmonic_1d scenario with ``edit`` applied to its document."""
    doc = json.loads((SCENARIO_DIR / "harmonic_1d.json").read_text())
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def stderr_within_1_gib(tmp_path, command, scen):
    """stderr lines of a CLI run that exits 2 with 1 GiB of address space.

    The limit lets a regression that allocates without bound fail without
    exhausting the machine's memory.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = subprocess.run(
        [sys.executable, "-m", "gaugeslice.cli", command, "--scenario", str(scen),
         "--out", str(tmp_path / "r")],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=120,
    )
    assert out.returncode == 2
    return out.stderr.splitlines()


class TestExitCodes:
    def test_gauge_pass(self, tmp_path, capsys):
        scen = write_scenario(tmp_path)
        out = tmp_path / "reports"
        code = cli.main(["gauge", "--scenario", str(scen), "--out", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_assertion_gives_exit_1(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, checks={"gauge_residual_tol": 1e-18})
        code = cli.main(["gauge", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cap_exceeded_gives_exit_2(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path,
            amplitude={"slices": [2], "r_start": 5.0, "steps": 2, "max_evals": 10},
        )
        code = cli.main(["amplitude", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_cap_exceeded_by_one_slice_names_the_mesh(self, tmp_path, capsys):
        # one slice over the mesh already costs more than 10 evaluations: no slice count fits
        scen = write_scenario(
            tmp_path,
            amplitude={"slices": [2], "r_start": 5.0, "steps": 2, "max_evals": 10},
        )
        code = cli.main(["amplitude", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "amplitude.r_start" in err and "amplitude.max_evals" in err
        assert "try slices" not in err

    def test_cap_exceeded_by_two_slices_suggests_one(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "free_1d.json").read_text())
        doc["amplitude"]["max_evals"] = 2e7
        scen = tmp_path / "free_1d.json"
        scen.write_text(json.dumps(doc))
        assert cli.main(["amplitude", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: 25176608 kernel evaluations exceed the cap 20000000 (try slices <= 1)"]

    def test_missing_scenario_gives_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "no_such_scenario.json"
        code = cli.main(["gauge", "--scenario", str(missing), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_scenario_gives_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "name": ')
        code = cli.main(["gauge", "--scenario", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_non_object_document_gives_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        code = cli.main(["gauge", "--scenario", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "the scenario must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1e20, 1e308])
    def test_potential_swamping_the_reference_gives_exit_2(self, tmp_path, capsys, recwarn, value):
        # at 1e20 the kinetic bound rounds away from the spectral interval, at 1e308 its scale overflows
        scen = write_scenario(
            tmp_path,
            scalar_potential={"family": "constant", "params": {"value": value}},
            checks={"trotter_floor": 1e-8},
        )
        code = cli.main(["all", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the reference's spectral interval")
        assert "scalar potential" in err[0]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_vector_potential_beyond_the_chebyshev_bound_gives_exit_2(self, tmp_path, capsys):
        # a^2 = 1e40 puts the series radius far past any allocatable number of terms
        doc = json.loads((SCENARIO_DIR / "free_1d.json").read_text())
        doc.pop("amplitude")
        doc["vector_potential"] = {"family": "constant", "params": {"values": [1e20]}}
        doc["checks"] = {"trotter_floor": 1e-8}
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        code = cli.main(["all", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the reference's Chebyshev series radius")

    def test_empty_amplitude_slices_gives_exit_2(self, tmp_path, capsys):
        # no slice count would run no amplitude and leave amplitude_rel_tol unapplied
        doc = json.loads((SCENARIO_DIR / "harmonic_1d.json").read_text())
        doc["amplitude"]["slices"] = []
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        code = cli.main(["amplitude", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "amplitude slices needs at least one entry" in err[0]

    def test_amplitude_without_an_amplitude_block_gives_exit_2(self, tmp_path, capsys):
        # refused before any work, not run on a default schedule the scenario never set
        scen = SCENARIO_DIR / "constant_field_2d.json"
        assert "amplitude" not in json.loads(scen.read_text())
        out = tmp_path / "r"
        code = cli.main(["amplitude", "--scenario", str(scen), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "has no amplitude block" in err[0]
        assert not list(out.iterdir())

    @pytest.mark.parametrize("r_start, move", [
        pytest.param(1e300, "lower", id="1e+300"),
        pytest.param(1e-300, "raise", id="1e-300"),
    ])
    def test_box_too_wide_to_mesh_gives_exit_2(self, tmp_path, capsys, r_start, move):
        # the last box's cell count overflows a float, which counts as exceeding the cap;
        # its radius r + (steps - 1) 2 pi eps / r is huge for a huge r and for a tiny one
        scen = write_harmonic_1d(tmp_path, lambda doc: doc["amplitude"].update(r_start=r_start))
        code = cli.main(["amplitude", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: inf kernel evaluations exceed the cap")
        assert err[0].endswith(f": {move} amplitude.r_start or raise amplitude.max_evals)")

    def test_cap_checked_before_the_schedule_is_built(self, tmp_path):
        # 1e12 steps: the cap is checked on the last box alone, before 1e12 radii are listed
        scen = write_harmonic_1d(tmp_path, lambda doc: doc["amplitude"].update(steps=1e12))
        err = stderr_within_1_gib(tmp_path, "amplitude", scen)
        assert len(err) == 1 and "kernel evaluations exceed the cap" in err[0]

    def test_grid_too_large_to_allocate_gives_one_error_line(self, tmp_path):
        # no grid size is capped: 1e10 points fail to allocate
        scen = write_harmonic_1d(tmp_path, lambda doc: doc["grid"].update(shape=[10_000_000_000]))
        err = stderr_within_1_gib(tmp_path, "all", scen)
        assert len(err) == 1 and err[0].startswith("error: out of memory: ")

    @pytest.mark.parametrize("command", ["all", "gauge", "trotter", "amplitude"])
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(scalar_potential={
            "family": "regularized-coulomb", "params": {"softening": 0.0, "center": [0.03125]}}),
         "error: evaluator returned non-finite value at [0.03125]"),
        (lambda doc: doc["initial_state"].update(width=[1e-300]),
         "error: initial state returned non-finite value at [-7.96875] on the grid"),
        (lambda doc: doc.update(grid={"lo": [-1e300], "hi": [1e300], "shape": [256]}),
         "error: evaluator returned non-finite value at [-9.9609375e+299]"),
    ], ids=["coulomb-on-a-node", "state-width-1e-300", "grid-1e300"])
    def test_non_finite_field_or_state_gives_one_error_line(
        self, tmp_path, capsys, recwarn, command, edit, message
    ):
        # numpy's warnings are off where the values are computed, since each is checked next;
        # `gauge` too samples V, in the one split-step operator, so a bad V stops it as well
        scen = write_harmonic_1d(tmp_path, edit)
        code = cli.main([command, "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["all", "gauge", "trotter", "amplitude"])
    @pytest.mark.parametrize("name, lo, hi", [
        ("harmonic_1d", [-1e-300], [1e-300]),
        ("constant_field_2d", [-1e-300, -1e-300], [1e-300, 1e-300]),
    ], ids=["harmonic_1d", "constant_field_2d"])
    def test_grid_too_fine_for_its_kinetic_symbol_gives_one_error_line(
        self, tmp_path, capsys, recwarn, command, name, lo, hi
    ):
        # the kinetic symbol xi^2 overflows, so the grid is refused at load, before any study
        doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        doc["grid"].update(lo=lo, hi=hi)
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        code = cli.main([command, "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        spacing = 2e-300 / doc["grid"]["shape"][0]
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot load scenario {scen}: ValueError: grid axis 0 spacing {spacing:g} "
            "is too fine: kinetic symbol xi^2 overflows"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["all", "amplitude"])
    def test_cap_refusal_prints_a_long_count_in_short_form(self, tmp_path, capsys, command):
        # at a time of 1e-300 the last box has about 1e300 cells, whose square has 605 digits
        doc = json.loads((SCENARIO_DIR / "free_1d.json").read_text())
        doc["time"] = 1e-300
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        code = cli.main([command, "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: 1.56e+604 kernel evaluations exceed the cap 100000000 "
            "(one slice exceeds the cap: lower amplitude.r_start or raise amplitude.max_evals)"]

    @pytest.mark.parametrize("command", ["all", "amplitude"])
    @pytest.mark.parametrize("potential, amplitude, message", [
        ({"family": "step-discontinuity", "params": {"edge": 0.0}},
         {"slices": [2], "r_start": 5.0, "steps": 8, "tail_window": 6},
         "error: node [0.] lies within 1e-09 of singular point (0.0,); set amplitude.gap > 0 to excise it"),
        ({"family": "inverse-power-singular", "params": {"power": 0.5, "center": [0.0]}},
         {"slices": [2], "r_start": 5.0, "gap": 10.0, "gap_final": 10.0},
         "error: a gap of 10 excises all of axis 0 on [-6.88496, 6.88496]; lower amplitude.gap"),
    ], ids=["singular-node", "gap-excises-an-axis"])
    def test_route_3_refusal_names_its_amplitude_key(
        self, tmp_path, capsys, command, potential, amplitude, message
    ):
        scen = write_scenario(tmp_path, scalar_potential=potential, amplitude=amplitude)
        code = cli.main([command, "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("count", [1e12, 1e308])
    def test_slice_count_beyond_the_work_bound_gives_one_error_line(self, tmp_path, capsys, count):
        # refused at load, so even `gauge`, which applies no slice, exits 2; under `all`
        # one split-step slice per count would not finish
        scen = write_harmonic_1d(tmp_path, lambda doc: doc.update(slice_counts=[4, 8, 16, count]))
        code = cli.main(["gauge", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "slice_counts entry" in err[0]

    @pytest.mark.parametrize("block, key", [("initial_state", "width"), ("final_state", "center")])
    def test_closed_form_amplitude_overflow_gives_one_error_line(self, tmp_path, capsys, block, key):
        # the free 1D closed form squares the width and the centres' separation
        doc = json.loads((SCENARIO_DIR / "free_1d.json").read_text())
        doc[block][key] = [1e308]
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        code = cli.main(["all", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the closed-form free amplitude overflows: a state width or the "
            "centres' separation is too large to square"
        ]

    def test_vector_potential_too_large_to_square_gives_exit_2(self, tmp_path, capsys, recwarn):
        # refused before the gauge study or the reference squares it
        doc = json.loads((SCENARIO_DIR / "free_1d.json").read_text())
        doc.pop("amplitude")
        doc["vector_potential"] = {"family": "constant", "params": {"values": [1e200]}}
        doc["checks"] = {"trotter_floor": 1e-8}
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        code = cli.main(["all", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the vector potential")
        assert "|a|^2 is not finite" in err[0]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_line_integral_at_its_rounding_floor_names_the_difference_and_the_integral(
        self, tmp_path, capsys
    ):
        # a constant a of 1e11: the Kronrod and Gauss rules differ only by the rounding
        # of a segment integral of millions, which no bisection brings below 1e-10
        doc = json.loads((SCENARIO_DIR / "free_1d.json").read_text())
        doc.pop("amplitude")
        doc["vector_potential"] = {"family": "constant", "params": {"values": [1e11]}}
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        code = cli.main(["gauge", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line integral along axis 0 did not converge")
        number = r"([0-9.]+e[+-][0-9]+)"
        diff = float(re.search(rf"differ by {number}", err[0]).group(1))
        size = float(re.search(rf"of magnitude {number}", err[0]).group(1))
        assert diff > 1e-10 and size > 1e6
        assert diff < 1e-14 * size

    def test_unknown_check_key_gives_exit_2(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, checks={"gauge_residual_tolerance": 1e-18})
        code = cli.main(["gauge", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "gauge_residual_tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, fragment", [
        ({"time": 0}, "time"),
        ({"time": -0.2}, "time"),
        ({"slice_counts": [0, 2]}, "slice_counts"),
        ({"amplitude": {"slices": [0]}}, "amplitude slices"),
        ({"scalar_potential": {"family": "harmonic", "params": {"strenght": 5.0}}}, "strenght"),
        ({"initial_state": {"width": [-1.0]}}, "initial_state width"),
        ({"final_state": {"center": [0.3, 0.0]}}, "final_state center"),
        ({"grid": {"lo": [-8.0], "hi": [8.0], "shape": [64.7]}}, "64.7"),
        ({"grid": {"lo": [-8.0], "hi": [8.0], "shape": ["64"]}}, "'64'"),
        ({"grid": {"lo": [float("-inf")], "hi": [8.0], "shape": [64]}}, "-inf"),
        ({"amplitude": {"steps": "abc"}}, "amplitude steps"),
        ({"amplitude": {"max_evals": "x"}}, "amplitude max_evals"),
        ({"amplitude": {"gap_final": 0.001}}, "gap_final equal to gap"),
        ({"checks": {"trotter_order_band": 5}}, "checks trotter_order_band"),
        ({"checks": {"gauge_residual_tol": "x"}}, "checks gauge_residual_tol"),
        ({"dimension": 1.5}, "dimension 1.5"),
        ({"dimension": "1"}, "dimension '1'"),
        ({"dimension": True}, "dimension True"),
        ({"time": "0.2"}, "time '0.2'"),
        ({"time": True}, "time True"),
        ({"initial_state": {"width": ["1.0"]}}, "initial_state width '1.0'"),
        ({"final_state": {"center": [True]}}, "final_state center True"),
        ({"scalar_potential": {"family": "harmonic", "params": {"strength": "5"}}},
         "harmonic params strength '5'"),
        ({"scalar_potential": {"family": "harmonic", "params": {"strength": float("nan")}}},
         "harmonic params strength nan"),
        ({"scalar_potential": {"family": "harmonic", "params": {"center": True}}},
         "harmonic params center True"),
        ({"vector_potential": {"family": "sinusoidal", "params": {"period": 0}}},
         "sinusoidal params period"),
        ({"vector_potential": {"family": "sinusoidal", "params": {"period": 1e-320}}},
         "sinusoidal params period [1e-320] has no finite frequency"),
        ({"scalar_potential": {"family": ["harmonic"]}}, "unknown scalar potential family ['harmonic']"),
        ({"vector_potential": {"family": ["zero"]}}, "unknown vector potential family ['zero']"),
    ], ids=["zero-time", "negative-time", "zero-slice-count", "zero-amplitude-slices",
            "misspelled-family-param", "negative-width", "center-length",
            "fractional-grid-shape", "string-grid-shape", "infinite-grid-bound",
            "string-amplitude-steps", "string-max-evals", "gap-final-without-gap",
            "scalar-order-band", "string-residual-tol", "fractional-dimension",
            "string-dimension", "bool-dimension", "string-time", "bool-time",
            "string-state-width", "bool-state-center", "string-family-param",
            "nan-family-param", "bool-family-center", "zero-sinusoidal-period",
            "subnormal-sinusoidal-period",
            "list-scalar-family", "list-vector-family"])
    def test_invalid_parameter_gives_exit_2(self, tmp_path, capsys, overrides, fragment):
        scen = write_scenario(tmp_path, **overrides)
        code = cli.main(["all", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-4", "1.5"],
                             ids=["zero-threads", "negative-threads", "fractional-threads"])
    def test_bad_thread_count_gives_exit_2(self, tmp_path, capsys, threads):
        scen = write_scenario(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["all", "--scenario", str(scen), "--out", str(tmp_path / "r"),
                      "--threads", threads])
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_mesh_node_on_singular_point_gives_exit_2(self, tmp_path, capsys):
        # no gap: a schedule step with an odd mesh count puts a node on the origin
        scen = write_scenario(
            tmp_path,
            scalar_potential={"family": "inverse-power-singular",
                              "params": {"power": 0.5, "center": [0.0]}},
            amplitude={"slices": [2], "r_start": 5.0, "steps": 8, "tail_window": 6},
        )
        code = cli.main(["amplitude", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "singular point (0.0,)" in err
        assert "amplitude.gap > 0" in err

    def test_gap_excising_a_whole_axis_gives_exit_2(self, tmp_path, capsys):
        # a gap of 10 around the origin covers every box of the schedule
        scen = write_scenario(
            tmp_path,
            scalar_potential={"family": "inverse-power-singular",
                              "params": {"power": 0.5, "center": [0.0]}},
            amplitude={"slices": [2], "r_start": 5.0, "gap": 10.0, "gap_final": 10.0},
        )
        code = cli.main(["all", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "excises all of axis 0" in err
        assert "amplitude.gap" in err

    def test_out_naming_a_file_gives_exit_2(self, tmp_path, capsys, count_calls):
        scen = write_scenario(tmp_path)
        out = tmp_path / "taken"
        out.write_text("")
        studies = count_calls(cli.scenarios, "run_gauge_check")
        code = cli.main(["gauge", "--scenario", str(scen), "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert studies == {"run_gauge_check": 0}

    def test_name_leaving_out_gives_exit_2(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, name="../escaped")
        code = cli.main(["gauge", "--scenario", str(scen), "--out", str(tmp_path / "out" / "r")])
        assert code == 2
        assert "not a bare file name" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_trotter_pass(self, tmp_path):
        scen = write_scenario(tmp_path)
        code = cli.main(["trotter", "--scenario", str(scen), "--out", str(tmp_path / "r")])
        assert code == 0


class TestOutputs:
    def test_csv_and_json_written(self, tmp_path):
        scen = write_scenario(tmp_path)
        out = tmp_path / "reports"
        cli.main(["gauge", "--scenario", str(scen), "--out", str(out)])
        csv_path = out / "cli_tiny_gauge.csv"
        json_path = out / "cli_tiny_gauge.json"
        assert csv_path.exists() and json_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "scenario,quantity,k_or_step,value,reference,abs_error,rel_error,oracle"
        doc = json.loads(json_path.read_text())
        assert doc["scenario"] == "cli_tiny"
        assert doc["passed"] is True
        assert all("oracle" in row for row in doc["rows"])

    def test_deterministic_reruns(self, tmp_path):
        scen = write_scenario(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["gauge", "--scenario", str(scen), "--out", str(out_a)])
        cli.main(["gauge", "--scenario", str(scen), "--out", str(out_b)])
        assert (out_a / "cli_tiny_gauge.csv").read_bytes() == (
            out_b / "cli_tiny_gauge.csv"
        ).read_bytes()

    def test_all_merges_studies(self, tmp_path):
        scen = write_scenario(tmp_path)
        out = tmp_path / "reports"
        code = cli.main(["all", "--scenario", str(scen), "--out", str(out), "--threads", "2"])
        assert code == 0
        doc = json.loads((out / "cli_tiny_all.json").read_text())
        quantities = {row["quantity"] for row in doc["rows"]}
        assert {"conjugation_residual", "split_vs_dense_error", "norm_drift"} <= quantities

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli.main([])
