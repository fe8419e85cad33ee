"""Command-line interface: outputs, exit codes, determinism."""

import json

import pytest

from gaugeslice import cli


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
    ], ids=["zero-time", "negative-time", "zero-slice-count", "zero-amplitude-slices",
            "misspelled-family-param", "negative-width", "center-length",
            "fractional-grid-shape", "string-grid-shape", "infinite-grid-bound",
            "string-amplitude-steps", "string-max-evals", "gap-final-without-gap",
            "scalar-order-band", "string-residual-tol", "fractional-dimension",
            "string-dimension", "bool-dimension", "string-time", "bool-time",
            "string-state-width", "bool-state-center", "string-family-param",
            "nan-family-param", "bool-family-center", "zero-sinusoidal-period"])
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
