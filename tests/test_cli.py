import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ardw
from ardw.cli import run
from ardw.text import json_text


def read_json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


class TestLimits:
    def test_p1_hand_value(self, capsys):
        assert run(["limits", "--theta", "0.5", "--rho", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        # (0.5 + 0.3) / (1 + 0.15)
        assert out["theta_star"][0] == pytest.approx(0.8 / 1.15, rel=1e-12)
        assert out["d_star"] == pytest.approx(
            2.0 * (1.0 - 0.15 * 0.8 / 1.15), rel=1e-12
        )
        assert not out["gamma_singular"]

    def test_mismatched_p_is_usage_error(self, capsys):
        assert run(["limits", "--p", "2", "--theta", "0.5", "--rho", "0.3"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "p does not match theta length"}

    def test_negative_first_coefficient_needs_equals_form(self, capsys):
        assert run(["limits", "--theta=-0.3,0.2", "--rho", "0.1"]) == 0
        assert json.loads(capsys.readouterr().out)["theta"] == [-0.3, 0.2]
        # with a space, "-0.3,0.2" reads as an option
        assert run(["limits", "--theta", "-0.3,0.2", "--rho", "0.1"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "argument --theta: expected one argument"}

    def test_warning_is_one_json_line(self, capsys):
        # cond(B) ~ 2.66e12: past the warning threshold, short of singular
        argv = ["limits", "--theta", "0.999999999999", "--rho", "0"]
        assert run(argv) == 0
        out, err = capsys.readouterr()
        with pytest.warns(RuntimeWarning):
            prm = ardw.ModelParams(p=1, theta=[0.999999999999], rho=0.0)
            assert out == json_text(ardw.limit_summary(prm).to_dict())
        assert err == ('{"warning": "RuntimeWarning", "message": '
                       '"autocovariance system ill-conditioned (cond ~ 2.66e+12)"}\n')

    @pytest.mark.parametrize("flag", ["error::RuntimeWarning", "error"])
    def test_warning_raised_as_error_exits_3(self, flag):
        # python -W error makes warnings.warn raise the warning
        env = dict(os.environ, PYTHONPATH=str(Path(ardw.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", flag, "-m", "ardw.cli", "limits",
             "--theta", "0.999999999999", "--rho", "0"],
            env=env, capture_output=True, text=True, check=False, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ('{"error": "RuntimeWarning", "message": '
                               '"autocovariance system ill-conditioned (cond ~ 2.66e+12)"}\n')

    def test_error_payload_follows_the_warning(self, capsys):
        assert run(["limits", "--theta", "0.999999999999", "--rho", "0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert read_json_lines(err) == [
            {"warning": "RuntimeWarning",
             "message": "autocovariance system ill-conditioned (cond ~ 1.38e+13)"},
            {"error": "NotPositiveDefinite",
             "message": "two serial-correlation variance routes disagree (rel 0.000387)"},
        ]

    def test_singular_system_matrix_exits_3(self, capsys):
        assert run(["limits", "--theta", "0.5", "--rho", "0.9999999999999999"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == "SingularB"
        assert json.loads(err)["message"].startswith("system matrix numerically singular")

    def test_unstable_is_numerical_error(self, capsys):
        assert run(["limits", "--theta", "0.7,0.6", "--rho", "0.0"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnstableTheta"


class TestSimulateFitRoundTrip:
    def test_round_trip(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        assert run(
            ["simulate", "--theta", "0.4,-0.3", "--rho", "0.2", "--n", "2000",
             "--seed", "11", "--output", str(csv)]
        ) == 0
        assert csv.exists()
        assert csv.with_suffix(".csv.json").exists()

        assert run(["fit", "--input", str(csv), "--p", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p"] == 2
        assert out["n"] == 2000

        # must agree with the library called directly on the same file
        f = ardw.fit(ardw.read_series(csv), 2)
        assert out["theta_hat"] == pytest.approx(f.theta_hat)
        assert out["rho_hat"] == pytest.approx(f.rho_hat)
        assert out["dw"] == pytest.approx(f.dw)

    def test_values_past_1e150_fit_exit_2(self, tmp_path, capsys):
        # uniform noise of half-width sqrt(3 * 5e307) ~ 3.9e154 is valid to
        # simulate, but fit refuses a series with a value past 1e150
        csv = tmp_path / "traj.csv"
        assert run(["simulate", "--theta", "0.5", "--rho", "0.0", "--n", "50", "--noise",
                    "uniform", "--sigma2", "5e307", "--output", str(csv)]) == 0
        capsys.readouterr()
        assert run(["fit", "--input", str(csv), "--p", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": "series must contain only finite values below 1e150"}

    def test_seed_defaults_to_zero(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--theta", "0.5", "--rho", "0.0", "--n", "50",
                    "--output", str(a)]) == 0
        assert run(["simulate", "--theta", "0.5", "--rho", "0.0", "--n", "50",
                    "--seed", "0", "--output", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert (a.with_suffix(".csv.json").read_text()
                == b.with_suffix(".csv.json").read_text())


@pytest.mark.parametrize("bad", [None, 3, b"x.csv"], ids=["none", "int", "bytes"])
def test_path_arguments_must_be_str_or_path_like(bad):
    traj = ardw.simulate(ardw.DEFAULT_SUITE[0], 10)
    for call in (ardw.read_series, ardw.StudyConfig.from_json, traj.to_csv,
                 ardw.Trajectory.from_csv):
        with pytest.raises(ValueError, match=f"^path must be a str or os.PathLike, got {bad!r}$"):
            call(bad)


class TestTestCommand:
    def test_json_output(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        run(["simulate", "--theta", "0.5", "--rho", "0.5", "--n", "2000",
             "--seed", "3", "--output", str(csv)])
        capsys.readouterr()
        assert run(["test", "--input", str(csv), "--p", "1"]) == 0
        lines = read_json_lines(capsys.readouterr().out)
        assert [o["name"] for o in lines] == list(ardw.serial_tests.TEST_NAMES)
        by_name = {o["name"]: o for o in lines}
        # strong serial correlation must be detected
        assert by_name["dw_chi2"]["reject"]

    def test_csv_output_and_subset(self, tmp_path):
        csv = tmp_path / "traj.csv"
        out = tmp_path / "outcomes.csv"
        run(["simulate", "--theta", "0.5", "--rho", "0.0", "--n", "500",
             "--seed", "4", "--output", str(csv)])
        assert run(
            ["test", "--input", str(csv), "--p", "1", "--format", "csv",
             "--tests", "dw_chi2,ljung_box", "--output", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("dw_chi2,")
        assert lines[2].startswith("ljung_box,")

    def test_json_output_to_file(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        out = tmp_path / "outcomes.jsonl"
        run(["simulate", "--theta", "0.5", "--rho", "0.5", "--n", "300",
             "--seed", "3", "--output", str(csv)])
        assert run(["test", "--input", str(csv), "--p", "1"]) == 0
        stdout = capsys.readouterr().out
        assert run(["test", "--input", str(csv), "--p", "1",
                    "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout

    def test_csv_without_output_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        run(["simulate", "--theta", "0.5", "--rho", "0.0", "--n", "100",
             "--seed", "4", "--output", str(csv)])
        assert run(["test", "--input", str(csv), "--p", "1",
                    "--format", "csv"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "--output required for csv"}


class TestErrorPaths:
    def test_degenerate_series_exit_3(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(["0.0"] * 30) + "\n")
        assert run(["fit", "--input", str(path), "--p", "2"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SingularDesign"
        assert "message" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope.csv"), "--p", "1"]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "invalid choice: 'frobnicate'" in err["message"]

    def test_missing_required_argument_exit_2(self, capsys):
        assert run(["limits", "--theta", "0.5"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "the following arguments are required: --rho"}

    def test_unparsable_option_value_exit_2(self, tmp_path, capsys):
        assert run(["fit", "--input", str(tmp_path / "x.csv"), "--p", "two"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError", "message": "argument --p: invalid int value: 'two'"}

    def test_help_exit_0(self, capsys):
        assert run(["limits", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ardw limits")

    @pytest.mark.parametrize(
        "series, p, message",
        [
            ("0.1\n0.5\n-0.2\n0.3\n0.7\n", "0", "p must be >= 1"),
            ("0.1\n0.5\n-0.2\n0.3\n0.7\n", "-1", "p must be >= 1"),
            ("0.1\n0.5\nnan\n0.3\n0.7\n", "1", "finite"),
            ("x\n", "1", "empty series file"),
        ],
        ids=["p_zero", "p_negative", "nan_in_series", "header_only"],
    )
    def test_bad_fit_input_exit_2(self, tmp_path, capsys, series, p, message):
        path = tmp_path / "series.csv"
        path.write_text(series)
        assert run(["fit", "--input", str(path), "--p", p]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert message in err["message"]

    @pytest.mark.parametrize(
        "extra, message",
        [(["--burn-in", "-5"], "burn_in"),
         (["--burn-in", "-1"], "burn_in must be >= 0, got -1"),
         (["--sigma2", "inf"], "finite"),
         (["--noise", "student_t", "--df", "inf"], "df must be finite"),
         (["--noise", "uniform", "--sigma2", "1e308"], "sqrt(3 sigma2) finite")],
        ids=["burn_in_negative", "burn_in_minus_one", "sigma2_inf", "df_inf",
             "uniform_sigma2_overflows"],
    )
    def test_bad_simulate_input_exit_2(self, tmp_path, capsys, extra, message):
        csv = tmp_path / "traj.csv"
        assert run(["simulate", "--theta", "0.5", "--rho", "0.0", "--n", "50",
                    "--output", str(csv), *extra]) == 2
        assert message in json.loads(capsys.readouterr().err)["message"]
        assert not csv.exists()

    def test_memory_error_exit_2(self, tmp_path, monkeypatch, capsys):
        # injected: a real allocation of this size would take the host's memory
        def draw(self, rng, size):
            raise MemoryError(f"Unable to allocate an array with shape {size}")

        monkeypatch.setattr(ardw.NoiseSpec, "draw", draw)
        csv = tmp_path / "traj.csv"
        assert run(["simulate", "--theta", "0.5", "--rho", "0.0", "--n", "100000000000",
                    "--output", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not csv.exists()
        assert json.loads(captured.err) == {
            "error": "MemoryError",
            "message": "Unable to allocate an array with shape (1, 100000000001)"}

    def test_level_outside_unit_interval_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        run(["simulate", "--theta", "0.5", "--rho", "0.0", "--n", "100",
             "--seed", "4", "--output", str(csv)])
        assert run(["test", "--input", str(csv), "--p", "1", "--level", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "level" in json.loads(captured.err)["message"]


class TestPowerCommand:
    def test_power_from_config(self, tmp_path):
        cfg = {
            "params_list": [{"p": 1, "theta": [0.5], "rho": 0.0}],
            "n_list": [100],
            "reps": 100,
            "master_seed": 5,
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "table.csv"
        assert run(["power", "--config", str(cfg_path), "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 5  # header + one row per test

        # byte-identical to the library path
        table = ardw.size_power_study(ardw.StudyConfig.from_json(cfg_path))
        assert out.read_text() == table.to_csv()

    def test_zero_workers_exit_2(self, tmp_path, capsys):
        cfg = {"params_list": [{"p": 1, "theta": [0.5], "rho": 0.0}],
               "n_list": [100], "reps": 100}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "table.csv"
        assert run(["power", "--config", str(cfg_path), "--output", str(out),
                    "--workers", "0"]) == 2
        assert "workers" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [({"tests": ["dw_chi2", "no_such_test"]}, "unknown test"),
         ({"n_list": [100, 3]}, "need n >= p+2 = 4"),
         ({"n_list": None}, "n_list"),
         ({"params_list": None}, "params_list"),
         ({"params_list": [{"theta": [0.4, -0.3], "rho": 0.0}]}, "'p'"),
         ({"params_list": [{"p": 1, "theta": [0.5], "rho": 0.0,
                            "sigma2": float("inf")}]}, "finite"),
         ({"reps": "abc"}, "reps must be an integer"),
         ({"reps": 100.5}, "reps must be an integer"),
         ({"reps": True}, "reps must be an integer"),
         ({"n_list": [100.5]}, "n must be an integer"),
         ({"master_seed": 1.5}, "master_seed must be an integer"),
         ({"reps": 50}, "reps must be >= 100, got 50"),
         ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
         ({"burn_in": -4}, "burn_in must be >= 0, got -4"),
         ({"noise": {"scale": 2}}, "'scale'"),
         ({"noise": {"sigma2": float("inf")}}, "sigma2 must be finite"),
         ({"noise": {"family": "student_t", "df": float("inf")}}, "df must be finite"),
         ({"noise": {"df": "6"}}, "df must be a real number, got '6'"),
         ({"noise": {"sigma2": True}}, "sigma2 must be a real number, got True"),
         ({"rps": 5000}, "'rps'"),
         ({"params_list": [{"p": True, "theta": [0.5], "rho": 0.0}]},
          "p must be an integer"),
         ({"params_list": [{"p": 1.5, "theta": [0.5], "rho": 0.0}]},
          "p must be an integer"),
         ({"params_list": [{"p": "1", "theta": [0.5], "rho": 0.0}]},
          "p must be an integer"),
         ({"params_list": [{"p": 1, "theta": [0.5], "rho": "0.3"}]},
          "rho must be a real number, got '0.3'"),
         ({"level": "0.05"}, "level must be a real number, got '0.05'"),
         ({"level": 10**400}, "level must be a real number, got 1000"),
         ({"params_list": [{"p": 1, "theta": [0.5], "rho": 10**400}]},
          "rho must be a real number, got 1000"),
         ({"params_list": [{"p": 1, "theta": [0.5], "rho": 0.0, "sigma2": 10**400}]},
          "sigma2 must be a real number, got 1000"),
         ({"noise": {"sigma2": 10**400}}, "sigma2 must be a real number, got 1000"),
         ({"params_list": [{"p": 1, "theta": ["0.5"], "rho": 0.0}]},
          "theta must hold real numbers, got ['0.5']"),
         ({"level": 2}, "level must be in (0, 1), got 2.0"),
         ({"tests": "dw_chi2"}, "tests must be a list, got 'dw_chi2'"),
         ({"tests": ""}, "tests must be a list, got ''"),
         ({"n_list": ""}, "n_list must be a list, got ''"),
         ({"n_list": 100}, "n_list must be a list, got 100"),
         ({"noise": {"family": "uniform", "sigma2": 1e308}}, "sqrt(3 sigma2) finite"),
         ({"n_list": [100, 100]}, "n_list must not repeat a value, got (100, 100)"),
         ({"tests": ["dw_chi2", "durbin_h", "dw_chi2"]},
          "tests must not repeat a value, got ('dw_chi2', 'durbin_h', 'dw_chi2')")],
        ids=["unknown_test", "n_below_p_plus_2", "no_n_list", "no_params_list",
             "params_without_p", "params_sigma2_inf", "reps_string", "reps_float",
             "reps_bool", "n_float", "master_seed_float", "reps_below_100",
             "master_seed_negative",
             "burn_in_negative", "noise_unknown_key", "noise_sigma2_inf",
             "noise_df_inf", "noise_df_string", "noise_sigma2_bool", "misspelt_key",
             "p_bool", "p_float", "p_string", "rho_string", "level_string",
             "level_400_digits", "rho_400_digits", "sigma2_400_digits",
             "noise_sigma2_400_digits", "theta_numeric_string",
             "level_out_of_range", "tests_string", "tests_empty_string",
             "n_list_empty_string", "n_list_int", "noise_uniform_sigma2_overflows",
             "n_list_repeated", "tests_repeated"],
    )
    def test_invalid_config_exit_2(self, tmp_path, capsys, change, message):
        cfg = {"params_list": [{"p": 2, "theta": [0.4, -0.3], "rho": 0.0}],
               "n_list": [100], "reps": 100, **change}
        cfg_path = tmp_path / "study.json"
        # a None value stands for a missing key
        cfg = {k: v for k, v in cfg.items() if v is not None}
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "table.csv"
        assert run(["power", "--config", str(cfg_path), "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert message in err["message"]
        assert not out.exists()

    def test_config_not_an_object_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text("[1, 2]")
        out = tmp_path / "table.csv"
        assert run(["power", "--config", str(cfg_path), "--output", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not out.exists()


class TestDiagnoseCommand:
    def test_clt(self, tmp_path):
        out = tmp_path / "clt.json"
        assert run(
            ["diagnose", "--kind", "clt", "--theta", "0.5", "--rho", "0.3",
             "--n", "500", "--reps", "300", "--seed", "1", "--output", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["kept"] == 300
        assert "rel_frobenius_joint" in report

    @pytest.mark.parametrize("reps", ["0", "1", "-3"])
    def test_clt_reps_below_two_exit_2(self, capsys, reps):
        assert run(
            ["diagnose", "--kind", "clt", "--theta", "0.5", "--rho", "0.3",
             "--n", "50", "--reps", reps]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reps must be >= 2" in json.loads(captured.err)["message"]

    def test_clt_negative_seed_exit_2(self, capsys):
        assert run(
            ["diagnose", "--kind", "clt", "--theta", "0.5", "--rho", "0.3",
             "--n", "100", "--reps", "20", "--seed", "-1"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ('{"error": "ValueError", '
                                '"message": "seed must be >= 0, got -1"}\n')

    def test_rate(self, capsys):
        assert run(
            ["diagnose", "--kind", "rate", "--theta", "0.5", "--rho", "0.0",
             "--n", "5000", "--seed", "1"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_max"] == 5000
        assert report["checkpoints"]

    @pytest.mark.parametrize("n", [str(2**62), str(2**63), str(2**64)])
    def test_rate_impossible_length_exit_2(self, capsys, n):
        # numpy refuses these sizes before it allocates anything
        assert run(["diagnose", "--kind", "rate", "--theta", "0.5", "--rho", "0.2",
                    "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"

    @pytest.mark.parametrize("n", ["30", "50"])
    def test_rate_not_past_first_stage_exit_2(self, capsys, n):
        assert run(
            ["diagnose", "--kind", "rate", "--theta", "0.5", "--rho", "0.2",
             "--n", n]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "first estimation stage 50" in json.loads(captured.err)["message"]

    @pytest.mark.parametrize("kind", ["clt", "rate"])
    def test_output_file_equals_stdout(self, tmp_path, capsys, kind):
        argv = ["diagnose", "--kind", kind, "--theta", "0.5", "--rho", "0.3",
                "--n", "200", "--reps", "20", "--seed", "4"]
        assert run(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "report.json"
        assert run([*argv, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()

    def test_rate_shorter_than_default_checkpoints(self, capsys):
        assert run(
            ["diagnose", "--kind", "rate", "--theta", "0.5", "--rho", "0.2",
             "--n", "100"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["n"] for row in report["checkpoints"]] == [100]
