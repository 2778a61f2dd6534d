"""Tests for the command-line interface: exit codes, output formats,
round-trips, and determinism."""

import csv
import json
import math

import pytest

from xxzswap.cli import main

EXAMPLE_CONFIG = {
    "dot_i": {"hbar_omega0": 1.0, "zeeman_z": 0.2, "gradient_coupling": 0.1, "g_times_b": 0.05},
    "dot_j": {"hbar_omega0": 1.0, "zeeman_z": 0.2, "gradient_coupling": 0.1, "g_times_b": 0.05},
    "coupling": {"U": 1.0, "V": 0.5, "t00": 0.05, "t11": 0.05, "t12": 0.02},
}


def write_config(tmp_path, data):
    path = tmp_path / "device.json"
    path.write_text(json.dumps(data))
    return str(path)


def parse_fields(output):
    fields = {}
    for line in output.strip().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            fields[key] = value
    return fields


class TestSwapSolve:
    def test_solves_and_verifies(self, capsys):
        code = main(["swap-solve", "--m", "2", "--n", "1", "--tau", "1"])
        fields = parse_fields(capsys.readouterr().out)
        assert code == 0
        assert fields["Delta"] == "3"
        assert fields["kind"] == "swap"
        assert fields["trace_overlap"] == "1"
        assert fields["passed"] == "true"
        assert float(fields["global_phase"]) == pytest.approx(math.pi / 4)

    def test_equal_indices_exit_usage(self, capsys):
        code = main(["swap-solve", "--m", "1", "--n", "1", "--tau", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_duration_exit_usage(self, capsys):
        assert main(["swap-solve", "--m", "2", "--n", "1", "--tau", "0"]) == 2

    @pytest.mark.parametrize(
        "option",
        [
            ["--seed", "-1"],
            ["--seed", str(2**128 + 1)],
            ["--tolerance", "-1"],
            ["--tolerance", "nan"],
        ],
        ids=["negative-seed", "seed-beyond-2**128", "negative-tolerance", "nan-tolerance"],
    )
    def test_out_of_range_option_exit_usage(self, option, capsys):
        code = main(["swap-solve", "--m", "2", "--n", "1", "--tau", "1"] + option)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_large_indices_accept_exact_solution(self, capsys):
        code = main(["swap-solve", "--m", "1310", "--n", "1309", "--tau", "0.3"])
        fields = parse_fields(capsys.readouterr().out)
        assert code == 0
        assert fields["passed"] == "true"

    def test_even_pair_reports_return_kind(self, capsys):
        code = main(["swap-solve", "--m", "3", "--n", "1", "--tau", "1"])
        fields = parse_fields(capsys.readouterr().out)
        assert code == 0
        assert fields["kind"] == "return_to_self"


class TestDeltaScan:
    def test_csv_json_round_trip(self, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        json_path = tmp_path / "scan.json"
        args = ["delta-scan", "--m-min", "-2", "--m-max", "2", "--n-min", "-2", "--n-max", "2"]
        assert main(args + ["--format", "csv", "--output", str(csv_path)]) == 0
        assert main(args + ["--format", "json", "--output", str(json_path)]) == 0

        with open(csv_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads(json_path.read_text())
        assert len(csv_rows) == len(json_rows) == 5 * 5 - 5
        for c_row, j_row in zip(csv_rows, json_rows):
            for key in ("m", "n"):
                assert int(c_row[key]) == j_row[key]
            assert c_row["kind"] == j_row["kind"]
            for key in ("delta", "trace_overlap", "global_phase"):
                assert math.isclose(float(c_row[key]), j_row[key], rel_tol=0, abs_tol=1e-15)

    def test_unwritable_output_exit_usage(self, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "dir" / "scan.csv")
        code = main(["delta-scan", "--m-min", "0", "--m-max", "1", "--n-min", "0",
                     "--n-max", "1", "--output", target])
        assert code == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_contains_low_anisotropy_outcome(self, capsys):
        assert main(["delta-scan"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,delta,kind,trace_overlap,global_phase"
        target = [l for l in lines if l.startswith("2,-1,")]
        assert len(target) == 1


class TestFidelitySweep:
    SWEEP = [
        "fidelity-sweep",
        "--max-xz", "2", "--max-h", "2", "--points", "3", "--samples", "40000",
    ]

    def test_deterministic_output_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.SWEEP + ["--output", str(a)]) == 0
        assert main(self.SWEEP + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_corner_row(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(self.SWEEP + ["--output", str(path)]) == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == [
            "lambda_x", "lambda_z", "lambda_h", "f_analytic", "f_mc",
            "f_mc_stderr", "samples", "seed",
        ]
        corner = rows[0]
        assert float(corner["f_analytic"]) == 1.0
        assert float(corner["f_mc"]) == 1.0
        for row in rows:
            gap = abs(float(row["f_mc"]) - float(row["f_analytic"]))
            assert gap <= 3 * float(row["f_mc_stderr"]) + 1e-12

    def test_csv_json_round_trip(self, tmp_path):
        csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(self.SWEEP + ["--format", "csv", "--output", str(csv_path)]) == 0
        assert main(self.SWEEP + ["--format", "json", "--output", str(json_path)]) == 0
        with open(csv_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads(json_path.read_text())
        for c_row, j_row in zip(csv_rows, json_rows):
            for key in ("lambda_x", "lambda_z", "lambda_h", "f_analytic", "f_mc", "f_mc_stderr"):
                assert math.isclose(float(c_row[key]), j_row[key], rel_tol=0, abs_tol=1e-15)
            assert int(c_row["samples"]) == j_row["samples"]
            assert int(c_row["seed"]) == j_row["seed"]

    def test_explicit_seed_matches_env_seed(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.SWEEP + ["--seed", "777", "--output", str(a)]) == 0
        monkeypatch.setenv("XXZSWAP_SEED", "777")
        assert main(self.SWEEP + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed_exit_usage(self, monkeypatch, capsys):
        for raw in ("not-a-number", "-1", str(2**128 + 1)):
            monkeypatch.setenv("XXZSWAP_SEED", raw)
            assert main(self.SWEEP) == 2
            assert "XXZSWAP_SEED" in capsys.readouterr().err

    def test_default_extent_reaches_wide_fluctuation_limit(self, tmp_path):
        # keep the default grid extents, shrink only the sample count; the
        # analytic column in the far corner must sit on the 7/15 plateau
        path = tmp_path / "default.csv"
        assert main(["fidelity-sweep", "--samples", "1000", "--output", str(path)]) == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["f_analytic"]) == 1.0
        assert abs(float(rows[-1]["f_analytic"]) - 7 / 15) < 1e-3
        # an extent whose squares overflow saturates at the limit
        argv = ["fidelity-sweep", "--max-xz", "1e200", "--points", "2", "--samples", "10"]
        assert main(argv + ["--output", str(path)]) == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["f_analytic"]) == pytest.approx(7 / 15, abs=1e-12)


class TestPseudospinMap:
    def test_prints_effective_parameters(self, tmp_path, capsys):
        config = write_config(tmp_path, EXAMPLE_CONFIG)
        assert main(["pseudospin-map", "--config", config]) == 0
        fields = parse_fields(capsys.readouterr().out)
        assert float(fields["j_eff"]) == pytest.approx(0.02032950680272109, abs=1e-12)
        assert float(fields["delta_tilde"]) == pytest.approx(0.9881701987748374, abs=1e-12)
        assert float(fields["omega_tilde"]) == pytest.approx(0.3951425347701943, abs=1e-12)

    def test_zero_gradient_prints_unit_anisotropy(self, tmp_path, capsys):
        config = dict(EXAMPLE_CONFIG)
        config["dot_i"] = dict(config["dot_i"], gradient_coupling=0.0, g_times_b=0.0)
        config["dot_j"] = dict(config["dot_j"], gradient_coupling=0.0, g_times_b=0.0)
        assert main(["pseudospin-map", "--config", write_config(tmp_path, config)]) == 0
        fields = parse_fields(capsys.readouterr().out)
        assert fields["delta_tilde"] == "1"
        assert fields["omega_tilde"] == fields["omega"]

    def test_feasibility_block(self, tmp_path, capsys):
        config = write_config(tmp_path, EXAMPLE_CONFIG)
        code = main(["pseudospin-map", "--config", config, "--m", "2", "--n", "1",
                     "--tolerance", "1e-9"])
        fields = parse_fields(capsys.readouterr().out)
        assert code == 0
        assert fields["feasible"] == "false"
        assert float(fields["required_delta"]) == 3.0

    def test_missing_field_names_the_path(self, tmp_path, capsys):
        config = dict(EXAMPLE_CONFIG)
        config["dot_i"] = {k: v for k, v in config["dot_i"].items() if k != "zeeman_z"}
        code = main(["pseudospin-map", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "dot_i.zeeman_z" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        config = dict(EXAMPLE_CONFIG)
        config["coupling"] = dict(config["coupling"], t21=0.1)
        code = main(["pseudospin-map", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "coupling.t21" in err

    def test_non_numeric_field_rejected(self, tmp_path, capsys):
        config = dict(EXAMPLE_CONFIG)
        config["dot_j"] = dict(config["dot_j"], zeeman_z="big")
        code = main(["pseudospin-map", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "dot_j.zeeman_z" in err

    def test_resonance_exit_singular(self, tmp_path, capsys):
        config = dict(EXAMPLE_CONFIG)
        config["dot_i"] = dict(config["dot_i"], gradient_coupling=0.0, g_times_b=0.0)
        config["dot_j"] = dict(config["dot_j"], gradient_coupling=0.0, g_times_b=0.0)
        config["coupling"] = dict(config["coupling"], U=1.0, V=0.6)  # gap = omega = 0.4
        code = main(["pseudospin-map", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 4
        assert "resonance" in err

    def test_overflowing_gap_exit_usage(self, tmp_path, capsys):
        config = dict(EXAMPLE_CONFIG)
        config["coupling"] = dict(config["coupling"], U=1e308, V=-1e308)
        code = main(["pseudospin-map", "--config", write_config(tmp_path, config)])
        assert code == 2
        assert "U - V must be finite" in capsys.readouterr().err

    def test_malformed_json_exit_usage(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["pseudospin-map", "--config", str(path)]) == 2

    def test_missing_file_exit_usage(self, tmp_path):
        assert main(["pseudospin-map", "--config", str(tmp_path / "absent.json")]) == 2


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


class TestVerifyDynamics:
    def test_passes_with_default_thresholds(self, capsys):
        code = main(["verify-dynamics", "--cases", "100"])
        fields = parse_fields(capsys.readouterr().out)
        assert code == 0
        assert fields["passed"] == "true"
        assert float(fields["propagator_max_deviation"]) < 1e-10
        assert float(fields["determinant_max_deviation"]) < 1e-10

    def test_seed_variation_still_passes(self, capsys):
        for seed in ("1", "2", "3"):
            assert main(["verify-dynamics", "--cases", "50", "--seed", seed]) == 0

    @pytest.mark.parametrize("cases", ["-5", "0"])
    def test_nonpositive_cases_exit_usage(self, cases, capsys):
        assert main(["verify-dynamics", "--cases", cases]) == 2
        assert "passed" not in capsys.readouterr().out

    def test_injected_error_fails(self, monkeypatch, capsys):
        monkeypatch.setenv("XXZSWAP_VERIFY_INJECT_ERROR", "1")
        code = main(["verify-dynamics", "--cases", "20"])
        fields = parse_fields(capsys.readouterr().out)
        assert code == 3
        assert fields["passed"] == "false"
