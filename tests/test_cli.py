"""Tests for the command-line interface: exit codes, output formats,
round-trips, and determinism."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxzswap import (
    DotSpec,
    PhaseTriple,
    QubitAmplitudes,
    XxzParams,
    dense_exponential_oracle,
    make_product_state,
    perturbed_levels,
    propagate,
    propagator_matrix,
    reduce_to_qubit,
    reduced_determinant_closed_form,
)
import xxzswap.dots
import xxzswap.swaps
from xxzswap import cli
from xxzswap.cli import main
from xxzswap.seeding import DEFAULT_SEED, stream
from xxzswap.swaps import _random_qubits

EXAMPLE_CONFIG = {
    "dot_i": {"hbar_omega0": 1.0, "zeeman_z": 0.2, "gradient_coupling": 0.1, "g_times_b": 0.05},
    "dot_j": {"hbar_omega0": 1.0, "zeeman_z": 0.2, "gradient_coupling": 0.1, "g_times_b": 0.05},
    "coupling": {"U": 1.0, "V": 0.5, "t00": 0.05, "t11": 0.05, "t12": 0.02},
}

# SHA-256 of the README `delta-scan` table (stdout over [-3, 3]^2), frozen
# before the scan stopped drawing verification states
README_SCAN_SHA256 = "6fa65e8d975dc12e001623ea5e8def0bda244e49fbe5b261d7c6b5cba6013f9b"

# stdout of `pseudospin-map --m 1 --n 0` on EXAMPLE_CONFIG, frozen byte for byte
EXAMPLE_MAP_1_0 = """\
c_plus_i = 0.117851130198
c_minus_i = 0.0505076272276
c_plus_j = 0.117851130198
c_minus_j = 0.0505076272276
omega_i = 0.395238095238
omega_j = 0.395238095238
omega = 0.395238095238
t_plus = 0.0506944444444
t_minus = 0.0501275510204
f_plus = 0.00336717514851
f_minus = 0.00336717514851
f = 0.00336717514851
j_eff = 0.0203295068027
delta_tilde = 0.988170198775
omega_tilde = 0.39514253477
m = 1
n = 0
feasible = false
required_delta = 1
delta_residual = 0.0118298012252
zeeman_phase_residual = 61.0628135941
tau = 154.533638424
failure: anisotropy mismatch: Delta~ = 0.98817 vs required 1 (residual 0.0118298)
failure: Zeeman phase mismatch: omega~ tau = 61.0628 vs required 0 (residual 61.0628)
"""


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
        "argv, option",
        [
            (["fidelity-sweep", "--points", "0", "--samples", "10"], "--points"),
            (["fidelity-sweep", "--points", "2", "--samples", "0"], "samples"),
            (["verify-dynamics", "--cases", "0"], "--cases"),
        ],
    )
    def test_count_below_one_exit_usage(self, argv, option, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} must be positive, got 0\n"

    SOLVE = ["swap-solve", "--m", "2", "--n", "1", "--tau", "1"]
    SWEEP = ["fidelity-sweep", "--points", "2", "--samples", "10"]

    @pytest.mark.parametrize(
        "argv",
        [
            SOLVE + ["--seed", "-1"],
            SOLVE + ["--seed", str(2**128 + 1)],
            SOLVE + ["--tolerance", "-1"],
            SOLVE + ["--tolerance", "nan"],
            SOLVE + ["--tolerance", "1"],
            SOLVE + ["--m", "9" * 400],
            SWEEP + ["--max-xz", "inf"],
            SWEEP + ["--max-xz", "nan"],
            SWEEP + ["--max-h=-inf"],
            SWEEP + ["--max-h", "nan"],
            SWEEP + ["--max-xz", "1e308", "--max-h", "1"],
            SWEEP + ["--max-h", "1e301"],
            SOLVE + ["--tolerance", "0.5"],
        ],
        ids=[
            "negative-seed", "seed-beyond-2**128", "negative-tolerance", "nan-tolerance", "unit-tolerance",
            "m-beyond-float-range", "sweep-inf-max-xz", "sweep-nan-max-xz",
            "sweep-inf-max-h", "sweep-nan-max-h", "sweep-huge-max-xz", "sweep-huge-max-h",
            "half-tolerance",
        ],
    )
    def test_out_of_range_option_exit_usage(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        # one error line and nothing else: no warning leaks from numpy
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
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

    def test_readme_stdout_is_frozen(self, capsys):
        assert main(["delta-scan", "--m-min", "-3", "--m-max", "3", "--n-min", "-3",
                     "--n-max", "3"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == README_SCAN_SHA256

    def test_scan_opens_no_stream(self, monkeypatch, capsys):
        def no_stream(seed, index):
            raise AssertionError("delta-scan opened a random stream")

        monkeypatch.setattr(xxzswap.swaps, "stream", no_stream)
        assert main(["delta-scan", "--m-min", "-4", "--m-max", "4", "--n-min", "-4",
                     "--n-max", "4", "--seed", "7"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 9 * 9 - 9

    @pytest.mark.parametrize(
        "m, n, tau",
        [("0", "0", "-1"), ("0", "0", "nan"), ("5", "3", "1e-308")],
        ids=["negative-without-pairs", "nan-without-pairs", "overflowing-J"],
    )
    def test_bad_tau_exit_usage(self, m, n, tau, capsys):
        # the box (0, 0) has no pair with m != n, yet tau is checked
        limits = ["--m-min", m, "--m-max", m, "--n-min", n, "--n-max", n]
        assert main(["delta-scan", *limits, "--tau", tau]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # one error line and nothing else: no warning leaks from numpy
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_bad_seed_still_exit_usage(self, monkeypatch, capsys):
        assert main(["delta-scan", "--seed", "-1"]) == 2
        monkeypatch.setenv("XXZSWAP_SEED", "not-a-number")
        assert main(["delta-scan"]) == 2
        assert capsys.readouterr().out == ""

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

    def test_unallocatable_size_exit_usage(self, monkeypatch, capsys):
        # stands in for the grid of `--points 1000000000000`, which numpy
        # refuses to allocate
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "fidelity_grid", refuse)
        assert main(self.SWEEP) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 7.28 TiB for an array\n"

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

    def test_widest_monte_carlo_extent_prints_finite_estimates(self, capsys):
        # at the bound every sampled phase is finite; beyond it the sweep
        # exits 2 (see test_out_of_range_option_exit_usage)
        argv = ["fidelity-sweep", "--max-xz", "1e300", "--max-h", "1e300", "--points", "2"]
        assert main(argv + ["--samples", "10"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert all(math.isfinite(float(row["f_mc"])) for row in rows)


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

    def test_feasibility_stdout_is_frozen(self, tmp_path, capsys):
        config = write_config(tmp_path, EXAMPLE_CONFIG)
        assert main(["pseudospin-map", "--config", config, "--m", "1", "--n", "0"]) == 0
        assert capsys.readouterr().out == EXAMPLE_MAP_1_0

    @pytest.mark.parametrize(
        "pair",
        [
            ["--m", "1", "--n", "0", "--tolerance", "-1"],
            ["--m", "3", "--n", "1"],  # even |m - n|
            ["--m", "1"],
        ],
    )
    def test_rejected_mapping_prints_nothing(self, tmp_path, capsys, pair):
        config = write_config(tmp_path, EXAMPLE_CONFIG)
        assert main(["pseudospin-map", "--config", config] + pair) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_unpaired_index_is_rejected_before_the_device_is_mapped(self, tmp_path):
        # a strained device warns while it is mapped; in a fresh process the
        # warnings would reach stderr, so stderr shows whether the mapper ran
        config = json.loads(json.dumps(EXAMPLE_CONFIG))
        for key in ("dot_i", "dot_j"):
            config[key].update(zeeman_z=0.2, gradient_coupling=0.5, g_times_b=0.5)
        argv = ["pseudospin-map", "--config", write_config(tmp_path, config), "--m", "1"]
        src = str(Path(cli.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "xxzswap.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: --m and --n must be given together\n"

    def test_strained_device_warns_once_per_dot(self, tmp_path, capsys):
        config = json.loads(json.dumps(EXAMPLE_CONFIG))
        for key, zeeman in (("dot_i", 0.2), ("dot_j", 0.25)):
            config[key].update(zeeman_z=zeeman, gradient_coupling=0.5, g_times_b=0.5)
        argv = ["pseudospin-map", "--config", write_config(tmp_path, config), "--m", "2", "--n", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        strained = [w for w in caught if "mixing coefficient" in str(w.message)]
        assert len(strained) == 2
        assert all(w.filename.endswith("dots.py") for w in strained)
        # the printed mixing coefficients are each dot's own levels
        fields = parse_fields(capsys.readouterr().out)
        for key in ("dot_i", "dot_j"):
            with pytest.warns(UserWarning, match="mixing coefficient"):
                levels = perturbed_levels(DotSpec(**config[key]))
            assert fields["c_plus" + key[-2:]] == f"{levels.c_plus:.12g}"
            assert fields["c_minus" + key[-2:]] == f"{levels.c_minus:.12g}"

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

    def test_zero_gradient_in_dot_i_exit_singular(self, tmp_path, capsys):
        # f_- stays nonzero, so the ratio g_j b_j / g_i b_i is needed and undefined
        config = dict(EXAMPLE_CONFIG)
        config["dot_i"] = dict(config["dot_i"], g_times_b=0.0)
        code = main(["pseudospin-map", "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "inhomogeneity ratio" in captured.err

    @pytest.mark.parametrize(
        "coupling, denominator",
        [
            ({"U": 1e-300, "V": 0.0}, "(U - V)^2"),
            ({"U": 0.4032, "V": 0.0, "t00": 3e-162, "t11": 0.0, "t12": 0.0}, "t_+ t_- (1 - omega^2"),
        ],
        ids=["gap-squared", "detuned-product"],
    )
    def test_underflowing_denominator_exit_singular(self, tmp_path, coupling, denominator):
        config = json.loads(json.dumps(EXAMPLE_CONFIG))
        config["coupling"].update(coupling)
        argv = ["pseudospin-map", "--config", write_config(tmp_path, config), "--m", "1", "--n", "0"]
        src = str(Path(cli.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "xxzswap.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert result.returncode == 4
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {denominator}")
        assert result.stderr.count("\n") == 1  # one line, no traceback

    def test_overflowing_levels_exit_singular(self, tmp_path):
        # each dot passes its own checks, but its second-order shift overflows
        config = json.loads(json.dumps(EXAMPLE_CONFIG))
        for key in ("dot_i", "dot_j"):
            config[key] = {
                "hbar_omega0": 1e300, "zeeman_z": 2e299, "gradient_coupling": 1e299,
                "g_times_b": 0.05,
            }
        config["coupling"] = {"U": 1e200, "V": 0.0, "t00": 0.05, "t11": 0.05, "t12": 0.02}
        argv = ["pseudospin-map", "--config", write_config(tmp_path, config), "--m", "1", "--n", "0"]
        src = str(Path(cli.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "xxzswap.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert result.returncode == 4
        assert result.stdout == ""
        assert result.stderr.startswith("error: pseudospin levels are not finite")
        assert "gradient_coupling = 1e+299" in result.stderr
        assert result.stderr.count("\n") == 1  # one line, no traceback

    def test_overflowing_gap_exit_usage(self, tmp_path, capsys):
        config = dict(EXAMPLE_CONFIG)
        config["coupling"] = dict(config["coupling"], U=1e308, V=-1e308)
        code = main(["pseudospin-map", "--config", write_config(tmp_path, config)])
        assert code == 2
        assert "U - V must be finite" in capsys.readouterr().err

    def test_overflowing_duration_is_infeasible(self, tmp_path, capsys):
        # J_eff = 4 t00^2 / (U - V) ~ 1.3e-320, so tau = pi / J_eff overflows
        config = json.loads(json.dumps(EXAMPLE_CONFIG))
        for key in ("dot_i", "dot_j"):
            config[key].update(zeeman_z=0.0, gradient_coupling=0.0, g_times_b=0.0)
        config["coupling"] = {"U": 3.0, "V": 0.0, "t00": 1e-160, "t11": 0.0, "t12": 0.0}
        argv = ["pseudospin-map", "--config", write_config(tmp_path, config), "--m", "1", "--n", "0"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert parse_fields(captured.out)["feasible"] == "false"
        assert "failure: duration (m - n) pi / J_eff = inf overflows\n" in captured.out

    def test_overflowing_exchange_is_infeasible(self, tmp_path, capsys):
        # J_eff = 4 t00^2 / (U - V) overflows to inf, so pi / J_eff = 0
        config = json.loads(json.dumps(EXAMPLE_CONFIG))
        for key in ("dot_i", "dot_j"):
            config[key]["zeeman_z"] = 0.0
        config["coupling"].update(t00=1e200, t11=0.0, t12=0.0)
        argv = ["pseudospin-map", "--config", write_config(tmp_path, config), "--m", "1", "--n", "0"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        fields = parse_fields(captured.out)
        assert (fields["j_eff"], fields["feasible"]) == ("inf", "false")
        assert "failure: J_eff = inf is not finite\n" in captured.out
        assert "flip the sign" not in captured.out

    @pytest.mark.parametrize(
        "section, key, value, fields, failures",
        [
            # t_+ t_- overflows, so J_eff = inf and Delta~ = inf / inf
            (
                "coupling", "t00", 1.7e308, {"j_eff": "inf", "delta_tilde": "nan"},
                [
                    "J_eff = inf is not finite",
                    "anisotropy mismatch: Delta~ = nan vs required 1 (residual nan)",
                ],
            ),
            # g_j b_j / g_i b_i overflows f, so f^2 = inf
            (
                "dot_i", "g_times_b", 1e-300,
                {"f": "8.41793787127e+295", "delta_tilde": "-inf", "omega_tilde": "-inf"},
                [
                    "anisotropy mismatch: Delta~ = -inf vs required 1 (residual inf)",
                    "Zeeman phase mismatch: omega~ tau = -inf vs required 0 (residual inf)",
                ],
            ),
        ],
        ids=["overflowing-tunneling-product", "overflowing-inhomogeneity-ratio"],
    )
    def test_non_finite_effective_parameters_are_infeasible_data(
        self, tmp_path, capsys, section, key, value, fields, failures
    ):
        config = json.loads(json.dumps(EXAMPLE_CONFIG))
        config[section][key] = value
        argv = ["pseudospin-map", "--config", write_config(tmp_path, config), "--m", "1", "--n", "0"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        printed = parse_fields(captured.out)
        assert printed["feasible"] == "false"
        assert {name: printed[name] for name in fields} == fields
        lines = captured.out.splitlines()
        assert [line for line in lines if line.startswith("failure: ")] == [
            f"failure: {failure}" for failure in failures
        ]

    def test_malformed_json_exit_usage(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        too_long = json.dumps(EXAMPLE_CONFIG).replace("0.05", "1" * 5000, 1)
        huge = json.dumps(EXAMPLE_CONFIG).replace("0.05", "9" * 400, 1)
        for text in ("{not json", "[" * 100000, too_long, huge):
            path.write_text(text)
            assert main(["pseudospin-map", "--config", str(path)]) == 2
        path.write_bytes(b"\xff\xfe{")
        assert main(["pseudospin-map", "--config", str(path)]) == 2

    def test_missing_file_exit_usage(self, tmp_path):
        assert main(["pseudospin-map", "--config", str(tmp_path / "absent.json")]) == 2


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verification_defaults_are_the_library_constants():
    parser = cli.build_parser()
    solve = parser.parse_args(["swap-solve", "--m", "2", "--n", "1", "--tau", "1"])
    mapping = parser.parse_args(["pseudospin-map", "--config", "device.json"])
    assert solve.tolerance is xxzswap.swaps.VERIFY_TOLERANCE == 1e-10
    assert mapping.tolerance is xxzswap.dots.FEASIBILITY_TOLERANCE == 1e-9
    for verifier in (xxzswap.swaps.verify_swap, xxzswap.swaps.verify_schedule):
        defaults = inspect.signature(verifier).parameters
        assert defaults["tolerance"].default is xxzswap.swaps.VERIFY_TOLERANCE
        assert defaults["n_states"].default is xxzswap.swaps.VERIFY_STATES == 50
    defaults = inspect.signature(xxzswap.dots.map_to_swap).parameters
    assert defaults["tolerance"].default is xxzswap.dots.FEASIBILITY_TOLERANCE


def reference_verify(seed, cases, block):
    """verify-dynamics written out case by case through the public scalar
    functions, on the same draws: per propagator case four uniforms, per
    block of determinant cases its qubits and then its phases."""
    rng = stream(seed, 0)
    worst_propagator = 0.0
    for _ in range(cases):
        params = XxzParams(*rng.uniform(-3.0, 3.0, 3))
        t = rng.uniform(1e-3, 5.0)
        phases = PhaseTriple(params.J * t, params.J * params.Delta * t, params.Gamma * t)
        deviation = np.max(np.abs(propagator_matrix(phases) - dense_exponential_oracle(params, t)))
        worst_propagator = max(worst_propagator, float(deviation))
    worst_determinant = 0.0
    for start in range(0, 2 * cases, block):
        count = min(block, 2 * cases - start)
        qubits = _random_qubits(rng, 2 * count).reshape(count, 2, 2)
        for (a, b), triple in zip(qubits, rng.uniform(-10.0, 10.0, (count, 3))):
            alpha, beta, phases = QubitAmplitudes(*a), QubitAmplitudes(*b), PhaseTriple(*triple)
            evolved = propagate(make_product_state(alpha, beta), phases)
            direct = reduce_to_qubit(evolved, 0).determinant()
            closed = reduced_determinant_closed_form(alpha, beta, phases)
            worst_determinant = max(worst_determinant, abs(direct - closed))
    return worst_propagator, worst_determinant


class TestVerifyDynamics:
    @pytest.mark.parametrize(
        "cases, seed, block",
        [(1, DEFAULT_SEED, 4096), (50, 3, 4096), (300, 11, 4096), (20, 7, 7), (13, 5, 13)],
        ids=["one-case", "fifty", "three-hundred", "several-blocks", "two-blocks"],
    )
    def test_matches_per_case_reference(self, cases, seed, block, monkeypatch, capsys):
        monkeypatch.setattr(cli, "VERIFY_BLOCK", block)
        assert main(["verify-dynamics", "--cases", str(cases), "--seed", str(seed)]) == 0
        fields = parse_fields(capsys.readouterr().out)
        rng = stream(seed, 0)
        worst_propagator = cli._worst(cli._propagator_deviations, rng, cases)
        worst_determinant = cli._worst(cli._determinant_deviations, rng, 2 * cases)
        reference_propagator, reference_determinant = reference_verify(seed, cases, block)
        assert worst_propagator == reference_propagator
        # the stacked complex products may round differently in the last bit
        assert abs(worst_determinant - reference_determinant) <= 1e-15
        assert fields["propagator_max_deviation"] == f"{worst_propagator:.12g}"
        assert fields["determinant_max_deviation"] == f"{worst_determinant:.12g}"
        assert fields["determinant_cases"] == str(2 * cases)

    def test_blocks_bound_every_batch(self, monkeypatch, capsys):
        counts = {}

        def counting(deviations):
            def wrapped(rng, count):
                counts.setdefault(deviations.__name__, []).append(count)
                return deviations(rng, count)
            return wrapped

        monkeypatch.setattr(cli, "VERIFY_BLOCK", 8)
        for name in ("_propagator_deviations", "_determinant_deviations"):
            monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
        assert main(["verify-dynamics", "--cases", "21"]) == 0
        assert counts == {
            "_propagator_deviations": [8, 8, 5],
            "_determinant_deviations": [8, 8, 8, 8, 8, 2],
        }

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
        monkeypatch.setattr(cli, "ORACLE_THRESHOLD", 0.0)
        code = main(["verify-dynamics", "--cases", "20"])
        fields = parse_fields(capsys.readouterr().out)
        assert code == 3
        assert fields["passed"] == "false"


# A seeded argv fuzzer over the five subcommands. Each value is an edge case
# or, more often, a plain one, so that runs also get past argument parsing.
# Sizes stay small: a large valid --cases or --samples would only run long.
EDGE_NUMBERS = (
    "nan", "-nan", "inf", "-inf", "1e-320", "-1e-320", "1e308", "-1e308", "1e400", "0", "-0",
    "-1", str(2**64), str(-(10**30)), "9" * 400, "-" + "9" * 400, "1" * 5000,
    "abc", "", "1e", "0x10", "1_000", " 3 ",
)
EDGE_INTEGERS = (
    str(2**53), str(2**53 + 1), str(-(2**64)), str(10**30), "9" * 400, "-" + "9" * 400,
    "1" * 5000, "1.5", "1e3", "nan", "inf", "abc", "",
)
EDGE_SIZES = ("0", "-1", "-7", str(-(10**30)), "1.5", "nan", "abc", "")
EDGE_SEEDS = ("-1", str(2**128 - 1), str(2**128), "9" * 400, "1.5", "abc")
PLAIN = {
    "number": ("0.7", "1", "2.5", "1e-3", "3"),
    "integer": ("0", "1", "2", "-1", "-2", "3", "5"),
    "size": ("1", "2", "3"),
    "seed": ("0", "1", "99"),
}
EDGE = {"number": EDGE_NUMBERS, "integer": EDGE_INTEGERS, "size": EDGE_SIZES, "seed": EDGE_SEEDS}


def fuzz_configs(tmp_path):
    """Device files: the example, each field set to each edge value, broken
    structure, and text that is not JSON."""
    texts = [json.dumps(EXAMPLE_CONFIG)]
    for value in ("NaN", "Infinity", "-Infinity", "1e308", "-1e308", "1e-320", "0", "-1", "1e400",
                  "9" * 400, "1" * 5000, '"1.0"', "true", "null", "[]", "{}"):
        for section, fields in EXAMPLE_CONFIG.items():
            for key in fields:
                config = json.loads(json.dumps(EXAMPLE_CONFIG))
                config[section][key] = "@"
                texts.append(json.dumps(config).replace('"@"', value))
    texts += [
        json.dumps({k: v for k, v in EXAMPLE_CONFIG.items() if k != "coupling"}),
        json.dumps(dict(EXAMPLE_CONFIG, extra={})),
        json.dumps(dict(EXAMPLE_CONFIG, dot_i=[])),
        "[]", "3", "null", '"text"', "", "{not json", "[" * 100000, "{" * 100000,
    ]
    paths = []
    for k, text in enumerate(texts):
        path = tmp_path / f"device{k}.json"
        path.write_text(text)
        paths.append(str(path))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    paths += [str(binary), str(tmp_path / "absent.json"), str(tmp_path)]
    # the example is given as often as all broken files together
    return [paths[0]] * len(paths) + paths


def fuzz_argvs(rng, configs, count):
    def value(kind):
        return rng.choice(EDGE[kind] if rng.random() < 0.3 else PLAIN[kind])

    def option(argv, name, kind, p=0.7):
        if rng.random() < p:
            argv += [name, value(kind)]

    for _ in range(count):
        command = rng.choice(
            ["swap-solve", "delta-scan", "fidelity-sweep", "pseudospin-map", "verify-dynamics"]
        )
        argv = [command]
        if command == "swap-solve":
            option(argv, "--m", "integer", 0.95)
            option(argv, "--n", "integer", 0.95)
            option(argv, "--tau", "number", 0.95)
            option(argv, "--tolerance", "number", 0.3)
        elif command == "delta-scan":
            # each range spans at most three values, from any start
            for axis in ("m", "n"):
                start = value("integer")
                try:
                    end = str(int(start) + rng.choice((-1, 0, 1, 2)))
                except ValueError:
                    end = value("size")
                argv += [f"--{axis}-min", start, f"--{axis}-max", end]
            option(argv, "--tau", "number")
            if rng.random() < 0.3:
                argv += ["--format", rng.choice(("csv", "json", "xml"))]
        elif command == "fidelity-sweep":
            option(argv, "--max-xz", "number")
            option(argv, "--max-h", "number")
            samples = value("size") + rng.choice(("", "00"))
            argv += ["--points", value("size"), "--samples", samples]
        elif command == "pseudospin-map":
            argv += ["--config", rng.choice(configs)]
            option(argv, "--m", "integer", 0.5)
            option(argv, "--n", "integer", 0.5)
            option(argv, "--tolerance", "number", 0.3)
        else:
            argv += ["--cases", value("size") + rng.choice(("", "0"))]
        if command != "pseudospin-map":
            option(argv, "--seed", "seed", 0.4)
        yield argv


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_seeded_argv_fuzz_keeps_exit_contract(tmp_path, capsys):
    configs = fuzz_configs(tmp_path)
    seen = set()
    for argv in fuzz_argvs(random.Random(20260418), configs, 500):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv!r} raised {exc!r}")
        assert code in (0, 2, 3, 4), argv
        seen.add(code)
    capsys.readouterr()
    # the fuzzer reaches success and usage errors alike
    assert {0, 2} <= seen


# Device-file values for the pseudospin-map contract: ordinary numbers, the
# ends of the float range, signed zeros, JSON's non-finite tokens, integers
# near 2**53 and values of the wrong type, as JSON tokens
DEVICE_TOKENS = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from([
        "1e308", "-1e308", "1.7e308", "1e-300", "5e-324", "-5e-324", "0.0", "-0.0",
        "NaN", "Infinity", "-Infinity", str(2**53), str(2**53 + 1), str(-(2**53) - 1),
        '"0.05"', "true", "null", "[]",
    ]),
)
DEVICE_KEYS = [(section, key) for section, fields in EXAMPLE_CONFIG.items() for key in fields]


def readme_non_finite_fields():
    """The pseudospin-map fields that the README's exit-code paragraph names
    as printing non-finite values on exit 0."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = text.split("\nExit codes:")[1].split("\n\n")[0]
    printed = {f.name for f in dataclasses.fields(xxzswap.dots.EffectiveParams)}
    printed |= set(cli.FEASIBILITY_FIELDS) | {"tau"}
    return printed & set(re.findall(r"`(\w+)`", paragraph))


NON_FINITE_ON_EXIT_0 = readme_non_finite_fields()


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(
    st.dictionaries(st.sampled_from(DEVICE_KEYS), DEVICE_TOKENS, max_size=4),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
def test_pseudospin_map_keeps_its_exit_contract(tmp_path_factory, tokens, m, n):
    sections = []
    for section, fields in EXAMPLE_CONFIG.items():
        members = (
            f'"{key}": {tokens.get((section, key), repr(value))}' for key, value in fields.items()
        )
        sections.append(f'"{section}": {{{", ".join(members)}}}')
    path = tmp_path_factory.getbasetemp() / "property-device.json"
    path.write_text("{" + ", ".join(sections) + "}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["pseudospin-map", "--config", str(path), "--m", str(m), "--n", str(n)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 4)
    if code:
        # a rejected device prints nothing, and one error line
        lines = err.splitlines()
        assert out == ""
        assert lines[-1].startswith("error: ")
        assert sum(line.startswith("error:") for line in lines) == 1
        return
    assert err == ""
    non_finite = []
    for line in out.splitlines():
        if line.startswith("failure: "):
            continue
        name, value = line.split(" = ")
        if value not in ("true", "false") and not math.isfinite(float(value)):
            non_finite.append(name)
    assert set(non_finite) <= NON_FINITE_ON_EXIT_0
    if non_finite:
        assert parse_fields(out)["feasible"] == "false"
