"""Tests of the benchmark itself: tiny runs of every workload complete with
no failures, and every output check rejects a corrupted output.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Jobs  # noqa: E402

SEED = 7


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One genuine tiny-size output per workload, with its inputs."""
    workdir = str(tmp_path_factory.mktemp("devices"))
    result = {}
    for workload in workloads.WORKLOADS:
        jobs = Jobs(workload, SEED, "tiny", workdir)
        ok, text = jobs.run()
        assert ok
        result[workload] = (jobs.inputs, text)
    return result


def _replace_line(text, index, edit):
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def _set_csv_field(text, row, column, value):
    def edit(line):
        fields = line.split(",")
        fields[column] = value(fields[column])
        return ",".join(fields)

    return _replace_line(text, row, edit)


def _set_field(text, key, value, occurrence=0):
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.startswith(f"{key} = ")]
    i = hits[occurrence]
    lines[i] = f"{key} = {value(lines[i].split(' = ', 1)[1])}"
    return "\n".join(lines)


# -- whole runs ---------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_has_no_failures(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in _spec()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert '"OPENBLAS_NUM_THREADS": "1"' in proc.stdout


def test_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "crosscheck", "--seed", "3", "--seconds", "1",
                  "--size", "tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in _spec()["per_layer"]]
    assert metrics["trace.overhead"] > 0
    box, cases, _, devices = workloads.CROSS_SIZE["tiny"]
    assert metrics["swaps.verify_swap.calls"] == (2 * box + 1) ** 2 - (2 * box + 1)
    assert metrics["dynamics.dense_exponential_oracle.calls"] == cases
    assert metrics["dots.map_to_swap.calls"] == devices
    assert metrics["dots.warnings"] == 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    os.makedirs(tmp_path / "bench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name)) as src, open(tmp_path / "bench" / name, "w") as dst:
                dst.write(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        (tmp_path / "BENCHMARK.json").write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_job_whose_output_differs_from_the_first_fails():
    jobs = [{"ok": True, "digest": "a"}, {"ok": True, "digest": "a"}, {"ok": True, "digest": "b"}]
    assert run.count_failed(jobs, []) == 1
    assert run.count_failed(jobs, ["wrong"]) == 3
    assert run.count_failed([{"ok": False, "digest": "a"}], []) == 1


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)
        assert workloads.make_inputs(workload, 5) != workloads.make_inputs(workload, 6)
    cross = workloads.make_inputs("crosscheck", 5)
    assert 0 < cross["phases"][0] < math.pi  # never a swap point
    assert any(d["feasible"] for d in cross["devices"])


# -- checks accept genuine output ---------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_genuine_output_passes(outputs, workload):
    inputs, text = outputs[workload]
    assert checks.CHECKS[workload](inputs, text) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_empty_output_fails(outputs, workload):
    inputs, _ = outputs[workload]
    assert checks.CHECKS[workload](inputs, "")


# -- checks reject corrupted output -------------------------------------


SCAN_CORRUPTIONS = {
    "dropped row": lambda t: "\n".join(t.split("\n")[:3] + t.split("\n")[4:]),
    "duplicated row": lambda t: t + t.split("\n")[1] + "\n",
    "rows out of order": lambda t: "\n".join(
        [t.split("\n")[0], t.split("\n")[2], t.split("\n")[1]] + t.split("\n")[3:]),
    "wrong delta": lambda t: _set_csv_field(t, 5, 2, lambda v: repr(float(v) + 1e-6)),
    "flipped kind": lambda t: _set_csv_field(
        t, 1, 3, lambda v: "swap" if v == "return_to_self" else "return_to_self"),
    "low trace overlap": lambda t: _set_csv_field(t, 2, 4, lambda v: "0.999"),
    "wrong global phase, last row": lambda t: _set_csv_field(
        t, -2, 5, lambda v: repr(float(v) + 1e-6)),
    "global phase off by pi": lambda t: _set_csv_field(
        t, 3, 5, lambda v: repr(float(v) + math.pi)),
}


@pytest.mark.parametrize("name", SCAN_CORRUPTIONS)
def test_scan_check_rejects(outputs, name):
    inputs, text = outputs["crosscheck"]
    section = checks._sections(text)["delta-scan"]
    corrupted = SCAN_CORRUPTIONS[name](section)
    assert corrupted != section
    assert checks.check_scan(inputs["scan"], corrupted)
    assert checks.check_crosscheck(inputs, text.replace(section, corrupted, 1))


def _move_f_mc(text, row, stderrs):
    fields = text.split("\n")[row].split(",")
    shift = stderrs * float(fields[5])
    return _set_csv_field(text, row, 4, lambda v: repr(float(v) + shift))


SWEEP_CORRUPTIONS = {
    "f_mc moved by 10 stderr": lambda t: _move_f_mc(t, 5, 10.0),
    "f_mc at the noiseless point": lambda t: _set_csv_field(t, 1, 4, lambda v: "0.999"),
    "stderr inflated 10x": lambda t: _set_csv_field(t, 6, 5, lambda v: repr(10 * float(v))),
    "stderr zero": lambda t: _set_csv_field(t, 6, 5, lambda v: "0"),
    "wrong f_analytic": lambda t: _set_csv_field(t, 4, 3, lambda v: repr(float(v) + 1e-7)),
    "wrong samples": lambda t: _set_csv_field(t, 3, 6, lambda v: str(int(v) - 1)),
    "wrong seed": lambda t: _set_csv_field(t, 3, 7, lambda v: str(int(v) + 1)),
    "wrong lambda_h": lambda t: _set_csv_field(t, 2, 2, lambda v: repr(float(v) * 1.01)),
    "dropped row": lambda t: "\n".join(t.split("\n")[:-2]) + "\n",
}


@pytest.mark.parametrize("name", SWEEP_CORRUPTIONS)
def test_sweep_check_rejects(outputs, name):
    inputs, text = outputs["sweep"]
    corrupted = SWEEP_CORRUPTIONS[name](text)
    assert corrupted != text
    assert checks.check_sweep(inputs, corrupted)


def _move_mean(text, occurrence, stderrs):
    lines = text.split("\n")
    errs = [float(line.split(" = ")[1]) for line in lines if line.startswith("std_error = ")]
    return _set_field(text, "mean", lambda v: repr(float(v) + stderrs * errs[occurrence]),
                      occurrence)


def _flip_feasible(text):
    return _set_field(text, "feasible", lambda v: "false")  # device 0 is built feasible


CROSS_CORRUPTIONS = {
    "wrong j_eff": lambda t: _set_field(t, "j_eff", lambda v: repr(float(v) * (1 + 1e-6)), 1),
    "wrong tau": lambda t: _set_field(t, "tau", lambda v: repr(float(v) * 1.001)),
    "wrong omega_tilde": lambda t: _set_field(t, "omega_tilde", lambda v: "0.5", 3),
    "flipped feasible": _flip_feasible,
    "dropped failure line": lambda t: t.replace("failure: anisotropy", "note: anisotropy", 1),
    "passed with zero cases": lambda t: _set_field(
        _set_field(t, "propagator_cases", lambda v: "0"), "determinant_cases", lambda v: "0"),
    "failed verify-dynamics": lambda t: _set_field(t, "passed", lambda v: "false"),
    "large oracle deviation": lambda t: _set_field(
        t, "propagator_max_deviation", lambda v: "1e-06"),
    "haar mean moved by 10 stderr": lambda t: _move_mean(t, 0, 10.0),
    "uniform-angle mean moved by 10 stderr": lambda t: _move_mean(t, 1, -10.0),
    "ensemble stderr inflated": lambda t: _set_field(
        t, "std_error", lambda v: repr(20 * float(v)), 1),
    "ensemble samples": lambda t: _set_field(t, "samples", lambda v: str(int(v) + 1)),
    "dropped device": lambda t: t[: t.rindex("## pseudospin-map")],
}


@pytest.mark.parametrize("name", CROSS_CORRUPTIONS)
def test_crosscheck_check_rejects(outputs, name):
    inputs, text = outputs["crosscheck"]
    corrupted = CROSS_CORRUPTIONS[name](text)
    assert corrupted != text
    assert checks.check_crosscheck(inputs, corrupted)


# -- the references themselves --------------------------------------------


def test_quadrature_references_hit_known_values():
    # closed form of the Gaussian average at lambda = (1, 1, 0), and the
    # Haar-product ensemble average 1/3 at the identity
    mean, var = checks.gaussian_fidelity_moments(1.0, 1.0, 0.0)
    exact = 7 / 15 + (4 / 15) * (math.exp(-0.5) + math.exp(-2 / 8))
    assert abs(mean - exact) < 1e-13 and var > 0
    assert abs(checks.ensemble_moments((1e-12, 0.0, 0.0), "haar_product")[0] - 1 / 3) < 1e-9


def test_feasible_devices_map_to_the_one_zero_swap():
    for device in workloads.make_inputs("crosscheck", SEED)["devices"]:
        if device["feasible"]:
            values, failures = checks.expected_pseudospin(device)
            assert failures == [] and values["delta_tilde"] == 1.0
            assert values["omega_tilde"] == 0.0


# -- tracing ------------------------------------------------------------


def test_tracer_sees_calls_through_every_namespace(tmp_path):
    import xxzswap.dynamics
    import xxzswap.swaps

    jobs = Jobs("crosscheck", SEED, "tiny", str(tmp_path))
    box = jobs.inputs["scan"]["box"]
    plans = (2 * box + 1) ** 2 - (2 * box + 1)
    original = xxzswap.dynamics.propagate
    tracer = Tracer()
    tracer.install()
    try:
        assert xxzswap.swaps.propagate is not original
        jobs.tracer = tracer
        code, _ = jobs._cli(jobs.inputs["scan_argv"])
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert xxzswap.swaps.propagate is original
    assert code == 0
    assert metrics["cli.main.calls"] == 1
    assert metrics["swaps.verify_swap.calls"] == plans
    assert metrics["swaps.states_checked"] == 50 * plans
    assert metrics["dynamics.propagate.calls"] == 50 * plans
    assert metrics["seeding.stream.calls"] == plans
    assert metrics["seeding.stream.useful_ratio"] == 1 / plans
    assert metrics["seeding.draw.calls"] == 4 * 50 * plans
    assert 0 < metrics["swaps.verify_swap.self_s"] < metrics["swaps.verify_swap.time_s"]
    assert metrics["cli.stdout_bytes"] > 0
