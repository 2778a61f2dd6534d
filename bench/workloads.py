"""Workload inputs, made from the workload seed alone.

Only the standard library is used here, so the checking process and the
workload process derive the same inputs from the same seed without sharing
anything else. Every job of a workload does the same work: the sizes below
are fixed and only the values drawn from the seed change.

- ``sweep``: one ``fidelity-sweep`` over a P x P tied-axes grid. The sample
  count spans several 65536-sample chunks and ends in a partial chunk.
- ``crosscheck``: one cycle of four parts of comparable length: a
  ``delta-scan`` over the square box [-B, B]^2 of integer pairs, one
  ``verify-dynamics``, two ``state_ensemble_fidelity`` library calls (one per
  measure) at a phase triple that is not a swap point, and one
  ``pseudospin-map --m --n`` call per seeded device file. The box stays far
  below |m|, |n| ~ 1308, where the solver's absolute phase tolerance starts
  rejecting its own exact solutions.

A workload made of the delta-scan alone was measured and dropped: its pure
Python verification loop slows by up to 2x with the host's load, and its
median job time spread by 21% and 28% (quartile distance over median, ten
seeds) in two sets of runs, above any bound the benchmark can use.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "crosscheck")
SIZES = ("full", "tiny")

#: Grid points per axis and Monte Carlo samples per grid point.
SWEEP_SIZE = {"full": (5, 300_000), "tiny": (3, 70_000)}
#: Half-width B of the scan box [-B, B]^2, verify-dynamics cases, ensemble
#: samples per measure, device files.
CROSS_SIZE = {"full": (4, 1000, 450_000, 200), "tiny": (2, 5, 70_000, 8)}
#: Every FEASIBLE_EVERY-th device is built to admit the (1, 0) swap.
FEASIBLE_EVERY = 8

ENSEMBLE_MEASURES = ("haar_product", "uniform_angles")
#: Odd |m - n| pairs given to pseudospin-map.
SWAP_PAIRS = ((1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (2, -1))


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds go through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _cli_seed(rng: random.Random) -> int:
    # a valid Philox key for any workload seed, negative ones included
    return rng.getrandbits(63)


def sweep_inputs(seed: int, size: str = "full") -> dict:
    rng = _rng("sweep", seed)
    points, samples = SWEEP_SIZE[size]
    max_xz = round(rng.uniform(1.0, 3.0), 4)
    max_h = round(rng.uniform(1.0, 3.0), 4)
    cli_seed = _cli_seed(rng)
    argv = [
        "fidelity-sweep",
        "--max-xz", repr(max_xz), "--max-h", repr(max_h),
        "--points", str(points), "--samples", str(samples),
        "--seed", str(cli_seed),
    ]
    return {
        "points": points, "samples": samples, "max_xz": max_xz, "max_h": max_h,
        "cli_seed": cli_seed, "argv": argv, "work": points * points * samples,
    }


def _device(rng: random.Random, feasible: bool) -> dict:
    """One device config. Random devices keep both dots' transition
    frequencies equal and the mixing below 0.3, so the mapper raises no
    warning; feasible ones have zeeman_z = 0 and t11 = t12 = 0, which give
    Delta~ = 1 and omega~ = 0, the (1, 0) swap."""
    w0 = rng.uniform(0.8, 1.2)
    zeeman = 0.0 if feasible else rng.uniform(0.05, 0.2)
    grad = rng.uniform(0.02, 0.15)
    dot_i = {"hbar_omega0": w0, "zeeman_z": zeeman, "gradient_coupling": grad,
             "g_times_b": rng.uniform(0.02, 0.1)}
    dot_j = dict(dot_i, g_times_b=rng.uniform(0.02, 0.1))
    t00 = rng.uniform(0.02, 0.1)
    if feasible:
        coupling = {"U": rng.uniform(3.0, 5.0), "V": rng.uniform(0.2, 1.5),
                    "t00": t00, "t11": 0.0, "t12": 0.0}
        m, n = 1, 0
    else:
        coupling = {"U": rng.uniform(3.0, 5.0), "V": rng.uniform(0.2, 1.5),
                    "t00": rng.choice((-1.0, 1.0)) * t00,
                    "t11": rng.uniform(0.01, 0.1), "t12": rng.uniform(0.0, 0.05)}
        m, n = rng.choice(SWAP_PAIRS)
    return {"config": {"dot_i": dot_i, "dot_j": dot_j, "coupling": coupling},
            "m": m, "n": n, "feasible": feasible}


def crosscheck_inputs(seed: int, size: str = "full") -> dict:
    rng = _rng("crosscheck", seed)
    box, cases, samples, n_devices = CROSS_SIZE[size]
    cli_seed = _cli_seed(rng)
    tau = round(rng.uniform(0.5, 2.0), 6)
    # phi_x stays inside (0, pi), so the triple is never a swap point
    phases = (rng.uniform(0.3, 2.8), rng.uniform(-6.0, 6.0), rng.uniform(-3.0, 3.0))
    ensemble_seed = _cli_seed(rng)
    devices = [_device(rng, k % FEASIBLE_EVERY == 0) for k in range(n_devices)]
    return {
        "scan": {"box": box, "tau": tau},
        "scan_argv": [
            "delta-scan",
            "--m-min", str(-box), "--m-max", str(box),
            "--n-min", str(-box), "--n-max", str(box),
            "--tau", repr(tau), "--seed", str(cli_seed),
        ],
        "cases": cases,
        "verify_argv": ["verify-dynamics", "--cases", str(cases), "--seed", str(cli_seed)],
        "phases": phases,
        "ensemble_samples": samples,
        "ensemble_seed": ensemble_seed,
        "devices": devices,
        "work": 1,
    }


def pseudospin_argv(config_path: str, device: dict) -> list[str]:
    return ["pseudospin-map", "--config", config_path,
            "--m", str(device["m"]), "--n", str(device["n"])]


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    maker = {"sweep": sweep_inputs, "crosscheck": crosscheck_inputs}
    return maker[workload](seed, size)

