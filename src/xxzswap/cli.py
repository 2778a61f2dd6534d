"""Command-line interface.

Subcommands: ``swap-solve`` (solve and verify one integer pair),
``delta-scan`` (tabulate solved anisotropies over integer ranges),
``fidelity-sweep`` (tied-axes Gaussian fidelity surface), ``pseudospin-map``
(device JSON to effective exchange parameters), and ``verify-dynamics``
(randomized closed-form vs oracle cross-checks).

Exit codes: 0 success, 2 usage or validation failure, 3 numerical
verification failure, 4 physical singularity. All numbers print with 12
significant digits, except in the ``failure:`` lines of ``pseudospin-map``,
which ``map_to_swap`` formats with 6. Every draw is seeded, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from enum import Enum
from types import SimpleNamespace

import numpy as np

from .dots import FEASIBILITY_TOLERANCE, CouplingSpec, DotSpec, effective_params, map_to_swap
from .dynamics import _exponentials, _propagators, _reduced_determinants
from .errors import SingularityError, ValidationError, check_integer, check_real
from .fidelity import DEFAULT_SAMPLES, FidelityGridRow, fidelity_grid
from .seeding import DEFAULT_SEED, check_seed, stream
from .states import _determinants, _partial_trace, _product
from .swaps import (
    VERIFY_TOLERANCE,
    ScanRow,
    SwapPlan,
    _random_qubits,
    delta_feasibility_scan,
    verify_swap,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_SINGULAR = 4

#: Environment variable overriding the built-in default seed.
SEED_ENV_VAR = "XXZSWAP_SEED"

REPORT_FIELDS = (
    "trace_overlap", "global_phase", "max_entry_deviation", "min_state_fidelity",
    "max_reduced_impurity", "passed",
)
FEASIBILITY_FIELDS = (
    "m", "n", "feasible", "required_delta", "delta_residual", "zeeman_phase_residual",
)

ORACLE_THRESHOLD = 1e-10
#: verify-dynamics draws and checks its cases in blocks of this many.
VERIFY_BLOCK = 4096


def _fmt(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_table(rows, row_type, fmt: str, path: str | None) -> None:
    # the header comes from the row type, so an empty table still has one
    columns = [f.name for f in dataclasses.fields(row_type)]
    table = [[getattr(row, c) for c in columns] for row in rows]
    if fmt == "csv":
        lines = [",".join(columns), *(",".join(map(_fmt, values)) for values in table)]
        text = "\n".join(lines) + "\n"
    else:
        # floats keep the CSV's digits, so the two formats parse back to identical numbers
        payload = [
            {c: float(_fmt(v)) if isinstance(v, float) else v for c, v in zip(columns, values)}
            for values in table
        ]
        text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output {path!r}: {exc}") from None


def _print_fields(obj, names) -> None:
    for name in names:
        print(f"{name} = {_fmt(getattr(obj, name))}")


def _resolve_seed(seed) -> int:
    """The ``--seed`` value, else ``XXZSWAP_SEED``, else the default."""
    source = "--seed"
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return DEFAULT_SEED
        try:
            seed, source = int(raw), SEED_ENV_VAR
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    return check_seed(seed, source)


def cmd_swap_solve(args) -> int:
    plan = SwapPlan(args.m, args.n, args.tau)
    report = verify_swap(plan, tolerance=args.tolerance, seed=args.seed)
    _print_fields(plan, ("m", "n", "tau"))
    _print_fields(plan.params, ("J", "Delta", "Gamma"))
    _print_fields(plan, ("kind", "delta_at_least_one"))
    _print_fields(report, REPORT_FIELDS)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_delta_scan(args) -> int:
    rows = delta_feasibility_scan(
        range(args.m_min, args.m_max + 1), range(args.n_min, args.n_max + 1), tau=args.tau
    )
    _write_table(rows, ScanRow, args.format, args.output)
    return EXIT_OK


def cmd_fidelity_sweep(args) -> int:
    points = check_integer(args.points, "--points", "positive")
    # checked before linspace, which warns on a non-finite end
    xz = np.linspace(0.0, check_real(args.max_xz, "--max-xz"), points)
    h = np.linspace(0.0, check_real(args.max_h, "--max-h"), points)
    rows = fidelity_grid(xz, h, samples=args.samples, seed=args.seed)
    _write_table(rows, FidelityGridRow, args.format, args.output)
    return EXIT_OK


def _json_object(value, keys, where: str) -> list:
    """The members of ``value``, a JSON object with exactly the ``keys``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected an object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValidationError(f"{where}.{key}: unknown key (expected one of {keys})")
    for key in keys:
        if key not in value:
            raise ValidationError(f"{where}.{key}: missing required key")
    return [value[key] for key in keys]


def _build_from_config(cls, mapping, where: str):
    names = [f.name for f in dataclasses.fields(cls)]
    members = zip(names, _json_object(mapping, names, where))
    values = [check_real(value, f"{where}.{name}") for name, value in members]
    try:
        return cls(*values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _load_device_config(path: str):
    try:
        with open(path) as fh:
            # every field is a float: an integer too large for one reads as inf
            data = json.load(fh, parse_int=float)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad bytes, long integers, deep nesting
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from None
    keys = ["dot_i", "dot_j", "coupling"]
    sections = zip((DotSpec, DotSpec, CouplingSpec), _json_object(data, keys, "config"), keys)
    return tuple(_build_from_config(*section) for section in sections)


def cmd_pseudospin_map(args) -> int:
    if (args.m is None) != (args.n is None):
        raise ValidationError("--m and --n must be given together")
    dot_i, dot_j, coupling = _load_device_config(args.config)
    effective = effective_params(dot_i, dot_j, coupling)
    # map before printing anything, so a rejected input leaves no partial output
    result = None
    if args.m is not None:
        result = map_to_swap(effective, args.m, args.n, tolerance=args.tolerance)
    _print_fields(effective, [f.name for f in dataclasses.fields(effective)])
    if result is None:
        return EXIT_OK
    _print_fields(result, FEASIBILITY_FIELDS)
    print(f"tau = {_fmt(result.tau if result.tau is not None else math.nan)}")
    for failure in result.failures:
        print(f"failure: {failure}")
    return EXIT_OK


def _propagator_deviations(rng: np.random.Generator, count: int) -> np.ndarray:
    # per case J, Delta, Gamma in [-3, 3) and t in [1e-3, 5)
    J, Delta, Gamma, t = rng.uniform((-3.0, -3.0, -3.0, 1e-3), (3.0, 3.0, 3.0, 5.0), (count, 4)).T
    closed = _propagators(J * t, J * Delta * t, Gamma * t)
    return np.abs(closed - _exponentials(J, Delta, Gamma, t))


def _determinant_deviations(rng: np.random.Generator, count: int) -> np.ndarray:
    # the partial trace of each evolved product state against the closed form
    qubits = _random_qubits(rng, 2 * count).reshape(count, 2, 2)
    alpha, beta = qubits[:, 0], qubits[:, 1]
    phi_x, phi_z, phi_h = rng.uniform(-10.0, 10.0, (count, 3)).T
    evolved = (_propagators(phi_x, phi_z, phi_h) @ _product(alpha, beta)[..., None])[..., 0]
    direct = _determinants(_partial_trace(evolved, 0))
    return np.abs(direct - _reduced_determinants(alpha, beta, phi_x, phi_z))


def _worst(deviations, rng: np.random.Generator, cases: int) -> float:
    # block by block, so that memory does not grow with the case count
    blocks = (min(VERIFY_BLOCK, cases - start) for start in range(0, cases, VERIFY_BLOCK))
    return max(float(np.max(deviations(rng, count))) for count in blocks)


def cmd_verify_dynamics(args) -> int:
    cases = check_integer(args.cases, "--cases", "positive")
    rng = stream(args.seed, 0)
    # every propagator case is drawn before the first determinant case
    propagator_cases, determinant_cases = cases, 2 * cases
    worst_propagator = _worst(_propagator_deviations, rng, propagator_cases)
    worst_determinant = _worst(_determinant_deviations, rng, determinant_cases)

    passed = worst_propagator < ORACLE_THRESHOLD and worst_determinant < ORACLE_THRESHOLD
    summary = SimpleNamespace(
        propagator_cases=propagator_cases,
        propagator_max_deviation=worst_propagator,
        determinant_cases=determinant_cases,
        determinant_max_deviation=worst_determinant,
        threshold=ORACLE_THRESHOLD,
        passed=passed,
    )
    _print_fields(summary, vars(summary))
    return EXIT_OK if passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxzswap",
        description=(
            "Design and verify exact swap gates in the two-qubit anisotropic "
            "Heisenberg exchange model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p, note=""):
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"random seed (default {DEFAULT_SEED}, or ${SEED_ENV_VAR} when set){note}",
        )

    p = sub.add_parser("swap-solve", help="solve and verify one (m, n, tau) schedule")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, required=True, help="schedule duration")
    p.add_argument("--tolerance", type=float, default=VERIFY_TOLERANCE)
    add_seed(p)

    p = sub.add_parser("delta-scan", help="solve and tabulate integer pairs over given ranges")
    p.add_argument("--m-min", type=int, default=-3)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--n-min", type=int, default=-3)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    add_seed(p, "; the scan draws nothing, so the seed does not change the table")

    p = sub.add_parser(
        "fidelity-sweep",
        help="tied-axes Gaussian-averaged fidelity surface (lambda_x = lambda_z)",
    )
    p.add_argument("--max-xz", type=float, default=5.0, help="largest lambda_x = lambda_z")
    p.add_argument("--max-h", type=float, default=5.0, help="largest lambda_h")
    p.add_argument("--points", type=int, default=6, help="grid points per axis")
    p.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES, help="Monte Carlo samples per point"
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    add_seed(p)

    p = sub.add_parser(
        "pseudospin-map",
        help="map a device-description JSON onto effective exchange parameters",
    )
    p.add_argument("--config", required=True, help="JSON with dot_i, dot_j, coupling")
    p.add_argument("--m", type=int, default=None, help="check feasibility of this swap index")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=FEASIBILITY_TOLERANCE)

    p = sub.add_parser(
        "verify-dynamics",
        help="randomized cross-checks of the closed forms against dense oracles",
    )
    p.add_argument("--cases", type=int, default=500, help="propagator cases (determinant uses 2x)")
    add_seed(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # by name at call time: the parser is built once, but a cmd_* function
    # rebound later (by a tracer, say) must still be the one called
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if "seed" in vars(args):  # before the handler, so a bad seed is reported first
            args.seed = _resolve_seed(args.seed)
        return handler(args)
    # a size too large to allocate is a usage error too
    except (ValidationError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
