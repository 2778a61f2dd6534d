"""Checks of the program's outputs, against computations made apart from it.

Nothing here imports ``xxzswap``. Propagators come from ``scipy.linalg.expm``
of a Hamiltonian built from this file's own spin matrices; averages come
from Gauss quadrature; the pseudospin formulas are written out again. No
check compares against a stored copy of an earlier output.

Each ``check_*`` function takes the workload's inputs and one job's output
and returns a list of problems, empty when the output passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

import workloads

_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
_SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

SCAN_COLUMNS = ["m", "n", "delta", "kind", "trace_overlap", "global_phase"]
GRID_COLUMNS = ["lambda_x", "lambda_z", "lambda_h", "f_analytic", "f_mc", "f_mc_stderr",
                "samples", "seed"]
PSEUDOSPIN_FIELDS = (
    "c_plus_i", "c_minus_i", "c_plus_j", "c_minus_j", "omega_i", "omega_j", "omega",
    "t_plus", "t_minus", "f_plus", "f_minus", "f", "j_eff", "delta_tilde", "omega_tilde",
    "m", "n", "feasible", "required_delta", "delta_residual", "zeeman_phase_residual", "tau",
)
#: Mean phases of the swept fluctuations: the (m, n) = (2, 1) swap point.
SWAP_POINT = (math.pi, 3.0 * math.pi, math.pi)
#: An estimate may sit this many standard errors from the quadrature value.
Z_LIMIT = 5.0
#: Allowed relative error of a reported standard error against quadrature.
STDERR_RTOL = 0.05
ORACLE_THRESHOLD = 1e-10


def hamiltonian(J: float, delta: float, gamma: float) -> np.ndarray:
    return J * (np.kron(_SX, _SX) + np.kron(_SY, _SY) + delta * np.kron(_SZ, _SZ)) + gamma * (
        np.kron(_SZ, _I2) + np.kron(_I2, _SZ)
    )


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _csv(text: str, columns: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != columns:
        raise ValueError(f"header is not {','.join(columns)}")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row {row} does not have {len(columns)} fields")
    return rows


def _fields(text: str) -> tuple[dict[str, str], list[str]]:
    fields, failures = {}, []
    for line in text.splitlines():
        if line.startswith("failure: "):
            failures.append(line[len("failure: "):])
        elif " = " in line:
            key, value = line.split(" = ", 1)
            fields[key] = value
    return fields, failures


# -- crosscheck: delta-scan ---------------------------------------------


def check_scan(inputs: dict, text: str) -> list[str]:
    """``inputs`` holds ``box`` and ``tau``. Every pair of the box with m != n once, sorted by (delta, m, n);
    delta and kind by their definitions; trace overlap and global phase
    against expm(-i H tau) compared with SWAP (odd |m - n|) or identity."""
    try:
        rows = _csv(text, SCAN_COLUMNS)
        pairs = [(int(r[0]), int(r[1])) for r in rows]
        values = [(float(r[2]), r[3], float(r[4]), float(r[5])) for r in rows]
    except ValueError as exc:
        return [f"scan output unreadable: {exc}"]
    box, tau = inputs["box"], inputs["tau"]
    expected = {(m, n) for m in range(-box, box + 1) for n in range(-box, box + 1) if m != n}
    if len(pairs) != len(set(pairs)) or set(pairs) != expected:
        return [f"scan rows are not each pair of [-{box}, {box}]^2 with m != n exactly once"]
    problems = []
    order = sorted(pairs, key=lambda p: (Fraction(p[0] + p[1], p[0] - p[1]), p[0], p[1]))
    if pairs != order:
        problems.append("scan rows are not sorted by (delta, m, n)")
    for (m, n), (delta, kind, overlap, phase) in zip(pairs, values):
        exact = (m + n) / (m - n)
        if not _close(delta, exact, 1e-11, 1e-11):
            problems.append(f"({m}, {n}): delta {delta} != (m+n)/(m-n) = {exact}")
        odd = (m - n) % 2 == 1
        if kind != ("swap" if odd else "return_to_self"):
            problems.append(f"({m}, {n}): kind {kind} but |m - n| is {'odd' if odd else 'even'}")
        if not 1.0 - 1e-10 <= overlap <= 1.0 + 1e-12:
            problems.append(f"({m}, {n}): trace_overlap {overlap} below 1 - 1e-10")
        U = expm(-1j * tau * hamiltonian((m - n) * math.pi / tau, exact, n * math.pi / tau))
        tr = np.trace((SWAP if odd else np.eye(4)).conj().T @ U)
        if abs(overlap - abs(tr) / 4) > 1e-9:
            problems.append(f"({m}, {n}): trace_overlap {overlap} vs expm {abs(tr) / 4}")
        gap = (phase - np.angle(tr) + math.pi) % (2 * math.pi) - math.pi
        if abs(gap) > 1e-8:
            problems.append(f"({m}, {n}): global_phase {phase} vs expm {np.angle(tr)}")
    return problems


# -- sweep --------------------------------------------------------------


def _pointwise_fidelity(px, pz, ph):
    s = np.sin(0.5 * px)
    return 0.2 + (8 / 15) * s * s + (4 / 15) * s * np.sin(0.5 * pz + ph)


def gaussian_fidelity_moments(lam_x, lam_z, lam_h, nodes=48) -> tuple[float, float]:
    """Mean and variance of the pointwise fidelity under independent
    Gaussian phases about the swap point, by Gauss-Hermite quadrature."""
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2 * math.pi)
    zx, zz, zh = np.meshgrid(z, z, z, indexing="ij", sparse=True)
    weight = w[:, None, None] * w[None, :, None] * w[None, None, :]
    f = _pointwise_fidelity(
        SWAP_POINT[0] + lam_x * zx, SWAP_POINT[1] + lam_z * zz, SWAP_POINT[2] + lam_h * zh
    )
    mean = float(np.sum(weight * f))
    return mean, float(np.sum(weight * f * f)) - mean * mean


def check_sweep(inputs: dict, text: str) -> list[str]:
    """The grid echoes its inputs; f_analytic matches quadrature; f_mc lies
    within Z_LIMIT standard errors of it; the standard error matches the
    quadrature variance (it is exactly 0 only where no phase fluctuates)."""
    try:
        rows = [[float(v) for v in r[:6]] + [int(r[6]), int(r[7])]
                for r in _csv(text, GRID_COLUMNS)]
    except ValueError as exc:
        return [f"sweep output unreadable: {exc}"]
    points, samples = inputs["points"], inputs["samples"]
    grid = [(x, h) for x in np.linspace(0.0, inputs["max_xz"], points)
            for h in np.linspace(0.0, inputs["max_h"], points)]
    if len(rows) != len(grid):
        return [f"sweep has {len(rows)} rows, expected {len(grid)}"]
    problems = []
    for (lx, lz, lh, f_an, f_mc, err, n, seed), (x, h) in zip(rows, grid):
        where = f"point ({x:.6g}, {h:.6g})"
        if not (_close(lx, x, 1e-11) and _close(lz, x, 1e-11) and _close(lh, h, 1e-11)):
            problems.append(f"{where}: lambdas ({lx}, {lz}, {lh}) do not echo the grid")
        if n != samples or seed != inputs["cli_seed"]:
            problems.append(f"{where}: samples/seed columns ({n}, {seed}) do not echo the inputs")
        mean, var = gaussian_fidelity_moments(x, x, h)
        if abs(f_an - mean) > 1e-10:
            problems.append(f"{where}: f_analytic {f_an} vs quadrature {mean}")
        if x == 0.0 and h == 0.0:
            if f_mc != 1.0 or err != 0.0:
                problems.append(f"{where}: no fluctuation, yet f_mc {f_mc} +- {err}")
            continue
        expected_err = math.sqrt(var / samples)
        if not err > 0.0 or abs(err - expected_err) > STDERR_RTOL * expected_err:
            problems.append(f"{where}: f_mc_stderr {err} vs quadrature {expected_err}")
        elif abs(f_mc - mean) > Z_LIMIT * err:
            problems.append(f"{where}: f_mc {f_mc} is {abs(f_mc - mean) / err:.1f} stderr off")
    return problems


# -- crosscheck ---------------------------------------------------------


def _sections(text: str) -> dict[str, str]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("## "):
            current = line[3:]
            if current in sections:
                raise ValueError(f"section {current!r} repeats")
            sections[current] = []
        elif current is None:
            raise ValueError("output before the first section")
        else:
            sections[current].append(line)
    return {k: "\n".join(v) + "\n" for k, v in sections.items()}


def ensemble_moments(phases, measure: str, nodes: int = 24, azimuths: int = 12):
    """Mean and variance of |<psi| SWAP V |psi>|^2 over random product
    states, with V = expm(-i H) at unit time; Gauss-Legendre in cos(theta)
    (Haar) or theta (uniform angles), equal weights in the azimuth."""
    px, pz, ph = phases
    W = SWAP @ expm(-1j * hamiltonian(px, pz / px, ph))
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = np.arccos(x) if measure == "haar_product" else 0.5 * math.pi * (x + 1.0)
    phi = 2 * math.pi * np.arange(azimuths) / azimuths
    qubit = np.stack(
        [np.repeat(np.cos(theta / 2), azimuths),
         np.outer(np.sin(theta / 2), np.exp(1j * phi)).ravel()], axis=1)
    q_weight = np.repeat(w / 2, azimuths) / azimuths
    psi = np.einsum("ia,jb->ijab", qubit, qubit).reshape(-1, 4)
    weight = np.outer(q_weight, q_weight).ravel()
    f = np.abs(np.einsum("si,ij,sj->s", psi.conj(), W, psi)) ** 2
    mean = float(np.sum(weight * f))
    return mean, float(np.sum(weight * f * f)) - mean * mean


def expected_pseudospin(device: dict) -> tuple[dict[str, float], list[str]]:
    """The pseudospin mapping and the (m, n) feasibility test, written out
    from their defining formulas."""
    cfg = device["config"]
    c = cfg["coupling"]

    def levels(dot):
        h = -dot["gradient_coupling"] / math.sqrt(2.0)
        energy, mixing = {}, {}
        for s in (1, -1):
            denom = 2.0 * dot["zeeman_z"] * s - dot["hbar_omega0"]
            energy[s] = 0.5 * dot["hbar_omega0"] + dot["zeeman_z"] * s + h * h / denom
            mixing[s] = h / denom
        return mixing[1], mixing[-1], abs(energy[1] - energy[-1])

    cpi, cmi, wi = levels(cfg["dot_i"])
    cpj, cmj, wj = levels(cfg["dot_j"])
    w = 0.5 * (wi + wj)
    tp = c["t00"] + cpi * cpj * c["t11"]
    tm = c["t00"] + cmi * cmj * c["t11"]
    fp = (cpi + cmj) * c["t12"]
    fm = (cmi + cpj) * c["t12"]
    f = 0.5 * (fp + cfg["dot_j"]["g_times_b"] / cfg["dot_i"]["g_times_b"] * fm)
    gap = c["U"] - c["V"]
    j_eff = 4.0 * tp * tm / gap
    delta_t = (tp * tp + tm * tm) / (2.0 * tp * tm) - f * f / (tp * tm * (1.0 - w * w / gap**2))
    omega_t = w * (1.0 - 2.0 * f * f / (gap**2 - w * w))
    m, n = device["m"], device["n"]
    required = (m + n) / (m - n)
    tau = (m - n) * math.pi / j_eff
    failures = []
    if tau <= 0.0:
        failures.append("duration")
        tau = math.nan
    delta_res = abs(delta_t - required)
    if delta_res > 1e-9:
        failures.append("anisotropy mismatch")
    zeeman_res = abs(omega_t * tau - n * math.pi)
    if zeeman_res > 1e-9:  # nan, without a duration, is no failure of its own
        failures.append("Zeeman phase mismatch")
    values = dict(
        c_plus_i=cpi, c_minus_i=cmi, c_plus_j=cpj, c_minus_j=cmj, omega_i=wi, omega_j=wj,
        omega=w, t_plus=tp, t_minus=tm, f_plus=fp, f_minus=fm, f=f, j_eff=j_eff,
        delta_tilde=delta_t, omega_tilde=omega_t, m=m, n=n, feasible=float(not failures),
        required_delta=required, delta_residual=delta_res, zeeman_phase_residual=zeeman_res,
        tau=tau,
    )
    return values, failures


def _check_verify_dynamics(inputs: dict, text: str) -> list[str]:
    fields, _ = _fields(text)
    k = inputs["cases"]
    try:
        ok = (
            fields["passed"] == "true"
            and int(fields["propagator_cases"]) == k
            and int(fields["determinant_cases"]) == 2 * k
            and float(fields["threshold"]) == ORACLE_THRESHOLD
            and 0.0 <= float(fields["propagator_max_deviation"]) < ORACLE_THRESHOLD
            and 0.0 <= float(fields["determinant_max_deviation"]) < ORACLE_THRESHOLD
        )
    except (KeyError, ValueError):
        ok = False
    if ok:
        return []
    return [f"verify-dynamics does not pass {k} + {2 * k} cases below {ORACLE_THRESHOLD}: "
            f"{fields}"]


def _check_ensemble(inputs: dict, measure: str, text: str) -> list[str]:
    fields, _ = _fields(text)
    try:
        mean, err = float(fields["mean"]), float(fields["std_error"])
        samples, seed = int(fields["samples"]), int(fields["seed"])
    except (KeyError, ValueError):
        return [f"ensemble {measure}: unreadable {fields}"]
    problems = []
    if samples != inputs["ensemble_samples"] or seed != inputs["ensemble_seed"]:
        problems.append(f"ensemble {measure}: samples/seed ({samples}, {seed}) do not echo inputs")
    ref, var = ensemble_moments(inputs["phases"], measure)
    expected_err = math.sqrt(var / inputs["ensemble_samples"])
    if not err > 0.0 or abs(err - expected_err) > STDERR_RTOL * expected_err:
        problems.append(f"ensemble {measure}: std_error {err} vs quadrature {expected_err}")
    elif abs(mean - ref) > Z_LIMIT * err:
        problems.append(f"ensemble {measure}: mean {mean} is {abs(mean - ref) / err:.1f} "
                        f"stderr from quadrature {ref}")
    return problems


def _check_pseudospin(k: int, device: dict, text: str) -> list[str]:
    fields, failures = _fields(text)
    values, expected_failures = expected_pseudospin(device)
    problems = []
    for name in PSEUDOSPIN_FIELDS:
        raw = fields.get(name)
        if name == "feasible":
            got = {"true": 1.0, "false": 0.0}.get(raw)
        else:
            try:
                got = float(raw)
            except (TypeError, ValueError):
                got = None
        if got is None or not _close(got, values[name], 1e-9, 1e-13):
            problems.append(f"device {k}: {name} = {raw}, expected {values[name]!r}")
    kinds = sorted(
        next((e for e in expected_failures if f.startswith(e)), f) for f in failures
    )
    if kinds != sorted(expected_failures):
        problems.append(f"device {k}: failures {failures}, expected {expected_failures}")
    if device["feasible"] and fields.get("feasible") != "true":
        problems.append(f"device {k} is built feasible but reports feasible = "
                        f"{fields.get('feasible')}")
    return problems


def check_crosscheck(inputs: dict, text: str) -> list[str]:
    """The delta-scan passes :func:`check_scan`; verify-dynamics passes with
    the requested case counts; each ensemble mean lies within Z_LIMIT
    standard errors of quadrature; every pseudospin-map field matches the
    formulas to 1e-9 relative."""
    try:
        sections = _sections(text)
    except ValueError as exc:
        return [f"crosscheck output unreadable: {exc}"]
    names = (["delta-scan", "verify-dynamics"]
             + [f"ensemble {m}" for m in workloads.ENSEMBLE_MEASURES]
             + [f"pseudospin-map {k}" for k in range(len(inputs["devices"]))])
    if list(sections) != names:
        return [f"crosscheck sections {list(sections)[:5]}... are not the job's parts"]
    problems = check_scan(inputs["scan"], sections["delta-scan"])
    problems += _check_verify_dynamics(inputs, sections["verify-dynamics"])
    for measure in workloads.ENSEMBLE_MEASURES:
        problems += _check_ensemble(inputs, measure, sections[f"ensemble {measure}"])
    for k, device in enumerate(inputs["devices"]):
        problems += _check_pseudospin(k, device, sections[f"pseudospin-map {k}"])
    return problems


CHECKS = {"sweep": check_sweep, "crosscheck": check_crosscheck}
