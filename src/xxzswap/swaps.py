"""Swap-schedule design: solve the integer phase-matching conditions,
classify outcomes by parity, and verify solved plans against their targets.

A constant-parameter schedule of duration tau with

    J = (m - n) pi / tau,   Delta = (m + n) / (m - n),   Gamma = n pi / tau

accumulates exactly (phi_x, phi_z, phi_h) = ((m-n) pi, (m+n) pi, n pi) for
integers m != n. When |m - n| is odd the propagator equals SWAP up to the
global phase (-1)^n exp(-i phi_z / 4); when it is even each qubit returns to
its own initial state. Verification never trusts these identities: it
rebuilds the propagator and checks it numerically, entry by entry and on
random product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable

import numpy as np

from .dynamics import (
    PhaseTriple,
    PulseSchedule,
    XxzParams,
    _propagators,
    _segment_phases,
    accumulate_phases,
    propagator_matrix,
)
from .errors import ValidationError, check_integer, check_iterable, check_real, check_type
from .seeding import DEFAULT_SEED, check_seed, stream
from .states import _determinants, _expectation, _partial_trace, _product

SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

#: General schedules count as sitting on a swap point within this residual.
PHASE_MATCH_TOL = 1e-9
#: Larger phases may miss their target by this much relative to it: the
#: rounding of phases summed over hundreds of segments, far below any loss
#: of fidelity the verifier can see.
PHASE_SUM_TOL = 256 * math.ulp(1.0)
#: Default of the verifiers: the largest loss of trace overlap or of state
#: fidelity that still passes.
VERIFY_TOLERANCE = 1e-10
#: Default of the verifiers: the random product states each one checks.
VERIFY_STATES = 50


class SwapKind(str, Enum):
    SWAP = "swap"
    RETURN_TO_SELF = "return_to_self"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"kind must be one of {[k.value for k in cls]}, got {value!r}")


@dataclass(frozen=True)
class SwapPlan:
    """The constant-parameter schedule of duration tau for integers m != n,

        J = (m - n) pi / tau,   Delta = (m + n) / (m - n),   Gamma = n pi / tau.

    ``params`` and ``kind`` are derived from (m, n, tau), never passed in, so
    every plan is exact by construction; :func:`verify_swap` is its
    numerical check. Negative m, n (hence negative J or Gamma) are allowed;
    the phase conditions are sign symmetric.
    """

    m: int
    n: int
    tau: float
    params: XxzParams = field(init=False)
    kind: SwapKind = field(init=False)

    def __post_init__(self) -> None:
        kind = classify_outcome(self.m, self.n)
        m, n = int(self.m), int(self.n)
        tau = check_real(self.tau, "tau", "positive")
        params = XxzParams(*_conditions(m, n, tau))
        derived = {"m": m, "n": n, "tau": tau, "params": params, "kind": kind}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def delta_at_least_one(self) -> bool:
        """Whether |Delta| >= 1, which holds exactly when m * n >= 0."""
        return abs(self.params.Delta) >= 1.0

    def schedule(self) -> PulseSchedule:
        return PulseSchedule.constant(self.params, self.tau)


def _conditions(m, n, tau):
    """(J, Delta, Gamma) of (m, n, tau) for ints or object arrays of ints; Delta
    is the exactly rounded int quotient, with + 0.0 turning -0.0 into 0.0."""
    return (m - n) * math.pi / tau, (m + n) / (m - n) + 0.0, n * math.pi / tau


@dataclass(frozen=True)
class VerificationReport:
    """Numerical comparison of a schedule's propagator with its ideal target."""

    max_entry_deviation: float   # after optimal global-phase alignment
    trace_overlap: float         # |Tr(target^dag U)| / 4
    global_phase: float          # arg Tr(target^dag U)
    passed: bool
    min_state_fidelity: float    # worst reduced-state fidelity over samples
    max_reduced_impurity: float  # largest purity determinant seen
    states_checked: int


def classify_outcome(m: int, n: int) -> SwapKind:
    """Parity rule: odd |m - n| hands each qubit its partner's initial state,
    even |m - n| restores its own.

    The transferred |1> amplitude carries the phase pi*n + phi_h, which is
    2 pi n at the designed operating point phi_h = n pi, so no observable
    relative phase remains. This is the one check of a pair: integers, at
    most 2**53 in magnitude, with m != n.
    """
    for name, value in (("m", m), ("n", n)):
        if abs(check_integer(value, name)) > 2**53:  # floats skip integers beyond 2**53
            raise ValidationError(f"|{name}| must be at most 2**53")
    if m == n:
        raise ValidationError("m = n leaves the 01/10 block unmixed; no swap solution")
    return SwapKind.SWAP if (int(m) - int(n)) % 2 else SwapKind.RETURN_TO_SELF


def is_swap_point(phases: PhaseTriple) -> bool:
    """True when the phases lie in the swap set with odd |m - n|:
    phi_x = d pi (d odd), phi_h = k pi, phi_z = (d + 2k + 4j) pi for integers
    d, k, j. The propagator sees phi_h only modulo 2 pi and phi_z only modulo
    4 pi; the plans of :class:`SwapPlan` are the points with j = 0.

    Each residual may reach ``PHASE_MATCH_TOL``, or ``PHASE_SUM_TOL`` times
    its target where that is larger.
    """
    check_type(phases, PhaseTriple, "phases")
    d = round(phases.phi_x / math.pi)
    k = round(phases.phi_h / math.pi)
    j = round((phases.phi_z / math.pi - d - 2 * k) / 4)
    targets = (d * math.pi, (d + 2 * k + 4 * j) * math.pi, k * math.pi)
    return d % 2 != 0 and all(
        abs(p - t) <= max(PHASE_MATCH_TOL, PHASE_SUM_TOL * abs(t))
        for p, t in zip((phases.phi_x, phases.phi_z, phases.phi_h), targets)
    )


def verify_swap(
    plan: SwapPlan,
    tolerance: float = VERIFY_TOLERANCE,
    n_states: int = VERIFY_STATES,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Verify a solved plan as the schedule it is:
    ``verify_schedule(plan.schedule(), plan.kind, ...)``."""
    check_type(plan, SwapPlan, "plan")
    return verify_schedule(plan.schedule(), plan.kind, tolerance, n_states, seed)


def verify_schedule(
    schedule: PulseSchedule,
    kind: SwapKind | str,
    tolerance: float = VERIFY_TOLERANCE,
    n_states: int = VERIFY_STATES,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Verify a schedule against the swap (or identity) target ``kind``, a
    :class:`SwapKind` or its string value.

    Compares the propagator of the schedule's accumulated phases with SWAP
    (identity for return-to-self) up to a global phase, then evolves
    ``n_states`` random product states, drawn from ``stream(seed, 0)``, as
    one batch and checks that each qubit's reduced state lands on the
    expected single-qubit target with fidelity >= 1 - tolerance. A
    non-finite fidelity fails. The largest purity determinant is reported,
    not checked: det(rho) <= 1 - <chi|rho|chi> for any pure target chi, so
    the fidelity check already bounds it. Schedules that miss the phase
    conditions, detuned ones for example, simply fail, with the deviation
    quantified in the report. Failure is reported, not raised; a negative or
    non-finite tolerance raises, and so does one of 1/2 or more: a schedule
    with no exchange, or a plan checked against the opposite kind, has
    |Tr(target^dag U)| <= 2 and so a trace overlap of up to 1/2.
    """
    check_type(schedule, PulseSchedule, "schedule")
    phases = accumulate_phases(schedule, schedule.total_duration)
    kind = SwapKind(kind)
    n_states = check_integer(n_states, "n_states", "nonnegative")
    tolerance = check_real(tolerance, "tolerance", "nonnegative")
    if tolerance >= 0.5:
        raise ValidationError(f"tolerance must be below 1/2, got {tolerance!r}")
    seed = check_seed(seed)
    U = propagator_matrix(phases)
    [(trace_overlap, global_phase, max_entry_deviation)] = _compare_to_target(U[None], [kind])

    # state k is alpha_k (x) beta_k with (alpha_k, beta_k) = qubits[k]
    qubits = _random_qubits(stream(seed, 0), 2 * n_states).reshape(n_states, 2, 2)
    evolved = _product(qubits[:, 0], qubits[:, 1]) @ U.T
    rho = np.stack((_partial_trace(evolved, 0), _partial_trace(evolved, 1)), axis=1)
    # a swap hands qubit i beta and qubit j alpha
    expected = qubits[:, ::-1] if kind is SwapKind.SWAP else qubits
    # np.min/np.max propagate nan, so a non-finite state fails the check
    fidelity = _expectation(rho, expected[..., None, :]).real
    min_fidelity = float(np.min(fidelity, initial=1.0))
    max_impurity = float(np.max(_determinants(rho), initial=0.0))

    passed = trace_overlap >= 1.0 - tolerance and min_fidelity >= 1.0 - tolerance
    return VerificationReport(
        max_entry_deviation=max_entry_deviation,
        trace_overlap=trace_overlap,
        global_phase=global_phase,
        passed=passed,
        min_state_fidelity=min_fidelity,
        max_reduced_impurity=max_impurity,
        states_checked=n_states,
    )


def _compare_to_target(U: np.ndarray, kinds: list[SwapKind]) -> list[tuple[float, float, float]]:
    """(trace_overlap, global_phase, max_entry_deviation) of each propagator of
    the (N, 4, 4) stack ``U`` against SWAP (identity for return-to-self) as
    ``kinds`` says, the deviation taken after aligning the target's global phase."""
    swap = np.reshape([kind is SwapKind.SWAP for kind in kinds], (-1, 1, 1))
    target = np.where(swap, SWAP_MATRIX, np.eye(4, dtype=complex))
    traces = np.trace(np.swapaxes(target.conj(), -1, -2) @ U, axis1=-2, axis2=-1).tolist()
    # abs and atan2 per trace: numpy's stacked abs and arctan2 round differently
    phases = [math.atan2(tr.imag, tr.real) for tr in traces]
    aligned = np.exp(1j * np.array(phases))[:, None, None] * target
    deviations = np.max(np.abs(U - aligned), axis=(-2, -1)).tolist()
    return [(min(abs(tr) / 4.0, 1.0), p, d) for tr, p, d in zip(traces, phases, deviations)]


@dataclass(frozen=True)
class ScanRow:
    """One solved integer pair of the anisotropy feasibility scan."""

    m: int
    n: int
    delta: float
    kind: SwapKind
    trace_overlap: float
    global_phase: float


def delta_feasibility_scan(
    m_values: Iterable[int], n_values: Iterable[int], tau: float = 1.0
) -> list[ScanRow]:
    """Tabulate every pair (m, n) with m != n as its :class:`SwapPlan` and
    :func:`verify_swap` would, bit for bit, without building a plan.

    The scan checks that the ranges are nonempty, then every pair with
    :func:`classify_outcome` in m-major order, then ``tau``, then that each
    pair's J, Delta, Gamma and phases are finite, the first failure in m-major
    order raising as the pair's plan would. It calls the one owner of the
    swap conditions once on the whole box and compares one m-row's length of
    pairs with their targets at a time. Rows are sorted by (delta, m, n) and
    include anisotropies below 1 reached through negative n.
    """
    m_list, n_list = check_iterable(m_values, "m_values"), check_iterable(n_values, "n_values")
    if not m_list or not n_list:
        raise ValidationError("scan ranges must be nonempty")
    ms = [m for m in m_list for n in n_list if m != n]
    ns = [n for m in m_list for n in n_list if m != n]
    kinds = list(map(classify_outcome, ms, ns))
    tau = check_real(tau, "tau", "positive")
    m, n = (np.array([int(v) for v in vs], dtype=object) for vs in (ms, ns))
    with np.errstate(all="ignore"):  # an overflow raises below, as a non-finite value
        params = np.array(_conditions(m, n, tau), dtype=float)
    rows = []
    for start in range(0, len(kinds), len(n_list)):
        row = slice(start, start + len(n_list))
        J, Delta, Gamma = params[:, row]
        with np.errstate(all="ignore"):  # J * Delta may overflow, as checked below
            phases = 0.0 + np.array(_segment_phases(J, Delta, Gamma, tau))
        # an infinite J or Gamma makes its phase infinite; the first such pair raises
        for pair in np.flatnonzero(~np.isfinite(phases).all(axis=0))[:1]:
            XxzParams(J[pair], Delta[pair], Gamma[pair])
            PhaseTriple(*phases[:, pair])
        compared = _compare_to_target(_propagators(*phases), kinds[row])
        for m, n, delta, kind, (overlap, phase, _) in zip(
            ms[row], ns[row], Delta.tolist(), kinds[row], compared
        ):
            rows.append(ScanRow(m, n, delta, kind, overlap, phase))
    for name in ("n", "m", "delta"):  # stable passes sort by (delta, m, n) with no key tuples
        rows.sort(key=attrgetter(name))
    return rows


def _random_qubits(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random normalized qubits as a (count, 2) amplitude array.

    Each qubit takes four normals in turn: its two real parts, then its two
    imaginary parts.
    """
    z = rng.standard_normal((count, 2, 2))
    v = z[:, 0] + 1j * z[:, 1]
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    if np.any(norm < 1e-12):  # essentially unreachable; redraw rather than divide by ~0
        return _random_qubits(rng, count)
    return v / norm
