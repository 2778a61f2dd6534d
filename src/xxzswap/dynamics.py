"""Exchange-model dynamics: exact eigensystem, phase accumulation over pulse
schedules, the closed-form propagator, and a dense matrix-exponential oracle.

The two-qubit Hamiltonian is

    H = J (Sx_i Sx_j + Sy_i Sy_j + Delta Sz_i Sz_j) + Gamma (Sz_i + Sz_j)

with S = sigma/2 and hbar = 1, so J and Gamma are angular frequencies and
Delta is a dimensionless anisotropy. Total Sz is conserved, which makes the
eigenvectors parameter independent: the three terms commute for any (J, Delta,
Gamma), so the time-ordered evolution under any piecewise-constant schedule,
each segment with its own anisotropy, collapses into three accumulated phase
angles

    phi_x = int J dt,    phi_z = int J Delta dt,    phi_h = int Gamma dt.

Phases are stored unwrapped on the full real line: the swap conditions
distinguish different integer multiples of pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_finite, check_iterable, check_real, check_type
from .states import QubitAmplitudes, TwoQubitPureState

_SQRT_HALF = math.sqrt(0.5)

_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
_SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
# H = J (_XX_YY + Delta _ZZ) + Gamma _Z_SUM
_XX_YY = np.kron(_SX, _SX) + np.kron(_SY, _SY)
_ZZ = np.kron(_SZ, _SZ)
_Z_SUM = np.kron(_SZ, _I2) + np.kron(_I2, _SZ)


@dataclass(frozen=True)
class XxzParams:
    """Constant model parameters (angular-frequency units, hbar = 1)."""

    J: float      # exchange strength, any sign
    Delta: float  # anisotropy, dimensionless
    Gamma: float  # effective Zeeman splitting g*mu_B*B

    def __post_init__(self) -> None:
        check_finite(self)


@dataclass(frozen=True)
class Segment:
    """One constant-parameter stretch of a pulse schedule."""

    params: XxzParams
    duration: float

    def __post_init__(self) -> None:
        check_type(self.params, XxzParams, "params")
        check_finite(self, ["duration"], "positive")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered piecewise-constant segments, each with its own parameters.

    The Hamiltonians of any two segments commute, whatever their anisotropies,
    so the time-ordered product collapses to the accumulated phase angles.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        segments = check_iterable(self.segments, "segments")
        segs = tuple(check_type(s, Segment, f"segments[{k}]") for k, s in enumerate(segments))
        if not segs:
            raise ValidationError("schedule must contain at least one segment")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def constant(cls, params: XxzParams, duration: float) -> "PulseSchedule":
        return cls((Segment(params, duration),))

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


@dataclass(frozen=True)
class PhaseTriple:
    """Accumulated phase angles; additive under schedule concatenation."""

    phi_x: float
    phi_z: float
    phi_h: float

    def __post_init__(self) -> None:
        check_finite(self)

    def __add__(self, other: "PhaseTriple") -> "PhaseTriple":
        return PhaseTriple(
            self.phi_x + other.phi_x,
            self.phi_z + other.phi_z,
            self.phi_h + other.phi_h,
        )


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs in fixed order: |00>, |11>, symmetric and antisymmetric
    combinations of |01> and |10>."""

    energies: tuple[float, float, float, float]
    states: tuple[TwoQubitPureState, TwoQubitPureState, TwoQubitPureState, TwoQubitPureState]


def eigensystem(params: XxzParams) -> Spectrum:
    """Exact eigenvalues with the parameter-independent eigenvectors.

    Conservation of total Sz fixes the eigenvectors once and for all; the
    energies are J*Delta/4 + Gamma and J*Delta/4 - Gamma for |00> and |11>,
    and -J*(Delta - 2)/4 and -J*(Delta + 2)/4 for the symmetric and
    antisymmetric combinations.
    """
    check_type(params, XxzParams, "params")
    J, D, G = params.J, params.Delta, params.Gamma
    energies = (J * D / 4 + G, J * D / 4 - G, -J * (D - 2) / 4, -J * (D + 2) / 4)
    states = (
        TwoQubitPureState(1, 0, 0, 0),
        TwoQubitPureState(0, 0, 0, 1),
        TwoQubitPureState(0, _SQRT_HALF, _SQRT_HALF, 0),
        TwoQubitPureState(0, _SQRT_HALF, -_SQRT_HALF, 0),
    )
    return Spectrum(energies, states)


def hamiltonian_matrix(params: XxzParams) -> np.ndarray:
    """Dense 4x4 Hamiltonian assembled from Kronecker products of the spin
    operators; used by the matrix-exponential oracle."""
    check_type(params, XxzParams, "params")
    return _hamiltonians(params.J, params.Delta, params.Gamma)


def _hamiltonians(J, Delta, Gamma) -> np.ndarray:
    """:func:`hamiltonian_matrix` on stacked parameters, shape (..., 4, 4)."""
    J, Delta, Gamma = (np.asarray(v)[..., None, None] for v in (J, Delta, Gamma))
    return J * (_XX_YY + Delta * _ZZ) + Gamma * _Z_SUM


def accumulate_phases(schedule: PulseSchedule, t: float) -> PhaseTriple:
    """Integrate (J, J*Delta, Gamma) over the first ``t`` time units.

    Piecewise linear in t. Raises for t outside [0, total_duration]; a slack
    of 1e-12 absorbs rounding in summed segment durations.
    """
    total = check_type(schedule, PulseSchedule, "schedule").total_duration
    t = check_real(t, "t")
    if not -1e-12 <= t <= total + 1e-12:
        raise ValidationError(f"time {t!r} outside the schedule range [0, {total!r}]")
    remaining = min(max(t, 0.0), total)
    full = remaining == total  # consume every segment exactly, no subtraction noise
    phi_x = phi_z = phi_h = 0.0
    for seg in schedule.segments:
        dt = seg.duration if full else min(seg.duration, remaining)
        x, z, h = _segment_phases(seg.params.J, seg.params.Delta, seg.params.Gamma, dt)
        phi_x, phi_z, phi_h = phi_x + x, phi_z + z, phi_h + h
        if not full:
            remaining -= dt
            if remaining <= 0.0:
                break
    return PhaseTriple(phi_x, phi_z, phi_h)


def _segment_phases(J, Delta, Gamma, t):
    """The phases (J t, J Delta t, Gamma t) of a constant stretch of duration
    ``t``, on scalars or broadcasting stacks; the one home of these products."""
    return J * t, J * Delta * t, Gamma * t


def propagate(state: TwoQubitPureState, phases: PhaseTriple) -> TwoQubitPureState:
    """Apply the closed-form propagator to an arbitrary pure state."""
    check_type(state, TwoQubitPureState, "state")
    return TwoQubitPureState(*(propagator_matrix(phases) @ state.as_vector()).tolist())


def propagator_matrix(phases: PhaseTriple) -> np.ndarray:
    """The closed-form propagator in the computational basis (unitary).

    The evolution is diagonal in the conserved-Sz eigenbasis: |00> and |11>
    acquire the phases -(phi_h + phi_z/4) and +(phi_h - phi_z/4), while the
    {|01>, |10>} block rotates through the angle phi_x/2 under a common
    phase phi_z/4. Stacked amplitudes ``psi`` of shape (..., 4) evolve as
    ``psi @ propagator_matrix(phases).T``.
    """
    check_type(phases, PhaseTriple, "phases")
    return _propagators(phases.phi_x, phases.phi_z, phases.phi_h)


def _propagators(phi_x, phi_z, phi_h) -> np.ndarray:
    """:func:`propagator_matrix` on stacked phases, shape (..., 4, 4)."""
    phi_x, phi_z, phi_h = np.broadcast_arrays(phi_x, phi_z, phi_h)
    half = 0.5 * phi_x
    c, s = np.cos(half), np.sin(half)
    block_phase = np.exp(0.25j * phi_z)
    U = np.zeros(phi_x.shape + (4, 4), dtype=complex)
    U[..., 0, 0] = np.exp(-1j * (phi_h + 0.25 * phi_z))
    U[..., 3, 3] = np.exp(1j * (phi_h - 0.25 * phi_z))
    U[..., 1, 1] = U[..., 2, 2] = block_phase * c
    U[..., 1, 2] = U[..., 2, 1] = block_phase * (-1j * s)
    return U


def dense_exponential_oracle(params: XxzParams, t: float) -> np.ndarray:
    """exp(-i H t) through a dense Hermitian eigendecomposition.

    Independent verification path for :func:`propagator_matrix`: it builds H
    from spin operators and never touches the phase-angle formulas.
    """
    check_type(params, XxzParams, "params")
    return _exponentials(params.J, params.Delta, params.Gamma, check_real(t, "t"))


def _exponentials(J, Delta, Gamma, t) -> np.ndarray:
    """:func:`dense_exponential_oracle` on stacked parameters and times."""
    w, V = np.linalg.eigh(_hamiltonians(J, Delta, Gamma))
    phases = np.exp(-1j * w * np.asarray(t)[..., None])
    return (V * phases[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def reduced_determinant_closed_form(
    alpha: QubitAmplitudes, beta: QubitAmplitudes, phases: PhaseTriple
) -> float:
    """Purity determinant of qubit i after evolving the product alpha x beta,
    in closed form:

        | a0 a1 b0 b1 - [g1^2 e^{i(phi_z - phi_x)} - g2^2 e^{i(phi_z + phi_x)}] / 4 |^2

    with g1 = a0 b1 + a1 b0 and g2 = a0 b1 - a1 b0. It vanishes for every
    input exactly when phi_z - phi_x and phi_z + phi_x are both integer
    multiples of 2 pi, which is what makes exact swaps possible.
    """
    check_type(alpha, QubitAmplitudes, "alpha")
    check_type(beta, QubitAmplitudes, "beta")
    check_type(phases, PhaseTriple, "phases")
    # as a stack of one, so that its complex products round as a stack's do
    alpha, beta = alpha.as_vector()[None], beta.as_vector()[None]
    return float(_reduced_determinants(alpha, beta, phases.phi_x, phases.phi_z)[0])


def _reduced_determinants(alpha, beta, phi_x, phi_z) -> np.ndarray:
    """:func:`reduced_determinant_closed_form` on (..., 2) amplitude stacks."""
    (a0, a1), (b0, b1) = np.moveaxis(alpha, -1, 0), np.moveaxis(beta, -1, 0)
    g1 = a0 * b1 + a1 * b0
    g2 = a0 * b1 - a1 * b0
    value = a0 * a1 * b0 * b1 - 0.25 * (
        g1 * g1 * np.exp(1j * (phi_z - phi_x))
        - g2 * g2 * np.exp(1j * (phi_z + phi_x))
    )
    return np.abs(value) ** 2
