"""Two-qubit pure states, single-qubit reduced density matrices, and the
determinant purity test.

Conventions: ``|0>`` and ``|1>`` are the sigma_z eigenstates with eigenvalues
+1 and -1; two-qubit amplitudes are ordered ``|00>, |01>, |10>, |11>`` with
qubit i the left tensor factor. All types are immutable values and every
operation returns a new value, so they can be shared freely between threads.
Global phase is kept exactly as stored; comparisons that need phase
invariance must use overlaps explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_finite, check_integer, check_real, check_type

#: Tolerance on unit norm / hermiticity enforced at construction.
NORM_TOL = 1e-12


def _norm_sq(*amps: complex) -> float:
    return float(sum(abs(a) ** 2 for a in amps))


@dataclass(frozen=True)
class QubitAmplitudes:
    """Amplitudes (a0, a1) of a normalized single-qubit pure state."""

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        check_finite(self, cast=complex)
        n = _norm_sq(self.a0, self.a1)
        if abs(n - 1.0) > NORM_TOL:
            raise ValidationError(f"qubit amplitudes not normalized: |a|^2 = {n!r}")

    @classmethod
    def normalized(cls, a0: complex, a1: complex) -> "QubitAmplitudes":
        """Rescale arbitrary amplitudes to unit norm."""
        a0, a1 = check_real(a0, "a0", cast=complex), check_real(a1, "a1", cast=complex)
        n = math.sqrt(_norm_sq(a0, a1))
        if n == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(a0 / n, a1 / n)

    def as_vector(self) -> np.ndarray:
        return np.array([self.a0, self.a1])


@dataclass(frozen=True)
class TwoQubitPureState:
    """Normalized amplitudes over the computational basis."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def __post_init__(self) -> None:
        check_finite(self, cast=complex)
        n = _norm_sq(self.c00, self.c01, self.c10, self.c11)
        if abs(n - 1.0) > NORM_TOL:
            raise ValidationError(f"two-qubit amplitudes not normalized: |c|^2 = {n!r}")

    @classmethod
    def from_vector(cls, vec) -> "TwoQubitPureState":
        try:
            v = np.asarray(vec).reshape(4)
        except ValueError:  # too few or too many amplitudes, or a ragged nesting
            raise ValidationError(f"vec must hold 4 amplitudes, got {vec!r}") from None
        return cls(v[0], v[1], v[2], v[3])

    def as_vector(self) -> np.ndarray:
        return np.array([self.c00, self.c01, self.c10, self.c11])


@dataclass(frozen=True)
class QubitDensity:
    """2x2 single-qubit density matrix: Hermitian, unit trace, positive."""

    a00: complex
    a01: complex
    a10: complex
    a11: complex

    def __post_init__(self) -> None:
        check_finite(self, cast=complex)
        if abs(self.a10 - self.a01.conjugate()) > NORM_TOL:
            raise ValidationError("density matrix not Hermitian: a10 != conj(a01)")
        if abs(self.a00.imag) > NORM_TOL or abs(self.a11.imag) > NORM_TOL:
            raise ValidationError("density matrix diagonal must be real")
        tr = self.a00.real + self.a11.real
        if abs(tr - 1.0) > NORM_TOL:
            raise ValidationError(f"density matrix trace must be 1, got {tr!r}")
        # with unit trace both eigenvalues lie in [0, 1] iff the determinant
        # is nonnegative
        if self.determinant() < -NORM_TOL:
            raise ValidationError("density matrix has a negative eigenvalue")

    @classmethod
    def from_elements(cls, a00: complex, a01: complex, a11: complex) -> "QubitDensity":
        """Build from the upper triangle, filling a10 by hermiticity."""
        return cls(a00, a01, check_real(a01, "a01", cast=complex).conjugate(), a11)

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a00, self.a01], [self.a10, self.a11]])

    def determinant(self) -> float:
        """Purity determinant det(rho) = a00 a11 - a01 a10.

        Always in [0, 1/4]: zero (within tolerance) exactly for pure states,
        1/4 for the maximally mixed state. This is the scalar that certifies
        whether an evolved qubit has disentangled from its partner.
        """
        return float(_determinants(self.as_matrix()[None])[0])  # rounds as in any stack

    def pure_fidelity(self, target: QubitAmplitudes) -> float:
        """Fidelity <chi|rho|chi> against a pure target state chi."""
        check_type(target, QubitAmplitudes, "target")
        return float(_expectation(self.as_matrix(), target.as_vector()).real)


def make_product_state(alpha: QubitAmplitudes, beta: QubitAmplitudes) -> TwoQubitPureState:
    """Tensor product of alpha on qubit i with beta on qubit j."""
    check_type(alpha, QubitAmplitudes, "qubit i (alpha)")
    check_type(beta, QubitAmplitudes, "qubit j (beta)")
    return TwoQubitPureState(*_product(alpha.as_vector(), beta.as_vector()).tolist())


def reduce_to_qubit(state: TwoQubitPureState, which: int) -> QubitDensity:
    """Partial trace of a pure state: ``which`` = 0 keeps qubit i, 1 keeps j."""
    check_type(state, TwoQubitPureState, "state")
    if check_integer(which, "which") not in (0, 1):
        raise ValidationError("qubit index must be 0 (qubit i) or 1 (qubit j)")
    rho = _partial_trace(state.as_vector(), which)
    return QubitDensity.from_elements(rho[0, 0], rho[0, 1], rho[1, 1])


# The closed forms, written once on stacked arrays: (..., 2) qubit
# amplitudes, (..., 4) two-qubit amplitudes and (..., 2, 2) density matrices.


def _product(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Amplitudes of alpha (x) beta, ordered |00>, |01>, |10>, |11>."""
    return (alpha[..., :, None] * beta[..., None, :]).reshape(alpha.shape[:-1] + (4,))


def _partial_trace(psi: np.ndarray, which: int) -> np.ndarray:
    """Reduced density matrix of qubit i (``which`` = 0) or j (1).

    With the amplitude matrix M[r, c] of ``|r>_i |c>_j``, rho_i = M M^dagger
    and rho_j = M^T conj(M).
    """
    m = psi.reshape(psi.shape[:-1] + (2, 2))
    if which == 1:
        m = np.swapaxes(m, -1, -2)
    return m @ np.swapaxes(m.conj(), -1, -2)


def _determinants(rho: np.ndarray) -> np.ndarray:
    """Purity determinants a00 a11 - a01 a10 of (..., 2, 2) density matrices."""
    return (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real


def _expectation(op: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """<chi|op|chi> over the last axis of ``chi``; real for Hermitian op.

    A stack of operators (..., d, d) pairs with a stack of row vectors
    (..., 1, d) and yields shape (..., 1).
    """
    return np.einsum("...r,...r->...", chi.conj(), chi @ np.swapaxes(op, -1, -2))
