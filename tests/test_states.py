"""Tests for state construction, partial traces, and the purity determinant."""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from xxzswap import (
    PhaseTriple,
    QubitAmplitudes,
    QubitDensity,
    TwoQubitPureState,
    ValidationError,
    make_product_state,
    propagate,
    reduce_to_qubit,
)

SQ2 = math.sqrt(0.5)


def random_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return QubitAmplitudes(v[0], v[1])


def random_state(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return TwoQubitPureState.from_vector(v)


class TestProductState:
    def test_basis_product(self):
        state = make_product_state(QubitAmplitudes(1, 0), QubitAmplitudes(0, 1))
        assert state.as_vector() == pytest.approx([0, 1, 0, 0])

    def test_superposition_times_basis(self):
        state = make_product_state(QubitAmplitudes(SQ2, SQ2), QubitAmplitudes(1, 0))
        assert state.as_vector() == pytest.approx([SQ2, 0, SQ2, 0])

    def test_complex_amplitudes_against_kron_oracle(self):
        alpha = QubitAmplitudes(0.6, 0.8j)
        beta = QubitAmplitudes(0.8, -0.6)
        state = make_product_state(alpha, beta)
        oracle = np.kron(alpha.as_vector(), beta.as_vector())
        np.testing.assert_allclose(state.as_vector(), oracle, atol=1e-15)
        assert state.c11 == pytest.approx(-0.48j)

    def test_rejects_unnormalized_naming_the_qubit(self):
        good = QubitAmplitudes(1, 0)
        bad = SimpleNamespace(a0=1.0, a1=1.0)  # bypasses construction checks
        with pytest.raises(ValidationError, match=r"qubit i \(alpha\)"):
            make_product_state(bad, good)
        with pytest.raises(ValidationError, match=r"qubit j \(beta\)"):
            make_product_state(good, bad)

    def test_amplitude_constructor_validates(self):
        with pytest.raises(ValidationError, match="not normalized"):
            QubitAmplitudes(1, 1)
        with pytest.raises(ValidationError):
            TwoQubitPureState(1, 1, 0, 0)

    def test_normalized_helper(self):
        q = QubitAmplitudes.normalized(3, 4j)
        assert abs(q.a0) == pytest.approx(0.6)
        assert abs(q.a1) == pytest.approx(0.8)
        with pytest.raises(ValidationError):
            QubitAmplitudes.normalized(0, 0)


def expected_reduced_entries(alpha, beta, phases):
    """Hand-expanded symbolic entries of the qubit-i reduced matrix after
    evolving the product alpha x beta; independent of reduce_to_qubit."""
    a0, a1, b0, b1 = alpha.a0, alpha.a1, beta.a0, beta.a1
    g1 = a0 * b1 + a1 * b0
    g2 = a0 * b1 - a1 * b0
    px, pz, ph = phases.phi_x, phases.phi_z, phases.phi_h
    cross = g1 * g2.conjugate() * cmath.exp(-1j * px)
    a00 = abs(a0 * b0) ** 2 + 0.25 * (
        abs(g1) ** 2 + abs(g2) ** 2 + cross + cross.conjugate()
    )
    a01 = 0.5 * a0 * b0 * cmath.exp(-1j * (pz / 2 + ph)) * (
        g1.conjugate() * cmath.exp(1j * px / 2) - g2.conjugate() * cmath.exp(-1j * px / 2)
    ) + 0.5 * (a1 * b1).conjugate() * cmath.exp(1j * (pz / 2 - ph)) * (
        g1 * cmath.exp(-1j * px / 2) + g2 * cmath.exp(1j * px / 2)
    )
    a11 = abs(a1 * b1) ** 2 + 0.25 * (
        abs(g1) ** 2 + abs(g2) ** 2 - cross - cross.conjugate()
    )
    return a00, a01, a11


class TestReduceToQubit:
    def test_basis_state(self):
        rho = reduce_to_qubit(TwoQubitPureState(0, 1, 0, 0), 0)
        np.testing.assert_allclose(rho.as_matrix(), np.diag([1.0, 0.0]), atol=1e-15)

    def test_maximally_entangled(self):
        bell = TwoQubitPureState(0, SQ2, SQ2, 0)
        for which in (0, 1):
            rho = reduce_to_qubit(bell, which)
            np.testing.assert_allclose(rho.as_matrix(), 0.5 * np.eye(2), atol=1e-15)

    def test_matches_symbolic_entries_after_evolution(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            alpha, beta = random_qubit(rng), random_qubit(rng)
            phases = PhaseTriple(*rng.uniform(-10, 10, 3))
            rho = reduce_to_qubit(propagate(make_product_state(alpha, beta), phases), 0)
            a00, a01, a11 = expected_reduced_entries(alpha, beta, phases)
            assert abs(rho.a00 - a00) < 1e-12
            assert abs(rho.a01 - a01) < 1e-12
            assert abs(rho.a11 - a11) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(ValidationError, match="qubit index"):
            reduce_to_qubit(TwoQubitPureState(1, 0, 0, 0), 2)


class TestPurityDeterminant:
    def test_pure_state(self):
        assert QubitDensity.from_elements(1.0, 0.0, 0.0).determinant() == 0.0

    def test_maximally_mixed(self):
        assert QubitDensity.from_elements(0.5, 0.0, 0.5).determinant() == pytest.approx(0.25)

    def test_quarter_rotation_of_half_superposition(self):
        # alpha = (1, 1)/sqrt(2), beta = (1, 0) evolved to phi_x = pi/2 gives
        # determinant sin^2(phi_x)/16 = 1/16, independent of phi_z and phi_h
        alpha = QubitAmplitudes(SQ2, SQ2)
        beta = QubitAmplitudes(1, 0)
        for pz, ph in [(0.0, 0.0), (2.7, -1.1), (9.0, 4.2)]:
            evolved = propagate(
                make_product_state(alpha, beta), PhaseTriple(math.pi / 2, pz, ph)
            )
            det = reduce_to_qubit(evolved, 0).determinant()
            assert det == pytest.approx(0.0625, abs=1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: QubitDensity(math.nan, 0, 0, math.nan),
            lambda: QubitDensity(1, math.nan, math.nan, 0),
            lambda: QubitDensity(1, complex(0, math.inf), complex(0, -math.inf), 0),
            lambda: QubitAmplitudes(math.nan, 1),
            lambda: TwoQubitPureState(1, 0, 0, complex(math.nan, 0)),
        ],
        ids=["nan-diagonal", "nan-coherence", "inf-coherence", "nan-qubit", "nan-pair"],
    )
    def test_non_finite_elements_rejected(self, make):
        # nan fails every comparison, so only an explicit check rejects it
        with pytest.raises(ValidationError, match="must be finite"):
            make()

    def test_density_validation(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            QubitDensity(0.5, 0.1j, 0.1j, 0.5)
        with pytest.raises(ValidationError, match="trace"):
            QubitDensity.from_elements(0.9, 0.0, 0.3)
        with pytest.raises(ValidationError, match="eigenvalue"):
            QubitDensity.from_elements(0.5, 0.6, 0.5)


class TestMatrixIdentity:
    def test_cayley_hamilton_for_random_matrices(self):
        # A^2 - tr(A) A + det(A) I = 0 for any 2x2 matrix; applied to a
        # density matrix (idempotent iff pure, trace 1) this is what reduces
        # the purity question to a determinant
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            residual = A @ A - np.trace(A) * A + np.linalg.det(A) * np.eye(2)
            worst = max(worst, float(np.max(np.abs(residual))))
        assert worst < 1e-10

    def test_pure_density_is_idempotent_with_zero_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = random_qubit(rng)
            rho = np.outer(q.as_vector(), np.conj(q.as_vector()))
            assert np.max(np.abs(rho @ rho - rho)) < 1e-14
            assert abs(np.linalg.det(rho)) < 1e-14


class TestDeterminantProperties:
    def test_equal_for_both_qubits(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            state = random_state(rng)
            di = reduce_to_qubit(state, 0).determinant()
            dj = reduce_to_qubit(state, 1).determinant()
            assert abs(di - dj) < 1e-12

    def test_range_and_rank_one_criterion(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            state = random_state(rng)
            det = reduce_to_qubit(state, 0).determinant()
            assert -1e-15 <= det <= 0.25 + 1e-15
            # det(rho_i) equals |det M|^2 with M the amplitude matrix, so it
            # vanishes exactly for rank-1 (product) states
            M = state.as_vector().reshape(2, 2)
            assert abs(det - abs(np.linalg.det(M)) ** 2) < 1e-12
            smallest_singular = np.linalg.svd(M, compute_uv=False)[1]
            if smallest_singular < 1e-8:
                assert det < 1e-10
            elif smallest_singular > 1e-2:
                assert det > 1e-9

    def test_product_states_are_pure(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            state = make_product_state(random_qubit(rng), random_qubit(rng))
            rho = reduce_to_qubit(state, 0)
            assert rho.determinant() < 1e-10
