"""Tests for the eigensystem, phase accumulation, the closed-form propagator,
and its dense matrix-exponential oracle."""

import cmath
import math
import random

import numpy as np
import pytest

from xxzswap import (
    PhaseTriple,
    PulseSchedule,
    QubitAmplitudes,
    Segment,
    TwoQubitPureState,
    ValidationError,
    XxzParams,
    accumulate_phases,
    dense_exponential_oracle,
    eigensystem,
    hamiltonian_matrix,
    make_product_state,
    propagate,
    propagator_matrix,
    reduce_to_qubit,
    reduced_determinant_closed_form,
)
from xxzswap.dynamics import (
    _exponentials,
    _hamiltonians,
    _propagators,
    _reduced_determinants,
    _segment_phases,
)
from xxzswap.swaps import _random_qubits

PI = math.pi

SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return QubitAmplitudes(v[0], v[1])


class TestEigensystem:
    @pytest.mark.parametrize(
        "params, expected",
        [
            (XxzParams(1, 2, 0.5), (1.0, 0.0, 0.0, -1.0)),
            (XxzParams(0, 7.3, 0), (0.0, 0.0, 0.0, 0.0)),
            (XxzParams(1, 1, 0), (0.25, 0.25, 0.25, -0.75)),
        ],
    )
    def test_energies(self, params, expected):
        assert eigensystem(params).energies == pytest.approx(expected, abs=1e-15)

    def test_eigenpairs_satisfy_dense_hamiltonian(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            params = XxzParams(*rng.uniform(-3, 3, 3))
            H = hamiltonian_matrix(params)
            spec = eigensystem(params)
            vectors = [s.as_vector() for s in spec.states]
            for energy, v in zip(spec.energies, vectors):
                assert np.max(np.abs(H @ v - energy * v)) < 1e-10
            gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
            assert np.max(np.abs(gram - np.eye(4))) < 1e-12
            # full agreement with a dense Hermitian solver
            np.testing.assert_allclose(
                sorted(spec.energies), np.linalg.eigvalsh(H), atol=1e-12
            )


class TestAccumulatePhases:
    def test_constant_segment(self):
        schedule = PulseSchedule.constant(XxzParams(PI, 3, PI), 1.0)
        phases = accumulate_phases(schedule, 1.0)
        assert (phases.phi_x, phases.phi_z, phases.phi_h) == pytest.approx((PI, 3 * PI, PI))

    def test_zero_time(self):
        schedule = PulseSchedule.constant(XxzParams(1, 1, 1), 2.0)
        assert accumulate_phases(schedule, 0.0) == PhaseTriple(0, 0, 0)

    def test_piecewise_partial_segment(self):
        schedule = PulseSchedule(
            (Segment(XxzParams(1, 1, 0), 1.0), Segment(XxzParams(2, 1, 0), 1.0))
        )
        assert accumulate_phases(schedule, 1.5).phi_x == pytest.approx(2.0)

    def test_out_of_range(self):
        schedule = PulseSchedule.constant(XxzParams(1, 1, 1), 1.0)
        with pytest.raises(ValidationError, match="outside"):
            accumulate_phases(schedule, 1.5)
        with pytest.raises(ValidationError, match="outside"):
            accumulate_phases(schedule, -0.5)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p1 = XxzParams(rng.uniform(-3, 3), 1.7, rng.uniform(-3, 3))
            p2 = XxzParams(rng.uniform(-3, 3), 1.7, rng.uniform(-3, 3))
            d1, d2 = rng.uniform(0.1, 2.0, 2)
            joined = PulseSchedule((Segment(p1, d1), Segment(p2, d2)))
            part = accumulate_phases(PulseSchedule.constant(p1, d1), d1) + accumulate_phases(
                PulseSchedule.constant(p2, d2), d2
            )
            whole = accumulate_phases(joined, d1 + d2)
            assert whole == part

    def test_schedule_validation(self):
        with pytest.raises(ValidationError, match="at least one"):
            PulseSchedule(())
        with pytest.raises(ValidationError, match="positive"):
            Segment(XxzParams(1, 1, 1), 0.0)


def stretches(schedule, t):
    """(J, Delta, Gamma, duration) of each constant stretch in the first ``t``
    time units, cut from a running remainder as ``accumulate_phases`` cuts them."""
    total = schedule.total_duration
    remaining = min(max(t, 0.0), total)
    full = remaining == total
    rows = []
    for seg in schedule.segments:
        dt = seg.duration if full else min(seg.duration, remaining)
        rows.append((seg.params.J, seg.params.Delta, seg.params.Gamma, dt))
        if not full:
            remaining -= dt
            if remaining <= 0.0:
                break
    return np.array(rows).T


class TestSegmentPhases:
    """``_segment_phases`` is the one home of a constant stretch's phases."""

    def test_accumulate_phases_adds_the_array_form_bitwise(self):
        rng = random.Random(31)
        signed = (0.0, -0.0)
        for _ in range(400):
            delta = rng.choice((rng.uniform(-5, 5), *signed))
            segments = tuple(
                Segment(
                    XxzParams(rng.choice((rng.uniform(-9, 9), *signed)), delta,
                              rng.choice((rng.uniform(-9, 9), *signed))),
                    rng.choice((rng.uniform(1e-3, 5), 5e-324)),
                )
                for _ in range(rng.choice((1, 1, 2, 5)))
            )
            schedule = PulseSchedule(segments)
            total = schedule.total_duration
            for t in (total, rng.uniform(0, total), 0.0, -1e-13):
                J, Delta, Gamma, dt = stretches(schedule, t)
                stacked = _segment_phases(J, Delta, Gamma, dt)
                summed = [0.0, 0.0, 0.0]
                for k in range(len(dt)):
                    j, d, g, step = (float(v[k]) for v in (J, Delta, Gamma, dt))
                    scalar = _segment_phases(j, d, g, step)
                    assert [v.hex() for v in scalar] == [float(p[k]).hex() for p in stacked]
                    # in this order of operations
                    assert [v.hex() for v in scalar] == [(j * step).hex(), ((j * d) * step).hex(),
                                                         (g * step).hex()]
                    summed = [a + b for a, b in zip(summed, scalar)]
                phases = accumulate_phases(schedule, t)
                assert [v.hex() for v in summed] == [
                    phases.phi_x.hex(), phases.phi_z.hex(), phases.phi_h.hex()
                ]

    def test_broadcasts_over_stacks(self):
        J = np.array([[1.0], [-2.0]])
        phi_x, phi_z, phi_h = _segment_phases(J, 3.0, np.array([0.5, 4.0]), 0.25)
        assert phi_x.shape == phi_z.shape == (2, 1) and phi_h.shape == (2,)
        assert phi_z[1, 0] == -1.5 and phi_h[1] == 1.0

    def test_mixed_anisotropy_schedules_match_the_dense_product(self):
        # the segments' Hamiltonians commute whatever their anisotropies, so a
        # schedule collapses to its summed phases at full and partial times
        rng = np.random.default_rng(41)
        for _ in range(200):
            segments = tuple(
                Segment(XxzParams(*rng.uniform(-3, 3, 3)), rng.uniform(0.05, 2.0))
                for _ in range(rng.integers(2, 6))
            )
            schedule = PulseSchedule(segments)
            total = schedule.total_duration
            for t in (total, rng.uniform(0, total)):
                dense = np.eye(4)
                for U in _exponentials(*stretches(schedule, t)):
                    dense = U @ dense
                closed = propagator_matrix(accumulate_phases(schedule, t))
                assert np.max(np.abs(closed - dense)) < 1e-12

    def test_overflowing_product_raises_through_phase_triple(self):
        # J and Delta are finite, but J * Delta is not
        assert _segment_phases(1e200, 1e200, 0.0, 1.0)[1] == math.inf
        schedule = PulseSchedule.constant(XxzParams(1e200, 1e200, 0.0), 1.0)
        with pytest.raises(ValidationError, match="phi_z must be finite, got inf"):
            accumulate_phases(schedule, 1.0)


class TestPropagate:
    def test_half_exchange_swaps_basis_amplitude(self):
        out = propagate(TwoQubitPureState(0, 1, 0, 0), PhaseTriple(PI, 0, 0))
        np.testing.assert_allclose(out.as_vector(), [0, 0, -1j, 0], atol=1e-12)

    def test_zero_phases_is_identity(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = TwoQubitPureState.from_vector(v / np.linalg.norm(v))
        assert propagate(state, PhaseTriple(0, 0, 0)) == state

    def test_corner_state_pure_phase(self):
        out = propagate(TwoQubitPureState(1, 0, 0, 0), PhaseTriple(PI, 3 * PI, PI))
        expected = cmath.exp(-1j * 7 * PI / 4)
        assert abs(out.c00 - expected) < 1e-12
        assert out.c01 == out.c10 == out.c11 == 0

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = TwoQubitPureState.from_vector(v / np.linalg.norm(v))
            out = propagate(state, PhaseTriple(*rng.uniform(-20, 20, 3)))
            assert abs(np.linalg.norm(out.as_vector()) - 1.0) < 1e-12


class TestPropagatorMatrix:
    def test_zero_phases_identity(self):
        np.testing.assert_allclose(propagator_matrix(PhaseTriple(0, 0, 0)), np.eye(4), atol=0)

    def test_swap_point_matches_swap_up_to_global_phase(self):
        U = propagator_matrix(PhaseTriple(PI, 3 * PI, PI))
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        np.testing.assert_allclose(U, cmath.exp(1j * PI / 4) * swap, atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            U = propagator_matrix(PhaseTriple(*rng.uniform(-30, 30, 3)))
            assert np.max(np.abs(U @ U.conj().T - np.eye(4))) < 1e-12

    def test_matches_propagate_on_basis(self):
        phases = PhaseTriple(1.3, -2.1, 0.7)
        U = propagator_matrix(phases)
        basis = np.eye(4)
        for k in range(4):
            out = propagate(TwoQubitPureState.from_vector(basis[k]), phases)
            np.testing.assert_allclose(U[:, k], out.as_vector(), atol=1e-15)


class TestDenseOracle:
    def test_zero_time_identity(self):
        np.testing.assert_allclose(
            dense_exponential_oracle(XxzParams(1.5, -0.3, 2.0), 0.0), np.eye(4), atol=1e-15
        )

    @pytest.mark.parametrize(
        "params, t",
        [(XxzParams(1, 1, 0), PI), (XxzParams(2, 5, 0.3), 0.7)],
    )
    def test_agrees_with_closed_form(self, params, t):
        phases = PhaseTriple(params.J * t, params.J * params.Delta * t, params.Gamma * t)
        deviation = np.max(np.abs(propagator_matrix(phases) - dense_exponential_oracle(params, t)))
        assert deviation < 1e-10

    def test_oracle_equivalence_500_random(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(500):
            params = XxzParams(*rng.uniform(-3, 3, 3))
            t = rng.uniform(0.0, 5.0)
            schedule = PulseSchedule.constant(params, max(t, 1e-9))
            U = propagator_matrix(accumulate_phases(schedule, t))
            worst = max(worst, float(np.max(np.abs(U - dense_exponential_oracle(params, t)))))
        assert worst < 1e-10

    def test_same_anisotropy_schedules_commute(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            delta = rng.uniform(-3, 3)
            pa = XxzParams(rng.uniform(-3, 3), delta, rng.uniform(-3, 3))
            pb = XxzParams(rng.uniform(-3, 3), delta, rng.uniform(-3, 3))
            ta, tb = rng.uniform(0.1, 3.0, 2)
            Ua = dense_exponential_oracle(pa, ta)
            Ub = dense_exponential_oracle(pb, tb)
            assert np.max(np.abs(Ua @ Ub - Ub @ Ua)) < 1e-10
            # composing in either order equals the concatenated schedule
            joined = PulseSchedule((Segment(pa, ta), Segment(pb, tb)))
            U_joined = propagator_matrix(accumulate_phases(joined, ta + tb))
            assert np.max(np.abs(Ub @ Ua - U_joined)) < 1e-10


class TestClosedFormDeterminant:
    def test_zero_on_matching_phase_conditions(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            alpha, beta = random_qubit(rng), random_qubit(rng)
            m, n = rng.integers(-4, 5, 2)
            phases = PhaseTriple((m - n) * PI, (m + n) * PI, rng.uniform(-5, 5))
            assert reduced_determinant_closed_form(alpha, beta, phases) < 1e-12

    def test_zero_for_basis_product(self):
        alpha = beta = QubitAmplitudes(1, 0)
        rng = np.random.default_rng(37)
        for _ in range(20):
            phases = PhaseTriple(*rng.uniform(-10, 10, 3))
            assert reduced_determinant_closed_form(alpha, beta, phases) == 0.0

    def test_sixteenth_at_quarter_rotation(self):
        alpha = QubitAmplitudes(math.sqrt(0.5), math.sqrt(0.5))
        beta = QubitAmplitudes(1, 0)
        phases = PhaseTriple(PI / 2, 1.9, -0.4)
        closed = reduced_determinant_closed_form(alpha, beta, phases)
        assert closed == pytest.approx(0.0625, abs=1e-12)
        direct = reduce_to_qubit(
            propagate(make_product_state(alpha, beta), phases), 0
        ).determinant()
        assert closed == pytest.approx(direct, abs=1e-12)

    def test_matches_partial_trace_1000_random(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(1000):
            alpha, beta = random_qubit(rng), random_qubit(rng)
            phases = PhaseTriple(*rng.uniform(-10, 10, 3))
            direct = reduce_to_qubit(
                propagate(make_product_state(alpha, beta), phases), 0
            ).determinant()
            closed = reduced_determinant_closed_form(alpha, beta, phases)
            worst = max(worst, abs(direct - closed))
        assert worst < 1e-10


# The scalar closed forms as they were written case by case, kept as the
# references the stacked forms are checked against.


def reference_propagator(phi_x, phi_z, phi_h):
    half = 0.5 * phi_x
    c, s = math.cos(half), math.sin(half)
    block_phase = cmath.exp(0.25j * phi_z)
    U = np.zeros((4, 4), dtype=complex)
    U[0, 0] = cmath.exp(-1j * (phi_h + 0.25 * phi_z))
    U[3, 3] = cmath.exp(1j * (phi_h - 0.25 * phi_z))
    U[1, 1] = U[2, 2] = block_phase * c
    U[1, 2] = U[2, 1] = block_phase * (-1j * s)
    return U


def reference_oracle(J, D, G, t):
    H = J * (np.kron(SX, SX) + np.kron(SY, SY) + D * np.kron(SZ, SZ)) + G * (
        np.kron(SZ, I2) + np.kron(I2, SZ)
    )
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def reference_determinant(a, b, phi_x, phi_z):
    a0, a1, b0, b1 = (complex(v) for v in (*a, *b))
    g1 = a0 * b1 + a1 * b0
    g2 = a0 * b1 - a1 * b0
    value = a0 * a1 * b0 * b1 - 0.25 * (
        g1 * g1 * cmath.exp(1j * (phi_z - phi_x)) - g2 * g2 * cmath.exp(1j * (phi_z + phi_x))
    )
    return abs(value) ** 2


def phase_cases():
    """Random phases, exact multiples of pi, and phases up to 1e6 in size."""
    rng = np.random.default_rng(43)
    multiples = rng.integers(-12, 13, (200, 3)) * PI
    large_multiples = rng.integers(-318309, 318310, (200, 3)) * PI
    large = rng.uniform(-1e6, 1e6, (200, 3))
    return np.concatenate([rng.uniform(-20, 20, (400, 3)), multiples, large_multiples, large])


class TestStackedClosedForms:
    def test_propagators_equal_scalar_forms(self):
        phases = phase_cases()
        stacked = _propagators(*phases.T)
        assert stacked.shape == (len(phases), 4, 4)
        for U, triple in zip(stacked, phases):
            assert np.array_equal(U, propagator_matrix(PhaseTriple(*triple)))
            assert np.array_equal(U, reference_propagator(*triple))

    def test_propagators_broadcast(self):
        phi_x = np.array([[0.3], [1.7]])
        stacked = _propagators(phi_x, np.array([-2.0, 0.5, 4.0]), 0.9)
        assert stacked.shape == (2, 3, 4, 4)
        assert np.array_equal(stacked[1, 2], propagator_matrix(PhaseTriple(1.7, 4.0, 0.9)))

    def test_oracles_equal_scalar_forms(self):
        rng = np.random.default_rng(47)
        J, D, G = rng.uniform(-3, 3, (3, 1000))
        t = rng.uniform(0, 5, 1000)
        stacked = _exponentials(J, D, G, t)
        hamiltonians = _hamiltonians(J, D, G)
        for k in range(len(t)):
            params = XxzParams(J[k], D[k], G[k])
            assert np.array_equal(hamiltonians[k], hamiltonian_matrix(params))
            assert np.array_equal(stacked[k], dense_exponential_oracle(params, t[k]))
            assert np.array_equal(stacked[k], reference_oracle(J[k], D[k], G[k], t[k]))

    def test_reduced_determinants_equal_scalar_forms(self):
        phases = phase_cases()
        qubits = _random_qubits(np.random.default_rng(53), 2 * len(phases)).reshape(-1, 2, 2)
        stacked = _reduced_determinants(qubits[:, 0], qubits[:, 1], phases[:, 0], phases[:, 1])
        for value, (a, b), triple in zip(stacked, qubits, phases):
            closed = reduced_determinant_closed_form(
                QubitAmplitudes(*a), QubitAmplitudes(*b), PhaseTriple(*triple)
            )
            assert value == closed
            # Python complex products round apart from numpy's in the last bit
            assert abs(value - reference_determinant(a, b, *triple[:2])) <= 4 * np.finfo(float).eps
