"""Tests for swap-schedule solving, outcome classification, verification,
and the anisotropy feasibility scan."""

import math
import re

import numpy as np
import pytest

import xxzswap.swaps
from xxzswap import (
    PhaseTriple,
    PulseSchedule,
    QubitAmplitudes,
    Segment,
    SwapKind,
    SwapPlan,
    ValidationError,
    XxzParams,
    accumulate_phases,
    classify_outcome,
    delta_feasibility_scan,
    is_swap_point,
    make_product_state,
    propagate,
    reduce_to_qubit,
    verify_schedule,
    verify_swap,
)
from xxzswap.seeding import stream
from xxzswap.swaps import _random_qubits

PI = math.pi
EPS = np.finfo(float).eps


class TestSolveSchedule:
    def test_anisotropic_swap(self):
        plan = SwapPlan(2, 1, 1.0)
        assert plan.params.J == pytest.approx(PI)
        assert plan.params.Delta == pytest.approx(3.0)
        assert plan.params.Gamma == pytest.approx(PI)
        assert plan.kind is SwapKind.SWAP
        assert plan.delta_at_least_one

    def test_isotropic_swap(self):
        plan = SwapPlan(1, 0, 1.0)
        assert plan.params.J == pytest.approx(PI)
        assert plan.params.Delta == pytest.approx(1.0)
        assert plan.params.Gamma == 0.0
        assert plan.kind is SwapKind.SWAP

    def test_even_difference_returns_to_self(self):
        plan = SwapPlan(3, 1, 1.0)
        assert plan.params.J == pytest.approx(2 * PI)
        assert plan.params.Delta == pytest.approx(2.0)
        assert plan.params.Gamma == pytest.approx(PI)
        assert plan.kind is SwapKind.RETURN_TO_SELF

    def test_degenerate_and_invalid_inputs(self):
        with pytest.raises(ValidationError, match="m = n"):
            SwapPlan(1, 1, 1.0)
        with pytest.raises(ValidationError, match="positive"):
            SwapPlan(2, 1, 0.0)
        with pytest.raises(ValidationError, match="positive"):
            SwapPlan(2, 1, -1.0)
        with pytest.raises(ValidationError, match="integer"):
            SwapPlan(2.5, 1, 1.0)
        # beyond 2**53, and far beyond the float range where (m - n) pi overflows
        for m, n in ((2**53 + 1, 0), (1, -(2**53) - 1), (10**400, 1), (2, -(10**400))):
            with pytest.raises(ValidationError, match=r"at most 2\*\*53"):
                SwapPlan(m, n, 1.0)
        assert SwapPlan(2**53, 2**53 - 1, 1.0).kind is SwapKind.SWAP

    def test_conditions_hold_by_construction(self):
        for m in range(-5, 6):
            for n in range(-5, 6):
                if m == n:
                    continue
                for tau in (0.37, 1.0, 4.5):
                    plan = SwapPlan(m, n, tau)
                    p = plan.params
                    assert abs(p.J * tau - (m - n) * PI) < 1e-12
                    assert abs(p.J * p.Delta * tau - (m + n) * PI) < 1e-12
                    assert abs(p.Gamma * tau - n * PI) < 1e-12

    def test_plan_is_derived_from_its_indices(self):
        with pytest.raises(TypeError):
            SwapPlan(2, 1, 1.0, XxzParams(PI, 3.0, PI))
        with pytest.raises(TypeError):
            SwapPlan(2, 1, 1.0, kind=SwapKind.SWAP)
        for m, n, tau in ((2, 1, 1.0), (np.int64(-3), np.int32(3), 0.7), (5, -4, np.float64(2.5))):
            plan = SwapPlan(m, n, tau)
            assert plan == SwapPlan(m, n, tau)
            assert type(plan.m) is int and type(plan.n) is int and type(plan.tau) is float
        assert SwapPlan(-3, 3, 0.7).params.Delta == 0.0
        assert math.copysign(1.0, SwapPlan(-3, 3, 0.7).params.Delta) == 1.0

    def test_large_indices_accept_their_exact_solution(self):
        # an absolute tolerance rejected these from |n| ~ 1308 on
        rng = np.random.default_rng(17)
        cases = [(1310, 1309, 0.3), (10**6, 10**6 - 1, 1.0), (-(10**6), 10**6, 2e-5)]
        for _ in range(2000):
            m, n = (int(v) for v in rng.integers(-(10**6), 10**6, 2, endpoint=True))
            cases.append((m, n, float(10 ** rng.uniform(-4, 4))))
        for m, n, tau in cases:
            if m != n:
                plan = SwapPlan(np.int64(m), n, tau)
                assert (plan.m, plan.n) == (m, n)
                phases = accumulate_phases(plan.schedule(), plan.tau)
                targets = ((m - n) * PI, (m + n) * PI, n * PI)
                for phase, target in zip((phases.phi_x, phases.phi_z, phases.phi_h), targets):
                    assert abs(phase - target) <= 16 * EPS * max(abs(target), PI)


class TestClassifyOutcome:
    def test_odd_pair_swaps(self):
        assert classify_outcome(2, 1) is SwapKind.SWAP

    def test_even_pair_returns(self):
        assert classify_outcome(3, 1) is SwapKind.RETURN_TO_SELF

    def test_equal_pair_rejected(self):
        with pytest.raises(ValidationError):
            classify_outcome(1, 1)


class TestVerifySwap:
    def test_anisotropic_plan_passes(self):
        report = verify_swap(SwapPlan(2, 1, 1.0))
        assert report.passed
        assert report.trace_overlap == pytest.approx(1.0, abs=1e-12)
        assert report.global_phase == pytest.approx(PI / 4, abs=1e-12)
        assert report.max_entry_deviation < 1e-12
        assert report.min_state_fidelity >= 1 - 1e-10
        assert report.max_reduced_impurity < 1e-10
        assert report.states_checked == 50

    def test_isotropic_plan_passes(self):
        report = verify_swap(SwapPlan(1, 0, 1.0))
        assert report.passed
        assert report.trace_overlap == pytest.approx(1.0, abs=1e-12)

    def test_return_to_self_against_identity(self):
        report = verify_swap(SwapPlan(3, 1, 1.0))
        assert report.passed
        assert report.trace_overlap == pytest.approx(1.0, abs=1e-12)
        assert report.min_state_fidelity >= 1 - 1e-10

    def test_non_finite_propagator_is_reported_as_a_failure(self):
        # phi_h + phi_z / 4 overflows, so the propagator and its overlap are nan
        schedule = PulseSchedule.constant(XxzParams(1.7e308, 1.0, 1.7e308), 1.0)
        with pytest.warns(RuntimeWarning) as record:
            report = verify_schedule(schedule, "swap")
        assert len(record) == 2
        assert not report.passed and math.isnan(report.trace_overlap)

    def test_detuned_schedule_fails(self):
        plan = SwapPlan(2, 1, 1.0)
        detuned = XxzParams(plan.params.J * 1.01, plan.params.Delta, plan.params.Gamma)
        report = verify_schedule(
            PulseSchedule.constant(detuned, plan.tau), SwapKind.SWAP, tolerance=1e-6
        )
        assert not report.passed
        assert report.trace_overlap < 1.0 - 1e-6

    def test_tolerance_of_one_or_more_is_rejected(self):
        # at tolerance 1 both pass conditions hold for any schedule, even one
        # with no exchange at all
        idle = PulseSchedule.constant(XxzParams(0.0, 1.0, 0.0), 1.0)
        for tolerance in (1.0, 2.0, np.nextafter(1.0, 2.0)):
            with pytest.raises(ValidationError, match="tolerance must be below 1"):
                verify_schedule(idle, "swap", tolerance=tolerance)
            with pytest.raises(ValidationError, match="tolerance must be below 1"):
                verify_swap(SwapPlan(2, 1, 1.0), tolerance=tolerance)
        assert not verify_schedule(idle, "swap", tolerance=0.25).passed

    def test_tolerance_of_one_half_or_more_is_rejected(self):
        # with no exchange, or against the opposite kind, |Tr(target^dag U)| <= 2:
        # a trace overlap of 1/2, which any tolerance of 1/2 or more would pass
        idle = PulseSchedule.constant(XxzParams(0.0, 1.0, 0.0), 1.0)
        opposite = SwapPlan(2, 1, 1.0).schedule()
        for schedule, kind in ((idle, "swap"), (opposite, "return_to_self")):
            report = verify_schedule(schedule, kind, tolerance=0.49)
            assert report.trace_overlap == pytest.approx(0.5) and not report.passed
            for tolerance in (0.5, 0.99):
                with pytest.raises(ValidationError, match="tolerance must be below 1/2, got"):
                    verify_schedule(schedule, kind, tolerance=tolerance)
        with pytest.raises(ValidationError, match="tolerance must be below 1/2"):
            verify_swap(SwapPlan(2, 1, 1.0), tolerance=0.5)

    def test_seed_validated(self):
        plan = SwapPlan(2, 1, 1.0)
        for seed in (1.5, True, "7", None):
            with pytest.raises(ValidationError, match="seed must be an integer"):
                verify_swap(plan, seed=seed)
        for seed in (-1, 2**128):
            with pytest.raises(ValidationError, match=r"seed must lie in \[0, 2\*\*128\)"):
                verify_swap(plan, seed=seed)
            with pytest.raises(ValidationError, match="seed must lie"):
                verify_schedule(PulseSchedule.constant(plan.params, plan.tau), plan.kind, seed=seed)
        assert verify_swap(plan, seed=2**128 - 1).passed
        assert verify_swap(plan, seed=np.int64(7)) == verify_swap(plan, seed=7)

    def test_state_count_validated(self):
        plan = SwapPlan(2, 1, 1.0)
        schedule = PulseSchedule.constant(plan.params, plan.tau)
        for n_states in (True, 2.5, "3", None):
            with pytest.raises(ValidationError, match="n_states must be an integer"):
                verify_swap(plan, n_states=n_states)
            with pytest.raises(ValidationError, match="n_states must be an integer"):
                verify_schedule(schedule, plan.kind, n_states=n_states)
        for report in (
            verify_swap(plan, n_states=np.int64(5)),
            verify_schedule(schedule, plan.kind, n_states=np.int64(5)),
        ):
            assert report == verify_swap(plan, n_states=5)
            assert type(report.states_checked) is int

    def test_negative_state_count_rejected(self):
        plan = SwapPlan(2, 1, 1.0)
        with pytest.raises(ValidationError, match="n_states must be nonnegative"):
            verify_swap(plan, n_states=-1)
        with pytest.raises(ValidationError, match="n_states must be nonnegative"):
            verify_schedule(plan.schedule(), plan.kind, n_states=-1)
        assert verify_swap(plan, n_states=0).states_checked == 0

    def test_kind_may_be_its_string_value(self):
        for plan in (SwapPlan(2, 1, 1.0), SwapPlan(3, 1, 1.0)):
            report = verify_schedule(plan.schedule(), plan.kind.value)
            assert report == verify_schedule(plan.schedule(), plan.kind) == verify_swap(plan)
            assert report.passed
        assert SwapKind("swap") is SwapKind.SWAP
        for kind in ("bogus", "SWAP"):
            with pytest.raises(ValidationError, match="kind must be one of"):
                verify_schedule(plan.schedule(), kind)

    def test_report_is_reproducible(self):
        a = verify_swap(SwapPlan(2, 1, 1.0), seed=7)
        b = verify_swap(SwapPlan(2, 1, 1.0), seed=7)
        assert a == b

    def test_multisegment_schedule_hitting_conditions_passes(self):
        # split the (2, 1) solution into two unequal constant stretches
        params = SwapPlan(2, 1, 1.0).params
        schedule = PulseSchedule((Segment(params, 0.3), Segment(params, 0.7)))
        report = verify_schedule(schedule, SwapKind.SWAP)
        assert report.passed


def scalar_reference(phases, kind, n_states, seed):
    """Worst state fidelity and impurity over the verifier's seeded states,
    evolved one at a time through the public scalar path."""
    qubits = _random_qubits(stream(seed, 0), 2 * n_states).reshape(n_states, 2, 2)
    fidelities, impurities = [], []
    for a, b in qubits:
        alpha, beta = QubitAmplitudes(*a), QubitAmplitudes(*b)
        evolved = propagate(make_product_state(alpha, beta), phases)
        for which, own, partner in ((0, alpha, beta), (1, beta, alpha)):
            rho = reduce_to_qubit(evolved, which)
            impurities.append(rho.determinant())
            fidelities.append(rho.pure_fidelity(partner if kind is SwapKind.SWAP else own))
    return min(fidelities, default=1.0), max(impurities, default=0.0)


def detuned_schedule():
    plan = SwapPlan(2, 1, 1.0)
    detuned = XxzParams(plan.params.J * 1.01, plan.params.Delta, plan.params.Gamma)
    return PulseSchedule.constant(detuned, plan.tau)


class TestBatchedVerifier:
    @pytest.mark.parametrize(
        "schedule, kind, n_states, seed, passes",
        [
            (SwapPlan(2, 1, 1.0).schedule(), SwapKind.SWAP, 50, 7, True),
            (SwapPlan(-2, 1, 0.7).schedule(), SwapKind.SWAP, 50, 42424242, True),
            (SwapPlan(3, 1, 1.3).schedule(), SwapKind.RETURN_TO_SELF, 50, 99, True),
            (detuned_schedule(), SwapKind.SWAP, 50, 3, False),
            (SwapPlan(2, 1, 1.0).schedule(), SwapKind.SWAP, 0, 7, True),
        ],
        ids=["swap", "swap-negative-n", "return-to-self", "detuned", "no-states"],
    )
    def test_matches_scalar_reference(self, schedule, kind, n_states, seed, passes):
        phases = accumulate_phases(schedule, schedule.total_duration)
        report = verify_schedule(schedule, kind, n_states=n_states, seed=seed)
        min_fidelity, max_impurity = scalar_reference(phases, kind, n_states, seed)
        assert abs(report.min_state_fidelity - min_fidelity) <= 1e-14
        assert abs(report.max_reduced_impurity - max_impurity) <= 1e-14
        assert report.states_checked == n_states
        assert report.passed is passes
        if passes:
            assert min_fidelity >= 1 - 1e-10
        else:
            assert min_fidelity < 1 - 1e-6

    @pytest.mark.parametrize("scale", [1.001, 1.01, 1.1, 1.5, 0.7])
    def test_fidelity_bounds_reported_impurity(self, scale):
        # det(rho) = l (1 - l) <= l_min <= 1 - <chi|rho|chi> for the reduced
        # eigenvalues l, so passing the fidelity check bounds the impurity
        plan = SwapPlan(2, 1, 1.0)
        detuned = XxzParams(plan.params.J * scale, plan.params.Delta, plan.params.Gamma * scale)
        report = verify_schedule(PulseSchedule.constant(detuned, plan.tau), SwapKind.SWAP)
        assert not report.passed
        assert report.max_reduced_impurity > 1e-8
        assert report.max_reduced_impurity <= 1 - report.min_state_fidelity + 1e-15

    def test_plan_and_schedule_agree(self):
        plan = SwapPlan(5, -4, 0.7)
        assert verify_swap(plan, seed=11) == verify_schedule(plan.schedule(), plan.kind, seed=11)

    def test_non_finite_state_fails(self, monkeypatch):
        def with_nan(rng, count):
            qubits = _random_qubits(rng, count)
            qubits[3] = np.nan
            return qubits

        monkeypatch.setattr(xxzswap.swaps, "_random_qubits", with_nan)
        report = verify_swap(SwapPlan(2, 1, 1.0))
        assert math.isnan(report.min_state_fidelity)
        assert math.isnan(report.max_reduced_impurity)
        assert not report.passed

    def test_random_qubits_draw_order(self):
        # per qubit: two real parts, then two imaginary parts
        rng = stream(5, 0)
        expected = []
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            expected.append(v / np.linalg.norm(v))
        np.testing.assert_allclose(_random_qubits(stream(5, 0), 20), expected, rtol=0, atol=1e-15)

    def test_random_qubits_redraws_zero_norm(self):
        class ZerosFirst:
            def __init__(self):
                self.rng = stream(1, 0)
                self.calls = 0

            def standard_normal(self, shape):
                self.calls += 1
                return np.zeros(shape) if self.calls == 1 else self.rng.standard_normal(shape)

        qubits = _random_qubits(ZerosFirst(), 3)
        assert np.all(np.isfinite(qubits))
        np.testing.assert_allclose(np.linalg.norm(qubits, axis=1), 1.0, rtol=0, atol=1e-15)


class TestOddPairsProperty:
    def test_all_odd_pairs_swap_exactly(self):
        for m in range(-5, 6):
            for n in range(-5, 6):
                if m == n or (m - n) % 2 == 0:
                    continue
                report = verify_swap(SwapPlan(m, n, 1.0), n_states=5)
                assert report.trace_overlap >= 1 - 1e-10, (m, n)
                assert report.min_state_fidelity >= 1 - 1e-10, (m, n)
                assert report.max_reduced_impurity < 1e-10, (m, n)
                # operator-level global phase factor is (-1)^n e^{-i phi_z/4}
                predicted = (PI / 4) * (-(m + n)) + (PI if n % 2 else 0.0)
                difference = (report.global_phase - predicted) % (2 * PI)
                assert min(difference, 2 * PI - difference) < 1e-9, (m, n)

    def test_even_pairs_restore_and_classify_consistently(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                if m == n or (m - n) % 2 != 0:
                    continue
                plan = SwapPlan(m, n, 1.0)
                assert classify_outcome(m, n) is plan.kind
                report = verify_swap(plan, n_states=5)
                assert report.passed, (m, n)


@pytest.fixture(scope="module")
def scan():
    return delta_feasibility_scan(range(-3, 4), range(-3, 4))


class TestFeasibilityScan:
    def test_expected_verified_pairs(self, scan):
        by_pair = {(r.m, r.n): r for r in scan}
        row = by_pair[(2, 1)]
        assert row.delta == pytest.approx(3.0)
        assert row.kind is SwapKind.SWAP
        assert row.trace_overlap >= 1 - 1e-10
        row = by_pair[(1, 0)]
        assert row.delta == pytest.approx(1.0)
        assert row.trace_overlap >= 1 - 1e-10

    def test_low_anisotropy_candidate_outcome_recorded(self, scan):
        # (2, -1) formally solves the conditions with delta = 1/3 through a
        # negative n; the scan records its measured outcome as data
        by_pair = {(r.m, r.n): r for r in scan}
        row = by_pair[(2, -1)]
        assert row.delta == pytest.approx(1 / 3)
        assert row.kind is SwapKind.SWAP
        assert 0.0 <= row.trace_overlap <= 1.0

    def test_sorted_by_delta(self, scan):
        deltas = [r.delta for r in scan]
        assert deltas == sorted(deltas)

    def test_pair_count(self, scan):
        assert len(scan) == 7 * 7 - 7

    def test_empty_range_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            delta_feasibility_scan([], range(3))

    BOXES = [
        (range(-4, 5), range(-4, 5)),
        # |m| and |n| at and near the 2**53 bound of a pair, m = n among them
        (range(2**53 - 2, 2**53 + 1), [2**53 - 1, -(2**53), 1 - 2**53, 0]),
        ([7], [7]),  # the only pair has m = n, so the table is empty
        # numpy-integer ranges: rows keep the caller's m and n
        (np.arange(-3, 4), np.arange(-3, 4, dtype=np.int32)),
    ]

    @pytest.mark.parametrize("tau", [1.0, 0.83, 1.7])
    def test_rows_match_verify_swap_bitwise_without_drawing(self, tau, monkeypatch):
        def no_stream(seed, index):
            raise AssertionError("the scan opened a random stream")

        for m_values, n_values in self.BOXES:
            with monkeypatch.context() as patch:
                patch.setattr(xxzswap.swaps, "stream", no_stream)
                rows = delta_feasibility_scan(m_values, n_values, tau)
            pairs = [(m, n) for m in m_values for n in n_values if m != n]
            assert sorted((row.m, row.n) for row in rows) == sorted(pairs)
            for row in rows:
                assert (type(row.m), type(row.n)) == (type(m_values[0]), type(n_values[0]))
                report = verify_swap(SwapPlan(row.m, row.n, tau))
                assert (row.trace_overlap.hex(), row.global_phase.hex()) == (
                    report.trace_overlap.hex(), report.global_phase.hex()
                ), (row.m, row.n)

    # (5k, 3k) at tau = 1e-300 has finite J and Gamma, but J Delta overflows
    K = int(5e307 * 1e-300 / PI)

    @pytest.mark.parametrize(
        "m_values, n_values, tau, message",
        [
            ([0, 2**54], [1, 2.5], 1.0, "n must be an integer, got 2.5"),
            ([0, 1], [1, 0], -1.0, "tau must be finite and positive, got -1.0"),
            ([0, 1], [2.5, 0], -1.0, "n must be an integer, got 2.5"),
            ([5 * K], [3 * K, 2.5], 1e-300, "phi_z must be finite, got inf"),
        ],
        ids=["pair-before-later-m", "tau", "pair-before-tau", "phases-before-later-pair"],
    )
    def test_first_failing_pair_in_m_major_order_raises(self, m_values, n_values, tau, message):
        # each pair's plan and phases are built before the next pair's
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            delta_feasibility_scan(m_values, n_values, tau)


class TestIsSwapPoint:
    def test_known_points(self):
        assert is_swap_point(PhaseTriple(PI, 3 * PI, PI))
        assert is_swap_point(PhaseTriple(PI, PI, 0.0))
        assert is_swap_point(PhaseTriple(3 * PI, PI, -PI))
        # phi_h is seen modulo 2 pi and phi_z modulo 4 pi
        assert is_swap_point(PhaseTriple(PI, PI, 2 * PI))
        assert is_swap_point(PhaseTriple(PI, 5 * PI, 0.0))

    def test_rejects_non_points(self):
        assert not is_swap_point(PhaseTriple(0, 0, 0))
        assert not is_swap_point(PhaseTriple(2 * PI, 2 * PI, 0))  # even difference
        assert not is_swap_point(PhaseTriple(PI, 3 * PI, PI + 0.5))
        assert not is_swap_point(PhaseTriple(PI, 3 * PI + 0.5, PI))
        assert not is_swap_point(PhaseTriple(PI, 3 * PI, 2 * PI))  # gate fidelity 0.467

    @pytest.mark.parametrize(
        "m, n",
        [
            (2, 1),
            (1000001, 1000000),
            (-999999, 1000000),
            (1000000, -999999),
            (999999, -1000000),
            (3, -1000000),
            (-1000000, 999997),
            (654321, -123456),
            (1000000, 7),
        ],
    )
    def test_phases_summed_over_segments(self, m, n):
        # an exact plan split into k equal segments accumulates a few ulp of
        # rounding on phases of size ~2e6 pi, beyond an absolute 1e-9
        plan = SwapPlan(m, n, 0.7)
        for k in (13, 50, 100):
            schedule = PulseSchedule(tuple(Segment(plan.params, 0.7 / k) for _ in range(k)))
            phases = accumulate_phases(schedule, schedule.total_duration)
            assert is_swap_point(phases)
            assert verify_schedule(schedule, plan.kind).passed
            # the scaled tolerance still rejects a visible phase error
            assert not is_swap_point(PhaseTriple(phases.phi_x, phases.phi_z + 1e-5, phases.phi_h))
