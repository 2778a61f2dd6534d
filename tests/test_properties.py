"""Property tests of the stacked closed forms: unitarity, phase additivity
under composition, the range of the gate fidelity, agreement with the
dense-exponential oracle, and the swap set's period in the Zeeman phase."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xxzswap import (
    PhaseTriple,
    PulseSchedule,
    SwapKind,
    SwapPlan,
    XxzParams,
    accumulate_phases,
    gate_fidelity,
    is_swap_point,
    verify_schedule,
)
from xxzswap.dynamics import _exponentials, _propagators

# derandomized: every run tries the same examples and keeps no database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def reals(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


def stacks(*elements):
    """Stacks of 1 to 16 cases, as an array with one column per element."""
    return st.lists(st.tuples(*elements), min_size=1, max_size=16).map(np.array)


def dagger(U):
    return np.swapaxes(U.conj(), -1, -2)


@PROPERTY
@given(stacks(reals(1e6), reals(1e6), reals(1e6)))
def test_stacked_propagators_are_unitary(phases):
    U = _propagators(*phases.T)
    assert np.max(np.abs(U @ dagger(U) - np.eye(4))) < 1e-14


@PROPERTY
@given(stacks(*[reals(100.0)] * 6))
def test_phases_add_under_composition(pairs):
    a, b = pairs[:, :3], pairs[:, 3:]
    joined = _propagators(*(a + b).T)
    assert np.max(np.abs(joined - _propagators(*a.T) @ _propagators(*b.T))) < 1e-12


@PROPERTY
@given(reals(1e6), reals(1e6), reals(1e6))
def test_gate_fidelity_stays_within_bounds(phi_x, phi_z, phi_h):
    assert 1 / 6 - 1e-15 <= gate_fidelity(PhaseTriple(phi_x, phi_z, phi_h)) <= 1 + 1e-15


@PROPERTY
@given(stacks(reals(3.0), reals(3.0), reals(3.0), st.floats(0.0, 5.0)))
def test_closed_form_agrees_with_dense_oracle(cases):
    J, Delta, Gamma, t = cases.T
    closed = _propagators(J * t, J * Delta * t, Gamma * t)
    assert np.max(np.abs(closed - _exponentials(J, Delta, Gamma, t))) < 1e-10


@PROPERTY
@given(
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
    st.floats(0.01, 100.0),
)
def test_swap_set_is_periodic_in_the_zeeman_phase(m, n, j, tau):
    # Gamma = (n + 2j) pi / tau winds phi_h by j turns past the plan's n pi;
    # one more pi on phi_h leaves the set
    assume(m != n)
    plan = SwapPlan(m, n, tau)
    for extra, inside in ((0, True), (1, False)):
        gamma = (n + 2 * j + extra) * math.pi / tau
        schedule = PulseSchedule.constant(XxzParams(plan.params.J, plan.params.Delta, gamma), tau)
        assert verify_schedule(schedule, plan.kind).passed is inside
        swap = inside and plan.kind is SwapKind.SWAP
        assert is_swap_point(accumulate_phases(schedule, tau)) is swap
