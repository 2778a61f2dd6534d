"""Every real scalar the library takes from a caller passes the one check in
``errors.check_real``, every count the one check in ``errors.check_integer``,
every value object the one check in ``errors.check_type`` and every sequence
the one check in ``errors.check_iterable``: a value of the wrong kind, or one
that misses the bound its argument carries, raises ``ValidationError`` naming
that argument."""

import math

import numpy as np
import pytest

from xxzswap import (
    CouplingSpec,
    DotSpec,
    FluctuationSpec,
    PhaseTriple,
    PulseSchedule,
    QubitAmplitudes,
    Segment,
    SwapPlan,
    TwoQubitPureState,
    ValidationError,
    XxzParams,
    accumulate_phases,
    average_fidelity_analytic,
    average_fidelity_mc,
    delta_feasibility_scan,
    dense_exponential_oracle,
    effective_params,
    eigensystem,
    fidelity_grid,
    gate_fidelity,
    hamiltonian_matrix,
    is_swap_point,
    make_product_state,
    map_to_swap,
    perturbed_levels,
    propagate,
    propagator_matrix,
    reduce_to_qubit,
    reduced_determinant_closed_form,
    state_ensemble_fidelity,
    verify_schedule,
    verify_swap,
)
from xxzswap.errors import check_real

PARAMS = XxzParams(1.0, 1.0, 1.0)
PLAN = SwapPlan(2, 1, 1.0)
ORIGIN = PhaseTriple(0.0, 0.0, 0.0)
DOT = dict(hbar_omega0=1.0, zeeman_z=0.2, gradient_coupling=0.1, g_times_b=0.05)
COUPLING = dict(U=1.0, V=0.5, t00=0.05, t11=0.05, t12=0.02)
CONFINEMENT = dict(mass=2.0, omega0=1.0, g_mu_b_b0=0.2, g_mu_b_gradient=0.1)
QUBIT = QubitAmplitudes(1, 0)
STATE = TwoQubitPureState(1, 0, 0, 0)


def effective():
    return effective_params(DotSpec(**DOT), DotSpec(**DOT), CouplingSpec(**COUPLING))


def fields(cls, base, name):
    return lambda v: cls(**dict(base, **{name: v}))


# (argument, call with the value in that argument's place, whether it carries
# a sign bound): each call is valid at the argument's base value
TARGETS = [
    ("tau", lambda v: SwapPlan(2, 1, v), True),
    ("tolerance", lambda v: verify_swap(SwapPlan(2, 1, 1.0), tolerance=v), True),
    ("tolerance", lambda v: map_to_swap(effective(), 1, 0, tolerance=v), True),
    ("duration", lambda v: Segment(PARAMS, v), True),
    ("t", lambda v: accumulate_phases(PulseSchedule.constant(PARAMS, 2.0), v), True),
    ("t", lambda v: dense_exponential_oracle(PARAMS, v), False),
    *(
        (name, fields(FluctuationSpec, dict(lambda_x=0, lambda_z=0, lambda_h=0), name), True)
        for name in ("lambda_x", "lambda_z", "lambda_h")
    ),
    ("xz_values", lambda v: fidelity_grid([0.0, v], [0.0], samples=1), True),
    ("h_values", lambda v: fidelity_grid([0.0], [v], samples=1), True),
    *(
        (name, fields(XxzParams, dict(J=1, Delta=1, Gamma=1), name), False)
        for name in ("J", "Delta", "Gamma")
    ),
    *(
        (name, fields(PhaseTriple, dict(phi_x=0, phi_z=0, phi_h=0), name), False)
        for name in ("phi_x", "phi_z", "phi_h")
    ),
    ("hbar_omega0", fields(DotSpec, DOT, "hbar_omega0"), True),
    *(
        (name, fields(DotSpec, DOT, name), False)
        for name in ("zeeman_z", "gradient_coupling", "g_times_b")
    ),
    ("mass", fields(DotSpec.from_confinement, CONFINEMENT, "mass"), True),
    ("omega0", fields(DotSpec.from_confinement, CONFINEMENT, "omega0"), True),
    ("g_mu_b_gradient", fields(DotSpec.from_confinement, CONFINEMENT, "g_mu_b_gradient"), False),
    *((name, fields(CouplingSpec, COUPLING, name), False) for name in COUPLING),
    ("a0", fields(QubitAmplitudes, dict(a0=1, a1=0), "a0"), False),
    ("a1", fields(QubitAmplitudes, dict(a0=0, a1=1), "a1"), False),
    # value objects and kinds: no scalar is one
    ("params", lambda v: Segment(v, 1.0), False),
    ("segments", lambda v: PulseSchedule((Segment(PARAMS, 1.0), v)), False),
    ("phases", propagator_matrix, False),
    ("phases", gate_fidelity, False),
    ("phases", is_swap_point, False),
    ("phases", lambda v: state_ensemble_fidelity(v, "haar_product", samples=1), False),
    ("spec", average_fidelity_analytic, False),
    ("spec", lambda v: average_fidelity_mc(v, samples=1), False),
    ("kind", lambda v: verify_schedule(PLAN.schedule(), v, n_states=1), False),
    ("plan", verify_swap, False),
    ("schedule", lambda v: verify_schedule(v, "swap", n_states=1), False),
    ("schedule", lambda v: accumulate_phases(v, 0.0), False),
    ("dot", perturbed_levels, False),
    ("dot_i", lambda v: effective_params(v, DotSpec(**DOT), CouplingSpec(**COUPLING)), False),
    ("dot_j", lambda v: effective_params(DotSpec(**DOT), v, CouplingSpec(**COUPLING)), False),
    ("coupling", lambda v: effective_params(DotSpec(**DOT), DotSpec(**DOT), v), False),
    ("effective", lambda v: map_to_swap(v, 1, 0), False),
    ("state", lambda v: propagate(v, ORIGIN), False),
    ("state", lambda v: reduce_to_qubit(v, 0), False),
    ("alpha", lambda v: reduced_determinant_closed_form(v, QUBIT, ORIGIN), False),
    ("beta", lambda v: reduced_determinant_closed_form(QUBIT, v, ORIGIN), False),
    ("phases", lambda v: reduced_determinant_closed_form(QUBIT, QUBIT, v), False),
    ("target", lambda v: reduce_to_qubit(STATE, 0).pure_fidelity(v), False),
    ("alpha", lambda v: make_product_state(v, QUBIT), False),
    ("beta", lambda v: make_product_state(QUBIT, v), False),
    # sequences and vectors: no scalar is one
    ("m_values", lambda v: delta_feasibility_scan(v, [0]), False),
    ("n_values", lambda v: delta_feasibility_scan([1], v), False),
    ("vec", TwoQubitPureState.from_vector, False),
]

# Entry points whose argument a TARGETS row already names. pytest numbers the
# ids of repeated names, so a second row would rename the first row's tests.
SAME_NAME_TARGETS = [
    ("params", "eigensystem", eigensystem),
    ("params", "hamiltonian_matrix", hamiltonian_matrix),
    ("params", "dense_exponential_oracle", lambda v: dense_exponential_oracle(v, 1.0)),
    ("segments", "PulseSchedule", PulseSchedule),
    ("xz_values", "fidelity_grid", lambda v: fidelity_grid(v, [0.0], samples=1)),
    ("h_values", "fidelity_grid", lambda v: fidelity_grid([0.0], v, samples=1)),
]

BAD_VALUES = {
    "none": None,
    "str": "1",
    "bool": True,
    "nan": math.nan,
    "inf": math.inf,
    "beyond-float-range": 10**400,
}

CASES = [
    pytest.param(call, value, id=f"{name}-{tag}")
    for name, call, bounded in TARGETS
    for tag, value in [*BAD_VALUES.items(), *([("negative", -1)] if bounded else [])]
]


@pytest.mark.parametrize("call, value", CASES)
def test_invalid_scalar_raises_validation_error(call, value):
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize(
    "name, call", [(name, call) for name, call, _ in TARGETS], ids=[name for name, _, _ in TARGETS]
)
def test_error_names_the_argument(name, call):
    with pytest.raises(ValidationError, match=name):
        call(None)


@pytest.mark.parametrize(
    "name, call",
    [(name, call) for name, _, call in SAME_NAME_TARGETS],
    ids=[f"{where}-{name}" for name, where, _ in SAME_NAME_TARGETS],
)
def test_same_name_arguments_reject_scalars_naming_the_argument(name, call):
    for value in BAD_VALUES.values():
        with pytest.raises(ValidationError, match=name):
            call(value)


def test_numpy_scalars_and_integers_are_accepted_as_floats():
    for value in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
        number = check_real(value, "x", "positive")
        assert type(number) is float and number == 2.0
    assert check_real(np.complex128(1j), "x", cast=complex) == 1j
    with pytest.raises(ValidationError, match="real number"):
        check_real(1j, "x")
    with pytest.raises(ValidationError, match="complex number"):
        check_real(np.bool_(True), "x", cast=complex)
    assert check_real(0.0, "x", "nonnegative") == 0.0
    with pytest.raises(ValidationError, match="finite and positive"):
        check_real(0.0, "x", "positive")


# (argument, call with the count in that argument's place, its bound)
COUNTS = [
    ("samples", lambda v: average_fidelity_mc(FluctuationSpec(0, 0, 0), samples=v), "positive"),
    ("samples", lambda v: state_ensemble_fidelity(ORIGIN, "haar_product", samples=v), "positive"),
    ("n_states", lambda v: verify_swap(PLAN, n_states=v), "nonnegative"),
    ("n_states", lambda v: verify_schedule(PLAN.schedule(), "swap", n_states=v), "nonnegative"),
    ("samples", lambda v: fidelity_grid([0.5], [0.5], samples=v)[0], "positive"),
]


@pytest.mark.parametrize("name, call, bound", COUNTS, ids=[name for name, _, _ in COUNTS])
def test_counts_are_integers_within_their_bound(name, call, bound):
    least = 1 if bound == "positive" else 0
    for value in (None, "1", "10", True, 1.0, 2.5, 1e3, math.nan):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            call(value)
    with pytest.raises(ValidationError, match=f"{name} must be {bound}, got {least - 1}"):
        call(least - 1)
    # a numpy integer gives the same result, which carries the count as an int
    result = call(np.int64(least))
    count = getattr(result, "states_checked" if name == "n_states" else name)
    assert result == call(least) and type(count) is int and count == least


# (callee, call with the seed in its place): every seed is a Philox key
SEEDS = [
    ("verify_swap", lambda v: verify_swap(PLAN, n_states=1, seed=v)),
    ("verify_schedule", lambda v: verify_schedule(PLAN.schedule(), "swap", n_states=1, seed=v)),
    ("average_fidelity_mc", lambda v: average_fidelity_mc(FluctuationSpec(0.8, 1.2, 0.4), 10, v)),
    ("state_ensemble_fidelity", lambda v: state_ensemble_fidelity(ORIGIN, "haar_product", 10, v)),
    ("fidelity_grid", lambda v: fidelity_grid([0.5], [0.5], 10, v)[0]),
]


@pytest.mark.parametrize("call", [call for _, call in SEEDS], ids=[f"seed-{name}" for name, _ in SEEDS])
def test_seeds_are_philox_keys(call):
    for value in (None, "7", True, 1.5, math.nan):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            call(value)
    for value in (-1, 2**128, -(2**200)):
        with pytest.raises(ValidationError, match=rf"seed must lie in \[0, 2\*\*128\), got {value}$"):
            call(value)
    # the largest key, and a numpy integer as the same key
    assert getattr(call(2**128 - 1), "passed", True)
    assert call(np.uint64(7)) == call(7)


def test_mean_phases_must_be_a_phase_triple():
    # a tuple used to be stored, and failed only when the average read it
    with pytest.raises(ValidationError, match="mean_phases"):
        FluctuationSpec(1, 1, 1, (0, 0, 0))
    assert average_fidelity_analytic(FluctuationSpec(1, 1, 1, PhaseTriple(0, 0, 0))) < 1.0
