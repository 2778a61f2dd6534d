"""Tests for the pseudospin level structure and the effective exchange
parameter mapping."""

import collections
import dataclasses
import hashlib
import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from xxzswap import (
    CouplingSpec,
    DotSpec,
    EffectiveParams,
    SingularityError,
    ValidationError,
    effective_params,
    map_to_swap,
    perturbed_levels,
    verify_swap,
)

# worked symmetric-dot example, frozen from the defining formulas with
# h = -sqrt(2)/2 * 0.1 and denominators -0.6, -1.4
EXAMPLE_DOT = dict(hbar_omega0=1.0, zeeman_z=0.2, gradient_coupling=0.1, g_times_b=0.05)
EXAMPLE_C_PLUS = 0.11785113019775792
EXAMPLE_C_MINUS = 0.05050762722761055
EXAMPLE_E_PLUS = 0.6916666666666667
EXAMPLE_E_MINUS = 0.29642857142857143
EXAMPLE_OMEGA = 0.3952380952380952


def truncated_ground_energies(dot):
    """Oracle: exact ground energies of the two-orbital, two-spin model.

    Diagonalizes each 2x2 spin block {|0, s>, |1, -s>} of the truncated
    Hamiltonian directly, independent of the perturbative formulas.
    """
    h = -0.5 * math.sqrt(2.0) * dot.gradient_coupling
    ground = {}
    for s in (+1, -1):
        block = np.array(
            [
                [0.5 * dot.hbar_omega0 + dot.zeeman_z * s, h],
                [h, 1.5 * dot.hbar_omega0 - dot.zeeman_z * s],
            ]
        )
        ground[s] = float(np.linalg.eigvalsh(block)[0])
    return ground[+1], ground[-1]


class TestPerturbedLevels:
    def test_zero_gradient_is_pure_zeeman(self):
        levels = perturbed_levels(DotSpec(1.0, 0.2, 0.0, 0.0))
        assert levels.c_plus == 0.0
        assert levels.c_minus == 0.0
        assert levels.omega == pytest.approx(0.4, abs=1e-15)
        assert levels.e_plus == pytest.approx(0.7, abs=1e-15)
        assert levels.e_minus == pytest.approx(0.3, abs=1e-15)

    def test_worked_example(self):
        levels = perturbed_levels(DotSpec(**EXAMPLE_DOT))
        assert levels.c_plus == pytest.approx(EXAMPLE_C_PLUS, abs=1e-15)
        assert levels.c_minus == pytest.approx(EXAMPLE_C_MINUS, abs=1e-15)
        assert levels.e_plus == pytest.approx(EXAMPLE_E_PLUS, abs=1e-15)
        assert levels.e_minus == pytest.approx(EXAMPLE_E_MINUS, abs=1e-15)
        assert levels.omega == pytest.approx(EXAMPLE_OMEGA, abs=1e-15)

    def test_against_truncated_diagonalization_oracle(self):
        # second-order energies must track the exact two-orbital ground
        # energies within the next-order error scale 10 (h / dE)^3
        for zeeman in (0.0, 0.1, 0.25, 0.4):
            for gradient in (0.01, 0.03, 0.05):
                dot = DotSpec(1.0, zeeman, gradient, gradient)
                levels = perturbed_levels(dot)
                exact_plus, exact_minus = truncated_ground_energies(dot)
                h = 0.5 * math.sqrt(2.0) * gradient
                for approx, exact, s in (
                    (levels.e_plus, exact_plus, +1),
                    (levels.e_minus, exact_minus, -1),
                ):
                    gap = abs((0.5 + zeeman * s) - (1.5 - zeeman * s))
                    assert abs(approx - exact) / abs(exact) < 10 * (h / gap) ** 3

    @pytest.mark.filterwarnings("ignore:mixing coefficient")
    def test_second_order_shift_sign_follows_denominator(self):
        # E_s - E0(0, s) = h^2 / denominator on both spin branches; |zeeman_z|
        # beyond hbar_omega0 / 2 turns a branch's denominator positive
        rng = np.random.default_rng(19)
        seen = set()
        for _ in range(200):
            zeeman = rng.uniform(-0.95, 0.95)
            gradient = rng.uniform(0.0, 0.99) * (1.0 - abs(zeeman))
            if min(abs(2 * zeeman - 1.0), abs(2 * zeeman + 1.0)) < 1e-6:
                continue
            levels = perturbed_levels(DotSpec(1.0, zeeman, gradient, gradient))
            for shifted, s in ((levels.e_plus, +1), (levels.e_minus, -1)):
                unperturbed = 0.5 + zeeman * s
                denominator = unperturbed - (1.5 - zeeman * s)
                assert (shifted - unperturbed) * denominator >= 0.0
                seen.add((s, denominator > 0.0))
        assert seen == {(+1, True), (+1, False), (-1, True), (-1, False)}

    def test_degenerate_denominator_raises(self):
        with pytest.raises(SingularityError, match="degenerate"):
            perturbed_levels(DotSpec(1.0, 0.5, 0.1, 0.1))
        with pytest.raises(SingularityError, match="degenerate"):
            perturbed_levels(DotSpec(1.0, -0.5, 0.1, 0.1))
        # a subnormal dot, where 1e-12 * hbar_omega0 underflows to 0
        with pytest.raises(SingularityError, match="degenerate"):
            perturbed_levels(DotSpec(2e-323, 1e-323, 0.0, 0.05))

    def test_overflowing_second_order_shift_raises(self):
        # the dot passes its own checks, but its shift h^2 / (-2e290) is -4e308
        dot = DotSpec(1e300, 4.999999999e299, 4e299, 0.05)
        with pytest.raises(SingularityError, match=r"second-order shift .* overflows") as info:
            perturbed_levels(dot)
        assert "e_plus = -inf" in str(info.value)
        assert "gradient_coupling = 4e+299" in str(info.value)
        with pytest.raises(SingularityError, match="not finite"):
            effective_params(dot, dot, CouplingSpec(1e200, 0.0, 0.05, 0.05, 0.02))

    def test_finite_shift_maps_where_h_squared_overflows(self):
        # the worked example in a unit of 1e300, where h^2 overflows, and of
        # 1.7e308, where 1.5 hbar_omega0 overflows too: the levels are finite
        for unit, dot, rel in (
            (1e300, DotSpec(1e300, 2e299, 1e299, 0.05), 1e-14),
            (1.7e308, DotSpec(1.7e308, 0.34e308, 0.17e308, 0.05), 1e-15),
        ):
            levels = perturbed_levels(dot)
            assert levels.c_plus == pytest.approx(EXAMPLE_C_PLUS, rel=rel)
            assert levels.c_minus == pytest.approx(EXAMPLE_C_MINUS, rel=rel)
            assert levels.e_plus == pytest.approx(EXAMPLE_E_PLUS * unit, rel=rel)
            assert levels.e_minus == pytest.approx(EXAMPLE_E_MINUS * unit, rel=rel)
            assert levels.omega == pytest.approx(EXAMPLE_OMEGA * unit, rel=rel)
            effective = effective_params(dot, dot, CouplingSpec(1e200, 0.0, 0.05, 0.05, 0.02))
            assert effective.omega == levels.omega
            assert math.isfinite(effective.delta_tilde) and math.isfinite(effective.omega_tilde)

    def test_subnormal_dot_maps_like_its_scaled_copy(self):
        # 40, 7 and 3 times the smallest subnormal, against the same dot times 2**1074
        tiny = math.ldexp(1.0, -1074)
        levels = perturbed_levels(DotSpec(40 * tiny, 7 * tiny, 3 * tiny, 0.05))
        copy = perturbed_levels(DotSpec(40.0, 7.0, 3.0, 0.05))
        assert (levels.c_plus, levels.c_minus) == (copy.c_plus, copy.c_minus)
        assert (levels.e_plus, levels.e_minus) == (
            math.ldexp(copy.e_plus, -1074), math.ldexp(copy.e_minus, -1074)
        )
        assert levels.omega == abs(levels.e_plus - levels.e_minus) > 0.0

    def test_every_energy_unit_gives_the_same_levels(self):
        # a dot times 2**k has its levels times 2**k and the same mixings, bit
        # for bit, wherever its inputs and levels are normal floats
        rng = np.random.default_rng(1074)
        compared = 0
        for _ in range(20000):
            k = int(rng.integers(-1020, 1023))
            hbar_omega0 = rng.uniform(0.5, 2.0)
            zeeman = rng.uniform(-0.95, 0.95) * hbar_omega0
            gradient = rng.uniform(-0.99, 0.99) * (hbar_omega0 - abs(zeeman))
            dot = (hbar_omega0, zeeman, gradient)
            scaled = [in_unit(x, k) for x in dot]
            if None in scaled:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # strained dots are inputs too
                unit = perturbed_levels(DotSpec(*dot, 0.05))
                levels = perturbed_levels(DotSpec(*scaled, 0.05))
            expected = [in_unit(getattr(unit, name), k) for name in ("e_plus", "e_minus", "omega")]
            if None in expected:
                continue
            assert [levels.e_plus, levels.e_minus, levels.omega] == expected, (dot, k)
            assert (levels.c_plus, levels.c_minus) == (unit.c_plus, unit.c_minus), (dot, k)
            compared += 1
        assert compared > 19000

    def test_large_mixing_warns(self):
        with pytest.warns(UserWarning, match="exceeds 0.3"):
            perturbed_levels(DotSpec(1.0, 0.42, 0.3, 0.3))

    def test_dotspec_validation(self):
        with pytest.raises(ValidationError, match="positive"):
            DotSpec(0.0, 0.1, 0.0, 0.0)
        with pytest.raises(ValidationError, match="below the orbital quantum"):
            DotSpec(1.0, 0.8, 0.3, 0.3)

    def test_from_confinement_sets_length(self):
        dot = DotSpec.from_confinement(mass=2.0, omega0=1.0, g_mu_b_b0=0.2, g_mu_b_gradient=0.1)
        assert dot.hbar_omega0 == 1.0
        assert dot.zeeman_z == 0.2
        assert dot.gradient_coupling == pytest.approx(0.1 * math.sqrt(2.0 / 2.0))
        assert dot.g_times_b == 0.1

    def test_from_confinement_rejects_an_underflowing_length_scale(self):
        # both are positive, but mass * omega0 underflows to 0
        with pytest.raises(ValidationError, match="mass .* omega0"):
            DotSpec.from_confinement(1e-200, 1e-200, 0.0, 0.0)


EXAMPLE_COUPLING = CouplingSpec(U=1.0, V=0.5, t00=0.05, t11=0.05, t12=0.02)


def rederive_effective(c_i_plus, c_i_minus, c_j_plus, c_j_minus, omega, coupling, ratio):
    """Oracle: evaluate each defining sub-formula separately."""
    t_plus = coupling.t00 + c_i_plus * c_j_plus * coupling.t11
    t_minus = coupling.t00 + c_i_minus * c_j_minus * coupling.t11
    f_plus = (c_i_plus + c_j_minus) * coupling.t12
    f_minus = (c_i_minus + c_j_plus) * coupling.t12
    f = 0.5 * (f_plus + ratio * f_minus)
    gap = coupling.U - coupling.V
    j_eff = 4 * t_plus * t_minus / gap
    delta = (t_plus**2 + t_minus**2) / (2 * t_plus * t_minus) - f**2 / (
        t_plus * t_minus * (1 - omega**2 / gap**2)
    )
    omega_tilde = omega * (1 - 2 * f**2 / (gap**2 - omega**2))
    return t_plus, t_minus, f_plus, f_minus, f, j_eff, delta, omega_tilde


class TestEffectiveParams:
    def test_zero_gradient_isotropic_limit(self):
        dot = DotSpec(1.0, 0.2, 0.0, 0.0)
        eff = effective_params(dot, dot, EXAMPLE_COUPLING)
        assert eff.t_plus == 0.05
        assert eff.t_minus == 0.05
        assert eff.f == 0.0
        assert eff.j_eff == pytest.approx(4 * 0.05**2 / 0.5, abs=1e-15)
        assert eff.delta_tilde == 1.0
        assert eff.omega_tilde == eff.omega

    def test_symmetric_worked_example(self):
        dot = DotSpec(**EXAMPLE_DOT)
        eff = effective_params(dot, dot, EXAMPLE_COUPLING)
        oracle = rederive_effective(
            EXAMPLE_C_PLUS,
            EXAMPLE_C_MINUS,
            EXAMPLE_C_PLUS,
            EXAMPLE_C_MINUS,
            EXAMPLE_OMEGA,
            EXAMPLE_COUPLING,
            ratio=1.0,
        )
        got = (
            eff.t_plus,
            eff.t_minus,
            eff.f_plus,
            eff.f_minus,
            eff.f,
            eff.j_eff,
            eff.delta_tilde,
            eff.omega_tilde,
        )
        assert got == pytest.approx(oracle, abs=1e-15)
        # frozen endpoints of the chain
        assert eff.j_eff == pytest.approx(0.02032950680272109, abs=1e-15)
        assert eff.delta_tilde == pytest.approx(0.9881701987748374, abs=1e-14)
        assert eff.omega_tilde == pytest.approx(0.3951425347701943, abs=1e-15)

    def test_intermediates_recompute_from_stored_values(self):
        dot = DotSpec(**EXAMPLE_DOT)
        eff = effective_params(dot, dot, EXAMPLE_COUPLING)
        gap = EXAMPLE_COUPLING.U - EXAMPLE_COUPLING.V
        assert eff.f == pytest.approx(0.5 * (eff.f_plus + eff.f_minus), abs=1e-12)
        assert eff.j_eff == pytest.approx(4 * eff.t_plus * eff.t_minus / gap, abs=1e-12)
        assert eff.delta_tilde == pytest.approx(
            (eff.t_plus**2 + eff.t_minus**2) / (2 * eff.t_plus * eff.t_minus)
            - eff.f**2 / (eff.t_plus * eff.t_minus * (1 - eff.omega**2 / gap**2)),
            abs=1e-12,
        )
        assert eff.omega_tilde == pytest.approx(
            eff.omega * (1 - 2 * eff.f**2 / (gap**2 - eff.omega**2)), abs=1e-12
        )

    def test_stored_mixing_coefficients_reproduce_tunneling_combinations(self):
        dot_i = DotSpec(1.0, 0.2, 0.1, 0.05)
        dot_j = DotSpec(1.0, 0.25, 0.08, 0.03)
        with pytest.warns(UserWarning, match="differ by more than 1%"):
            eff = effective_params(dot_i, dot_j, EXAMPLE_COUPLING)
        levels_i, levels_j = perturbed_levels(dot_i), perturbed_levels(dot_j)
        assert (eff.c_plus_i, eff.c_minus_i) == (levels_i.c_plus, levels_i.c_minus)
        assert (eff.c_plus_j, eff.c_minus_j) == (levels_j.c_plus, levels_j.c_minus)
        # the docstring formulas, evaluated on the stored values, bit for bit
        t00, t11, t12 = EXAMPLE_COUPLING.t00, EXAMPLE_COUPLING.t11, EXAMPLE_COUPLING.t12
        assert eff.t_plus == t00 + eff.c_plus_i * eff.c_plus_j * t11
        assert eff.t_minus == t00 + eff.c_minus_i * eff.c_minus_j * t11
        assert eff.f_plus == (eff.c_plus_i + eff.c_minus_j) * t12
        assert eff.f_minus == (eff.c_minus_i + eff.c_plus_j) * t12

    def test_inhomogeneous_dots_use_ratio_and_warn(self):
        dot_i = DotSpec(1.0, 0.2, 0.1, 0.05)
        dot_j = DotSpec(1.0, 0.3, 0.08, 0.03)
        with pytest.warns(UserWarning, match="differ by more than 1%"):
            eff = effective_params(dot_i, dot_j, EXAMPLE_COUPLING)
        levels_i = perturbed_levels(dot_i)
        levels_j = perturbed_levels(dot_j)
        assert eff.omega == pytest.approx(0.5 * (levels_i.omega + levels_j.omega), abs=1e-15)
        assert eff.omega_i == levels_i.omega
        assert eff.omega_j == levels_j.omega
        oracle = rederive_effective(
            levels_i.c_plus,
            levels_i.c_minus,
            levels_j.c_plus,
            levels_j.c_minus,
            eff.omega,
            EXAMPLE_COUPLING,
            ratio=0.03 / 0.05,
        )
        assert (eff.t_plus, eff.t_minus, eff.f_plus, eff.f_minus, eff.f) == pytest.approx(
            oracle[:5], abs=1e-15
        )

    def test_resonance_raises(self):
        dot = DotSpec(1.0, 0.2, 0.0, 0.0)  # omega = 0.4
        coupling = CouplingSpec(U=1.0, V=0.6, t00=0.05, t11=0.05, t12=0.02)
        with pytest.raises(SingularityError, match="resonance"):
            effective_params(dot, dot, coupling)

    def test_vanishing_tunneling_product_raises(self):
        dot = DotSpec(1.0, 0.2, 0.0, 0.0)
        coupling = CouplingSpec(U=1.0, V=0.5, t00=0.0, t11=0.05, t12=0.02)
        with pytest.raises(SingularityError, match="tunneling product"):
            effective_params(dot, dot, coupling)

    @pytest.mark.parametrize(
        "dot, coupling, k",
        [
            # U != V, but (U - V)^2 underflows to 0
            ((1.0, 0.2, 0.1, 0.05), (1e-300, 0.0, 0.05, 0.05, 0.02), 600),
            # t_+ t_- ~ 1e-323 is not 0, but its product with 1 - omega^2 / (U - V)^2 is
            ((1.0, 0.2, 0.1, 0.05), (0.4032, 0.0, 3e-162, 0.0, 0.0), 200),
            # omega = 0 is far from |U - V| = 1e-300: no resonance, though both squares are 0
            ((1.0, 0.0, 0.1, 0.05), (1e-300, 0.0, 0.05, 0.05, 0.02), 600),
            # omega = 0, and the pure number 2 f^2 / (U - V)^2 overflows: omega~ = 0
            ((1.0, 0.0, 0.1, 0.05), (1.0, 0.5, 0.05, 0.05, 1e160), -100),
            # f_+ and f_- are finite, their sum overflows, f does not
            ((1.0, 0.2, 0.45, 0.05), (1e308, 0.0, 1e307, 1e307, 1.7e308), -1),
            # the example device, where t_+ t_-, h^2 and the squares overflow in the copy
            ((1.0, 0.2, 0.1, 0.05), (1.0, 0.5, 0.05, 0.05, 0.02), 600),
            # as overflowing-f-sum, with both mixings below the 0.3 that warns
            ((1.0, 0.05, 0.38, 0.05), (1e308, 0.0, 1e307, 1e307, 1.7e308), -1),
        ],
        ids=[
            "gap-squared", "detuned-product", "gap-squared-at-zero-frequency",
            "zero-frequency-overflowing-shift", "overflowing-f-sum", "example-times-2**600",
            "overflowing-f-sum-below-warning",
        ],
    )
    def test_edge_device_maps_like_its_scaled_copy(self, dot, coupling, k):
        # two equal dots; at the copy times 2**k every input stays a normal float
        unit, scaled = (map_in_unit([dot, dot], coupling, shift) for shift in (0, k))
        assert math.isfinite(unit.f) and math.isfinite(unit.omega_tilde)
        assert_maps_alike(unit, scaled, k)

    @pytest.mark.parametrize("U", [1.5e-39, 2e155, 1e300], ids=["tiny-gap", "gap-near-omega", "huge-gap"])
    def test_overflowing_squares_keep_both_terms(self, U):
        # omega^2 overflows at omega ~ 8e154; the values are those of the
        # defining formulas in exact arithmetic, rounded once or a few times
        dot = DotSpec(1.4e155, 4e154, 1.3e153, 0.0856)
        coupling = CouplingSpec(U=U, V=0.0, t00=1e150, t11=2e150, t12=3e150)
        e = effective_params(dot, dot, coupling)
        assert e.omega * e.omega == math.inf
        t_plus, t_minus, f, omega, gap = map(Fraction, (e.t_plus, e.t_minus, e.f, e.omega, U))
        product = t_plus * t_minus
        delta = (t_plus**2 + t_minus**2) / (2 * product) - f**2 / (product * (1 - omega**2 / gap**2))
        omega_tilde = omega * (1 - 2 * f**2 / (gap**2 - omega**2))
        assert e.delta_tilde == pytest.approx(float(delta), rel=1e-14)
        assert e.omega_tilde == pytest.approx(float(omega_tilde), rel=1e-15)

    def test_every_energy_unit_gives_the_same_parameters(self):
        # D and D * 2**k take the same decision: both raise the same error, or
        # both map and D * 2**k has the fields of D, each energy times 2**k,
        # wherever that product is a normal float
        mapped = raised = overflowing = underflowing = 0
        for k, dots, coupling in unit_pairs(2000, seed=2027):
            unit, scaled = (map_in_unit(dots, coupling, shift) for shift in (0, k))
            if isinstance(unit, str) or isinstance(scaled, str):
                assert unit == scaled, k
                raised += 1
                continue
            assert_maps_alike(unit, scaled, k)
            mapped += 1
            products = [e.t_plus * e.t_minus for e in (unit, scaled)]
            overflowing += math.inf in products
            underflowing += 0.0 in products
        assert mapped > 1800
        assert raised > 50
        assert overflowing > 300
        assert underflowing > 250

    def test_zero_gradient_in_dot_i_with_nonzero_f_minus_raises(self):
        dot_i = DotSpec(**dict(EXAMPLE_DOT, g_times_b=0.0))
        with pytest.raises(SingularityError, match="inhomogeneity ratio"):
            effective_params(dot_i, DotSpec(**EXAMPLE_DOT), EXAMPLE_COUPLING)

    def test_coupling_validation(self):
        with pytest.raises(ValidationError, match="U and V"):
            CouplingSpec(U=0.5, V=0.5, t00=0.05, t11=0.05, t12=0.02)
        # each finite, but U - V overflows and would pass for a resonance
        with pytest.raises(ValidationError, match="U - V must be finite"):
            CouplingSpec(U=1e308, V=-1e308, t00=0.05, t11=0.05, t12=0.02)


# the fields of EffectiveParams that carry the energy unit; the others are
# pure numbers
ENERGY_FIELDS = {
    "omega_i", "omega_j", "omega", "t_plus", "t_minus", "f_plus", "f_minus", "f", "j_eff",
    "omega_tilde",
}


def in_unit(value, k):
    """value * 2**k, or None where that leaves the normal float range."""
    try:
        result = math.ldexp(value, k)
    except OverflowError:
        return None
    return result if value == 0.0 or abs(result) >= sys.float_info.min else None


def unit_pairs(count, seed):
    """Seeded devices ``(k, dots, coupling)``, each dot and the coupling as the
    field tuple of its type in unit 1, with k in [-1000, 1000], raised where
    needed so that every input times 2**k is a normal float: from k ~ 510 on,
    squares of unit-size energies times 2**k overflow. The dot fields and U, V
    are at least 1e-3 in size; the tunnelings are 1e-3 to 0.3 in half the
    devices and 1e-200 to 0.3 in the other half, and t00 = t11 = 0 in one in
    twenty, where the tunneling product vanishes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dots = []
        for _ in range(2):
            zeeman = rng.uniform(-0.45, 0.45)
            gradient = rng.uniform(1e-3, 0.3) * (1.0 - abs(zeeman))
            dots.append((1.0, zeeman, gradient * rng.choice([-1, 1]), rng.uniform(0.01, 0.1)))
        gap = rng.uniform(0.05, 3.0) * rng.choice([-1, 1])
        V = rng.uniform(1e-3, 1.0) * rng.choice([-1, 1])
        if rng.random() < 0.5:
            tunneling = rng.uniform(1e-3, 0.3, 3)
        else:
            tunneling = 10.0 ** rng.uniform(-200, math.log10(0.3), 3)
        tunneling *= rng.choice([-1, 1], 3)
        if rng.random() < 0.05:
            tunneling[:2] = 0.0
        coupling = (V + gap, V, *tunneling)
        smallest = min(math.frexp(x)[1] for x in (*dots[0], *dots[1], *coupling) if x)
        yield int(rng.integers(max(-1000, -1021 - smallest), 1001)), dots, coupling


def map_in_unit(dots, coupling, k):
    """``effective_params`` of the device with every energy times 2**k, or the
    text of its ``SingularityError`` up to the first parenthesis, where the
    values it quotes carry the unit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # strained and unequal dots are inputs too
        try:
            return effective_params(
                *(DotSpec(*(math.ldexp(x, k) for x in dot)) for dot in dots),
                CouplingSpec(*(math.ldexp(x, k) for x in coupling)),
            )
        except SingularityError as exc:
            return str(exc).split(" (")[0]


def assert_maps_alike(unit, scaled, k):
    """Each field of ``scaled`` is that of ``unit``, times 2**k for an energy;
    an energy is compared where each side times the other's power of two is a
    normal float or 0."""
    for field in dataclasses.fields(EffectiveParams):
        value, got = getattr(unit, field.name), getattr(scaled, field.name)
        if field.name in ENERGY_FIELDS:
            value = in_unit(value, k)
            if value is None or in_unit(got, -k) is None:
                continue
        assert repr(got) == repr(value), (field.name, k)


def make_effective(j_eff, delta_tilde, omega_tilde):
    return EffectiveParams(
        j_eff=j_eff,
        delta_tilde=delta_tilde,
        omega_tilde=omega_tilde,
        c_plus_i=0.0,
        c_minus_i=0.0,
        c_plus_j=0.0,
        c_minus_j=0.0,
        t_plus=0.05,
        t_minus=0.05,
        f_plus=0.0,
        f_minus=0.0,
        f=0.0,
        omega=omega_tilde,
        omega_i=omega_tilde,
        omega_j=omega_tilde,
    )


# sha256 of the seeded map_to_swap results of TestMapToSwap.test_seeded_results_are_frozen,
# frozen before map_to_swap read its targets from the unit-duration plan
MAPPER_SHA256 = "896cc9176cbf78e9bd1694ee5783cb65b561e2537c38fb2b7562f4148d597b01"


class TestMapToSwap:
    def test_isotropic_device_feasible(self):
        dot = DotSpec(1.0, 0.0, 0.0, 0.0)  # omega = 0, delta~ = 1
        eff = effective_params(dot, dot, EXAMPLE_COUPLING)
        result = map_to_swap(eff, 1, 0)
        assert result.feasible
        assert result.tau == pytest.approx(math.pi / eff.j_eff)
        assert result.plan is not None
        assert result.plan.params.Gamma == 0.0
        assert result.delta_residual <= 1e-12

    def test_matched_anisotropy_requires_zeeman_phase(self):
        eff = make_effective(j_eff=1.0, delta_tilde=3.0, omega_tilde=1.0)
        result = map_to_swap(eff, 2, 1)
        # tau = pi, omega~ tau = pi = n pi exactly
        assert result.feasible
        assert result.plan.params.Delta == pytest.approx(3.0)

        off = make_effective(j_eff=1.0, delta_tilde=3.0, omega_tilde=1.1)
        result = map_to_swap(off, 2, 1)
        assert not result.feasible
        assert result.zeeman_phase_residual == pytest.approx(0.1 * math.pi)
        assert any("Zeeman phase" in f for f in result.failures)
        assert result.plan is None

    def test_anisotropy_mismatch_reported(self):
        eff = make_effective(j_eff=1.0, delta_tilde=1.7, omega_tilde=math.pi)
        result = map_to_swap(eff, 2, 1)
        assert not result.feasible
        assert result.required_delta == pytest.approx(3.0)
        assert result.delta_residual == pytest.approx(1.3)
        assert any("anisotropy mismatch" in f for f in result.failures)

    def test_negative_duration_reported(self):
        eff = make_effective(j_eff=-1.0, delta_tilde=3.0, omega_tilde=0.0)
        result = map_to_swap(eff, 2, 1)
        assert not result.feasible
        assert result.tau is None
        assert any("not positive" in f for f in result.failures)

    def test_even_pair_rejected(self):
        eff = make_effective(j_eff=1.0, delta_tilde=2.0, omega_tilde=0.0)
        with pytest.raises(ValidationError, match="odd"):
            map_to_swap(eff, 3, 1)

    def test_index_and_tolerance_validation(self):
        # the tolerance is checked by its TARGETS row in test_validation.py
        eff = make_effective(j_eff=1.0, delta_tilde=1.0, omega_tilde=0.0)
        result = map_to_swap(eff, np.int64(1), np.int32(0))
        assert result.feasible
        assert type(result.m) is int and type(result.n) is int
        with pytest.raises(ValidationError, match="integer"):
            map_to_swap(eff, 1.0, 0)
        with pytest.raises(ValidationError, match="m = n"):
            map_to_swap(eff, 2, 2)

    def test_tolerance_is_settable(self):
        eff = make_effective(j_eff=1.0, delta_tilde=3.0 + 5e-7, omega_tilde=1.0 + 1e-9)
        assert not map_to_swap(eff, 2, 1, tolerance=1e-9).feasible
        assert map_to_swap(eff, 2, 1, tolerance=1e-4).feasible

    def test_non_finite_inputs_are_infeasible(self):
        eff = make_effective(j_eff=1.0, delta_tilde=1.0, omega_tilde=0.0)
        assert map_to_swap(eff, 1, 0).feasible
        # a nan residual fails its comparison rather than passing it
        for name in ("delta_tilde", "omega_tilde"):
            result = map_to_swap(dataclasses.replace(eff, **{name: math.nan}), 1, 0)
            assert not result.feasible
            assert result.plan is None
            assert len(result.failures) == 1
        # tau = pi / J_eff overflows to inf, and inf * 0 would leave a nan residual
        result = map_to_swap(dataclasses.replace(eff, j_eff=1.3e-320), 1, 0)
        assert not result.feasible
        assert result.tau is None
        assert result.failures == ("duration (m - n) pi / J_eff = inf overflows",)

    def test_non_finite_exchange_is_its_own_failure(self):
        # pi / nan is no duration that overflowed, and pi / inf = 0 no sign to flip
        for j_eff in (math.nan, math.inf, -math.inf):
            eff = make_effective(j_eff=j_eff, delta_tilde=1.0, omega_tilde=0.0)
            result = map_to_swap(eff, 1, 0)
            assert not result.feasible
            assert result.tau is None
            assert result.plan is None
            assert math.isnan(result.zeeman_phase_residual)
            assert result.failures == (f"J_eff = {j_eff} is not finite",)

    def test_every_feasible_result_has_a_plan(self):
        pairs = ((1, 0), (2, 1), (-1, 0), (0, 1), (5, -4), (-2, 3))
        j_values = (1.0, 2.5, -1.0, 0.0, 1.3e-320, math.inf, math.nan)
        feasible = 0
        for (m, n), j_eff, offset in itertools.product(pairs, j_values, (0.0, math.nan)):
            delta = (m + n) / (m - n) + offset
            # omega~ tau = n pi at tau = (m - n) pi / J_eff
            omega = n * j_eff / (m - n) if math.isfinite(j_eff) else 0.0
            for eff in (
                make_effective(j_eff=j_eff, delta_tilde=delta, omega_tilde=omega),
                make_effective(j_eff=j_eff, delta_tilde=delta - offset, omega_tilde=omega + offset),
            ):
                result = map_to_swap(eff, m, n)
                assert result.feasible == (result.plan is not None) == (not result.failures)
                if result.feasible:
                    feasible += 1
                    assert result.plan.tau == result.tau
                    assert verify_swap(result.plan, n_states=4).passed
        assert feasible > 0

    def test_seeded_results_are_frozen(self):
        # every field pseudospin-map prints, as repr, over 600 seeded inputs
        lines, seen = [], collections.Counter()
        for eff, m, n, tolerance in mapper_inputs(600, seed=1703):
            r = map_to_swap(eff, m, n, *(() if tolerance is None else (tolerance,)))
            fields = (r.m, r.n, r.feasible, r.required_delta, r.delta_residual)
            lines.append(repr((*fields, r.zeeman_phase_residual, r.tau, r.failures)))
            seen[r.feasible, m > n, math.isfinite(eff.j_eff)] += 1
        assert min(seen[True, positive, True] for positive in (True, False)) > 20
        assert min(seen[False, positive, True] for positive in (True, False)) > 150
        assert min(seen[False, positive, False] for positive in (True, False)) > 30
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == MAPPER_SHA256


def mapper_inputs(count, seed):
    """Seeded ``(effective, m, n, tolerance)`` inputs for ``map_to_swap``, odd
    pairs with m - n of either sign. A third are random devices as
    ``effective_params`` maps them; a third are the same kind of device moved
    onto the pair's targets, up to an offset, with J_eff of the right sign four
    times in five; a third carry a non-finite, zero or subnormal J_eff. A
    tolerance of None means the default."""
    rng = np.random.default_rng(seed)
    special = (math.inf, -math.inf, math.nan, 0.0, 1.3e-320, -1.3e-320)
    for k in range(count):
        dots = [
            DotSpec(1.0, rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3), rng.uniform(0.01, 0.1))
            for _ in range(2)
        ]
        coupling = CouplingSpec(
            rng.uniform(0.3, 2.0), rng.uniform(-0.3, 0.3), *rng.uniform(-0.1, 0.1, 3)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # strained mixing and unequal dots are inputs too
            eff = effective_params(*dots, coupling)
        n = int(rng.integers(-6, 7))
        d = int(rng.choice([-5, -3, -1, 1, 3, 5]))
        m = n + d
        tolerance = [None, 0.0, 1e-6, 1e-2][int(rng.integers(4))]
        if k % 3 == 1:
            j_eff = math.copysign(eff.j_eff, d if rng.random() < 0.8 else -d)
            offset = [0.0, 1e-12, 1e-7, 1e-3][int(rng.integers(4))]
            eff = dataclasses.replace(
                eff,
                j_eff=j_eff,
                delta_tilde=(m + n) / (m - n) + offset,
                omega_tilde=n * j_eff / (m - n) + offset,
            )
        elif k % 3 == 2:
            eff = dataclasses.replace(eff, j_eff=special[(k // 3) % len(special)])
        yield eff, m, n, tolerance
