"""Pseudospin qubits in gradient-field quantum dots: perturbative two-level
splitting of a single dot and the effective exchange parameters of a coupled
pair, mapped onto the model of :mod:`xxzswap.dynamics`.

A dot is a parabolic trap (orbital quantum ``hbar_omega0``) in a slanting
magnetic field: a uniform z component with Zeeman energy ``zeeman_z`` plus a
transverse gradient that enters only through the products
``gradient_coupling`` = g mu_B b L (L the confinement length) and
``g_times_b`` = g mu_B b. The gradient admixes the opposite-spin first
orbital into each spin branch of the orbital ground state, turning the pair
(ground state, admixture) into a controllable two-level system. Energies are
in whatever unit the caller adopts; hbar_omega0 of dot i is the natural
scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import SingularityError, ValidationError, check_finite, check_real, check_type
from .swaps import SwapKind, SwapPlan

#: Mixing coefficients above this leave the safely perturbative regime.
MIXING_WARN_THRESHOLD = 0.3
#: Default of map_to_swap: the largest anisotropy and Zeeman-phase residuals
#: that still count as feasible.
FEASIBILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DotSpec:
    """Physical parameters of one quantum dot, as pre-multiplied couplings."""

    hbar_omega0: float        # orbital level spacing; must dominate the field terms
    zeeman_z: float           # g * mu_B * B0
    gradient_coupling: float  # g * mu_B * b * L, the perturbation matrix-element scale
    g_times_b: float          # g * mu_B * b, kept for inhomogeneity ratios

    def __post_init__(self) -> None:
        check_finite(self, ["hbar_omega0"], "positive")
        check_finite(self, ["zeeman_z", "gradient_coupling", "g_times_b"])
        if abs(self.zeeman_z) + abs(self.gradient_coupling) >= self.hbar_omega0:
            raise ValidationError(
                "field terms must stay below the orbital quantum: "
                f"|zeeman_z| + |gradient_coupling| = "
                f"{abs(self.zeeman_z) + abs(self.gradient_coupling)!r} "
                f">= hbar_omega0 = {self.hbar_omega0!r}"
            )

    @classmethod
    def from_confinement(
        cls, mass: float, omega0: float, g_mu_b_b0: float, g_mu_b_gradient: float
    ) -> "DotSpec":
        """Build from raw trap parameters (hbar = 1).

        The confinement length L = sqrt(2 / (mass * omega0)) converts the raw
        gradient coupling g mu_B b into the matrix-element product g mu_B b L.
        """
        mass = check_real(mass, "mass", "positive")
        omega0 = check_real(omega0, "omega0", "positive")
        gradient = check_real(g_mu_b_gradient, "g_mu_b_gradient")
        product = mass * omega0
        if product == 0.0:  # both positive, but the product underflows
            raise ValidationError(f"mass * omega0 is 0: mass = {mass!r}, omega0 = {omega0!r}")
        length = math.sqrt(2.0 / product)
        return cls(omega0, g_mu_b_b0, gradient * length, gradient)


@dataclass(frozen=True)
class PseudospinLevels:
    """Perturbed two-level structure of a single dot."""

    e_plus: float   # ground energy of the spin-up branch, second order
    e_minus: float  # ground energy of the spin-down branch
    c_plus: float   # admixture of |1, -> into the spin-up ground state
    c_minus: float  # admixture of |1, +> into the spin-down ground state
    omega: float    # qubit transition frequency |e_plus - e_minus|


@dataclass(frozen=True)
class CouplingSpec:
    """Inter-dot energies and tunneling amplitudes.

    ``tmn`` couples orbital level m of one dot to level n of the other
    (0 = ground, 1 = first excited); t12 is the cross term picked up by the
    gradient admixture.
    """

    U: float    # charge energy
    V: float    # inter-dot interaction
    t00: float  # ground <-> ground tunneling
    t11: float  # first <-> first tunneling
    t12: float  # ground <-> first cross tunneling

    def __post_init__(self) -> None:
        check_finite(self)
        if self.U == self.V:
            raise ValidationError("U and V must differ; the exchange scales as 1/(U - V)")
        if not math.isfinite(self.U - self.V):
            raise ValidationError(f"U - V must be finite, got {self.U - self.V!r}")


@dataclass(frozen=True)
class EffectiveParams:
    """Exchange parameters induced between two coupled pseudospin dots.

    The mixing coefficients of both dots and the intermediate tunneling
    combinations are kept so that the defining formulas can be re-evaluated
    from the stored values at any time.
    """

    c_plus_i: float     # C_{i,+}, the mixing coefficients of the two dots
    c_minus_i: float
    c_plus_j: float
    c_minus_j: float
    omega_i: float
    omega_j: float
    omega: float        # symmetrized transition frequency used in the formulas
    t_plus: float
    t_minus: float
    f_plus: float
    f_minus: float
    f: float
    j_eff: float        # effective exchange strength
    delta_tilde: float  # effective anisotropy
    omega_tilde: float  # effective Zeeman splitting


def _ldexp(x: float, exponent: int) -> float:
    """``math.ldexp``, but the signed infinity where the result overflows."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x)


def perturbed_levels(dot: DotSpec) -> PseudospinLevels:
    """Second-order ground energies and first-order mixing of one dot.

    The gradient couples |0, s> to |1, -s> with matrix element
    h = -(sqrt(2)/2) * gradient_coupling. With zeroth-order energies
    E0(n, s) = (n + 1/2) hbar_omega0 + zeeman_z * s, the corrections are

        C_s = h / (E0(0, s) - E0(1, -s)),
        E_s = E0(0, s) + h^2 / (E0(0, s) - E0(1, -s)).

    The shift is formed from copies of h and the denominator times the
    exact power of two that brings the denominator near 1, so h^2 never
    overflows on its own and the levels are the same in any energy unit.
    Raises when a denominator degenerates (zeeman_z * s = hbar_omega0 / 2),
    where the expansion breaks down, and when a level or the splitting is
    not finite; warns when a |C| exceeds ``MIXING_WARN_THRESHOLD``.
    """
    check_type(dot, DotSpec, "dot")
    h = -0.5 * math.sqrt(2.0) * dot.gradient_coupling
    energies = {}
    mixings = {}
    for s in (+1, -1):
        e_ground = 0.5 * dot.hbar_omega0 + dot.zeeman_z * s
        e_flipped = 1.5 * dot.hbar_omega0 - dot.zeeman_z * s
        denom = e_ground - e_flipped
        if abs(denom) < 1e-12 * dot.hbar_omega0:
            raise SingularityError(
                f"perturbation theory breaks down for spin branch s = {s:+d}: "
                "zeeman_z * s = hbar_omega0 / 2 makes |0, s> and |1, -s> degenerate"
            )
        exponent = math.frexp(denom)[1]
        scaled_h, scaled_denom = _ldexp(h, -exponent), _ldexp(denom, -exponent)
        energies[s] = e_ground + _ldexp(scaled_h * scaled_h / scaled_denom, exponent)
        mixings[s] = h / denom
    omega = abs(energies[+1] - energies[-1])
    # a level, or a mixing coefficient (nan only where its level is), that is
    # not finite leaves omega nan or inf too
    if not math.isfinite(omega):
        raise SingularityError(
            f"pseudospin levels are not finite (e_plus = {energies[+1]!r}, "
            f"e_minus = {energies[-1]!r}, omega = {omega!r}) at "
            f"gradient_coupling = {dot.gradient_coupling!r}: the second-order shift "
            "h^2 / (E0(0, s) - E0(1, -s)) or the splitting |e_plus - e_minus| overflows"
        )
    if max(abs(mixings[+1]), abs(mixings[-1])) > MIXING_WARN_THRESHOLD:
        warnings.warn(
            f"mixing coefficient exceeds {MIXING_WARN_THRESHOLD}; "
            "perturbative results are strained",
            stacklevel=2,
        )
    return PseudospinLevels(
        e_plus=energies[+1],
        e_minus=energies[-1],
        c_plus=mixings[+1],
        c_minus=mixings[-1],
        omega=omega,
    )


def effective_params(dot_i: DotSpec, dot_j: DotSpec, coupling: CouplingSpec) -> EffectiveParams:
    """Map two coupled dots onto effective exchange parameters.

    With C_{i,s}, C_{j,s} the mixing coefficients of the two dots,

        t_pm  = t00 + C_{i,pm} C_{j,pm} t11,
        f_pm  = (C_{i,pm} + C_{j,mp}) t12,
        f     = (f_+ + (g_j b_j / g_i b_i) f_-) / 2,
        J_eff = 4 t_+ t_- / (U - V),
        Delta~ = (t_+^2 + t_-^2) / (2 t_+ t_-)
                 - f^2 / (t_+ t_- (1 - omega^2 / (U - V)^2)),
        omega~ = omega (1 - 2 f^2 / ((U - V)^2 - omega^2)).

    The formulas use a single transition frequency; for inhomogeneous dots
    the average (omega_i + omega_j) / 2 is used, with a warning once the two
    differ by more than 1%. Each ratio is formed from copies of its energies
    times one exact power of two, chosen for its divisor (|U - V|, the larger
    of |U - V| and omega, or the geometric mean of t_+ and t_-), so that no
    divisor overflows or underflows and every value that stays in the float
    range is the same in any energy unit. Raises on the resonance
    |U - V| = omega, on a vanishing tunneling product, and where (U - V)^2 or
    t_+ t_- (1 - omega^2 / (U - V)^2) underflows to 0: the anisotropy is
    undefined there.
    """
    check_type(dot_i, DotSpec, "dot_i")
    check_type(dot_j, DotSpec, "dot_j")
    check_type(coupling, CouplingSpec, "coupling")
    levels_i = perturbed_levels(dot_i)
    levels_j = perturbed_levels(dot_j)
    omega = 0.5 * levels_i.omega + 0.5 * levels_j.omega  # halved first, so it never overflows
    if omega > 0.0 and abs(levels_i.omega - levels_j.omega) / omega > 0.01:
        warnings.warn(
            "dot transition frequencies differ by more than 1%; using their average",
            stacklevel=2,
        )

    t_plus = coupling.t00 + levels_i.c_plus * levels_j.c_plus * coupling.t11
    t_minus = coupling.t00 + levels_i.c_minus * levels_j.c_minus * coupling.t11
    f_plus = (levels_i.c_plus + levels_j.c_minus) * coupling.t12
    f_minus = (levels_i.c_minus + levels_j.c_plus) * coupling.t12
    if f_minus == 0.0:
        f = 0.5 * f_plus
    elif dot_i.g_times_b == 0.0:
        raise SingularityError(
            "inhomogeneity ratio g_j b_j / g_i b_i undefined: dot i has zero "
            "gradient but f_- is nonzero"
        )
    else:
        f = 0.5 * (f_plus + (dot_j.g_times_b / dot_i.g_times_b) * f_minus)

    gap = coupling.U - coupling.V
    product = t_plus * t_minus
    if product == 0.0:
        raise SingularityError("tunneling product t_+ t_- vanishes; anisotropy undefined")
    # exponents that bring each divisor near 1; scaling by them is exact
    e_gap = math.frexp(gap)[1]
    e_wide = math.frexp(max(abs(gap), omega))[1]
    e_t = (math.frexp(t_plus)[1] + math.frexp(t_minus)[1]) // 2
    g, w, q = _ldexp(gap, -e_wide), _ldexp(omega, -e_wide), _ldexp(f, -e_wide)
    if abs(g * g - w * w) <= 1e-12 * max(g * g, w * w):
        raise SingularityError(
            f"resonance |U - V| = omega ({abs(gap)!r} vs {omega!r}); "
            "the effective parameters diverge"
        )
    if gap * gap == 0.0:  # U != V, but (U - V)^2 underflows
        raise SingularityError(
            f"(U - V)^2 underflows to 0 at U - V = {gap!r}; anisotropy undefined"
        )
    zeeman_shift = 2.0 * q * q / (g * g - w * w)
    g, w = _ldexp(gap, -e_gap), _ldexp(omega, -e_gap)
    detuning = 1.0 - w * w / (g * g)
    if product * detuning == 0.0:
        raise SingularityError(
            "t_+ t_- (1 - omega^2 / (U - V)^2) underflows to 0; anisotropy undefined"
        )
    tp, tm, q = _ldexp(t_plus, -e_t), _ldexp(t_minus, -e_t), _ldexp(f, -e_t)
    j_eff = _ldexp(4.0 * (tp * tm) / g, 2 * e_t - e_gap)
    delta_tilde = (tp * tp + tm * tm) / (2.0 * (tp * tm)) - q * q / ((tp * tm) * detuning)
    omega_tilde = omega * (1.0 - zeeman_shift)
    return EffectiveParams(
        j_eff=j_eff,
        delta_tilde=delta_tilde,
        omega_tilde=omega_tilde,
        c_plus_i=levels_i.c_plus,
        c_minus_i=levels_i.c_minus,
        c_plus_j=levels_j.c_plus,
        c_minus_j=levels_j.c_minus,
        t_plus=t_plus,
        t_minus=t_minus,
        f_plus=f_plus,
        f_minus=f_minus,
        f=f,
        omega=omega,
        omega_i=levels_i.omega,
        omega_j=levels_j.omega,
    )


@dataclass(frozen=True)
class SwapFeasibility:
    """Result of matching effective parameters against integer swap conditions.

    ``plan`` holds the exact target schedule (duration fixed by the effective
    exchange) when feasible; ``failures`` lists every violated condition with
    its residual. Infeasibility is data, never an exception.
    """

    m: int
    n: int
    feasible: bool
    tau: float | None
    required_delta: float
    delta_residual: float
    zeeman_phase_residual: float
    failures: tuple[str, ...]
    plan: SwapPlan | None


def map_to_swap(
    effective: EffectiveParams, m: int, n: int, tolerance: float = FEASIBILITY_TOLERANCE
) -> SwapFeasibility:
    """Check whether effective parameters admit the (m, n) swap.

    The exchange fixes tau = (m - n) pi / J_eff, which must be positive and
    finite (an infinite or nan J_eff gives no tau); feasibility then
    requires the effective anisotropy to equal (m + n) / (m - n) and the
    accumulated Zeeman phase omega~ tau to equal n pi, both within
    ``tolerance`` (a nan residual fails). The
    returned plan, when feasible, is the exact requirement at that duration;
    the residuals quantify how far the device parameters sit from it.
    """
    check_type(effective, EffectiveParams, "effective")
    unit = SwapPlan(m, n, 1.0)
    m, n = unit.m, unit.n
    tolerance = check_real(tolerance, "tolerance", "nonnegative")
    if unit.kind is not SwapKind.SWAP:
        raise ValidationError("|m - n| must be odd for a swap; even pairs return each qubit to itself")
    # at tau = 1 the plan's J and Gamma are the phases (m - n) pi and n pi
    required_delta = unit.params.Delta
    failures: list[str] = []

    tau: float | None = None
    if not math.isfinite(effective.j_eff):
        # an overflowed J_eff would give the duration 0 or nan, not a sign to flip
        failures.append(f"J_eff = {effective.j_eff:.6g} is not finite")
    elif effective.j_eff == 0.0:
        failures.append("J_eff = 0 accumulates no exchange phase")
    else:
        candidate = unit.params.J / effective.j_eff
        if candidate <= 0.0:
            failures.append(
                f"duration (m - n) pi / J_eff = {candidate:.6g} is not positive; "
                "flip the sign of m - n"
            )
        elif not math.isfinite(candidate):
            failures.append(f"duration (m - n) pi / J_eff = {candidate:.6g} overflows")
        else:
            tau = candidate

    delta_residual = abs(effective.delta_tilde - required_delta)
    if not delta_residual <= tolerance:  # a nan residual fails
        failures.append(
            f"anisotropy mismatch: Delta~ = {effective.delta_tilde:.6g} vs required "
            f"{required_delta:.6g} (residual {delta_residual:.6g})"
        )

    if tau is None:
        zeeman_phase_residual = math.nan
    else:
        zeeman_phase_residual = abs(effective.omega_tilde * tau - unit.params.Gamma)
        if not zeeman_phase_residual <= tolerance:
            failures.append(
                f"Zeeman phase mismatch: omega~ tau = {effective.omega_tilde * tau:.6g} "
                f"vs required {unit.params.Gamma:.6g} (residual {zeeman_phase_residual:.6g})"
            )

    feasible = not failures
    plan = SwapPlan(m, n, tau) if feasible else None
    return SwapFeasibility(
        m=m,
        n=n,
        feasible=feasible,
        tau=tau,
        required_delta=required_delta,
        delta_residual=delta_residual,
        zeeman_phase_residual=zeeman_phase_residual,
        failures=tuple(failures),
        plan=plan,
    )
