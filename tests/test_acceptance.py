"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its measured margins (run with ``pytest -v -s`` to see them)."""

import math
import time

import numpy as np
import pytest

from xxzswap import (
    DEFAULT_SEED,
    CouplingSpec,
    DotSpec,
    FluctuationSpec,
    PhaseTriple,
    QubitAmplitudes,
    SwapPlan,
    XxzParams,
    average_fidelity_analytic,
    delta_feasibility_scan,
    dense_exponential_oracle,
    effective_params,
    fidelity_grid,
    gate_fidelity,
    make_product_state,
    perturbed_levels,
    propagate,
    propagator_matrix,
    reduce_to_qubit,
    reduced_determinant_closed_form,
    verify_swap,
)

PI = math.pi


def report(number, name, ok, details):
    print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'} - {details}")


def test_criterion_1_swap_exactness():
    start = time.perf_counter()
    worst_overlap = 1.0
    worst_fidelity = 1.0
    count = 0
    for m in range(-5, 6):
        for n in range(-5, 6):
            if m == n or (m - n) % 2 == 0:
                continue
            rep = verify_swap(SwapPlan(m, n, 1.0), tolerance=1e-10, n_states=50)
            worst_overlap = min(worst_overlap, rep.trace_overlap)
            worst_fidelity = min(worst_fidelity, rep.min_state_fidelity)
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst_overlap >= 1 - 1e-10 and worst_fidelity >= 1 - 1e-10 and elapsed < 5.0
    report(
        1,
        "swap exactness",
        ok,
        f"{count} odd pairs in [-5,5]^2, min overlap {worst_overlap:.3e}, "
        f"min state fidelity {worst_fidelity:.3e}, elapsed {elapsed:.2f}s",
    )
    assert worst_overlap >= 1 - 1e-10
    assert worst_fidelity >= 1 - 1e-10
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(DEFAULT_SEED)
    worst_propagator = 0.0
    for _ in range(500):
        params = XxzParams(*rng.uniform(-3, 3, 3))
        t = rng.uniform(0.0, 5.0)
        phases = PhaseTriple(params.J * t, params.J * params.Delta * t, params.Gamma * t)
        deviation = np.max(np.abs(propagator_matrix(phases) - dense_exponential_oracle(params, t)))
        worst_propagator = max(worst_propagator, float(deviation))

    worst_determinant = 0.0
    for _ in range(1000):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha = QubitAmplitudes.normalized(v[0], v[1])
        beta = QubitAmplitudes.normalized(v[2], v[3])
        phases = PhaseTriple(*rng.uniform(-10, 10, 3))
        direct = reduce_to_qubit(
            propagate(make_product_state(alpha, beta), phases), 0
        ).determinant()
        closed = reduced_determinant_closed_form(alpha, beta, phases)
        worst_determinant = max(worst_determinant, abs(direct - closed))
    elapsed = time.perf_counter() - start
    ok = worst_propagator < 1e-10 and worst_determinant < 1e-10 and elapsed < 5.0
    report(
        2,
        "oracle equivalence",
        ok,
        f"propagator max dev {worst_propagator:.3e} (500 cases), determinant max dev "
        f"{worst_determinant:.3e} (1000 cases), elapsed {elapsed:.2f}s",
    )
    assert worst_propagator < 1e-10
    assert worst_determinant < 1e-10
    assert elapsed < 5.0


def test_criterion_3_fidelity_endpoints():
    at_swap = gate_fidelity(PhaseTriple(PI, 3 * PI, PI))
    no_noise = average_fidelity_analytic(FluctuationSpec(0, 0, 0))
    wide = average_fidelity_analytic(FluctuationSpec(50, 50, 50))
    ok = (
        abs(at_swap - 1.0) <= 1e-12
        and abs(no_noise - 1.0) <= 1e-12
        and abs(wide - 7 / 15) <= 1e-6
    )
    report(
        3,
        "fidelity endpoints",
        ok,
        f"F(swap point) = {at_swap!r}, F_avg(0) = {no_noise!r}, "
        f"F_avg(50) - 7/15 = {wide - 7 / 15:.3e}",
    )
    assert abs(at_swap - 1.0) <= 1e-12
    assert abs(no_noise - 1.0) <= 1e-12
    assert abs(wide - 7 / 15) <= 1e-6


def test_criterion_4_monte_carlo_agreement():
    start = time.perf_counter()
    axis = np.linspace(0.0, 3.0, 5)
    rows = fidelity_grid(axis, axis, samples=10**6, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    # the 1e-12 floor only absorbs float rounding at the corner, where the
    # degenerate Gaussians make the standard error exactly zero
    worst_sigma = 0.0
    for row in rows:
        gap = abs(row.f_mc - row.f_analytic)
        assert gap <= 3 * row.f_mc_stderr + 1e-12, (row.lambda_x, row.lambda_h, gap)
        if row.f_mc_stderr > 0:
            worst_sigma = max(worst_sigma, gap / row.f_mc_stderr)
    ok = elapsed < 60.0
    report(
        4,
        "analytic vs Monte Carlo",
        ok,
        f"25 grid points, 1e6 samples each, worst |gap|/stderr = {worst_sigma:.2f} "
        f"(limit 3), elapsed {elapsed:.1f}s",
    )
    assert len(rows) == 25
    assert elapsed < 60.0


def test_criterion_5_surface_shape():
    lams = list(np.linspace(0.0, 3.0, 5))
    rows = fidelity_grid(lams, lams, samples=1)  # analytic column is exact
    surface = {(r.lambda_x, r.lambda_h): r.f_analytic for r in rows}
    for fixed in lams:
        along_xz = [surface[(v, fixed)] for v in lams]
        along_h = [surface[(fixed, v)] for v in lams]
        assert all(b <= a + 1e-12 for a, b in zip(along_xz, along_xz[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(along_h, along_h[1:]))
    margins = [surface[(0.0, a)] - surface[(a, 0.0)] for a in lams[1:]]
    ok = all(m > 1e-12 for m in margins)
    report(
        5,
        "surface monotone, exchange noise dominant",
        ok,
        f"min margin F(0,0,h) - F(xz,xz,0) at matched abscissae = {min(margins):.3e}",
    )
    assert ok


def test_criterion_6_fidelity_range():
    phi_x = np.linspace(0.0, 4 * PI, 2001)
    phi_z = np.linspace(0.0, 4 * PI, 2001)
    s = np.sin(phi_x / 2)[:, None]
    u = np.sin(phi_z / 2)[None, :]
    F = 1 / 5 + (8 / 15) * s * s + (4 / 15) * s * u
    f_min, f_max = float(F.min()), float(F.max())
    ix = np.unravel_index(np.argmin(F), F.shape)[0]
    min_location = abs(math.sin(phi_x[ix] / 2))
    exact_min = gate_fidelity(PhaseTriple(2 * math.asin(0.25), 3 * PI, 0.0))
    ok = (
        f_min >= 1 / 6 - 1e-9
        and f_max <= 1 + 1e-12
        and abs(min_location - 0.25) < 0.01
        and abs(exact_min - 1 / 6) < 1e-12
    )
    report(
        6,
        "fidelity range bound",
        ok,
        f"grid min {f_min:.12f} (>= 1/6 - 1e-9), max {f_max:.12f}, "
        f"|sin(phi_x/2)| at min = {min_location:.4f}, exact minimum residual "
        f"{exact_min - 1 / 6:.2e}",
    )
    assert ok


def test_criterion_7_pseudospin_limits():
    coupling = CouplingSpec(U=1.0, V=0.5, t00=0.05, t11=0.05, t12=0.02)

    plain = DotSpec(1.0, 0.2, 0.0, 0.0)
    eff = effective_params(plain, plain, coupling)
    exact_isotropy = eff.delta_tilde == 1.0 and eff.omega_tilde == eff.omega

    dot = DotSpec(1.0, 0.2, 0.1, 0.05)
    levels = perturbed_levels(dot)
    stated = {
        "c_plus": 0.117851,
        "c_minus": 0.0505076,
        "e_plus": 0.691667,
        "e_minus": 0.296429,
        "omega": 0.395238,
    }
    six_figures = all(
        math.isclose(getattr(levels, key), value, rel_tol=5e-6)
        for key, value in stated.items()
    )

    # truncated two-orbital diagonalization oracle, per spin block
    h = -0.5 * math.sqrt(2.0) * dot.gradient_coupling
    bound_ok = True
    worst_ratio = 0.0
    for s, approx in ((+1, levels.e_plus), (-1, levels.e_minus)):
        block = np.array(
            [
                [0.5 + dot.zeeman_z * s, h],
                [h, 1.5 - dot.zeeman_z * s],
            ]
        )
        exact = float(np.linalg.eigvalsh(block)[0])
        gap = abs(block[0, 0] - block[1, 1])
        relative = abs(approx - exact) / abs(exact)
        bound = 10 * (abs(h) / gap) ** 3
        worst_ratio = max(worst_ratio, relative / bound)
        bound_ok = bound_ok and relative < bound

    ok = exact_isotropy and six_figures and bound_ok
    report(
        7,
        "pseudospin limits",
        ok,
        f"zero-gradient exact isotropy {exact_isotropy}, worked example to 6 "
        f"significant figures {six_figures}, perturbative error at "
        f"{worst_ratio:.3f} of the allowed bound",
    )
    assert exact_isotropy
    assert six_figures
    assert bound_ok


def test_criterion_8_feasibility_scan():
    rows = delta_feasibility_scan(range(-3, 4), range(-3, 4))
    by_pair = {(r.m, r.n): r for r in rows}

    anisotropic = by_pair[(2, 1)]
    isotropic = by_pair[(1, 0)]
    low_delta = by_pair[(2, -1)]  # delta = 1/3 through negative n

    ok = (
        anisotropic.delta == pytest.approx(3.0)
        and anisotropic.trace_overlap >= 1 - 1e-10
        and isotropic.delta == pytest.approx(1.0)
        and isotropic.trace_overlap >= 1 - 1e-10
    )
    report(
        8,
        "anisotropy feasibility scan",
        ok,
        f"{len(rows)} pairs scanned; (2,1) delta=3 overlap {anisotropic.trace_overlap:.12f}; "
        f"(1,0) delta=1 overlap {isotropic.trace_overlap:.12f}; recorded finding: "
        f"(2,-1) delta={low_delta.delta:.6g} kind={low_delta.kind.value} "
        f"overlap={low_delta.trace_overlap:.12f} (outcome documented, not asserted)",
    )
    assert len(rows) == 7 * 7 - 7
    assert anisotropic.trace_overlap >= 1 - 1e-10
    assert isotropic.trace_overlap >= 1 - 1e-10
    # (2,-1) outcome is recorded above as a documented finding; its value is
    # intentionally not turned into a pass/fail assertion
