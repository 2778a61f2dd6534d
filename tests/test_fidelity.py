"""Tests for the closed-form gate fidelity, its Gaussian average, and the
Monte Carlo estimators."""

import math

import numpy as np
import pytest

from xxzswap import (
    FluctuationSpec,
    PhaseTriple,
    SWAP_POINT,
    ValidationError,
    average_fidelity_analytic,
    average_fidelity_mc,
    fidelity_grid,
    gate_fidelity,
    state_ensemble_fidelity,
)
from xxzswap.fidelity import CHUNK_SAMPLES, _chunk_stats, _phase_values

PI = math.pi

# frozen from the closed form 7/15 + (4/15) (e^{-1/2} + e^{-1/4})
FA_110 = 0.8360883847424102


def analytic(lx, lz, lh):
    return 7 / 15 + (4 / 15) * (
        math.exp(-(lx**2) / 2) + math.exp(-(lx**2 + lz**2 + 4 * lh**2) / 8)
    )


class TestGateFidelity:
    def test_swap_point_is_exact_unity(self):
        assert abs(gate_fidelity(SWAP_POINT) - 1.0) <= 1e-12
        assert abs(gate_fidelity(PhaseTriple(PI, PI, 0)) - 1.0) <= 1e-12

    def test_unmixed_block_floor(self):
        for pz, ph in [(0.0, 0.0), (4.2, -1.3), (100.0, 7.0)]:
            assert gate_fidelity(PhaseTriple(0, pz, ph)) == pytest.approx(0.2, abs=1e-15)

    def test_half_exchange_without_zeeman(self):
        assert gate_fidelity(PhaseTriple(PI, 0, 0)) == pytest.approx(11 / 15, abs=1e-15)

    def test_range_bound_and_minimum_location(self):
        phi_x = np.linspace(0, 4 * PI, 801)
        phi_z = np.linspace(0, 4 * PI, 801)
        X, Z = np.meshgrid(phi_x, phi_z, indexing="ij")
        s = np.sin(X / 2)
        F = 1 / 5 + (8 / 15) * s * s + (4 / 15) * s * np.sin(Z / 2)
        assert F.min() >= 1 / 6 - 1e-9
        assert F.max() <= 1.0 + 1e-12
        ix, iz = np.unravel_index(np.argmin(F), F.shape)
        assert abs(abs(math.sin(phi_x[ix] / 2)) - 0.25) < 0.01
        # the exact minimizer evaluates to 1/6
        x_star = 2 * math.asin(0.25)
        f_min = gate_fidelity(PhaseTriple(x_star, 3 * PI, 0))  # sin(3 pi / 2) = -1
        assert f_min == pytest.approx(1 / 6, abs=1e-12)


class TestAnalyticAverage:
    def test_no_fluctuations_is_unity(self):
        assert average_fidelity_analytic(FluctuationSpec(0, 0, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_wide_fluctuation_limit(self):
        assert average_fidelity_analytic(FluctuationSpec(50, 50, 50)) == pytest.approx(
            7 / 15, abs=1e-6
        )
        # squares of deviations this large overflow; the average saturates
        assert average_fidelity_analytic(FluctuationSpec(1e200, 1e200, 1e200)) == 7 / 15

    def test_frozen_value(self):
        value = average_fidelity_analytic(FluctuationSpec(1, 1, 0))
        assert value == pytest.approx(FA_110, abs=1e-15)
        assert value == pytest.approx(analytic(1, 1, 0), abs=1e-15)

    def test_matches_gauss_hermite_quadrature(self):
        # independent oracle: tensor-product Gauss-Hermite quadrature of the
        # closed-form fidelity under the three Gaussians
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        weights = weights / math.sqrt(2 * PI)
        cases = [
            ((0.5, 0.5, 0.5), SWAP_POINT),
            ((1.0, 1.0, 0.0), SWAP_POINT),
            ((2.0, 1.0, 3.0), SWAP_POINT),
            ((1.0, 0.8, 0.6), PhaseTriple(PI, PI, 0.0)),          # (m, n) = (1, 0)
            ((1.0, 0.8, 0.6), PhaseTriple(-3 * PI, -PI, PI)),     # (m, n) = (-2, 1)
        ]
        for (lx, lz, lh), mean in cases:
            X = mean.phi_x + lx * nodes[:, None, None]
            Z = mean.phi_z + lz * nodes[None, :, None]
            H = mean.phi_h + lh * nodes[None, None, :]
            s = np.sin(X / 2)
            F = 1 / 5 + (8 / 15) * s * s + (4 / 15) * s * np.sin(Z / 2 + H)
            quad = np.einsum("i,j,k,ijk->", weights, weights, weights, F)
            spec = FluctuationSpec(lx, lz, lh, mean)
            assert average_fidelity_analytic(spec) == pytest.approx(quad, abs=1e-12)

    def test_rejects_non_swap_means(self):
        with pytest.raises(ValidationError, match="swap point"):
            average_fidelity_analytic(FluctuationSpec(1, 1, 1, PhaseTriple(0, 0, 0)))
        with pytest.raises(ValidationError, match="swap point"):
            average_fidelity_analytic(
                FluctuationSpec(1, 1, 1, PhaseTriple(PI, 3 * PI, PI + 0.3))
            )

    def test_monotone_nonincreasing_in_each_deviation(self):
        grid = np.linspace(0, 4, 9)
        for axis in range(3):
            values = []
            for lam in grid:
                lams = [0.7, 0.7, 0.7]
                lams[axis] = lam
                values.append(average_fidelity_analytic(FluctuationSpec(*lams)))
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_negative_deviation_rejected(self):
        with pytest.raises(ValidationError):
            FluctuationSpec(-0.1, 0, 0)


class TestMonteCarloAverage:
    def test_degenerate_gaussians_exact(self):
        for seed in (0, 7, 123456):
            est = average_fidelity_mc(FluctuationSpec(0, 0, 0), samples=10_000, seed=seed)
            assert est.mean == 1.0
            assert est.std_error == 0.0

    def test_matches_analytic_within_three_stderr(self):
        est = average_fidelity_mc(FluctuationSpec(1, 1, 0), samples=10**6)
        assert abs(est.mean - FA_110) <= 3 * est.std_error

    def test_far_tail_matches_analytic(self):
        est = average_fidelity_mc(FluctuationSpec(5, 5, 5), samples=10**6)
        assert abs(est.mean - analytic(5, 5, 5)) <= 3 * est.std_error

    def test_bitwise_reproducible(self):
        spec = FluctuationSpec(0.8, 1.2, 0.4)
        a = average_fidelity_mc(spec, samples=200_000, seed=99)
        b = average_fidelity_mc(spec, samples=200_000, seed=99)
        assert a == b

    def test_chunks_reduce_identically_out_of_order(self):
        # each chunk depends only on (seed, index), so evaluating them in any
        # order and reducing by index reproduces the estimate bit for bit
        spec = FluctuationSpec(0.8, 1.2, 0.4)
        samples = 3 * CHUNK_SAMPLES + 1234
        est = average_fidelity_mc(spec, samples=samples, seed=5)
        indices = list(range((samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES))
        stats = {i: _chunk_stats(_phase_values(spec), samples, 5, i) for i in reversed(indices)}
        total = sum(stats[i][0] for i in indices)
        total_sq = sum(stats[i][1] for i in indices)
        mean = total / samples
        variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        assert mean == est.mean
        assert math.sqrt(variance / samples) == est.std_error

    def test_seed_changes_samples(self):
        spec = FluctuationSpec(1, 1, 0)
        a = average_fidelity_mc(spec, samples=50_000, seed=1)
        b = average_fidelity_mc(spec, samples=50_000, seed=2)
        assert a.mean != b.mean

    def test_sample_count_validation(self):
        with pytest.raises(ValidationError):
            average_fidelity_mc(FluctuationSpec(1, 1, 1), samples=0)


class TestStateEnsemble:
    def test_swap_point_is_unity_for_every_state(self):
        est = state_ensemble_fidelity(SWAP_POINT, "haar_product", samples=20_000)
        assert est.mean == pytest.approx(1.0, abs=1e-12)
        assert est.std_error < 1e-12

    def test_identity_haar_product_average(self):
        # oracle: for Haar-random single qubits the squared overlap
        # p = |<alpha|beta>|^2 is uniform on [0, 1], so E[p^2] = 1/3; cross
        # check with a direct overlap simulation that never evolves anything
        est = state_ensemble_fidelity(PhaseTriple(0, 0, 0), "haar_product", samples=10**6)
        assert abs(est.mean - 1 / 3) <= 3 * est.std_error

        rng = np.random.default_rng(123)
        n = 200_000
        cos_a, cos_b = rng.uniform(-1, 1, (2, n))
        az = rng.uniform(0, 2 * PI, (2, n))
        a = np.array([np.sqrt((1 + cos_a) / 2), np.exp(1j * az[0]) * np.sqrt((1 - cos_a) / 2)])
        b = np.array([np.sqrt((1 + cos_b) / 2), np.exp(1j * az[1]) * np.sqrt((1 - cos_b) / 2)])
        p = np.abs(np.sum(np.conj(a) * b, axis=0)) ** 2
        direct = float(np.mean(p**2))
        direct_se = float(np.std(p**2, ddof=1) / math.sqrt(n))
        assert abs(est.mean - direct) <= 3 * math.hypot(est.std_error, direct_se)

    def test_identity_gap_to_closed_form_is_real(self):
        # the closed-form fidelity at zero phases is 1/5; the Haar-product
        # ensemble sits near 1/3. The gap is a genuine difference in the
        # averaging measure and must not be "fixed".
        closed = gate_fidelity(PhaseTriple(0, 0, 0))
        assert closed == pytest.approx(0.2, abs=1e-15)
        est = state_ensemble_fidelity(PhaseTriple(0, 0, 0), "haar_product", samples=200_000)
        assert est.mean - closed > 5 * est.std_error

    def test_uniform_angles_measure_differs(self):
        est = state_ensemble_fidelity(PhaseTriple(0, 0, 0), "uniform_angles", samples=200_000)
        # same qualitative picture under the alternative measure
        assert est.mean - 0.2 > 5 * est.std_error

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValidationError, match="unknown measure"):
            state_ensemble_fidelity(SWAP_POINT, "bloch", samples=10)

    def test_reproducible(self):
        a = state_ensemble_fidelity(SWAP_POINT, "haar_product", samples=5000, seed=3)
        b = state_ensemble_fidelity(SWAP_POINT, "haar_product", samples=5000, seed=3)
        assert a == b


class TestFidelityGrid:
    def test_small_grid_contents(self):
        rows = fidelity_grid([0.0, 1.0], [0.0, 2.0], samples=50_000)
        assert len(rows) == 4
        corner = rows[0]
        assert (corner.lambda_x, corner.lambda_z, corner.lambda_h) == (0.0, 0.0, 0.0)
        assert corner.f_analytic == pytest.approx(1.0, abs=1e-15)
        assert corner.f_mc == 1.0
        for row in rows:
            assert row.lambda_x == row.lambda_z
            assert row.f_analytic == pytest.approx(
                analytic(row.lambda_x, row.lambda_z, row.lambda_h), abs=1e-15
            )
            assert abs(row.f_mc - row.f_analytic) <= 3 * row.f_mc_stderr + 1e-12

    def test_monotone_and_steeper_along_tied_axes(self):
        lams = [0.0, 0.5, 1.0, 1.5, 2.0]
        rows = fidelity_grid(lams, lams, samples=1)
        surface = {(r.lambda_x, r.lambda_h): r.f_analytic for r in rows}
        for lh in lams:
            column = [surface[(xz, lh)] for xz in lams]
            assert all(b <= a + 1e-12 for a, b in zip(column, column[1:]))
        for xz in lams:
            row_vals = [surface[(xz, lh)] for lh in lams]
            assert all(b <= a + 1e-12 for a, b in zip(row_vals, row_vals[1:]))
        # exchange-phase noise bites harder than Zeeman-phase noise
        for lam in lams[1:]:
            assert surface[(lam, 0.0)] < surface[(0.0, lam)] - 1e-12

    def test_axis_validation(self):
        with pytest.raises(ValidationError, match="nonempty"):
            fidelity_grid([], [0.0], samples=1)
        with pytest.raises(ValidationError, match="nonnegative"):
            fidelity_grid([-1.0, 0.0], [0.0], samples=1)
        with pytest.raises(ValidationError, match="nondecreasing"):
            fidelity_grid([1.0, 0.5], [0.0], samples=1)
