"""Tests for the closed-form gate fidelity, its Gaussian average, and the
Monte Carlo estimators."""

import math
import os
import sys
import threading
from functools import partial

import numpy as np
import pytest

from xxzswap import (
    FluctuationSpec,
    McEstimate,
    PhaseTriple,
    SWAP_MATRIX,
    SWAP_POINT,
    ValidationError,
    average_fidelity_analytic,
    average_fidelity_mc,
    fidelity_grid,
    gate_fidelity,
    is_swap_point,
    propagator_matrix,
    state_ensemble_fidelity,
)
import xxzswap.fidelity
from xxzswap.fidelity import (
    BLOCK,
    CHUNK_SAMPLES,
    ENSEMBLE_MEASURES,
    ORDERED_POINTS,
    _chunk_stats,
    _ensemble_values,
    _phase_values,
)
from xxzswap.seeding import stream
from xxzswap.states import _expectation, _product

PI = math.pi

# frozen from the closed form 7/15 + (4/15) (e^{-1/2} + e^{-1/4})
FA_110 = 0.8360883847424102

# one sample, one full chunk, a chunk and one, several chunks and a partial one
SAMPLE_COUNTS = [1, CHUNK_SAMPLES, CHUNK_SAMPLES + 1, 3 * CHUNK_SAMPLES + 1234]
# worker counts to run the estimators at: one, one per CPU here, and more
WORKER_COUNTS = [1, 2, 3]
# the (m, n) = (5, -4) swap point
MEAN_5_M4 = PhaseTriple(9 * PI, PI, -4 * PI)
# grid axes of ORDERED_POINTS points, which the sampler evaluates in cell
# order, at widths 0, 2.5 and the largest the Monte Carlo takes
ORDERED_XZ = [0.0, 2.5, 2.5, 1e300]
ORDERED_H = [0.0, 0.0, 2.5, 1e300]


def written_out_phase_values(spec, z):
    """Oracle: the closed form at the phases ``spec`` draws from the normals
    ``z``, written out in its own order of operations."""
    mean = spec.mean_phases
    s = np.sin(0.5 * (mean.phi_x + spec.lambda_x * z[0]))
    phi_z = mean.phi_z + spec.lambda_z * z[1]
    phi_h = mean.phi_h + spec.lambda_h * z[2]
    return 1 / 5 + (8 / 15) * s * s + (4 / 15) * s * np.sin(0.5 * phi_z + phi_h)


def reference_mc(spec, samples, seed):
    """Oracle: one grid point's estimator written out, one chunk stream at a
    time."""
    total = total_sq = 0.0
    for index in range((samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES):
        n = min(CHUNK_SAMPLES, samples - index * CHUNK_SAMPLES)
        f = written_out_phase_values(spec, stream(seed, index).standard_normal((3, n)))
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
    m = total / samples
    variance = max(total_sq - samples * m * m, 0.0) / (samples - 1) if samples > 1 else 0.0
    return m, math.sqrt(variance / samples)


def use_cpus(monkeypatch, count):
    """Make the estimators see ``count`` CPUs, so they run ``count`` workers
    wherever there are that many chunks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


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
            # off the swap points
            ((1.0, 0.8, 0.6), PhaseTriple(0.0, 0.0, 0.0)),
            ((0.5, 1.5, 0.2), PhaseTriple(0.7, -1.3, 2.1)),
            ((2.0, 0.4, 1.1), PhaseTriple(PI, 3 * PI, PI + 0.3)),
            ((0.3, 0.3, 0.3), PhaseTriple(2.5, 5.0, -0.4)),
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

    @pytest.mark.parametrize(
        "lambdas, mean, seed",
        [
            ((1.0, 1.0, 1.0), PhaseTriple(0.0, 0.0, 0.0), 1),
            ((1.0, 1.0, 1.0), PhaseTriple(PI, 3 * PI, PI + 0.3), 2),
            ((0.4, 0.9, 0.2), PhaseTriple(1.9, -2.2, 0.5), 3),
            ((2.5, 0.1, 0.6), PhaseTriple(-0.8, 4.0, -1.7), 4),
        ],
        ids=["zero-mean", "zeeman-detuned", "mid-phases", "wide-exchange"],
    )
    def test_matches_monte_carlo_off_swap_points(self, lambdas, mean, seed):
        assert not is_swap_point(mean)
        spec = FluctuationSpec(*lambdas, mean)
        est = average_fidelity_mc(spec, samples=400_000, seed=seed)
        assert abs(est.mean - average_fidelity_analytic(spec)) <= 4 * est.std_error

    def test_monotone_nonincreasing_in_each_deviation(self):
        grid = np.linspace(0, 4, 9)
        for axis in range(3):
            values = []
            for lam in grid:
                lams = [0.7, 0.7, 0.7]
                lams[axis] = lam
                values.append(average_fidelity_analytic(FluctuationSpec(*lams)))
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestMonteCarloAverage:
    def test_degenerate_gaussians_exact(self):
        for seed in (0, 7, 123456):
            est = average_fidelity_mc(FluctuationSpec(0, 0, 0), samples=10_000, seed=seed)
            assert est.mean == 1.0
            assert est.std_error == 0.0

    def test_negative_standard_error_rejected(self):
        with pytest.raises(ValidationError, match="standard error cannot be negative"):
            McEstimate(1.0, -1e-3, 10, 7)

    def test_matches_analytic_within_three_stderr(self):
        est = average_fidelity_mc(FluctuationSpec(1, 1, 0), samples=10**6)
        assert abs(est.mean - FA_110) <= 3 * est.std_error

    def test_far_tail_matches_analytic(self):
        est = average_fidelity_mc(FluctuationSpec(5, 5, 5), samples=10**6)
        assert abs(est.mean - analytic(5, 5, 5)) <= 3 * est.std_error

    def test_widths_that_overflow_the_sampler_rejected(self):
        # beyond the bound lambda * z overflows and the estimate is nan
        for lambdas in ((1e308, 0, 0), (0, 1e301, 0), (0, 0, 1e301)):
            with pytest.raises(ValidationError, match=r"<= 1e\+300"):
                average_fidelity_mc(FluctuationSpec(*lambdas), samples=1)
        with pytest.raises(ValidationError, match="h_values"):
            fidelity_grid([0.0], [0.0, 1e301], samples=1)
        est = average_fidelity_mc(FluctuationSpec(1e300, 1e300, 1e300), samples=1000)
        assert math.isfinite(est.mean) and math.isfinite(est.std_error)
        # the closed form takes any finite width
        assert average_fidelity_analytic(FluctuationSpec(1e308, 0, 0)) == 7 / 15

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
        sampler = _phase_values(spec.mean_phases, [(0.8, 1.2, [0.4])])
        indices = list(range((samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES))
        stats = {i: _chunk_stats(sampler, samples, 5, i) for i in reversed(indices)}
        total = total_sq = 0.0
        for i in indices:
            [(s, s2)] = stats[i]
            total += s
            total_sq += s2
        mean = total / samples
        variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        assert mean == est.mean
        assert math.sqrt(variance / samples) == est.std_error

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    def test_matches_written_out_estimator_bitwise(self, samples):
        for spec in (FluctuationSpec(0.8, 1.2, 0.4), FluctuationSpec(2.0, 0.0, 1.5, MEAN_5_M4)):
            est = average_fidelity_mc(spec, samples=samples, seed=5)
            assert (est.mean, est.std_error) == reference_mc(spec, samples, 5)

    def test_seed_changes_samples(self):
        spec = FluctuationSpec(1, 1, 0)
        a = average_fidelity_mc(spec, samples=50_000, seed=1)
        b = average_fidelity_mc(spec, samples=50_000, seed=2)
        assert a.mean != b.mean


# each Monte Carlo entry point, as a call with (samples, seed) that returns
# something carrying both
ESTIMATORS = {
    "mc": lambda samples, seed: average_fidelity_mc(FluctuationSpec(0.8, 1.2, 0.4), samples, seed),
    "ensemble": lambda samples, seed: state_ensemble_fidelity(
        SWAP_POINT, "haar_product", samples, seed
    ),
    "grid": lambda samples, seed: fidelity_grid([0.5], [0.5], samples, seed)[0],
}


@pytest.mark.parametrize("estimator", ESTIMATORS)
class TestEstimatorInputs:
    @pytest.mark.parametrize("samples", [2.5, 1e3, True, "10", None])
    def test_non_integer_sample_count_rejected(self, estimator, samples):
        with pytest.raises(ValidationError, match="samples must be an integer"):
            ESTIMATORS[estimator](samples, 7)

    def test_integers_of_every_kind_accepted(self, estimator):
        for seed in (0, 2**128 - 1):
            ESTIMATORS[estimator](10, seed)
        # numpy integers are integers, and the result carries python ints
        result = ESTIMATORS[estimator](np.int64(1000), np.uint64(2**64 - 1))
        assert result == ESTIMATORS[estimator](1000, 2**64 - 1)
        assert (type(result.samples), type(result.seed)) == (int, int)


# second moments [[E x^2, E xy], [E xy, E y^2]] of x = cos^2(theta/2), y = 1 - x
ENSEMBLE_MOMENTS = {
    "haar_product": np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]),
    "uniform_angles": np.array([[3 / 8, 1 / 8], [1 / 8, 3 / 8]]),
}


def ensemble_average(phases, measure):
    """Oracle: the exact ensemble average of |<psi|W|psi>|^2, W = SWAP U.

    The overlap is sum_ij M_ij va_i vb_j + 2 W12 sqrt(xa ya xb yb) c with
    v = (x, y), M = [[W00, W11], [W11, W33]] and c = cos(phi_a - phi_b).
    Independent qubits and E[c] = 0, E[c^2] = 1/2 leave
    sum M_ij conj(M_kl) S_ik S_jl + 2 |W12|^2 S_01^2.
    """
    w = SWAP_MATRIX @ propagator_matrix(phases)
    m = np.array([[w[0, 0], w[1, 1]], [w[1, 1], w[3, 3]]])
    s = ENSEMBLE_MOMENTS[measure]
    polar = np.einsum("ij,kl,ik,jl->", m, m.conj(), s, s).real
    return float(polar + 2 * abs(w[1, 2]) ** 2 * s[0, 1] ** 2)


def reference_ensemble_values(phases, measure, u):
    """Oracle: the overlap fidelity of the product states that ``u`` encodes,
    through the 4x4 operator and the stacked state helpers."""
    theta = np.arccos(1 - 2 * u[:2]) if measure == "haar_product" else np.pi * u[:2]
    qubits = np.empty((2, u.shape[1], 2), dtype=complex)
    qubits[..., 0] = np.cos(theta / 2)
    qubits[..., 1] = np.exp(2j * np.pi * u[2:]) * np.sin(theta / 2)
    op = SWAP_MATRIX @ propagator_matrix(phases)
    return np.abs(_expectation(op, _product(qubits[0], qubits[1]))) ** 2


def written_out_ensemble_values(phases, measure, u):
    """Oracle: the ensemble sampler's expressions, in its order of
    operations, on the whole chunk with fresh temporaries."""
    w = SWAP_MATRIX @ propagator_matrix(phases)
    if measure == "haar_product":
        y = u[:2]
        x = 1.0 - y
        root = np.sqrt(x[0] * y[0] * x[1] * y[1])
    else:
        half = 0.5 * np.pi * u[:2]
        s, c = np.sin(half), np.cos(half)
        root = c[0] * s[0] * c[1] * s[1]
        x, y = c * c, s * s
    cross = root * np.cos(2 * np.pi * (u[2] - u[3]))
    p, q, r = x[0] * x[1], y[0] * y[1], x[0] * y[1] + y[0] * x[1]
    re, im = (
        part(w[0, 0]) * p + part(w[3, 3]) * q + part(w[1, 1]) * r + 2 * part(w[1, 2]) * cross
        for part in (np.real, np.imag)
    )
    return re * re + im * im


class RecordedDraws:
    """Stands in for a generator: records the size of each ``random`` call
    and hands it on to ``source``."""

    def __init__(self, source, sizes):
        self.source = source
        self.sizes = sizes

    def random(self, size):
        self.sizes.append(size)
        return self.source(size)


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
        # same qualitative picture under the alternative measure, at 11/32
        assert est.mean - 0.2 > 5 * est.std_error
        assert abs(est.mean - 11 / 32) <= 4 * est.std_error

    def test_closed_form_average_at_identity(self):
        identity = PhaseTriple(0, 0, 0)
        assert ensemble_average(identity, "haar_product") == pytest.approx(1 / 3, abs=1e-15)
        assert ensemble_average(identity, "uniform_angles") == pytest.approx(11 / 32, abs=1e-15)

    @pytest.mark.parametrize("measure", ENSEMBLE_MEASURES)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_agrees_with_closed_form_average(self, measure, seed):
        # off-swap phases drawn as the benchmark draws them
        rng = np.random.default_rng(seed)
        phases = PhaseTriple(rng.uniform(0.3, 2.8), rng.uniform(-6, 6), rng.uniform(-3, 3))
        assert not is_swap_point(phases)
        est = state_ensemble_fidelity(phases, measure, samples=200_000, seed=seed)
        assert abs(est.mean - ensemble_average(phases, measure)) <= 4 * est.std_error

    @pytest.mark.parametrize("measure", ENSEMBLE_MEASURES)
    def test_matches_4x4_reference_per_sample(self, measure):
        rng = np.random.default_rng(17)
        n = 4000
        u = rng.random((4, n))
        # polar draws at and within 1e-9 of both poles
        poles = [0.0, 1e-12, 1e-9, 0.5, 1 - 1e-9, 1 - 1e-12, 1.0 - 2**-53]
        u[0, : len(poles)] = poles
        u[1, : len(poles)] = poles[::-1]
        u[:2, len(poles) : 2 * len(poles)] = poles
        for _ in range(5):
            phases = PhaseTriple(*rng.uniform(-10, 10, 3))
            sizes = []
            [f] = _ensemble_values(phases, measure)(RecordedDraws(lambda size: u, sizes), n)
            assert sizes == [(4, n)]
            assert np.max(np.abs(f - reference_ensemble_values(phases, measure, u))) <= 1e-14

    def test_draws_one_block_per_chunk(self, monkeypatch):
        # chunks may finish in any order, so each records its own index
        draws = []

        def recorded_stream(s, i):
            sizes = []
            draws.append((i, sizes))
            return RecordedDraws(stream(s, i).random, sizes)

        monkeypatch.setattr(xxzswap.fidelity, "stream", recorded_stream)
        state_ensemble_fidelity(SWAP_POINT, "uniform_angles", samples=2 * CHUNK_SAMPLES + 1)
        assert sorted(draws) == [(0, [(4, CHUNK_SAMPLES)]), (1, [(4, CHUNK_SAMPLES)]), (2, [(4, 1)])]

    @pytest.mark.parametrize("measure", ENSEMBLE_MEASURES)
    def test_chunk_sizes_that_shrink_and_grow_reuse_no_stale_data(self, measure):
        phases = PhaseTriple(1.3, -2.1, 0.7)
        values = _ensemble_values(phases, measure)
        for index, n in enumerate([CHUNK_SAMPLES, 1234, 1, CHUNK_SAMPLES]):
            u = stream(11, index).random((4, n))
            [f] = values(RecordedDraws(lambda size: u, []), n)
            assert np.max(np.abs(f - reference_ensemble_values(phases, measure, u))) <= 1e-14
            [fresh] = _ensemble_values(phases, measure)(RecordedDraws(lambda size: u, []), n)
            assert np.array_equal(f, fresh)

    @pytest.mark.parametrize("measure", ENSEMBLE_MEASURES)
    def test_blocks_give_the_whole_chunk_expressions_bitwise(self, measure):
        phases = PhaseTriple(1.3, -2.1, 0.7)
        values = _ensemble_values(phases, measure)
        for index, n in enumerate(
            [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 1, CHUNK_SAMPLES - 1, CHUNK_SAMPLES]
        ):
            u = stream(13, index).random((4, n))
            [f] = values(RecordedDraws(lambda size: u, []), n)
            assert np.array_equal(f, written_out_ensemble_values(phases, measure, u))
            assert np.max(np.abs(f - reference_ensemble_values(phases, measure, u))) <= 1e-14

    @pytest.mark.parametrize("measure", ENSEMBLE_MEASURES)
    def test_one_work_buffer_per_call(self, monkeypatch, measure):
        # one sampler, and so one output array, per worker; at one worker a
        # single output array serves all four chunks
        samplers = []
        sampler = xxzswap.fidelity._ensemble_values

        def recording(phases, measure):
            values = sampler(phases, measure)
            yielded = []
            samplers.append(yielded)

            def recorded(rng, n):
                for f in values(rng, n):
                    yielded.append(f)
                    yield f

            return recorded

        monkeypatch.setattr(xxzswap.fidelity, "_ensemble_values", recording)
        for workers in WORKER_COUNTS:
            use_cpus(monkeypatch, workers)
            samplers.clear()
            state_ensemble_fidelity(SWAP_POINT, measure, samples=3 * CHUNK_SAMPLES + 1234)
            assert len(samplers) == workers
            assert sum(len(yielded) for yielded in samplers) == 4
            for yielded in samplers:
                assert all(np.shares_memory(f, yielded[0]) for f in yielded)

    @pytest.mark.parametrize(
        "measure, mean, std_error",
        [
            ("haar_product", "0x1.84cc58de8a566p-3", "0x1.b30d576fdaca4p-12"),
            ("uniform_angles", "0x1.1435b8b8d9fcbp-2", "0x1.1eba8c0f1f27dp-11"),
        ],
    )
    def test_frozen_estimate_bitwise(self, measure, mean, std_error):
        # frozen from the sampler that allocated fresh temporaries per chunk
        est = state_ensemble_fidelity(
            PhaseTriple(1.3, -2.1, 0.7), measure, samples=3 * CHUNK_SAMPLES + 1234, seed=2024
        )
        assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)

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

    def test_non_swap_mean_rows_carry_their_closed_form(self):
        mean = PhaseTriple(0.7, -1.3, 2.1)
        rows = fidelity_grid([0.0, 0.5, 1.0], [0.0, 0.5], samples=10, mean_phases=mean)
        assert len(rows) == 6
        for row in rows:
            spec = FluctuationSpec(row.lambda_x, row.lambda_z, row.lambda_h, mean)
            assert row.f_analytic == average_fidelity_analytic(spec)

    def test_draws_each_chunk_once_per_grid(self, monkeypatch):
        opened = []

        def counted_stream(seed, index):
            opened.append((seed, index))
            return stream(seed, index)

        monkeypatch.setattr(xxzswap.fidelity, "stream", counted_stream)
        use_cpus(monkeypatch, 1)
        fidelity_grid([0.0, 1.0, 2.0], [0.0, 3.0], samples=2 * CHUNK_SAMPLES + 1, seed=3)
        assert opened == [(3, 0), (3, 1), (3, 2)]

    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    def test_draws_each_chunk_once_per_grid_on_every_worker_count(self, monkeypatch, workers):
        opened = []

        def counted_stream(seed, index):
            opened.append((seed, index))
            return stream(seed, index)

        monkeypatch.setattr(xxzswap.fidelity, "stream", counted_stream)
        use_cpus(monkeypatch, workers)
        fidelity_grid([0.0, 1.0, 2.0], [0.0, 3.0], samples=2 * CHUNK_SAMPLES + 1, seed=3)
        # workers open their chunks concurrently, in no fixed order
        assert sorted(opened) == [(3, 0), (3, 1), (3, 2)]

    def test_chunk_sizes_that_shrink_and_grow_reuse_no_stale_data(self):
        self.check_chunk_sizes([(0.8, 1.2, [0.4, 0.0]), (2.0, 0.0, [1.5])])

    def test_cell_ordered_chunk_sizes_reuse_no_stale_data(self):
        self.check_chunk_sizes([(x, x, ORDERED_H) for x in ORDERED_XZ])

    @staticmethod
    def check_chunk_sizes(rows):
        specs = [FluctuationSpec(lx, lz, lh, MEAN_5_M4) for lx, lz, lhs in rows for lh in lhs]
        values = _phase_values(MEAN_5_M4, rows)
        for index, n in enumerate([CHUNK_SAMPLES, 1234, 1, CHUNK_SAMPLES]):
            z = stream(11, index).standard_normal((3, n))
            fresh = [f.copy() for f in _phase_values(MEAN_5_M4, rows)(stream(11, index), n)]
            # each array is checked before the sampler overwrites it with the next
            for spec, f, g in zip(specs, values(stream(11, index), n), fresh, strict=True):
                assert np.array_equal(f, written_out_phase_values(spec, z))
                assert np.array_equal(f, g)

    def test_one_set_of_buffers_per_worker(self, monkeypatch):
        self.check_buffers(monkeypatch, [0.0, 0.7], [0.4, 2.5])

    def test_one_set_of_buffers_per_worker_in_cell_order(self, monkeypatch):
        self.check_buffers(monkeypatch, ORDERED_XZ, ORDERED_H)

    @staticmethod
    def check_buffers(monkeypatch, xz, h):
        # one sampler, and so one fidelity buffer, per worker; at one worker a
        # single buffer serves every grid point of all four chunks
        samplers = []
        sampler = xxzswap.fidelity._phase_values

        def recording(mean, rows):
            values = sampler(mean, rows)
            yielded = []
            samplers.append(yielded)

            def recorded(rng, n):
                for f in values(rng, n):
                    yielded.append(f)
                    yield f

            return recorded

        monkeypatch.setattr(xxzswap.fidelity, "_phase_values", recording)
        for workers in WORKER_COUNTS:
            use_cpus(monkeypatch, workers)
            samplers.clear()
            fidelity_grid(xz, h, samples=3 * CHUNK_SAMPLES + 1234)
            assert len(samplers) == workers
            assert sum(len(yielded) for yielded in samplers) == 4 * len(xz) * len(h)
            for yielded in samplers:
                assert all(np.shares_memory(f, yielded[0]) for f in yielded)

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    @pytest.mark.parametrize(
        "xz, h, mean",
        [
            ([0.7], [1.3], SWAP_POINT),
            ([0.7], [0.0, 0.4, 2.5], SWAP_POINT),
            ([0.0, 0.4, 2.5], [1.3], SWAP_POINT),
            ([0.5, 0.5, 1.0], [0.0, 0.0, 2.0], SWAP_POINT),
            ([0.0], [0.0], SWAP_POINT),
            ([0.0, 1.5], [0.3, 3.0], MEAN_5_M4),
            # grids of ORDERED_POINTS points compute in cell order
            (ORDERED_XZ, ORDERED_H, SWAP_POINT),
            (ORDERED_XZ, ORDERED_H, MEAN_5_M4),
        ],
    )
    def test_rows_match_pointwise_estimates_bitwise(self, samples, xz, h, mean):
        # the grid shares each chunk of normals between its points, yet every
        # row is the estimate a lone call gives at that point
        rows = fidelity_grid(xz, h, samples=samples, seed=11, mean_phases=mean)
        assert [(r.lambda_x, r.lambda_h) for r in rows] == [(x, y) for x in xz for y in h]
        for row in rows:
            spec = FluctuationSpec(row.lambda_x, row.lambda_z, row.lambda_h, mean)
            est = average_fidelity_mc(spec, samples=samples, seed=11)
            assert (row.f_mc, row.f_mc_stderr) == (est.mean, est.std_error)
            assert (row.f_mc, row.f_mc_stderr) == reference_mc(spec, samples, 11)
            assert row.f_analytic == average_fidelity_analytic(spec)
            assert (row.samples, row.seed) == (samples, 11)

    @pytest.mark.parametrize(
        "xz, h, sorts",
        [([1.0], [0.1 * k for k in range(ORDERED_POINTS - 1)], 0), (ORDERED_XZ, ORDERED_H, 2)],
        ids=["below", "ordered-axes"],
    )
    def test_cell_order_from_ordered_points(self, monkeypatch, xz, h, sorts):
        # one sort per chunk from ORDERED_POINTS grid points, none below; the
        # bitwise cases on ORDERED_XZ x ORDERED_H take the cell-ordered path
        calls = []
        order = xxzswap.fidelity._cell_order

        def counted(*args):
            calls.append(1)
            return order(*args)

        monkeypatch.setattr(xxzswap.fidelity, "_cell_order", counted)
        fidelity_grid(xz, h, samples=CHUNK_SAMPLES + 1)
        assert len(calls) == sorts


class TestWorkers:
    @pytest.mark.parametrize("samples", SAMPLE_COUNTS + [BLOCK + 1, 2 * BLOCK + 1])
    def test_estimates_do_not_depend_on_worker_count(self, monkeypatch, samples):
        def estimates():
            return (
                [
                    state_ensemble_fidelity(PhaseTriple(1.3, -2.1, 0.7), m, samples, seed=7)
                    for m in ENSEMBLE_MEASURES
                ],
                average_fidelity_mc(FluctuationSpec(0.8, 1.2, 0.4), samples, seed=7),
                fidelity_grid([0.0, 0.7], [0.4, 2.5], samples, seed=7, mean_phases=MEAN_5_M4),
                fidelity_grid(ORDERED_XZ, ORDERED_H, samples, seed=7),
            )

        results = []
        interval = sys.getswitchinterval()
        # switch threads often, so a lost or misplaced chunk would show
        sys.setswitchinterval(1e-5)
        try:
            for workers in WORKER_COUNTS:
                use_cpus(monkeypatch, workers)
                results.append(estimates())
        finally:
            sys.setswitchinterval(interval)
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_cpu_count_serves_where_affinity_is_missing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert xxzswap.fidelity._cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert xxzswap.fidelity._cpus() == 1

    @pytest.mark.parametrize("cpus, samples", [(3, CHUNK_SAMPLES), (1, 3 * CHUNK_SAMPLES + 1234)])
    def test_one_worker_starts_no_thread(self, monkeypatch, cpus, samples):
        use_cpus(monkeypatch, cpus)
        expected = average_fidelity_mc(FluctuationSpec(0.8, 1.2, 0.4), samples)

        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert average_fidelity_mc(FluctuationSpec(0.8, 1.2, 0.4), samples) == expected

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_callers_error_state_applies_in_every_worker(self, monkeypatch, workers):
        use_cpus(monkeypatch, workers)
        seen = []
        chunk_stats = xxzswap.fidelity._chunk_stats
        # each worker's first chunk waits for the others', so no worker can
        # finish before the next is submitted and hand it its pool thread
        together = threading.Barrier(workers, timeout=10.0)

        def recording(values, samples, seed, index):
            if index < workers:
                together.wait()
            seen.append((threading.get_ident(), np.geterr()["over"]))
            return chunk_stats(values, samples, seed, index)

        monkeypatch.setattr(xxzswap.fidelity, "_chunk_stats", recording)
        with np.errstate(over="raise"):
            average_fidelity_mc(FluctuationSpec(0.8, 1.2, 0.4), samples=3 * CHUNK_SAMPLES)
        assert len({ident for ident, _ in seen}) == workers
        assert [over for _, over in seen] == ["raise"] * 3
        # lambda_x * z overflows in every full chunk; the public estimators
        # reject this width, so the sampler is driven directly
        sampler = partial(_phase_values, SWAP_POINT, [(1e308, 0.0, [0.0])])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            xxzswap.fidelity._estimate(sampler, 2 * CHUNK_SAMPLES + 1, 7)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_worker_stops_the_others(self, monkeypatch, failing):
        use_cpus(monkeypatch, 2)
        opened = []
        failed = threading.Event()

        def failing_stream(seed, index):
            opened.append(index)
            if index == failing:
                failed.set()
                raise RuntimeError(f"chunk {index} failed")
            # the other worker goes on only once the failing chunk has raised
            failed.wait(timeout=10.0)
            return stream(seed, index)

        monkeypatch.setattr(xxzswap.fidelity, "stream", failing_stream)
        with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
            state_ensemble_fidelity(SWAP_POINT, "haar_product", samples=6 * CHUNK_SAMPLES)
        # the other worker finishes the chunk it had opened, and opens no more
        assert set(opened) <= {0, 1}

    def test_a_stalled_worker_leaves_its_chunks_to_the_others(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        spec = FluctuationSpec(0.8, 1.2, 0.4)
        expected = average_fidelity_mc(spec, samples=4 * CHUNK_SAMPLES)
        chunk_stats = xxzswap.fidelity._chunk_stats
        caller = threading.get_ident()
        ran = []
        # both threads hold a chunk before either goes on, so the pool thread
        # cannot run every chunk while the caller is still starting
        together = threading.Barrier(2, timeout=10.0)
        released = threading.Event()

        def stalling(values, samples, seed, index):
            ident = threading.get_ident()
            if ident not in ran:
                together.wait()
                if ident != caller:
                    # the pool thread stalls in its first chunk until the
                    # caller has run the other three
                    released.wait(timeout=10.0)
            stats = chunk_stats(values, samples, seed, index)
            ran.append(ident)
            if ran.count(caller) == 3:
                released.set()
            return stats

        monkeypatch.setattr(xxzswap.fidelity, "_chunk_stats", stalling)
        assert average_fidelity_mc(spec, samples=4 * CHUNK_SAMPLES) == expected
        assert ran.count(caller) == 3

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        use_cpus(monkeypatch, 2)

        def failing_stream(seed, index):
            if index == 1:
                raise RuntimeError("chunk 1 failed")
            return stream(seed, index)

        monkeypatch.setattr(xxzswap.fidelity, "stream", failing_stream)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            state_ensemble_fidelity(SWAP_POINT, "haar_product", samples=2 * CHUNK_SAMPLES + 1)
        assert threading.active_count() == threads
