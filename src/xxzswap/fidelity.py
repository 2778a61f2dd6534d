"""Gate fidelity of the swap action under Gaussian phase fluctuations.

The closed-form fidelity of the evolved gate against the ideal swap is

    F(phi_x, phi_z, phi_h) = 1/5 + (8/15) sin^2(phi_x / 2)
                                 + (4/15) sin(phi_x / 2) sin(phi_z / 2 + phi_h),

which equals 1 exactly on the swap conditions and never falls below 1/6 (the
minimum sits at |sin(phi_x / 2)| = 1/4). Averaging F over independent
Gaussian phases centered on any swap point gives

    F_avg = 7/15 + (4/15) [exp(-lx^2 / 2) + exp(-(lx^2 + lz^2 + 4 lh^2) / 8)],

with limit 7/15 as the deviations grow. A seeded Monte Carlo estimator
cross-checks the average, and a product-state ensemble estimator probes the
state-averaging measure behind the closed form (the two do not agree away
from swap points; see ``state_ensemble_fidelity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import PhaseTriple, propagator_matrix
from .errors import ValidationError, check_finite
from .seeding import DEFAULT_SEED, stream
from .states import _expectation, _product
from .swaps import SWAP_MATRIX, is_swap_point

#: Swap-point phases used as the default fluctuation mean: the (m, n) = (2, 1)
#: solution (anisotropy 3).
SWAP_POINT = PhaseTriple(math.pi, 3.0 * math.pi, math.pi)

#: Default Monte Carlo sample count.
DEFAULT_SAMPLES = 10**6

#: Samples per random stream; fixed so estimates are reproducible no matter
#: how the chunks are evaluated.
CHUNK_SAMPLES = 1 << 16

ENSEMBLE_MEASURES = ("haar_product", "uniform_angles")


@dataclass(frozen=True)
class FluctuationSpec:
    """Standard deviations of independent Gaussian phase fluctuations.

    The mean defaults to the (m, n) = (2, 1) swap point; the closed-form
    average requires the mean to sit on some swap point, the Monte Carlo
    estimator does not.
    """

    lambda_x: float
    lambda_z: float
    lambda_h: float
    mean_phases: PhaseTriple = field(default=SWAP_POINT)

    def __post_init__(self) -> None:
        names = ("lambda_x", "lambda_z", "lambda_h")
        check_finite(self, names)
        for name in names:
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class McEstimate:
    """Seeded Monte Carlo average with its standard error."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValidationError("sample count must be positive")
        if self.std_error < 0.0:
            raise ValidationError("standard error cannot be negative")


def gate_fidelity(phases: PhaseTriple) -> float:
    """Closed-form swap-gate fidelity at the given accumulated phases."""
    return float(_fidelity_values(_exchange_terms(phases.phi_x), phases.phi_z, phases.phi_h))


def _exchange_terms(phi_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phi_x-only part of the closed form: (1/5 + (8/15) s^2, (4/15) s)
    with s = sin(phi_x / 2)."""
    s = np.sin(0.5 * phi_x)
    return 1 / 5 + (8 / 15) * s * s, (4 / 15) * s


def _fidelity_values(exchange, phi_z: np.ndarray, phi_h: np.ndarray) -> np.ndarray:
    base, slope = exchange
    return base + slope * np.sin(0.5 * phi_z + phi_h)


def average_fidelity_analytic(spec: FluctuationSpec) -> float:
    """Gaussian-averaged gate fidelity around a swap point, in closed form.

    Only valid when the mean phases solve the swap conditions (the closed
    form needs the mean sines at their extrema); other means raise, use
    :func:`average_fidelity_mc` for them.
    """
    if not is_swap_point(spec.mean_phases):
        raise ValidationError(
            "mean phases must sit on a swap point (phi_x = d*pi with d odd, "
            "phi_h = n*pi, phi_z = (2n + d)*pi); the closed-form average only "
            "holds there"
        )
    # products saturate to inf where ** would raise OverflowError
    lx2 = spec.lambda_x * spec.lambda_x
    lz2 = spec.lambda_z * spec.lambda_z
    lh2 = spec.lambda_h * spec.lambda_h
    return 7 / 15 + (4 / 15) * (math.exp(-lx2 / 2) + math.exp(-(lx2 + lz2 + 4 * lh2) / 8))


def _phase_values(mean: PhaseTriple, rows):
    """Sampler of the closed-form fidelity at Gaussian-fluctuating phases.

    ``rows`` holds ``(lambda_x, lambda_z, lambda_h values)`` triples; one
    array is yielded per lambda_h of each row, in order, all from the same
    normals. The phi_x terms are computed once per row.
    """

    def values(rng: np.random.Generator, n: int):
        z = rng.standard_normal((3, n))
        for lam_x, lam_z, lam_hs in rows:
            exchange = _exchange_terms(mean.phi_x + lam_x * z[0])
            phi_z = mean.phi_z + lam_z * z[1]
            for lam_h in lam_hs:
                yield _fidelity_values(exchange, phi_z, mean.phi_h + lam_h * z[2])

    return values


def average_fidelity_mc(
    spec: FluctuationSpec,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> McEstimate:
    """Monte Carlo estimate of the Gaussian-averaged gate fidelity.

    Draws the three phases independently from their Gaussians, averages the
    closed-form fidelity, and reports the standard error of the mean.
    Bitwise reproducible for fixed (seed, samples) regardless of how the
    fixed-size chunks are scheduled.
    """
    rows = [(spec.lambda_x, spec.lambda_z, [spec.lambda_h])]
    return _estimate(_phase_values(spec.mean_phases, rows), samples, seed)[0]


def state_ensemble_fidelity(
    phases: PhaseTriple,
    measure: str,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> McEstimate:
    """Average overlap fidelity over random initial product states.

    Draws product states from ``measure``, evolves them at the given phases,
    and averages |<psi| SWAP V |psi>|^2 against the ideal swap. Measures:

    - ``haar_product``: each qubit uniform on the Bloch sphere
      (cos(theta) uniform on [-1, 1], azimuth uniform on [0, 2 pi));
    - ``uniform_angles``: polar angle theta uniform on [0, pi] instead.

    This estimator probes the state-averaging measure behind the closed-form
    :func:`gate_fidelity`, and deliberately does not match it away from swap
    points: at the identity (all phases zero) the Haar-product average is
    1/3 while the closed form gives 1/5. Report both values side by side
    rather than forcing agreement.
    """
    if measure not in ENSEMBLE_MEASURES:
        raise ValidationError(
            f"unknown measure {measure!r}; expected one of {ENSEMBLE_MEASURES}"
        )
    overlap_op = SWAP_MATRIX @ propagator_matrix(phases)

    def values(rng: np.random.Generator, n: int):
        u = rng.random((4, n))
        if measure == "haar_product":
            theta = np.arccos(1.0 - 2.0 * u[:2])
        else:
            theta = np.pi * u[:2]
        # qubit i then j, each with amplitudes (cos(theta/2), e^{i phi} sin(theta/2))
        qubits = np.empty((2, n, 2), dtype=complex)
        qubits[..., 0] = np.cos(theta / 2)
        qubits[..., 1] = np.exp(2j * np.pi * u[2:]) * np.sin(theta / 2)
        f = np.abs(_expectation(overlap_op, _product(qubits[0], qubits[1]))) ** 2
        # free this chunk's temporaries before it is reduced, or each chunk
        # faults its memory in again
        del u, theta, qubits
        yield f

    return _estimate(values, samples, seed)[0]


@dataclass(frozen=True)
class FidelityGridRow:
    """One grid point of the tied-axes fidelity surface."""

    lambda_x: float
    lambda_z: float
    lambda_h: float
    f_analytic: float
    f_mc: float
    f_mc_stderr: float
    samples: int
    seed: int


def fidelity_grid(
    xz_values,
    h_values,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    mean_phases: PhaseTriple = SWAP_POINT,
) -> list[FidelityGridRow]:
    """Tied-axes fidelity surface: lambda_x = lambda_z on the first axis,
    lambda_h on the second.

    Each row carries the closed-form average next to its Monte Carlo
    estimate, suitable for surface plots or regression against the closed
    form. Axis grids must be nonempty, nonnegative, and nondecreasing.
    """
    xz = [float(v) for v in xz_values]
    h = [float(v) for v in h_values]
    for name, axis in (("xz_values", xz), ("h_values", h)):
        if not axis:
            raise ValidationError(f"{name} must be nonempty")
        if any(v < 0.0 or not math.isfinite(v) for v in axis):
            raise ValidationError(f"{name} must be finite and nonnegative")
        if any(b < a for a, b in zip(axis, axis[1:])):
            raise ValidationError(f"{name} must be nondecreasing")
    # the closed form checks the mean before any sample is drawn
    specs = [FluctuationSpec(lam_xz, lam_xz, lam_h, mean_phases) for lam_xz in xz for lam_h in h]
    analytic = [average_fidelity_analytic(spec) for spec in specs]
    # every grid point is evaluated on the same chunk of normals
    sampler = _phase_values(mean_phases, [(lam_xz, lam_xz, h) for lam_xz in xz])
    return [
        FidelityGridRow(
            lambda_x=spec.lambda_x,
            lambda_z=spec.lambda_z,
            lambda_h=spec.lambda_h,
            f_analytic=f_analytic,
            f_mc=estimate.mean,
            f_mc_stderr=estimate.std_error,
            samples=samples,
            seed=seed,
        )
        for spec, f_analytic, estimate in zip(specs, analytic, _estimate(sampler, samples, seed))
    ]


def _chunk_stats(values, samples: int, seed: int, index: int):
    """Sum and sum of squares of each array ``values(rng, n)`` yields over
    one sample chunk.

    Chunk contents depend only on (seed, index), so chunks may be evaluated
    in any order, or in parallel, and reduced by index. Each array is
    reduced as soon as it is yielded.
    """
    n = min(CHUNK_SAMPLES, samples - index * CHUNK_SAMPLES)
    return [(float(np.sum(f)), float(np.sum(f * f))) for f in values(stream(seed, index), n)]


def _estimate(values, samples: int, seed: int) -> list[McEstimate]:
    """Seeded Monte Carlo mean, with its standard error, of each array
    ``values`` yields."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    chunks = [
        _chunk_stats(values, samples, seed, index)
        for index in range((samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES)
    ]
    estimates = []
    for per_chunk in zip(*chunks):
        total = total_sq = 0.0
        for s, s2 in per_chunk:
            total += s
            total_sq += s2
        mean = total / samples
        if samples > 1:
            # sample variance; the max() guards the degenerate all-equal case
            variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        else:
            variance = 0.0
        estimates.append(McEstimate(mean, math.sqrt(variance / samples), samples, seed))
    return estimates
