"""Gate fidelity of the swap action under Gaussian phase fluctuations.

The closed-form fidelity of the evolved gate against the ideal swap is

    F(phi_x, phi_z, phi_h) = 1/5 + (8/15) sin^2(phi_x / 2)
                                 + (4/15) sin(phi_x / 2) sin(phi_z / 2 + phi_h),

which equals 1 exactly on the swap conditions and never falls below 1/6 (the
minimum sits at |sin(phi_x / 2)| = 1/4). Averaging F over independent
Gaussian phases with means (mx, mz, mh) gives

    F_avg = 7/15 + (4/15) [-cos(mx) exp(-lx^2 / 2)
                           + sin(mx / 2) sin(mz / 2 + mh) exp(-(lx^2 + lz^2 + 4 lh^2) / 8)],

since E[exp(ia)] = exp(im - l^2 / 2) for a ~ N(m, l^2). On a swap point both
trigonometric factors are 1; the limit is 7/15 as the deviations grow. A
seeded Monte Carlo estimator cross-checks the average, and a product-state
ensemble estimator probes the state-averaging measure behind the closed form
(the two do not agree away from swap points; see ``state_ensemble_fidelity``).
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dynamics import PhaseTriple, accumulate_phases, propagator_matrix
from .errors import ValidationError, check_finite, check_integer, check_iterable, check_real, check_type
from .seeding import DEFAULT_SEED, check_seed, stream
from .swaps import SWAP_MATRIX, SwapPlan

#: Swap-point phases used as the default fluctuation mean: the (m, n) = (2, 1)
#: solution (anisotropy 3).
SWAP_POINT = accumulate_phases(SwapPlan(2, 1, 1.0).schedule(), 1.0)

#: Default Monte Carlo sample count.
DEFAULT_SAMPLES = 10**6

#: Samples per random stream; fixed so estimates are reproducible no matter
#: how the chunks are evaluated.
CHUNK_SAMPLES = 1 << 16

#: Samples per column block of the ensemble sampler. Each of a block's
#: temporaries is then 64 KiB, below glibc's default 128 KiB mmap threshold,
#: so the heap reuses them from block to block instead of mapping fresh pages
#: and faulting them in for every block.
BLOCK = 1 << 13

ENSEMBLE_MEASURES = ("haar_product", "uniform_angles")

#: Largest fluctuation width the Monte Carlo estimators take: beyond it lambda * z
#: overflows for normals of a few units, and the fidelity sampled there is nan.
MC_LAMBDA_MAX = 1e300


@dataclass(frozen=True)
class FluctuationSpec:
    """Standard deviations of independent Gaussian phase fluctuations.

    The mean defaults to the (m, n) = (2, 1) swap point.
    """

    lambda_x: float
    lambda_z: float
    lambda_h: float
    mean_phases: PhaseTriple = field(default=SWAP_POINT)

    def __post_init__(self) -> None:
        check_finite(self, ["lambda_x", "lambda_z", "lambda_h"], "nonnegative")
        check_type(self.mean_phases, PhaseTriple, "mean_phases")


@dataclass(frozen=True)
class McEstimate:
    """Seeded Monte Carlo average with its standard error."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        check_integer(self.samples, "samples", "positive")
        if self.std_error < 0.0:
            raise ValidationError("standard error cannot be negative")


def gate_fidelity(phases: PhaseTriple) -> float:
    """Closed-form swap-gate fidelity at the given accumulated phases."""
    check_type(phases, PhaseTriple, "phases")
    phi_x, half_z, phi_h = np.array([[phases.phi_x], [phases.phi_z], [phases.phi_h]])
    base, slope = np.empty((2, 1))
    _exchange_terms(phi_x, half_z, base, slope)
    return float(_fidelity_values(base, slope, half_z, phi_h)[0])


def _exchange_terms(
    phi_x: np.ndarray, phi_z: np.ndarray, base: np.ndarray, slope: np.ndarray
) -> None:
    """The closed form's terms in the exchange phases, in place: ``base`` =
    1/5 + (8/15) s^2 and ``slope`` = (4/15) s with s = sin(phi_x / 2), and
    phi_z / 2 over ``phi_z``. ``phi_x`` is left holding s."""
    s = np.sin(np.multiply(0.5, phi_x, out=phi_x), out=phi_x)
    np.add(1 / 5, np.multiply(np.multiply(8 / 15, s, out=base), s, out=base), out=base)
    np.multiply(4 / 15, s, out=slope)
    np.multiply(0.5, phi_z, out=phi_z)


def _fidelity_values(
    base: np.ndarray, slope: np.ndarray, half_z: np.ndarray, phi_h: np.ndarray
) -> np.ndarray:
    """The closed form base + slope sin(phi_z / 2 + phi_h), written over and
    returned in ``phi_h``."""
    f = np.sin(np.add(half_z, phi_h, out=phi_h), out=phi_h)
    return np.add(base, np.multiply(slope, f, out=f), out=f)


def average_fidelity_analytic(spec: FluctuationSpec) -> float:
    """Gaussian-averaged gate fidelity at any mean phases, in closed form."""
    check_type(spec, FluctuationSpec, "spec")
    # products saturate to inf where ** would raise OverflowError
    lx2 = spec.lambda_x * spec.lambda_x
    lz2 = spec.lambda_z * spec.lambda_z
    lh2 = spec.lambda_h * spec.lambda_h
    mean = spec.mean_phases
    # on a swap point -cos and the sine product are exactly 1.0
    return 7 / 15 + (4 / 15) * (
        -math.cos(mean.phi_x) * math.exp(-lx2 / 2)
        + math.sin(mean.phi_x / 2)
        * math.sin(mean.phi_z / 2 + mean.phi_h)
        * math.exp(-(lx2 + lz2 + 4 * lh2) / 8)
    )


def _check_mc_width(lam: float, name: str) -> None:
    if lam > MC_LAMBDA_MAX:
        raise ValidationError(f"{name} must be <= {MC_LAMBDA_MAX:g} for Monte Carlo, got {lam!r}")


def _phase_values(mean: PhaseTriple, rows):
    """Sampler of the closed-form fidelity at Gaussian-fluctuating phases.

    ``rows`` holds ``(lambda_x, lambda_z, lambda_h values)`` triples; one
    array is yielded per lambda_h of each row, in order, all from the same
    normals. The exchange terms are computed once per row.

    The sampler allocates its buffers once: ``3 * CHUNK_SAMPLES`` normals,
    and ``CHUNK_SAMPLES`` values each for the base, the slope, phi_z / 2 and
    the fidelity, 3.5 MiB in all. Every step writes into them in the closed
    form's own order of operations, so each value is bitwise that of the plain
    expressions. A yielded array is a view of the fidelity buffer, valid until
    the sampler yields the next one.
    """
    # held across chunks: memory freed after every chunk is faulted in again by the next
    normals = np.empty(3 * CHUNK_SAMPLES)
    work = np.empty((4, CHUNK_SAMPLES))

    def fluctuated(mu: float, lam: float, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.add(mu, np.multiply(lam, z, out=out), out=out)

    def values(rng: np.random.Generator, n: int):
        # out= takes a contiguous prefix, not a column slice of a (3, CHUNK_SAMPLES) array
        z = rng.standard_normal((3, n), out=normals[: 3 * n].reshape(3, n))
        base, slope, half_z, f = work[:, :n]
        for lam_x, lam_z, lam_hs in rows:
            phi_x = fluctuated(mean.phi_x, lam_x, z[0], f)
            _exchange_terms(phi_x, fluctuated(mean.phi_z, lam_z, z[1], half_z), base, slope)
            for lam_h in lam_hs:
                yield _fidelity_values(base, slope, half_z, fluctuated(mean.phi_h, lam_h, z[2], f))

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
    fixed-size chunks are scheduled; a width above ``MC_LAMBDA_MAX`` raises.
    """
    check_type(spec, FluctuationSpec, "spec")
    for name in ("lambda_x", "lambda_z", "lambda_h"):
        _check_mc_width(getattr(spec, name), name)
    rows = [(spec.lambda_x, spec.lambda_z, [spec.lambda_h])]
    return _estimate(partial(_phase_values, spec.mean_phases, rows), samples, seed)[0]


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

    A product state needs no 4x4 algebra. With W = SWAP V, x = cos^2(theta/2)
    and y = 1 - x for each qubit, and c = cos(phi_a - phi_b),

        <psi|W|psi> = W00 xa xb + W33 ya yb + W11 (xa yb + ya xb)
                      + 2 W12 sqrt(xa ya xb yb) c.

    This estimator probes the state-averaging measure behind the closed-form
    :func:`gate_fidelity`, and deliberately does not match it away from swap
    points: at the identity (all phases zero) the Haar-product average is
    exactly 1/3 and the uniform-angles average 11/32, while the closed form
    gives 1/5. Report both values side by side rather than forcing agreement.
    """
    check_type(phases, PhaseTriple, "phases")
    if measure not in ENSEMBLE_MEASURES:
        raise ValidationError(
            f"unknown measure {measure!r}; expected one of {ENSEMBLE_MEASURES}"
        )
    return _estimate(partial(_ensemble_values, phases, measure), samples, seed)[0]


def _ensemble_values(phases: PhaseTriple, measure: str):
    """Sampler of the product-state overlap fidelity: one array per chunk,
    from one ``rng.random((4, n))`` draw (rows 0-1 polar, rows 2-3 azimuth).

    A chunk is computed in column blocks of ``BLOCK`` samples, written into
    one output array of ``CHUNK_SAMPLES`` values that the sampler allocates
    once. It yields a view of that array, valid until the next chunk.
    """
    w = SWAP_MATRIX @ propagator_matrix(phases)
    w00, w33, w11, w12 = w[0, 0], w[3, 3], w[1, 1], w[1, 2]
    # held across chunks: memory freed after every chunk is faulted in again by the next
    f = np.empty(CHUNK_SAMPLES)

    def block(u: np.ndarray) -> np.ndarray:
        # x = cos^2(theta/2) and y = 1 - x per qubit, and root = sqrt(xa ya xb yb)
        if measure == "haar_product":
            # cos(theta) = 1 - 2u, so y = u and x = 1 - u exactly
            y = u[:2]
            x = 1.0 - y
            root = np.sqrt(x[0] * y[0] * x[1] * y[1])
        else:
            # theta = pi u, from the half angle: (1 +- cos theta)/2 would
            # cancel near the poles
            half = 0.5 * np.pi * u[:2]
            s, c = np.sin(half), np.cos(half)
            root = c[0] * s[0] * c[1] * s[1]
            x, y = c * c, s * s
        # the azimuths are 2 pi u[2:]
        cross = root * np.cos(2 * np.pi * (u[2] - u[3]))
        p, q, r = x[0] * x[1], y[0] * y[1], x[0] * y[1] + y[0] * x[1]
        re, im = (
            part(w00) * p + part(w33) * q + part(w11) * r + 2 * part(w12) * cross
            for part in (np.real, np.imag)
        )
        return re * re + im * im

    def values(rng: np.random.Generator, n: int):
        u = rng.random((4, n))
        for start in range(0, n, BLOCK):
            stop = min(start + BLOCK, n)
            f[start:stop] = block(u[:, start:stop])
        yield f[:n]

    return values


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
    form. Axis grids must be nonempty, nondecreasing and in [0, ``MC_LAMBDA_MAX``].
    """
    xz = [check_real(v, "xz_values", "nonnegative") for v in check_iterable(xz_values, "xz_values")]
    h = [check_real(v, "h_values", "nonnegative") for v in check_iterable(h_values, "h_values")]
    for name, axis in (("xz_values", xz), ("h_values", h)):
        if not axis:
            raise ValidationError(f"{name} must be nonempty")
        if any(b < a for a, b in zip(axis, axis[1:])):
            raise ValidationError(f"{name} must be nondecreasing")
        _check_mc_width(axis[-1], name)
    specs = [FluctuationSpec(lam_xz, lam_xz, lam_h, mean_phases) for lam_xz in xz for lam_h in h]
    # every grid point is evaluated on the same chunk of normals
    sampler = partial(_phase_values, mean_phases, [(lam_xz, lam_xz, h) for lam_xz in xz])
    return [
        FidelityGridRow(
            lambda_x=spec.lambda_x,
            lambda_z=spec.lambda_z,
            lambda_h=spec.lambda_h,
            f_analytic=average_fidelity_analytic(spec),
            f_mc=estimate.mean,
            f_mc_stderr=estimate.std_error,
            samples=estimate.samples,
            seed=estimate.seed,
        )
        for spec, estimate in zip(specs, _estimate(sampler, samples, seed))
    ]


def _chunk_stats(values, samples: int, seed: int, index: int):
    """Sum and sum of squares of each array ``values(rng, n)`` yields over
    one sample chunk.

    Chunk contents depend only on (seed, index), so chunks may be evaluated
    in any order, or in parallel, and reduced by index; ``_estimate`` does
    both. Each array is reduced as soon as it is yielded.
    """
    n = min(CHUNK_SAMPLES, samples - index * CHUNK_SAMPLES)
    return [(float(np.sum(f)), float(np.sum(f * f))) for f in values(stream(seed, index), n)]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _estimate(make_values, samples: int, seed: int) -> list[McEstimate]:
    """Seeded Monte Carlo mean, with its standard error, of each array the
    samplers ``make_values()`` builds yield.

    The chunks run on one worker per CPU the process may use, at most one
    per chunk: each worker builds its own sampler and takes the next chunk
    that no worker has taken yet. The calling thread is a worker and the
    others are pool threads, which overlap because numpy releases the GIL
    inside the draws, the ufunc loops and the sums. Each thread runs in a
    copy of the caller's context, so ``np.errstate`` applies in it. Once a
    worker fails, the others stop before their next chunk, and the failure
    is raised in the caller. The chunks are reduced in index order, so the
    result does not depend on the worker count.
    """
    samples, seed = check_integer(samples, "samples", "positive"), check_seed(seed)
    count = (samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES
    workers = min(_cpus(), count)
    chunks = [None] * count
    # shared by the workers: next() on a range iterator advances it
    # atomically under the GIL, so no chunk is taken twice or skipped
    indices = iter(range(count))

    def work() -> None:
        try:
            values = make_values()
            for index in indices:
                chunks[index] = _chunk_stats(values, samples, seed, index)
        finally:
            # after a failure, the others stop before their next chunk
            for _ in indices:
                pass

    # the pool starts a thread per submitted worker, so one worker starts none
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work) for _ in range(1, workers)]
        work()
        for future in futures:
            future.result()
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
