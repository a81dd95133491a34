"""Classical Bayesian filtering next to its density-operator formulation.

States of the classical filter are probability densities against the
invariant measure; the operator formulation replaces them by rank-1
projectors onto the square-root density, observations by effects (positive
operators below the identity), and the Bayes update by conjugation with the
effect's square root.  On a finite periodic orbit both filters are exactly
finite-dimensional and agree to machine precision; finite-rank compression
of the operator filter preserves positivity but leaves the exactly
classical world, which is what the projected mode exercises.

Every state the orbit filter produces is a vector state rho = |psi><psi|:
the embedding projects onto sqrt(mu sigma), and conjugation by the transfer
operator, compression and sqrt(E) (.) sqrt(E) all keep rank 1.  So
``run_filter`` carries psi and does on it what the dense M x M formulation
(the tests' oracle) does on rho; the orbit's frequency basis is applied by
FFT, never built as a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    TWO_PI,
    PeriodicOrbitSystem,
    RotationSystem,
    _i0e,
    _rotation_orbit,
    bessel_ratios,
    grid_sum,
    von_mises_kernel_row,
    wrap_angles,
)
from .errors import ValidationError, ZeroEvidenceError
from .rkha import TruncatedLattice, fourier_multiplier_matrix

GAUSSIAN = "gaussian"
VON_MISES = "vonmises"
EVENT = "event"


def check_density(values: np.ndarray, mu: np.ndarray, tol: float = 1e-10):
    if not np.all(np.isfinite(values)):
        raise ValidationError("density has a non-finite value")
    if np.min(values) < -tol:
        raise ValidationError("density has a negative value")
    total = float(np.dot(mu, values))
    if abs(total - 1.0) > tol:
        raise ValidationError(f"density integrates to {total}, not 1")


def embed_density(sigma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Rank-1 projector onto the unit vector sqrt(sigma) in the mu-weighted space.

    In the orthonormal point basis the matrix entries are
    sqrt(mu_i sigma_i) * sqrt(mu_j sigma_j); the trace is exactly 1.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.max(sigma) <= 0:
        raise ValidationError("cannot embed an identically zero density")
    amp = np.sqrt(np.maximum(mu * sigma, 0.0))
    return np.outer(amp, amp).astype(complex)


def classical_forecast(sys: PeriodicOrbitSystem, sigma: np.ndarray) -> np.ndarray:
    """Push the density forward one step: values permute along the orbit."""
    return np.roll(np.asarray(sigma, dtype=float), 1)


def classical_analysis(sigma: np.ndarray, likelihood: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Bayes update: pointwise product with the likelihood, renormalized."""
    sigma = np.asarray(sigma, dtype=float)
    likelihood = np.asarray(likelihood, dtype=float)
    if not np.all((likelihood >= 0) & (likelihood < math.inf)):
        raise ValidationError("likelihood must be nonnegative and finite")
    evidence = float(np.dot(mu, sigma * likelihood))
    if evidence <= 1e-300:
        raise ZeroEvidenceError("observation has zero evidence under the prior")
    return sigma * likelihood / evidence


def effect_sqrt(e: np.ndarray) -> np.ndarray:
    """Positive square root of an effect, eigenvalues clamped into [0, 1]."""
    eigs, vecs = np.linalg.eigh(0.5 * (e + e.conj().T))
    # eigenvalues within eigh's rounding of 0 are 0, not noise for sqrt to amplify
    floor = eigs.size * np.finfo(float).eps * np.abs(eigs).max()
    eigs = np.where(eigs > floor, np.minimum(eigs, 1.0), 0.0)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def compress(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Top-left rank x rank block in the fixed basis: linear, positivity preserving."""
    n = matrix.shape[0]
    if not (1 <= rank <= n):
        raise ValidationError(f"rank must lie in [1, {n}]")
    return np.array(matrix[:rank, :rank])


def multiplication_operator_point(f_values: np.ndarray) -> np.ndarray:
    return np.diag(np.asarray(f_values, dtype=complex))


def multiplication_operator_fourier(coeffs: dict, lat: TruncatedLattice) -> np.ndarray:
    """Matrix of multiplication by sum_m c_m gamma_m on the lattice basis.

    Entries are c(i - j); a real multiplier (conjugate-symmetric c) gives a
    Hermitian Toeplitz-style matrix.
    """
    return fourier_multiplier_matrix(coeffs, lat.indices)


def expectation_classical(sigma: np.ndarray, f: np.ndarray, mu: np.ndarray) -> complex:
    return complex(np.dot(mu, np.asarray(sigma) * np.asarray(f)))


def expectation_quantum(rho: np.ndarray, a: np.ndarray) -> complex:
    return complex(np.trace(rho @ a))


def consistency_chain_gap(sys: PeriodicOrbitSystem, sigma: np.ndarray, f: np.ndarray) -> float:
    """Largest pairwise gap among the four equivalent one-step expectations.

    E_sigma(U f), E_{P sigma}(f), E_{Gamma(sigma)}(U M_f U*), and
    E_{P Gamma(sigma)}(M_f) must agree for any density and observable.
    """
    mu = sys.mu
    u = sys.koopman_matrix().astype(complex)
    uf = u @ np.asarray(f, dtype=complex)
    p_sigma = classical_forecast(sys, sigma)
    rho = embed_density(sigma, mu)
    m_f = multiplication_operator_point(f)
    values = [
        expectation_classical(sigma, uf, mu),
        expectation_classical(p_sigma, f, mu),
        expectation_quantum(rho, u @ m_f @ u.conj().T),
        expectation_quantum(u.conj().T @ rho @ u, m_f),
    ]
    return max(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )


@dataclass(frozen=True)
class ObservationModel:
    """Observation map plus a kernel likelihood in [0, 1].

    Every kind is a function of the circular gap g = |((y - v + pi) mod 2 pi) - pi|
    in [0, pi], so points either side of the 0/2 pi seam are equally close.
    kind "gaussian": kappa(y, v) = exp(-g^2 / (2 scale^2)), the Gaussian cut
                     at g = pi (``fourier_coeffs`` refuses it: its series has
                     no closed form)
    kind "vonmises": kappa(y, v) = exp(scale (cos(y-v) - 1)), circular values
    kind "event":    kappa(y, v) = 1 if g <= scale/2 else 0, the box
                     ``fourier_coeffs`` expands
    ``noise_std`` is the standard deviation of additive Gaussian observation
    noise used when generating synthetic observations.
    """

    kind: str = VON_MISES
    scale: float = 4.0
    noise_std: float = 0.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, VON_MISES, EVENT):
            raise ValidationError(f"unknown observation kind {self.kind!r}")
        if not (0 < self.scale < math.inf):
            raise ValidationError("scale must be positive and finite")
        if not (0 <= self.noise_std < math.inf):
            raise ValidationError("noise_std must be nonnegative and finite")

    def kappa(self, y: float, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.kind == VON_MISES:
            return np.exp(self.scale * (np.cos(y - values) - 1.0))
        gap = np.abs((y - values + math.pi) % TWO_PI - math.pi)
        if self.kind == GAUSSIAN:
            return np.exp(-(gap**2) / (2.0 * self.scale**2))
        return (gap <= self.scale / 2.0).astype(float)

    def observe(self, true_value: float, rng: np.random.Generator) -> float:
        y = true_value
        if self.noise_std > 0:
            y = y + self.noise_std * rng.standard_normal()
        if self.kind == VON_MISES:
            y = float(wrap_angles(y)[0])
        return y

    def fourier_coeffs(self, y: float, bandwidth: int) -> dict:
        """Fourier coefficients of x -> kappa(y, x) on the circle (d=1)."""
        out = {}
        if self.kind == VON_MISES:
            row = von_mises_kernel_row(self.scale, bandwidth)
            for m in range(-bandwidth, bandwidth + 1):
                out[(m,)] = row[m + bandwidth] * complex(np.exp(-1j * m * y))
            return out
        if self.kind == EVENT:
            half = self.scale / 2.0
            for m in range(-bandwidth, bandwidth + 1):
                if m == 0:
                    mag = self.scale / TWO_PI
                else:
                    mag = math.sin(m * half) / (m * math.pi)
                out[(m,)] = mag * complex(np.exp(-1j * m * y))
            return out
        raise ValidationError("gaussian kernels have no closed-form Fourier series; use vonmises")


def orbit_observation_values(sys: PeriodicOrbitSystem) -> np.ndarray:
    """Default observation map on the orbit: point i is seen at angle 2 pi i / M."""
    return np.arange(sys.M) * (TWO_PI / sys.M)


def _orbit_mode_order(m: int) -> np.ndarray:
    """Cyclic-group frequencies ordered 0, +1, -1, +2, -2, ... as DFT rows."""
    freqs = [0]
    k = 1
    while len(freqs) < m:
        freqs.append(k)
        if len(freqs) < m:
            freqs.append(-k)
        k += 1
    return np.asarray(freqs)


@dataclass
class FilterStep:
    step: int
    evidence: float
    consistency: float
    estimate: float
    estimate_error: float
    truth: float


@dataclass
class FilterTrace:
    mode: str
    steps: list = field(default_factory=list)
    classical_posteriors: list = field(default_factory=list)
    quantum_posteriors: list = field(default_factory=list)

    def consistency_max(self) -> float:
        return max((s.consistency for s in self.steps), default=0.0)

    def estimate_match_fraction(self) -> float:
        hits = sum(1 for s in self.steps if s.estimate_error == 0.0)
        return hits / len(self.steps) if self.steps else 1.0


CLASSICAL = "classical"
QUANTUM = "quantum"
QUANTUM_PROJECTED = "quantum-projected"


def run_filter(
    sys: PeriodicOrbitSystem,
    model: ObservationModel,
    x0: int,
    steps: int,
    mode: str = QUANTUM,
    rank: int | None = None,
    seed: int = 0,
    sigma0: np.ndarray | None = None,
    observations=None,
) -> FilterTrace:
    """Run the filter on a periodic orbit and return the per-step trace.

    The classical filter always runs (it is the reference); quantum modes run
    alongside it and record the trace-norm distance between the embedded
    classical posterior and the operator posterior.  In projected mode every
    operator is compressed to the leading ``rank`` modes of the orbit's
    frequency basis before use.  Observations are synthesized from the true
    trajectory unless an explicit sequence is supplied.  A zero-evidence
    update aborts the run with the failing step index attached.

    The operator state is the vector psi of rho = |psi><psi| (exact, as every
    step keeps rho rank 1), and ``quantum_posteriors`` holds it per step.
    Quantum mode permutes psi and multiplies it by sqrt(likelihood); the
    projected transfer is a phase per mode, and only the rank x rank
    compressed effect needs a matrix square root.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if observations is not None:
        if len(observations) < steps:
            raise ValidationError(f"need {steps} observations, got {len(observations)}")
        if not np.all(np.isfinite(np.asarray(observations[:steps], dtype=float))):
            raise ValidationError("observations must be finite")
    if mode not in (CLASSICAL, QUANTUM, QUANTUM_PROJECTED):
        raise ValidationError(f"unknown filter mode {mode!r}")
    if mode == QUANTUM_PROJECTED and (rank is None or not (1 <= rank <= sys.M)):
        raise ValidationError("projected mode needs a rank between 1 and M")

    rng = np.random.default_rng(seed)
    mu = sys.mu
    h_values = orbit_observation_values(sys)
    sigma = np.ones(sys.M) if sigma0 is None else np.asarray(sigma0, dtype=float)
    check_density(sigma, mu)

    run_quantum = mode in (QUANTUM, QUANTUM_PROJECTED)
    if mode == QUANTUM:
        to_modes = from_modes = lambda v: v  # the point basis
    elif mode == QUANTUM_PROJECTED:
        # the unitary DFT rows of the leading frequencies, applied by FFT
        freqs = _orbit_mode_order(sys.M)[:rank]
        root_m = math.sqrt(sys.M)
        shift = np.exp(-2j * math.pi * freqs / sys.M)
        to_modes = lambda v: np.fft.fft(v)[freqs] / root_m
        from_modes = lambda v: grid_sum(freqs[:, None], v, sys.M) / root_m
        gaps = freqs[:, None] - freqs[None, :]
    if run_quantum:
        # the first mode is the constant one, so the projected psi is never 0
        psi = to_modes(np.sqrt(np.maximum(mu * sigma, 0.0)))
        psi /= np.linalg.norm(psi)

    trace = FilterTrace(mode=mode)
    x = int(x0) % sys.M
    for n in range(1, steps + 1):
        x = sys.step(x)
        if observations is None:
            y = model.observe(h_values[x], rng)
        else:
            y = float(observations[n - 1])
        likelihood = model.kappa(y, h_values)

        prior = classical_forecast(sys, sigma)
        try:
            sigma = classical_analysis(prior, likelihood, mu)
        except ZeroEvidenceError as err:
            raise ZeroEvidenceError(f"zero evidence at step {n}: {err}") from None
        evidence = float(np.dot(mu, prior * likelihood))
        trace.classical_posteriors.append(sigma.copy())

        consistency = 0.0
        marginals = sigma * mu
        if run_quantum:
            if mode == QUANTUM:
                psi = np.sqrt(likelihood) * np.roll(psi, 1)
            else:
                # the compressed effect is Toeplitz: entry (a, b) is DFT(l)[f_a - f_b] / M
                effect = np.fft.fft(likelihood)[gaps] / sys.M
                psi = effect_sqrt(effect) @ (shift * psi)
            quantum_evidence = float(np.vdot(psi, psi).real)  # <psi, E psi>
            if quantum_evidence <= 1e-14:
                raise ZeroEvidenceError(f"zero evidence at step {n} under the operator state")
            psi = psi / math.sqrt(quantum_evidence)
            trace.quantum_posteriors.append(psi)
            embedded = to_modes(np.sqrt(np.maximum(mu * sigma, 0.0)))
            consistency = float(_pure_state_distance(embedded, psi))
            marginals = np.abs(from_modes(psi)) ** 2

        estimate = int(np.argmax(marginals))
        err_steps = min((estimate - x) % sys.M, (x - estimate) % sys.M)
        trace.steps.append(
            FilterStep(
                step=n,
                evidence=evidence,
                consistency=consistency,
                estimate=float(estimate),
                estimate_error=float(err_steps),
                truth=float(x),
            )
        )
    return trace


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis, for every index of the leading axes."""
    return np.matmul(a.conj()[..., None, :], b[..., :, None])[..., 0, 0]


def _pure_state_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace norm of |a><a| - |b><b| for a nonzero a; the norms may differ.

    On span{a, b} the difference has trace |a|^2 - |b|^2 and determinant
    -|a|^2 |b_perp|^2, b_perp = b - a <a, b> / |a|^2, so its trace norm is
    sqrt((|a|^2 - |b|^2)^2 + 4 |a|^2 |b_perp|^2).  Forming b_perp as a vector
    resolves distances far below sqrt(eps), where 1 - |<a, b>|^2 cancels.
    The vectors lie on the last axis; leading axes pair row with row.
    """
    aa = _dots(a, a).real
    bb = _dots(b, b).real
    perp = b - a * (_dots(a, b) / aa)[..., None]
    return np.sqrt((aa - bb) ** 2 + 4.0 * aa * _dots(perp, perp).real)


def _sqrt_von_mises_rows(mu, kappa, lat: TruncatedLattice) -> np.ndarray:
    """Unit lattice coefficients of sqrt of the von Mises density, a row per (mu, kappa).

    The square root of exp(kappa cos(u - mu)) is exp((kappa/2) cos(u - mu)),
    whose coefficient at j is proportional to I_|j|(kappa/2) e^{-i j mu}.
    ``mu`` and ``kappa`` are equal-length 1-d arrays.
    """
    j = lat.indices[:, 0]
    rows = bessel_ratios(kappa / 2.0, lat.J)[:, np.abs(j)] * np.exp(-1j * j * mu[:, None])
    return rows / np.sqrt(_dots(rows, rows).real)[:, None]


# Steps per block of the torus filter: bessel_ratios runs a block's
# concentrations as numpy lanes, which beat its float loop from ~64 on.
_TORUS_BLOCK = 256
# Grid values evaluated at once, in complex entries (16 MiB): a block's
# rows share one FFT unless grid_size is above 4096.
_GRID_BATCH = 2**20


def run_torus_filter(
    sys: RotationSystem,
    model: ObservationModel,
    x0: float,
    steps: int,
    dt: float,
    bandwidth: int = 32,
    kappa0: float = 6.0,
    mode: str = QUANTUM,
    rank: int | None = None,
    seed: int = 0,
    grid_size: int = 256,
) -> FilterTrace:
    """Filter a circle rotation: exact von Mises track vs truncated Fourier track.

    The classical filter stays inside the von Mises family (rotation shifts
    the location, the circular-kernel update adds concentration vectors), so
    it is exact.  The operator track evolves the square-root density's
    lattice coefficients, conditions by convolving with the square root of
    the observation kernel, and in projected mode truncates to the leading
    ``rank`` modes ordered 0, +1, -1, ...  The consistency column is the
    trace-norm distance between the two pure states on the lattice, and the
    wavefunction's most negative grid value is recorded: a projected
    square-root density generally stops being a nonnegative function even
    though the operator state stays positive.

    The steps run in blocks of at most ``_TORUS_BLOCK``.  A block first runs
    the classical track, then the operator track (the only sequential
    numpy work: rotate, convolve, truncate, normalize), then scores every
    step at once: the von Mises references from one ``_sqrt_von_mises_rows``
    call over the block's posteriors, the grid values from one batched
    ``grid_sum``.  The first failing step raises what a step-by-step run
    raises, checked in the order zero classical evidence, annihilated
    operator state, unconverged Bessel ratios; memory grows with steps
    times the lattice size, never with steps times ``grid_size``.
    """
    if sys.d != 1:
        raise ValidationError("the torus filter is implemented for d=1")
    if model.kind != VON_MISES:
        raise ValidationError("torus filtering uses the circular observation kernel")
    if steps < 1:
        raise ValidationError("need steps >= 1")
    if not math.isfinite(x0):
        raise ValidationError(f"x0 must be finite, got {x0!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be finite and > 0, got {dt!r}")
    if not (math.isfinite(kappa0) and kappa0 >= 0):
        raise ValidationError(f"kappa0 must be finite and >= 0, got {kappa0!r}")
    if grid_size < 1:
        raise ValidationError("grid_size must be >= 1")
    if mode not in (CLASSICAL, QUANTUM, QUANTUM_PROJECTED):
        raise ValidationError(f"unknown filter mode {mode!r}")
    lat = TruncatedLattice(1, bandwidth)
    if mode != QUANTUM_PROJECTED:
        rank = lat.size
    elif rank is None or not (1 <= rank <= lat.size):
        raise ValidationError("projected mode needs a rank between 1 and the lattice size")
    keep = np.zeros(lat.size)  # indicator of the modes the operator track keeps
    keep[_orbit_mode_order(lat.size)[:rank] + lat.J] = 1.0

    rng = np.random.default_rng(seed)
    alpha = float(sys.alpha[0])
    run_quantum = mode in (QUANTUM, QUANTUM_PROJECTED)
    # classical state as concentration vector (C, S) = kappa (cos mu, sin mu)
    c_vec = kappa0 * math.cos(x0)
    s_vec = kappa0 * math.sin(x0)
    # each step's prior concentration is hypot(c_vec, s_vec), the previous
    # step's posterior one, so its scaled I_0 carries over from that step
    i0e_prior = _i0e(math.hypot(c_vec, s_vec))
    if run_quantum:
        psi = _sqrt_von_mises_rows(np.array([x0]), np.array([kappa0]), lat)[0] * keep
        psi /= np.linalg.norm(psi)
    j_all = lat.indices[:, 0]
    # step-invariant: rotation phases and the square-root kernel's magnitudes
    rotate = np.exp(-1j * dt * alpha * j_all)
    m_all = np.arange(-2 * lat.J, 2 * lat.J + 1)
    kernel_abs = von_mises_kernel_row(model.scale / 2.0, 2 * lat.J)
    center = 3 * lat.J  # middle of the convolution's 6J + 1 entries

    trace = FilterTrace(mode=mode)
    truth = _rotation_orbit(float(wrap_angles(x0)[0]), dt * alpha, steps + 1)
    next(truth)  # the wrapped x0; step n observes the n-th point after it
    for first in range(1, steps + 1, _TORUS_BLOCK):
        failure = None
        truths, obs, posteriors, evidences = [], [], [], []
        for n in range(first, min(first + _TORUS_BLOCK, steps + 1)):
            x = next(truth)
            y = model.observe(x, rng)

            # exact conjugate-family update
            mu_prior = math.atan2(s_vec, c_vec) + dt * alpha
            kap_prior = math.hypot(c_vec, s_vec)
            c_vec = kap_prior * math.cos(mu_prior) + model.scale * math.cos(y)
            s_vec = kap_prior * math.sin(mu_prior) + model.scale * math.sin(y)
            kap_post = math.hypot(c_vec, s_vec)
            mu_post = math.atan2(s_vec, c_vec) % TWO_PI
            i0e_post = _i0e(kap_post)
            evidence = i0e_post / i0e_prior * math.exp(kap_post - kap_prior - model.scale)
            i0e_prior = i0e_post
            if evidence <= 1e-300:
                failure = ZeroEvidenceError(f"zero evidence at step {n}")
                break
            truths.append(x)
            obs.append(y)
            posteriors.append((mu_post, kap_post))
            evidences.append(evidence)

        done = len(truths)
        consistency = [0.0] * done
        estimates = [mu for mu, _ in posteriors]
        if run_quantum and done:
            rows = np.empty((done, lat.size), dtype=complex)
            kernels = kernel_abs * np.exp(-1j * m_all * np.array(obs)[:, None])
            for i in range(done):
                psi = psi * rotate
                full = np.convolve(kernels[i], psi)
                psi = full[center - lat.J : center + lat.J + 1] * keep
                norm = np.linalg.norm(psi)
                if norm <= 1e-150:
                    failure = ZeroEvidenceError(f"state annihilated at step {first + i}")
                    done = i
                    break
                psi = psi / norm
                rows[i] = psi
            rows = rows[:done]
            consistency, min_sqrt, estimates = _torus_diagnostics(
                rows, posteriors[:done], lat, grid_size
            )
            trace.quantum_posteriors.extend(zip(rows, min_sqrt))
        for i in range(done):
            x = truths[i]
            gap = abs((estimates[i] - x + math.pi) % TWO_PI - math.pi)
            trace.classical_posteriors.append(posteriors[i])
            trace.steps.append(
                FilterStep(
                    step=first + i,
                    evidence=evidences[i],
                    consistency=consistency[i],
                    estimate=float(estimates[i]),
                    estimate_error=float(gap),
                    truth=x,
                )
            )
        if failure is not None:
            raise failure
    return trace


def _torus_diagnostics(rows: np.ndarray, posteriors: list, lat: TruncatedLattice, grid_size: int):
    """Per row of operator states: consistency, most negative grid value, estimate.

    ``posteriors`` holds each row's classical (mu, kappa).  Every row gets
    what one step of the filter computes for it: the distance to the unit
    square root of the von Mises posterior, the most negative real part of
    the grid values after rotating the largest one onto the positive axis,
    and the phase of the first autocorrelation of the coefficients.
    """
    mu, kappa = np.array(posteriors).T
    consistency = _pure_state_distance(_sqrt_von_mises_rows(mu, kappa, lat), rows)

    min_sqrt = np.empty(len(rows))
    batch = max(1, _GRID_BATCH // grid_size)
    for lo in range(0, len(rows), batch):
        values = grid_sum(lat.indices, rows[lo : lo + batch], grid_size)
        peak = values[np.arange(len(values)), np.argmax(np.abs(values), axis=1)]
        # what Python's complex abs() computes; numpy's array abs can differ by an ulp
        unit = peak.conjugate() / np.hypot(peak.real, peak.imag)
        min_sqrt[lo : lo + batch] = (values * unit[:, None]).real.min(axis=1)

    first = np.sum(np.conj(rows[:, 1:]) * rows[:, :-1], axis=1)
    estimates = [math.atan2(f.imag, f.real) % TWO_PI for f in first.tolist()]
    return consistency.tolist(), min_sqrt.tolist(), estimates
