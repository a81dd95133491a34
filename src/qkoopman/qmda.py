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

The observation kernels are translation-covariant, so the projected effect
at y is a diagonal unitary conjugate of the one at 0, C_y = D_y C_0 D_y*
with D_y = diag(e^{-i k y}) on the band: exactly on the orbit's grid, and
off it while L <= M/2 and the kernel's alias tail is negligible.  Where a
step's DFT window shows that it holds, the projected filter takes sqrt(C_y)
as D_y sqrt(C_0) D_y*, with sqrt(C_0) from one ``eigh`` a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import (
    EVENT,
    GAUSSIAN,
    TWO_PI,
    VON_MISES,
    PeriodicOrbitSystem,
    RotationSystem,
    _MAX_TERMS,
    _characters,
    _count,
    _finite_point,
    _floats,
    _i0e,
    _phase_check,
    _phases,
    _real,
    _rotation_orbit,
    _von_mises_rows,
    _wrap_angle,
    grid_sum,
    von_mises_kernel_row,
    wrap_angles,
)
from .errors import DegeneracyError, ValidationError, ZeroEvidenceError

if TYPE_CHECKING:  # the orbit filter loads no rkha; the torus filter imports it when it runs
    from .rkha import TruncatedLattice


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
    if not np.all(np.isfinite(sigma)):
        raise ValidationError("density has a non-finite value")
    if np.max(sigma) <= 0:
        raise ValidationError("cannot embed an identically zero density")
    amp = np.sqrt(np.maximum(mu * sigma, 0.0))
    return np.outer(amp, amp).astype(complex)


def classical_forecast(sys: PeriodicOrbitSystem, sigma: np.ndarray) -> np.ndarray:
    """Push the density forward one step: values permute along the orbit."""
    return np.roll(np.asarray(sigma, dtype=float), 1)


def classical_analysis(sigma: np.ndarray, likelihood: np.ndarray, mu: np.ndarray) -> tuple:
    """Bayes update: the posterior (sigma * likelihood / evidence) and the evidence.

    The evidence is mu.(sigma * likelihood), the prior probability of the
    observation.
    """
    sigma = np.asarray(sigma, dtype=float)
    likelihood = _floats("likelihood", likelihood)
    _real("likelihood", likelihood, 0)
    joint = sigma * likelihood
    evidence = float(np.dot(mu, joint))
    if evidence <= 1e-300:
        raise ZeroEvidenceError("observation has zero evidence under the prior")
    return joint / evidence, evidence


def _effect_real_form(dft: np.ndarray, rank: int) -> np.ndarray:
    """S = U* C U for the compressed effect C_ab = dft[a - b] on an ascending band.

    ``dft`` is DFT(l) / M of a real likelihood l, indexed mod M.  With J the
    reversal of the band's ``rank`` modes, C is Hermitian and centrohermitian
    (J C J = conj C), so with U = e^{i pi/4} (I - iJ) / sqrt(2) the matrix
    S = Re C + Im(C) J is real symmetric (A. Lee, Linear Algebra Appl. 29,
    1980): the Toeplitz-plus-Hankel S_ab = Re dft[a - b] + Im dft[a + b - (rank - 1)].
    Both parts are views of one sliding window over dft[1 - rank .. rank - 1],
    so the only L x L array built is S itself.
    """
    # windows[a, b] = dft[a + b - (rank - 1)]: the Hankel part, and reversed the Toeplitz one
    windows = np.lib.stride_tricks.sliding_window_view(dft[np.arange(1 - rank, rank)], rank)
    return windows.real[:, ::-1] + windows.imag


def _rounding_floor(n: int, values: np.ndarray) -> float:
    """n eps max|values|: the rounding n-term sums of entries up to max|values| carry.

    Below it a value is rounding, not signal: an eigenvalue of an L x L
    effect (``eigh``'s backward error is of this size), or the gap between
    a likelihood's DFT window and the rotated reference window that
    ``run_filter`` compares it with.
    """
    return n * np.finfo(float).eps * np.abs(values).max()


def _real_form_root(s: np.ndarray) -> tuple:
    """sqrt(S) as (eigenvectors, root eigenvalues), from one real ``eigh``.

    The eigenvalues are clamped into [0, 1] as for any effect, and those
    within ``eigh``'s rounding of 0 are 0, not noise for sqrt to amplify.
    """
    eigs, vecs = np.linalg.eigh(s)
    root = np.sqrt(np.where(eigs > _rounding_floor(eigs.size, eigs), np.minimum(eigs, 1.0), 0.0))
    return vecs, root


def _root_apply(root: tuple, psi: np.ndarray) -> np.ndarray:
    """sqrt(C) psi = U sqrt(S) U* psi for ``root`` = ``_real_form_root(S)``.

    U and U* are applied to psi in O(n), their phases cancelling, so the
    work is two real n x n by n x 2 products.
    """
    vecs, root = root
    # sqrt(2) e^{i pi/4} U* psi, as (re, im) rows for the two real products
    pairs = (psi + 1j * psi[::-1]).view(float).reshape(-1, 2)
    coords = vecs.T @ pairs
    coords *= root[:, None]
    out = (vecs @ coords).view(complex)[:, 0]
    return 0.5 * (out - 1j * out[::-1])


def _real_form_root_apply(s: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """sqrt(C) psi for the effect C whose real form ``_effect_real_form`` gave S."""
    return _root_apply(_real_form_root(s), psi)


def _frame_phases(y: float, freqs: np.ndarray, m: int) -> np.ndarray:
    """e^{-i k y} for the integer frequencies ``freqs``, reduced on the orbit's grid.

    With y = 2 pi (g + delta) / m, g the nearest grid index, each angle is
    taken as 2 pi ((k g mod m) + k delta) / m.  t = y m / (2 pi) carries a
    rounding of 2 eps t, so a delta within 4 eps t of 0 is an observation on
    the grid, which gets the phases of an exact cyclic shift by g at any
    frequency: the raw k y, or k times that rounding, moved the phases at
    k near M by 1e-13 (at M = 128, 178 eps of the largest DFT entry, past
    ``run_filter``'s rounding floor).
    """
    t = (y % TWO_PI) * (m / TWO_PI)
    g = round(t)
    delta = t - g if abs(t - g) > 4 * np.finfo(float).eps * t else 0.0
    return np.exp((-2j * math.pi / m) * ((freqs * g) % m + freqs * delta))


def compress(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Top-left rank x rank block in the fixed basis: linear, positivity preserving."""
    _count("rank", rank, 1, matrix.shape[0])
    return np.array(matrix[:rank, :rank])


def multiplication_operator_point(f_values: np.ndarray) -> np.ndarray:
    return np.diag(np.asarray(f_values, dtype=complex))


def multiplication_operator_fourier(coeffs: dict, lat: TruncatedLattice) -> np.ndarray:
    """Matrix of multiplication by sum_m c_m gamma_m on the lattice basis.

    Entries are c(i - j); a real multiplier (conjugate-symmetric c) gives a
    Hermitian Toeplitz-style matrix.
    """
    from .rkha import fourier_multiplier_matrix

    return fourier_multiplier_matrix(coeffs, lat.indices)


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
    # classical E_sigma(g) = mu.(sigma g); quantum E_rho(A) = tr(rho A)
    values = [
        complex(np.dot(mu, np.asarray(sigma) * uf)),
        complex(np.dot(mu, p_sigma * np.asarray(f))),
        complex(np.trace(rho @ (u @ m_f @ u.conj().T))),
        complex(np.trace((u.conj().T @ rho @ u) @ m_f)),
    ]
    return max(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )


# Scales, per kind, whose kernel arithmetic stays in the float range: the
# von Mises exponent scale (cos - 1) reaches -2 scale, the box's series
# takes m scale / 2, and the Gaussian divides pi^2 by 2 scale^2.
_SCALES = {VON_MISES: (0.0, 1e300), EVENT: (0.0, 1e300), GAUSSIAN: (1e-150, 1e150)}


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
    ``scale`` lies in the open interval ``_SCALES`` gives its kind.
    ``noise_std`` is the standard deviation of additive Gaussian observation
    noise used when generating synthetic observations.
    """

    kind: str = VON_MISES
    scale: float = 4.0
    noise_std: float = 0.0

    def __post_init__(self):
        if self.kind not in _SCALES:
            raise ValidationError(f"unknown observation kind {self.kind!r}")
        _real("scale", self.scale, *_SCALES[self.kind], strict=True)
        _real("noise_std", self.noise_std, 0)

    def kappa(self, y: float, values: np.ndarray) -> np.ndarray:
        _real("observation y", y)
        values = np.asarray(values, dtype=float)
        if self.kind == VON_MISES:  # in place: one array, not four, a filter step
            out = np.cos(y - values)
            out -= 1.0
            out *= self.scale
            return np.exp(out, out=out)
        gap = np.abs((y - values + math.pi) % TWO_PI - math.pi)
        if self.kind == GAUSSIAN:
            return np.exp(-(gap**2) / (2.0 * self.scale**2))
        return (gap <= self.scale / 2.0).astype(float)

    def observe(self, true_value, rng: np.random.Generator):
        """A synthetic observation of one true value, or one per entry of a 1-d array.

        An array's noise comes from one ``standard_normal(count)`` call, which
        draws the numbers ``count`` scalar calls draw, in order, so a block of
        observations is bitwise the same observations taken one at a time.
        """
        scalar = np.ndim(true_value) == 0
        y = true_value if scalar else np.asarray(true_value, dtype=float)
        if self.noise_std > 0:
            y = y + self.noise_std * rng.standard_normal(None if scalar else y.shape)
        if self.kind == VON_MISES:
            y = wrap_angles(y)
            if scalar:
                y = float(y[0])
        return y

    def fourier_coeffs(self, y: float, bandwidth: int) -> dict:
        """Fourier coefficients of x -> kappa(y, x) on the circle (d=1).

        The kernel at y is the one at 0 translated by y, so both kinds take
        their real coefficients at y = 0 times the phases e^{-i m y}.
        """
        _real("observation y", y)
        _count("bandwidth", bandwidth, 0, _MAX_TERMS)
        if self.kind == GAUSSIAN:
            raise ValidationError("gaussian kernels have no closed-form Fourier series; use vonmises")
        m = np.arange(-bandwidth, bandwidth + 1)
        if self.kind == VON_MISES:
            mags = von_mises_kernel_row(self.scale, bandwidth)
        else:  # the box: sin(m scale / 2) / (m pi), and scale / (2 pi) at m = 0
            mags = np.sin(m * (self.scale / 2.0)) / (np.where(m == 0, 1, m) * math.pi)
            mags[bandwidth] = self.scale / TWO_PI
        row = mags * np.exp(-1j * _phase_check(lambda: m * y, "observation y", y))
        return {(k,): c for k, c in zip(m.tolist(), row.tolist())}


def orbit_observation_values(sys: PeriodicOrbitSystem) -> np.ndarray:
    """Default observation map on the orbit: point i is seen at angle 2 pi i / M."""
    return np.arange(sys.M) * (TWO_PI / sys.M)


def _orbit_mode_order(m: int) -> np.ndarray:
    """Cyclic-group frequencies ordered 0, +1, -1, +2, -2, ... as DFT rows."""
    freqs = (np.arange(m) + 1) // 2  # 0, 1, 1, 2, 2, ...
    freqs[2::2] *= -1
    return freqs


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
    # projected orbit steps whose effect root came from the observation's frame
    frame_steps: int = 0

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
    Quantum mode permutes psi and multiplies it by sqrt(likelihood).  The
    projected mode carries psi on its band of frequencies in ascending
    order: the transfer is a phase per mode, and the compressed effect
    C_ab = DFT(l)[k_a - k_b] / M is Toeplitz and, l being real,
    centrohermitian, so its square root takes one real ``eigh`` of an
    L x L real form (``_effect_real_form``, ``_real_form_root_apply``).
    Its ``quantum_posteriors`` hold psi in the mode order 0, +1, -1, ...

    A projected step whose window DFT(l)[r] / M, |r| < L, matches the
    reference window at y = 0 rotated by e^{-i r y} (``_frame_phases``),
    within ``_rounding_floor`` (L eps max|reference|, as for the eigenvalue
    clamp), has C_y = D_y C_0 D_y*, and applies sqrt(C_y) = D_y sqrt(C_0) D_y*
    in O(L^2), sqrt(C_0) taken from one ``eigh`` at the first such step; the
    check costs O(L) and one extra kernel evaluation and FFT a run.  The
    identity holds on the grid for every L, off it only while L <= M/2 and
    the kernel's alias tail is negligible: measured, the windows agree
    within 23 eps max|reference| where it holds and differ by 8e6 and more
    where it does not (gaussian 0.8, the event box, noisy L = M - 2).  Any
    other step takes its own ``eigh``, bit for bit as before.
    ``frame_steps`` on the trace counts the steps that took the frame.

    The run has the torus filter's shape: the truths are x0 + n mod M, and
    every synthetic observation comes from one draw (``_observe_run``).  One
    loop over the steps does the sequential work, the classical track and
    psi, and records the first zero evidence, classical before operator.
    Every step it finished is then scored in blocks of rows
    (``_score_orbit_steps``) before that failure is raised.
    """
    _count("steps", steps, 1)
    _count("x0", x0, -math.inf)
    if observations is not None:
        if len(observations) < steps:
            raise ValidationError(f"need {steps} observations, got {len(observations)}")
        observations = _finite_point(observations[:steps], steps, "observations")
    if mode not in (CLASSICAL, QUANTUM, QUANTUM_PROJECTED):
        raise ValidationError(f"unknown filter mode {mode!r}")
    if mode == QUANTUM_PROJECTED:
        _count("rank", rank, 1, sys.M)

    mu = sys.mu
    h_values = orbit_observation_values(sys)
    sigma = np.ones(sys.M) if sigma0 is None else _finite_point(sigma0, sys.M, "sigma0")
    check_density(sigma, mu)
    truths = (int(x0) % sys.M + np.arange(1, steps + 1)) % sys.M
    if observations is None:
        observations = _observe_run(model, h_values[truths], seed)

    freqs = None
    if mode == QUANTUM_PROJECTED:
        # the kept frequencies in mode order, and the same band ascending,
        # where reversing the band maps each frequency k to its negative
        # (plus 1 for an even band): the J of the centrohermitian effect
        freqs = _orbit_mode_order(sys.M)[:rank]
        band = np.sort(freqs)
        shift = np.exp(-2j * math.pi * band / sys.M)
        publish = freqs - band[0]  # where each mode sits in the band
        # the effect's entries are the DFT window over the band's gaps
        # k_a - k_b; the likelihood at y = 0 gives the reference window, whose
        # root is taken at the first step whose window is it rotated
        gaps = np.arange(1 - rank, rank)
        reference = np.fft.fft(model.kappa(0.0, h_values)) / sys.M
        window0 = reference[gaps]
        floor = _rounding_floor(rank, window0)
        root0 = None
    if mode != CLASSICAL:
        # the first mode is the constant one, so the projected psi is never 0
        psi = np.sqrt(np.maximum(mu * sigma, 0.0))
        if mode == QUANTUM_PROJECTED:
            psi = np.fft.fft(psi)[band] / math.sqrt(sys.M)
        psi /= np.linalg.norm(psi)

    trace = FilterTrace(mode=mode)
    evidences, failure = [], None
    for n, y in enumerate(observations.tolist(), 1):
        likelihood = model.kappa(y, h_values)
        prior = classical_forecast(sys, sigma)
        try:
            sigma, evidence = classical_analysis(prior, likelihood, mu)
        except ZeroEvidenceError as err:
            failure = ZeroEvidenceError(f"zero evidence at step {n}: {err}")
            break
        if mode != CLASSICAL:
            if mode == QUANTUM:
                psi = np.sqrt(likelihood) * np.roll(psi, 1)
            else:
                dft = np.fft.fft(likelihood) / sys.M
                phases = _frame_phases(y, gaps, sys.M)  # e^{-i r y} over the gaps r
                if np.abs(dft[gaps] - window0 * phases).max() <= floor:
                    # C_y = D C_0 D*, D = diag(e^{-i k y}) on the band
                    if root0 is None:
                        root0 = _real_form_root(_effect_real_form(reference, rank))
                    frame = phases[band + (rank - 1)]
                    psi = frame * _root_apply(root0, frame.conj() * shift * psi)
                    trace.frame_steps += 1
                else:
                    psi = _real_form_root_apply(_effect_real_form(dft, rank), shift * psi)
            quantum_evidence = float(np.vdot(psi, psi).real)  # <psi, E psi>
            if quantum_evidence <= 1e-14:
                failure = ZeroEvidenceError(f"zero evidence at step {n} under the operator state")
                break
            psi = psi / math.sqrt(quantum_evidence)
            trace.quantum_posteriors.append(psi if mode == QUANTUM else psi[publish])
        evidences.append(evidence)
        trace.classical_posteriors.append(sigma)

    _score_orbit_steps(trace, sys, truths, evidences, freqs)
    if failure is not None:
        raise failure
    return trace


def _score_orbit_steps(trace: FilterTrace, sys: PeriodicOrbitSystem, truths: np.ndarray,
                       evidences: list, freqs: np.ndarray | None) -> None:
    """Append to ``trace`` one FilterStep per stored posterior, scored in blocks.

    Each step gets what one step of the filter computes for it: the distance
    between the embedded classical posterior and the operator state, and the
    smallest index whose point marginal is within ``_ESTIMATE_TIE_RTOL`` of
    the top.  ``freqs`` are the projected mode's kept frequencies in mode
    order, or None in the point basis.  A block holds at most
    ``_SCORE_BATCH`` point values (one row if M is larger), so scoring holds
    a bounded slice of what the trace already stores.
    """
    mu, m = sys.mu, sys.M
    batch = max(1, _SCORE_BATCH // m)
    for lo in range(0, len(evidences), batch):
        sigmas = np.array(trace.classical_posteriors[lo : lo + batch])
        consistency = np.zeros(len(sigmas))
        if trace.mode == CLASSICAL:
            marginals = sigmas * mu
        else:
            psis = np.array(trace.quantum_posteriors[lo : lo + batch])
            embedded = np.sqrt(np.maximum(mu * sigmas, 0.0))
            if freqs is None:
                marginals = np.abs(psis) ** 2
            else:
                root_m = math.sqrt(m)
                embedded = np.fft.fft(embedded)[:, freqs] / root_m
                values = grid_sum(freqs[:, None], psis, m)
                values /= root_m
                marginals = np.abs(values) ** 2
            consistency = _pure_state_distance(embedded, psis)
        top = marginals.max(axis=1, keepdims=True)
        estimates = np.argmax(marginals >= (1.0 - _ESTIMATE_TIE_RTOL) * top, axis=1)
        _record_steps(trace, lo + 1, m, truths[lo : lo + batch].tolist(),
                      evidences[lo : lo + batch], consistency.tolist(), estimates.tolist())


def _record_steps(trace: FilterTrace, first: int, period, truths, evidences, consistency,
                  estimates) -> None:
    """Append a FilterStep per step from ``first`` on, for either filter.

    The estimate error is the circular gap |((estimate - truth + P/2) mod P) - P/2|
    on a circle of period P: the orbit's M points, exact in doubles, or
    the torus's 2 pi.
    """
    half = period / 2
    for n, (x, evidence, c, estimate) in enumerate(zip(truths, evidences, consistency,
                                                       estimates), first):
        gap = abs((estimate - x + half) % period - half)
        trace.steps.append(FilterStep(n, evidence, c, float(estimate), gap, float(x)))


def _observe_run(model: ObservationModel, truths, seed: int) -> np.ndarray:
    """Every synthetic observation of a run, from one ``observe`` call.

    Noise that overflows an observation to NaN or infinity raises a
    DegeneracyError naming the noise level and the first step it hits,
    before any step runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        obs = model.observe(truths, np.random.default_rng(seed))
    bad = np.flatnonzero(~np.isfinite(obs))
    if bad.size:
        raise DegeneracyError(f"noise_std {model.noise_std!r} overflows the synthetic "
                              f"observation at step {bad[0] + 1}")
    return obs


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
    rows = _von_mises_rows(kappa / 2.0, mu, lat.J)
    return rows / np.sqrt(_dots(rows, rows).real)[:, None]


# Steps of the torus filter whose rotating frames are taken at once, and
# the most it scores at once: bessel_ratios runs a batch's concentrations
# as numpy lanes, which beat its float loop from ~64 on.
_TORUS_BLOCK = 256
# Grid values evaluated at once, in complex entries (16 MiB): a scoring
# batch is _TORUS_BLOCK rows unless grid_size is above 4096.
_GRID_BATCH = 2**20
# Orbit point values the orbit filter scores at once (64 KiB a complex
# array): 60 steps on M = 128 in one block of 7,680 values held ~0.2 MiB
# more peak RSS than scoring step by step; blocks of 4,096 held none.
_SCORE_BATCH = 2**12
# Point marginals within this relative distance of the top tie for the orbit
# filter's estimate, which is the smallest tied index: rounding alone then
# does not pick the estimate between equal marginals.
_ESTIMATE_TIE_RTOL = 1e-12


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

    Conditioning on y convolves with the kernel k_m e^{-imy}, whose phases
    are translation by y, diagonal on the lattice: the truncated convolution
    is D(y)* T0 D(y), D(y) = diag(e^{ijy}), with T0 = (|k|_{j-l}) one fixed
    real Toeplitz matrix (the projected mode's kept rows only).  So the
    track carries the state in the frame of the latest observation,
    chi_n = D(y_n) psi_n, and a step is chi <- T0 (E_n chi) / |T0 E_n chi|
    with E_n = D(y_n) D(y_{n-1})* times the rotation phases: one real
    matrix product per step, the complex vector taken as its (re, im) pairs.
    The frames D(y) take one exponential per observation: the characters
    multiply, e^{ijy} = (e^{iy})^j (``_characters``).

    The state and the truths start from the wrapped x0, the density being
    2*pi-periodic; an x0 of 2**52 rad or more keeps no digit of its angle
    and is refused (``_phase_check``), as are more than ``_MAX_TERMS``
    steps.  The run has the orbit filter's shape: one ``_rotation_orbit``
    call for the truths (bitwise the trajectory's rows), one draw
    of every observation (``_observe_run``), one loop running both tracks
    that records the first failure (zero classical evidence, then an
    annihilated operator state) and stores psi_n = D(y_n)* chi_n, taking
    D(y_n)* and E_n for ``_TORUS_BLOCK`` steps at once as it enters them,
    then scoring in batches (``_torus_diagnostics``), where an unconverged
    Bessel ratio raises ahead of the recorded failure.  So the first failing
    step raises what a step-by-step run raises; the states agree with it to rounding (1e-13),
    the classical track bitwise.  Memory grows with steps times the lattice
    size, never with steps times ``grid_size``.  Classical mode builds none
    of the operator track's set-up (kept modes, rotation phases, half
    kernel, T0), so only the operator modes refuse a half kernel above the
    Bessel cap.
    """
    if sys.d != 1:
        raise ValidationError("the torus filter is implemented for d=1")
    if model.kind != VON_MISES:
        raise ValidationError("torus filtering uses the circular observation kernel")
    _count("steps", steps, 1, _MAX_TERMS)
    _real("x0", x0)
    _real("dt", dt, 0, strict=True)
    _real("kappa0", kappa0, 0)  # uncapped: classical mode runs it without Bessel ratios
    _count("grid_size", grid_size, 1)
    _count("bandwidth", bandwidth, 0)
    if mode not in (CLASSICAL, QUANTUM, QUANTUM_PROJECTED):
        raise ValidationError(f"unknown filter mode {mode!r}")
    from .rkha import TruncatedLattice

    lat = TruncatedLattice(1, bandwidth)
    if mode == QUANTUM_PROJECTED:
        _count("rank", rank, 1, lat.size)
    else:
        rank = lat.size
    x0 = _wrap_angle(_phase_check(lambda: x0, "x0", x0))

    shift = float(_phases(dt, sys.alpha, "dt")[0])  # dt alpha, the rotation of one step
    run_quantum = mode in (QUANTUM, QUANTUM_PROJECTED)
    # classical state as concentration vector (C, S) = kappa (cos mu, sin mu)
    c_vec = kappa0 * math.cos(x0)
    s_vec = kappa0 * math.sin(x0)
    # each step's prior concentration is hypot(c_vec, s_vec), the previous
    # step's posterior one, so its scaled I_0 carries over from that step
    i0e_prior = _i0e(math.hypot(c_vec, s_vec))
    if run_quantum:
        j_all = lat.indices[:, 0]
        keep = np.zeros(lat.size)  # indicator of the modes the operator track keeps
        keep[_orbit_mode_order(lat.size)[:rank] + lat.J] = 1.0
        # step-invariant: rotation phases and T0, the square-root kernel's
        # magnitudes |k|_{j-l} on the kept rows
        # dt alpha J, the largest phase, can leave the float range where dt alpha does not
        rotate = np.exp(-1j * _phases(shift, j_all, "dt*alpha"))
        kernel_abs = von_mises_kernel_row(model.scale / 2.0, 2 * lat.J)
        toeplitz = keep[:, None] * kernel_abs[j_all[:, None] - j_all + 2 * lat.J]
        # chi in the frame of y_0 = 0, where it is psi itself
        chi = _sqrt_von_mises_rows(np.array([x0]), np.array([kappa0]), lat)[0] * keep
        chi /= np.linalg.norm(chi)
        chi_pairs = chi.view(float).reshape(lat.size, 2)

    trace = FilterTrace(mode=mode)
    # after the wrapped x0, step n observes the n-th point
    truths = _rotation_orbit(x0, shift, steps + 1)[1:]
    obs = _observe_run(model, truths, seed)
    if run_quantum:
        rows = np.empty((steps, lat.size), dtype=complex)  # psi_n
        frame_ys = np.concatenate(([0.0], obs))  # chi_0's frame is y_0 = 0
    evidences, failure = [], None
    for i, y in enumerate(obs.tolist()):
        # exact conjugate-family update
        mu_prior = math.atan2(s_vec, c_vec) + shift
        kap_prior = math.hypot(c_vec, s_vec)
        c_vec = kap_prior * math.cos(mu_prior) + model.scale * math.cos(y)
        s_vec = kap_prior * math.sin(mu_prior) + model.scale * math.sin(y)
        kap_post = math.hypot(c_vec, s_vec)
        mu_post = _wrap_angle(math.atan2(s_vec, c_vec))
        i0e_post = _i0e(kap_post)
        # kap_post^2 = (kap_prior + s)^2 - 4 kap_prior s sin^2((y - mu_prior) / 2),
        # so the exponent kap_post - kap_prior - s is -4 kap_prior s sin^2(..) /
        # (kap_post + kap_prior + s), never positive and cancelling nothing (the
        # difference itself lost kap eps, 1e4 at kap = 1e20); the sum is taken in
        # quarters, finite up to the largest float.  The likelihood is at most 1,
        # and so is the evidence: at kap = 1e17 the rounding of kap_post (eps
        # relative) moved the Bessel ratio to 1 + eps
        half_gap = math.sin(0.5 * (y - mu_prior))
        weight = 0.25 * kap_prior / (0.25 * kap_post + 0.25 * kap_prior + 0.25 * model.scale)
        evidence = min(1.0, i0e_post / i0e_prior
                       * math.exp(-4.0 * model.scale * half_gap * half_gap * weight))
        i0e_prior = i0e_post
        if evidence <= 1e-300:
            failure = ZeroEvidenceError(f"zero evidence at step {i + 1}")
            break
        if run_quantum:
            k = i % _TORUS_BLOCK
            if k == 0:  # the block's D(y_n)* and E_n = D(y_n) D(y_{n-1})* rotate
                frames = _characters(frame_ys[i : i + _TORUS_BLOCK + 1], lat.J)
                back = frames[1:].conj()
                phases = frames[1:] * frames[:-1].conj() * rotate
            step = _toeplitz_step(toeplitz, phases[k] * chi)
            norm = math.sqrt(np.vdot(step, step))
            if norm <= 1e-150:
                failure = ZeroEvidenceError(f"state annihilated at step {i + 1}")
                break
            np.divide(step, norm, out=chi_pairs)
            np.multiply(chi, back[k], out=rows[i])
        trace.classical_posteriors.append((mu_post, kap_post))
        evidences.append(evidence)

    done = len(evidences)
    batch = max(1, min(_TORUS_BLOCK, _GRID_BATCH // grid_size))
    for lo in range(0, done, batch):
        hi = min(lo + batch, done)
        posteriors = trace.classical_posteriors[lo:hi]
        consistency, estimates = [0.0] * (hi - lo), [mu for mu, _ in posteriors]
        if run_quantum:
            psis = rows[lo:hi]
            consistency, min_sqrt, estimates = _torus_diagnostics(psis, posteriors, lat, grid_size)
            trace.quantum_posteriors.extend(zip(psis, min_sqrt))
        _record_steps(trace, lo + 1, TWO_PI, truths[lo:hi].tolist(), evidences[lo:hi],
                      consistency, estimates)
    if failure is not None:
        raise failure
    return trace


def _toeplitz_step(toeplitz: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The real matrix ``toeplitz`` times a complex vector, as (re, im) rows.

    ``vec`` is viewed as its n x 2 array of real and imaginary parts, so the
    product is one real n x n by n x 2 matmul; the result has that layout.
    """
    return toeplitz @ vec.view(float).reshape(-1, 2)


def _torus_diagnostics(rows: np.ndarray, posteriors: list, lat: TruncatedLattice, grid_size: int):
    """Per row of operator states: consistency, most negative grid value, estimate.

    ``posteriors`` holds each row's classical (mu, kappa).  Every row gets
    what one step of the filter computes for it: the distance to the unit
    square root of the von Mises posterior, the most negative real part of
    the grid values after rotating the largest one onto the positive axis,
    and the phase of the first autocorrelation of the coefficients.  The
    rows are one scoring batch, whose grid values are one ``grid_sum`` call
    of at most ``_GRID_BATCH`` entries (or one row).
    """
    mu, kappa = np.array(posteriors).T
    consistency = _pure_state_distance(_sqrt_von_mises_rows(mu, kappa, lat), rows)

    values = grid_sum(lat.indices, rows, grid_size)
    peak = values[np.arange(len(values)), np.argmax(np.abs(values), axis=1)]
    # what Python's complex abs() computes; numpy's array abs can differ by an ulp
    unit = peak.conjugate() / np.hypot(peak.real, peak.imag)
    min_sqrt = (values * unit[:, None]).real.min(axis=1)

    first = np.sum(np.conj(rows[:, 1:]) * rows[:, :-1], axis=1)
    estimates = [_wrap_angle(math.atan2(f.imag, f.real)) for f in first.tolist()]
    return consistency.tolist(), min_sqrt.tolist(), estimates
