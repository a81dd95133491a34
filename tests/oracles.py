"""Dense formulations the package's fast paths replaced, kept as test oracles.

Each function here is the direct, matrix-building form of a computation the
package now does in closed form, by FFT, axis by axis or on a state vector,
or (the torus filter) the step-by-step convolution form of one it now
conditions by Toeplitz products and scores in batches, or (the data-driven
generator) the one-shot form of a sum it now accumulates over sample
blocks, or (the tensor-power forecast) the state-evolving form of one that
now evolves the observable, and the box sum of its factor's l1 norm, now a
product of row sums, or (the grading-m forecast) the G^d grid form of one that now runs on d
one-dimensional grids, or (the pure-state distance and the square-root von
Mises row) the one-vector form of one that now broadcasts over rows, or
(the Mercer kernel and the qubit decoder) the complex-exponential and
per-axis loop forms of sums the package now takes as one real half-lattice
cosine sum and one vectorized digit decoder, or (the projected filter's
effect root) the complex ``eigh`` form of one the package now takes from a
real symmetric matrix, or (the orbit's mode order) the loop that appends
the frequencies a closed form now gives, or (the Bessel recurrence's start
index) the scalar rule the package now applies to arrays.  One is exact
where the package rounds: the rotation orbit in rational arithmetic.
Nothing in ``src/`` calls them; the tests compare the fast paths against
them.  One is not an oracle but an old rule kept to provoke a failure: the
Bessel recurrence's former start index, too low for large concentrations,
whose runs from it and from twice it then disagree.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from qkoopman.dynamics import (
    TWO_PI,
    FourierObservable,
    RotationSystem,
    VonMisesDensity,
    _i0e,
    _rotation_orbit,
    bessel_ratios,
    grid_sum,
    koopman_exact,
    von_mises_fourier,
    von_mises_kernel_row,
    wrap_angles,
)
from qkoopman.errors import DegenerateNormalizationError, ValidationError, ZeroEvidenceError
from qkoopman.fock import (
    FockVector,
    FockWeight,
    SecondQuantizationParams,
    SecondQuantizationResult,
    SpectrumTorusPoint,
    TensorNetworkParams,
    TensorNetworkResult,
    fock_inner,
    xi_tail_norm,
    xi_vector,
)
from qkoopman.qcirc import QubitEncoding, _check_observable, _projected_observable
from qkoopman.qmda import (
    CLASSICAL,
    QUANTUM,
    QUANTUM_PROJECTED,
    VON_MISES,
    FilterStep,
    FilterTrace,
    ObservationModel,
    _sqrt_von_mises_rows,
    multiplication_operator_fourier,
    multiplication_operator_point,
)
from qkoopman.rkha import SubexpWeight, TruncatedLattice
from qkoopman.spectral import GeneratorSpec, _spectral_order, _taper_weights


# --- qmda: the density-operator filter on M x M matrices ---------------------


def effect_sqrt(e: np.ndarray) -> np.ndarray:
    """Positive square root of an effect, eigenvalues clamped into [0, 1]."""
    eigs, vecs = np.linalg.eigh(0.5 * (e + e.conj().T))
    # eigenvalues within eigh's rounding of 0 are 0, not noise for sqrt to amplify
    floor = eigs.size * np.finfo(float).eps * np.abs(eigs).max()
    eigs = np.where(eigs > floor, np.minimum(eigs, 1.0), 0.0)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def trace_norm(a: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def check_density_operator(rho: np.ndarray, tol: float = 1e-10):
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValidationError("density operator is not Hermitian")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -tol:
        raise ValidationError(f"density operator has eigenvalue {eigs.min()}")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise ValidationError("density operator trace differs from 1")


def check_effect(e: np.ndarray, tol: float = 1e-10):
    if np.max(np.abs(e - e.conj().T)) > 1e-12:
        raise ValidationError("effect is not Hermitian")
    eigs = np.linalg.eigvalsh(e)
    if eigs.min() < -tol or eigs.max() > 1.0 + tol:
        raise ValidationError("effect eigenvalues leave [0, 1]")


def classical_forecast_rotation(
    sys: RotationSystem, density: FourierObservable, dt: float
) -> FourierObservable:
    """Transport a torus density forward by dt: c_j picks up exp(-i dt j.alpha)."""
    return koopman_exact(density, sys, -dt)


def quantum_forecast(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Conjugate the state by the given unitary: rho -> u rho u*."""
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-10:
        raise ValidationError("forecast operator is not unitary")
    return u @ rho @ u.conj().T


def quantum_analysis(rho: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Operator Bayes rule: sqrt(e) rho sqrt(e), renormalized to unit trace."""
    evidence = float(np.trace(rho @ e).real)
    if evidence <= 1e-14:
        raise ZeroEvidenceError("effect has zero evidence under the state")
    root = effect_sqrt(e)
    posterior = root @ rho @ root
    return posterior / np.trace(posterior).real


def effect_from_observation(model: ObservationModel, y: float, basis) -> np.ndarray:
    """Effect of observing y: the multiplication operator by x -> kappa(y, h(x)).

    ``basis`` selects the representation: an array of observation values per
    point gives the diagonal point-basis matrix; a TruncatedLattice gives the
    Toeplitz-style matrix on the Fourier basis (h the angular identity).
    """
    if isinstance(basis, TruncatedLattice):
        return multiplication_operator_fourier(model.fourier_coeffs(y, 2 * basis.J), basis)
    return multiplication_operator_point(model.kappa(y, np.asarray(basis, dtype=float)))


def orbit_mode_order(m: int) -> np.ndarray:
    """Cyclic-group frequencies ordered 0, +1, -1, +2, -2, ..., appended one by one."""
    freqs = [0]
    k = 1
    while len(freqs) < m:
        freqs.append(k)
        if len(freqs) < m:
            freqs.append(-k)
        k += 1
    return np.asarray(freqs)


def orbit_mode_transform(m: int) -> np.ndarray:
    """Unitary point-basis -> mode-basis map, rows ordered by |frequency|."""
    freqs = orbit_mode_order(m)
    points = np.arange(m)
    return np.exp(-2j * math.pi * np.outer(freqs, points) / m) / math.sqrt(m)


def vdot_pure_state_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace norm of |a><a| - |b><b| for one pair of vectors, from ``np.vdot``:
    sqrt((|a|^2 - |b|^2)^2 + 4 |a|^2 |b_perp|^2), b_perp = b - a <a, b> / |a|^2."""
    aa = float(np.vdot(a, a).real)
    bb = float(np.vdot(b, b).real)
    perp = b - a * (np.vdot(a, b) / aa)
    return math.sqrt((aa - bb) ** 2 + 4.0 * aa * float(np.vdot(perp, perp).real))


def sqrt_von_mises_coeffs(mu: float, kappa: float, lat: TruncatedLattice) -> np.ndarray:
    """Unit lattice coefficients of sqrt of the von Mises density at one (mu, kappa)."""
    j = lat.indices[:, 0]
    ratios = bessel_ratios(kappa / 2.0, lat.J)
    vec = ratios[np.abs(j)] * np.exp(-1j * j * mu)
    return vec / np.linalg.norm(vec)


def torus_grid_matrix(grid_size: int, lat: TruncatedLattice) -> np.ndarray:
    """G x (2J+1) evaluation of the lattice characters on the uniform circle grid."""
    theta_grid = np.arange(grid_size) * TWO_PI / grid_size
    return np.exp(1j * np.outer(theta_grid, lat.indices[:, 0]))


def stepwise_torus_filter(
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
    """``qmda.run_torus_filter`` one step at a time, every diagnostic per step.

    Each step scores its operator state against a von Mises reference from
    its own scalar ``bessel_ratios`` call, by ``np.vdot`` products, and
    evaluates it on the grid with its own ``grid_sum``, and conditions by
    ``np.convolve`` with the kernel k_m e^{-imy}; the package runs the same
    steps in one loop, conditioning by one fixed real Toeplitz product in the
    observation's frame, and scores them in batches after it.  The initial
    state comes from the package's square-root builder and the observations
    from the same noise draws, so the classical tracks agree bit for bit
    and the states to rounding.

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
    """
    if sys.d != 1:
        raise ValidationError("the torus filter is implemented for d=1")
    if model.kind != VON_MISES:
        raise ValidationError("torus filtering uses the circular observation kernel")
    if steps < 1 or dt <= 0:
        raise ValidationError("need steps >= 1 and dt > 0")
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
    for freq in orbit_mode_order(lat.size)[:rank]:
        keep[lat.position((int(freq),))] = 1.0

    rng = np.random.default_rng(seed)
    alpha = float(sys.alpha[0])
    run_quantum = mode in (QUANTUM, QUANTUM_PROJECTED)
    # classical state as concentration vector (C, S) = kappa (cos mu, sin mu)
    c_vec = kappa0 * math.cos(x0)
    s_vec = kappa0 * math.sin(x0)
    if run_quantum:
        psi = _sqrt_von_mises_rows(np.array([x0]), np.array([kappa0]), lat)[0] * keep
        psi /= np.linalg.norm(psi)
    half_kernel = bessel_ratios(model.scale / 2.0, 2 * lat.J) * _i0e(model.scale / 2.0)
    j_all = lat.indices[:, 0]
    # step-invariant: rotation phases and kernel magnitudes
    rotate = np.exp(-1j * dt * alpha * j_all)
    m_all = np.arange(-2 * lat.J, 2 * lat.J + 1)
    kernel_abs = half_kernel[np.abs(m_all)]

    trace = FilterTrace(mode=mode)
    # the package's orbit: this filter checks the blocks, not the orbit
    truth = _rotation_orbit(float(wrap_angles(x0)[0]), dt * alpha, steps + 1)[1:].tolist()
    for n, x in enumerate(truth, 1):
        y = model.observe(x, rng)

        # exact conjugate-family update
        mu_prior = math.atan2(s_vec, c_vec) + dt * alpha
        kap_prior = math.hypot(c_vec, s_vec)
        c_vec = kap_prior * math.cos(mu_prior) + model.scale * math.cos(y)
        s_vec = kap_prior * math.sin(mu_prior) + model.scale * math.sin(y)
        kap_post = math.hypot(c_vec, s_vec)
        mu_post = math.atan2(s_vec, c_vec) % TWO_PI
        # kap_post - kap_prior - scale as -4 kap_prior scale sin^2((y - mu_prior) / 2)
        # / (kap_post + kap_prior + scale), the sum in quarters: no cancellation, no overflow
        half_gap = math.sin(0.5 * (y - mu_prior))
        weight = 0.25 * kap_prior / (0.25 * kap_post + 0.25 * kap_prior + 0.25 * model.scale)
        exponent = -4.0 * model.scale * half_gap * half_gap * weight
        evidence = min(1.0, _i0e(kap_post) / _i0e(kap_prior) * math.exp(exponent))
        if evidence <= 1e-300:
            raise ZeroEvidenceError(f"zero evidence at step {n}")

        consistency = 0.0
        min_sqrt = 0.0
        if run_quantum:
            psi = psi * rotate
            kernel_coeffs = kernel_abs * np.exp(-1j * m_all * y)
            full = np.convolve(kernel_coeffs, psi)
            center = (full.size - 1) // 2
            psi = full[center - lat.J : center + lat.J + 1] * keep
            norm = np.linalg.norm(psi)
            if norm <= 1e-150:
                raise ZeroEvidenceError(f"state annihilated at step {n}")
            psi = psi / norm
            reference = sqrt_von_mises_coeffs(mu_post, kap_post, lat)
            consistency = vdot_pure_state_distance(reference, psi)
            values = grid_sum(lat.indices, psi, grid_size)
            phase = values[int(np.argmax(np.abs(values)))]
            min_sqrt = float((values * (phase.conjugate() / abs(phase))).real.min())
            first = complex(np.sum(np.conj(psi[1:]) * psi[:-1]))
            estimate = math.atan2(first.imag, first.real) % TWO_PI
            trace.quantum_posteriors.append((psi, min_sqrt))
        else:
            estimate = mu_post
        gap = abs((estimate - x + math.pi) % TWO_PI - math.pi)
        trace.classical_posteriors.append((mu_post, kap_post))
        trace.steps.append(
            FilterStep(
                step=n,
                evidence=evidence,
                consistency=consistency,
                estimate=float(estimate),
                estimate_error=float(gap),
                truth=x,
            )
        )
    return trace


# --- dynamics: the rotation orbit in exact arithmetic -------------------------


def exact_rotation_orbit(x: float, step: float, rows) -> np.ndarray:
    """(x + k step) mod TWO_PI for each k in ``rows``, each rounded once.

    ``Fraction`` arithmetic on the floats given, so nothing rounds before
    the final float, which can be TWO_PI itself (compare by
    ``angle_gap``).  The recurrence x <- (x + step) mod 2*pi that
    ``dynamics._rotation_orbit`` replaced drifted from it by a rounding a
    step: 1.2e-10 rad after 10^6 steps of 0.01 sqrt(2).
    """
    fx, fstep, turn = Fraction(x), Fraction(step), Fraction(TWO_PI)
    return np.array([float((fx + k * fstep) % turn) for k in rows])


def angle_gap(a, b) -> np.ndarray:
    """Distance between angles in [0, TWO_PI] on the circle of length TWO_PI."""
    gap = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(gap, TWO_PI - gap)


# --- dynamics: the Bessel start index, one concentration at a time -----------


def scalar_miller_start(kappa: float, jmax: int) -> int:
    """``dynamics._miller_start`` for one concentration, in Python arithmetic."""
    base = jmax + max(20, int(2.0 * math.sqrt(max(jmax, kappa) + 1)) + 10)
    return max(base, int(math.sqrt(jmax * jmax + 37.0 * kappa)) + 10)


# --- dynamics: a former Bessel start, whose pair of Miller runs disagrees -----


def short_miller_start(kappa: np.ndarray, jmax: int) -> np.ndarray:
    """``dynamics._miller_start`` before it grew as sqrt(37 kappa).

    jmax + 2 sqrt(max(jmax, kappa) + 1) + 10, at least jmax + 20: too low
    once kappa passes about 3 jmax, where the run from it has not converged
    and disagrees with the run from twice it.  Tests patch it in to provoke
    that DegeneracyError.
    """
    return np.array([jmax + max(20, int(2.0 * math.sqrt(max(jmax, k) + 1)) + 10)
                     for k in np.asarray(kappa, dtype=float).tolist()], dtype=np.int64)


# --- rkha and qcirc: the complex Mercer sum and the loop decoder --------------


def kernel_value_complex(w: SubexpWeight, lat: TruncatedLattice, x, y) -> complex:
    """k(x, y) = sum_{j in lat} lambda(j) exp(i j.(y-x)) over the whole lattice."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return complex(np.sum(w.lattice_values(lat) * np.exp(1j * (lat.indices @ (y - x)))))


def decode_loop(enc: QubitEncoding, index: int) -> tuple:
    """Multi-index of one basis state, one (q+1)-bit group per dimension."""
    half = 2**enc.q
    width = enc.q + 1
    groups = []
    rem = index
    for _ in range(enc.d):
        groups.append(rem & (2**width - 1))
        rem >>= width
    out = []
    for jt in reversed(groups):  # low bits hold the last dimension
        j = jt - half
        if j >= 0:
            j += 1
        out.append(int(j))
    return tuple(out)


# --- qcirc and fock: dense observable and the Gelfand pairing -----------------


def projected_observable(
    enc: QubitEncoding, w: SubexpWeight, f: FourierObservable
) -> np.ndarray:
    """Symmetrized multiplier (D^-1 C D + D C D^-1)/2 of f on the encoded subspace."""
    _check_observable(enc, f)
    return _projected_observable(enc.index_table(), w, f)


def gelfand_eval(
    pt: SpectrumTorusPoint, v: FockVector, weight: FockWeight, nmax: int | None = None
) -> complex:
    """Value of the multiplicative functional at v: the pairing <xi, v>.

    Computed as the inner product of the truncated xi series against v; by
    grading orthogonality the value is exact whenever nmax covers v's top
    grading, and multiplicative on products within the cutoff.
    """
    if nmax is None:
        nmax = weight.nmax
    return fock_inner(xi_vector(pt.eta(), weight, nmax), v, weight)


# --- rkha: the n-d convolution, as a direct sum ------------------------------


def direct_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full n-d convolution of two arrays of equal rank, as a direct sum.

    Every output entry is a plain sum of products a[k] b[j-k], accumulated by
    adding one shifted copy of ``b`` per nonzero entry of ``a`` (the operands
    are swapped so that the loop runs over the sparser one).  Unlike an FFT,
    convolving with a unit impulse reproduces the other operand exactly.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != b.ndim:
        raise ValidationError("convolution operands must have the same rank")
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    shape = tuple(m + n - 1 for m, n in zip(a.shape, b.shape))
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for k in zip(*np.nonzero(a)):
        out[tuple(slice(i, i + n) for i, n in zip(k, b.shape))] += a[k] * b
    return out


# --- fock: the tensor-power forecast with the state evolved ---------------------


def _dense_coeffs(f: FourierObservable, bandwidth: int) -> np.ndarray:
    lat = TruncatedLattice(f.d, bandwidth)
    return lat.observable_vector(f).reshape((2 * bandwidth + 1,) * f.d)


def _center_slice(arr: np.ndarray, width: int, d: int) -> np.ndarray:
    half = (arr.shape[0] - 1) // 2
    sl = tuple(slice(half - width, half + width + 1) for _ in range(d))
    return arr[sl]


def state_evolved_tensor_expectation(
    f: FourierObservable,
    state: VonMisesDensity,
    sys: RotationSystem,
    params: TensorNetworkParams,
    t: float,
) -> TensorNetworkResult:
    """Tensor-power forecast with each factor evolved in the state direction.

    The factor is the n-th root density's ``von_mises_fourier`` observable,
    densified and phased by exp(-i t j.alpha); its n-th convolution power
    is convolved with the densified f and paired against itself on the
    centre of the result.  The truncation bound takes the root density's
    tail beyond J from a second Bessel run.
    """
    d = state.d
    if f.d != d or sys.d != d:
        raise ValidationError("dimension mismatch between observable, state, and system")
    J = params.bandwidth
    n = params.n
    root = state.nth_root(n)
    factor = von_mises_fourier(root, J)
    lat = TruncatedLattice(d, J)
    phases = np.exp(-1j * t * (lat.indices @ sys.alpha)).reshape((2 * J + 1,) * d)
    u = _dense_coeffs(factor, J) * phases

    power = u
    for _ in range(n - 1):
        power = direct_convolve(power, u)

    f_dense = _dense_coeffs(f, f.bandwidth if f.bandwidth > 0 else 0)
    conv = direct_convolve(f_dense, power)
    aligned = _center_slice(conv, n * J, d)
    num = complex(np.vdot(power, aligned))
    den = float(np.vdot(power, power).real)

    tail = 0.0
    for i in range(d):
        ratios_far = bessel_ratios(root.kappa[i], 4 * J + 8)
        tail += 2.0 * float(np.sum(ratios_far[J + 1 :]))
    u_l1 = float(np.sum(np.abs(u)))
    f_l1 = sum(abs(c) for c in f.coeffs.values())
    sup_diff = n * (u_l1 + tail) ** (n - 1) * tail
    norm2 = math.sqrt(den)
    slack = (2.0 * norm2 + sup_diff) * sup_diff
    value = float((num / den).real)
    guard = den - slack
    trivial = f_l1 + abs(value)
    bound = min(trivial * slack / guard, trivial) if guard > 0 else trivial
    return TensorNetworkResult(value=value, truncation_bound=bound)


def outer_sum_tensor_expectation(
    f: FourierObservable,
    state: VonMisesDensity,
    sys: RotationSystem,
    params: TensorNetworkParams,
    t: float,
) -> TensorNetworkResult:
    """``fock.tensor_network_expectation`` with the factor's l1 norm as a sum over its box.

    The factor is the outer product of one row per axis, so this builds all
    (2J+1)^d of its entries to sum them, where the package multiplies the
    rows' sums.
    """
    J, n = params.bandwidth, params.n
    root = state.nth_root(n)
    ratios = bessel_ratios(root.kappa, 4 * J + 8)
    rows = ratios[:, np.abs(np.arange(-J, J + 1))]
    powers = [functools.reduce(np.convolve, [row] * n) for row in rows]
    side = 2 * n * J + 1
    num = 0.0 + 0.0j
    for k, c in koopman_exact(f, sys, t).coeffs.items():
        if max(abs(v) for v in k) < side:
            pair = math.prod(np.dot(q[abs(v) :], q[: side - abs(v)]) for q, v in zip(powers, k))
            num += c * pair * np.exp(1j * np.dot(k, root.mu))
    den = float(math.prod(np.dot(q, q) for q in powers))
    tail = 2.0 * float(np.sum(ratios[:, J + 1 :]))
    u_l1 = float(np.sum(functools.reduce(np.multiply.outer, rows)))
    f_l1 = sum(abs(c) for c in f.coeffs.values())
    sup_diff = n * (u_l1 + tail) ** (n - 1) * tail
    slack = (2.0 * math.sqrt(den) + sup_diff) * sup_diff
    value = float(num.real / den)
    guard = den - slack
    trivial = f_l1 + abs(value)
    bound = min(trivial * slack / guard, trivial) if guard > 0 else trivial
    return TensorNetworkResult(value=value, truncation_bound=bound)


# --- uniform-grid trigonometric sums, the direct way ---------------------------


def direct_grid_values(f: FourierObservable, grid_size: int) -> np.ndarray:
    """f on the grid (2 pi k / G)_k as one complex exp over G^d points per coefficient."""
    axes = [np.arange(grid_size) * (TWO_PI / grid_size)] * f.d
    mesh = np.meshgrid(*axes, indexing="ij")
    total = np.zeros([grid_size] * f.d, dtype=complex)
    for j, c in f.coeffs.items():
        phase = np.zeros_like(total, dtype=float)
        for axis, jv in enumerate(j):
            phase = phase + jv * mesh[axis]
        total += c * np.exp(1j * phase)
    return total


def character_pairing(a: np.ndarray, J: int, d: int, grid_size: int) -> np.ndarray:
    """k(y) = sum_j a_j e^{-i j.y} on the grid: the (2J+1)^d box of ``a`` (lattice
    order) contracted with the (2J+1) x G character matrix one axis at a time."""
    y = np.arange(grid_size) * (2.0 * np.pi / grid_size)
    characters = np.exp(-1j * np.outer(np.arange(-J, J + 1), y))
    k = a.reshape((2 * J + 1,) * d)
    for _ in range(d):
        k = np.tensordot(k, characters, axes=(0, 0))  # axis j_i becomes y_i
    return k


# --- fock: the grading-m forecast on the whole G^d grid ------------------------


def eta_from_feature(
    w_sigma: SubexpWeight,
    w_tau: SubexpWeight,
    lat: TruncatedLattice,
    x,
) -> tuple[np.ndarray, float]:
    """Mode vector of the normalized feature point of x, in lattice order, plus its norm.

    Entry at lattice index j is lambda_sigma(j) e^{-i j.x} / (sqrt(lambda_tau(j))
    varpi^2), where varpi^2 = sum_j lambda_sigma(j) is the exact squared sup of
    the feature map norm (translation-invariant kernels have constant
    diagonal).  The division by varpi^2 places the point inside the series
    radius.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam_s = w_sigma.lattice_values(lat)
    lam_t = w_tau.lattice_values(lat)
    varpi2 = float(np.sum(lam_s))
    eta = lam_s / (np.sqrt(lam_t) * varpi2) * np.exp(-1j * (lat.indices @ x))
    return eta, float(np.linalg.norm(eta))


def grid_forecast(
    f: FourierObservable,
    sys: RotationSystem,
    params: SecondQuantizationParams,
    x,
    t: float,
    direct: bool = False,
) -> SecondQuantizationResult:
    """The grading-m forecast from G^d arrays: the pairing a_j = conj(eta_j)
    sqrt(lambda_tau(j)) c_j e^{i t j.alpha} over the d-dimensional lattice,
    k and f on the whole grid, and Re(sum_g f k^m / sum_g k^m).  The grid
    values come from ``grid_sum``, or with ``direct`` from the character
    matrix (k) and one exp per coefficient (f)."""
    d = sys.d
    J = params.bandwidth
    lat = TruncatedLattice(d, J)
    w_sigma = SubexpWeight(params.sigma, params.p, d)
    w_tau = SubexpWeight(params.tau, params.p, d)
    per_dim = von_mises_kernel_row(params.obs_concentration, J)
    c = np.ones(lat.size)
    for axis in range(d):
        c *= per_dim[lat.indices[:, axis] + J]
    mode_tail = 1.0 - float(np.sum(c))

    eta, eta_norm = eta_from_feature(w_sigma, w_tau, lat, x)
    a = (
        np.conj(eta)
        * np.sqrt(w_tau.lattice_values(lat))
        * c
        * np.exp(1j * t * (lat.indices @ sys.alpha))
    )

    g = params.grid_size
    if direct:
        k, values = character_pairing(a, J, d, g), direct_grid_values(f, g)
    else:
        indices = np.array(list(f.coeffs), dtype=int).reshape(-1, d)
        k = grid_sum(-lat.indices, a, g)
        values = grid_sum(indices, list(f.coeffs.values()), g)
    k_m = k**params.m
    num = np.sum(values * k_m) / g**d
    den = np.sum(k_m) / g**d
    if abs(den) < 1e-8:
        raise DegenerateNormalizationError(
            f"normalizing pairing {abs(den):.3e} below threshold 1e-8"
        )
    return SecondQuantizationResult(
        value=float((num / den).real),
        normalization=float(abs(den)),
        kernel_mode_tail=mode_tail,
        state_tail_norm=xi_tail_norm(eta_norm, params.weight),
    )


# --- spectral: the data-driven generator over the whole trajectory at once ------


def one_shot_data_driven_generator(
    samples: np.ndarray, dt: float, lat: TruncatedLattice
) -> GeneratorSpec:
    """The data-driven generator from n x modes arrays of the whole trajectory:
    the basis values, their central difference and the tapered conjugate."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    basis = np.exp(1j * (samples @ lat.indices.T))  # (n, lat.size)
    diff = (basis[2:] - basis[:-2]) / (2.0 * dt)
    w = _taper_weights(samples.shape[0] - 2)
    a = (basis[1:-1].conj() * w[:, None]).T @ diff
    a = 0.5 * (a - a.conj().T)
    zero = lat.position((0,) * lat.d)
    a[zero, :] = 0.0
    a[:, zero] = 0.0
    omega, vectors = np.linalg.eigh(-1j * a)
    order = _spectral_order(omega)
    return GeneratorSpec(lattice=lat, omega=omega[order], vectors=vectors[:, order], matrix=a)
