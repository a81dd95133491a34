"""Truncated weighted symmetric Fock space over generator eigenmodes.

Elements are finite combinations of occupation-number basis vectors: an
occupation assigns a count n_k >= 1 to finitely many modes, its grading is
n = sum n_k, and the squared norm of the basis vector is
w^2(n) * prod_k n_k! / n! for the grading weight w(n) = exp(sigma_w n^p_w).
The symmetric product adds occupations, the vacuum (empty occupation) is the
unit, and a diagonal generator lifts so each occupation picks up frequency
sum_k n_k omega_k.  Multiplicative functionals of the algebra are realized
by vectors xi = sum_n w^-2(n) eta^(vee n) built from a mode vector eta; with
eta = a * z for nonnegative amplitudes a and unimodular phases z these points
form tori on which the lifted evolution acts as a phase rotation.

Two forecast schemes are built on this structure.  The grading-m scheme
pairs the feature point of a state-space location against the lifted
evolution of an integral operator driven by smoothed kernel sections.  It is
computed in closed form, with no occupation enumeration: gradings are
orthogonal, <a^(vee m), b^(vee m)> = w^2(m) <a, b>^m, and the lift acts mode
by mode, so the Fock pairing of each section's m-th power is exactly the m-th
power of a scalar pairing.  The algebra's weight is a product over the
torus axes, and so are the feature point, the observation kernel and the
rotation phases: the pairing is a product of one-axis pairings and the
quadrature runs on d one-dimensional grids, never on the product grid.  The
tensor-power scheme is an expectation over the n-th power of an n-th root of
a von Mises density, paired with the Koopman-evolved observable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    _MAX_TERMS,
    TWO_PI,
    FourierObservable,
    RotationSystem,
    VonMisesDensity,
    _count,
    _finite_point,
    _phases,
    _real,
    _same_dimension,
    bessel_ratios,
    grid_sum,
    koopman_exact,
    von_mises_kernel_row,
)
from .errors import DegeneracyError, DegenerateNormalizationError, ValidationError

_LOG_TINY = math.log(5e-324)  # below this exp() rounds to 0.0
_LENTZ_TINY = 1e-300  # stands in for a zero denominator in the continued fraction
# Stirling-series coefficients B_2k / (2k (2k - 1)) of log Gamma(a), k = 1..4
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)


def _log_gamma_density(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)) for x > 0.

    For a >= 20 it is formed as 0.5 log(a / 2 pi) - a (t - log1p(t)) - s(a)
    with t = (x - a)/a and s the Stirling series of log Gamma(a), so the
    large terms a log x, x and log Gamma(a) never cancel in floating point;
    the four-term series is within 2e-15 there.
    """
    if a < 20.0:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a  # -1 once x/a is below the rounding of 1: the density is 0
    u = 1.0 / (a * a)
    series = (_STIRLING[0] + u * (_STIRLING[1] + u * (_STIRLING[2] + u * _STIRLING[3]))) / a
    log1p_t = math.log1p(t) if t > -1.0 else -math.inf
    return 0.5 * math.log(a / TWO_PI) - a * (t - log1p_t) - series


def _log_gammaincc(a: float, x: float) -> float:
    """log Q(a, x) for a >= 1, Q the regularized upper incomplete gamma Gamma(a, x)/Gamma(a).

    For x < a + 1, Q = 1 - P with the series P = x^a e^-x / Gamma(a) *
    sum_k x^k / (a (a+1) ... (a+k)); for x >= a + 1, Q = x^a e^-x /
    Gamma(a) times the continued fraction 1/(x+1-a - 1(1-a)/(x+3-a -
    2(2-a)/(x+5-a - ...))), the even part of A&S 6.5.31, by Lentz's method.
    The series branch loses digits to the subtraction 1 - P, most near the
    switch where P is largest; that is acceptable for a tail bound.  The log
    is finite wherever x is, also where Q itself underflows.  Near x = a
    either branch takes O(sqrt(a)) terms.
    """
    if x <= 0.0:
        return 0.0
    if x == math.inf:
        return -math.inf
    log_density = _log_gamma_density(a, x)
    if x < a + 1.0:
        term = total = 1.0 / a
        denom = a
        while term > 1e-17 * total:
            denom += 1.0
            term *= x / denom
            total += term
        return math.log1p(-math.exp(log_density + math.log(total)))
    b = x + 1.0 - a
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    fraction = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        c = b + an / c
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        fraction *= delta
        if abs(delta - 1.0) < 1e-15:
            return log_density + math.log(fraction)


@dataclass(frozen=True)
class FockWeight:
    """Grading weight w(n) = exp(sigma_w * n^p_w), with w(0) = 1."""

    sigma_w: float
    p_w: float
    nmax: int

    def __post_init__(self):
        _real("sigma_w", self.sigma_w, 0, strict=True)
        _real("p_w", self.p_w, 0, 1, strict=True)
        _count("nmax", self.nmax, 0, _MAX_TERMS)

    def value(self, n: int) -> float:
        return math.exp(self.sigma_w * float(n) ** self.p_w)

    def squared(self, n: int) -> float:
        return math.exp(2.0 * self.sigma_w * float(n) ** self.p_w)

    def inv_square_tail(self, n: float | None = None) -> float:
        """Upper bound for sum_{k > n} w^-2(k), by integral comparison.

        With c = 2 sigma_w, sum_{k>n} exp(-c k^p) <= int_n^inf exp(-c x^p) dx
        = Gamma(1/p) Q(1/p, c n^p) / (p c^(1/p)), evaluated in log space:
        Gamma(1/p) and c^(1/p) overflow for small p_w or huge sigma_w where
        the bound itself does not.
        """
        if n is None:
            n = self.nmax
        _real("tail start n", n, 0)  # a NaN n never ends _log_gammaincc's Lentz loop
        c = 2.0 * self.sigma_w
        a = 1.0 / self.p_w
        log_scale = math.lgamma(a) - math.log(self.p_w) - a * math.log(c)  # the bound at Q = 1
        if log_scale < _LOG_TINY:
            # Q <= 1, so the bound rounds to 0.0 whatever Q is; this also
            # spares the O(sqrt(a)) terms Q costs near x = a for tiny p_w
            return 0.0
        if log_scale < math.inf:  # neither inf nor NaN, as when 1/p_w overflows
            try:
                # log Q is -inf where c n^p overflows (Q == 0), and exp gives 0.0
                return math.exp(log_scale + _log_gammaincc(a, c * n**self.p_w))
            except OverflowError:
                pass
        raise DegeneracyError(
            f"Fock tail bound exceeds the float range at sigma_w={self.sigma_w}, p_w={self.p_w}"
        )


def occupation(counts) -> tuple:
    """Canonical occupation key: sorted tuple of (mode, count) with count >= 1."""
    items = tuple(sorted((m, int(c)) for m, c in counts if c))
    for _, c in items:
        _count("occupation count", c, 1)
    return items


def grading(occ: tuple) -> int:
    return sum(c for _, c in occ)


def _norm_factor(occ: tuple, weight: FockWeight) -> float:
    """Squared norm of the occupation basis vector: w^2(n) prod n_k! / n!."""
    n = grading(occ)
    fac = 1.0
    for _, c in occ:
        fac *= math.factorial(c)
    return weight.squared(n) * fac / math.factorial(n)


VACUUM: tuple = ()


class FockVector:
    """Finite combination of occupation basis vectors, amplitudes by key.

    ``truncated_mass`` records the norm of any terms dropped by a grading
    cutoff in the operation that produced this vector (0.0 when nothing was
    dropped).
    """

    __slots__ = ("terms", "truncated_mass")

    def __init__(self, terms: dict | None = None, truncated_mass: float = 0.0):
        self.terms = dict(terms) if terms else {}
        self.truncated_mass = truncated_mass

    @classmethod
    def vacuum(cls, amplitude: complex = 1.0) -> "FockVector":
        return cls({VACUUM: complex(amplitude)})

    @classmethod
    def mode(cls, label, amplitude: complex = 1.0) -> "FockVector":
        return cls({((label, 1),): complex(amplitude)})

    @classmethod
    def from_modes(cls, amplitudes: dict) -> "FockVector":
        """Grading-1 vector sum_k amplitudes[k] * zeta_k."""
        return cls({((m, 1),): complex(a) for m, a in amplitudes.items() if a != 0})

    def scaled(self, factor: complex) -> "FockVector":
        return FockVector({occ: factor * a for occ, a in self.terms.items()})

    def plus(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for occ, a in other.terms.items():
            out[occ] = out.get(occ, 0.0) + a
        return FockVector(out)

    def norm(self, weight: FockWeight) -> float:
        return math.sqrt(
            sum(abs(a) ** 2 * _norm_factor(occ, weight) for occ, a in self.terms.items())
        )


def fock_inner(u: FockVector, v: FockVector, weight: FockWeight) -> complex:
    """Grading-orthogonal inner product via the closed occupation formula."""
    total = 0.0 + 0.0j
    small, large = (u.terms, v.terms) if len(u.terms) <= len(v.terms) else (v.terms, u.terms)
    flip = small is v.terms
    for occ, a in small.items():
        b = large.get(occ)
        if b is None:
            continue
        pair = (b.conjugate() * a) if flip else (a.conjugate() * b)
        total += pair * _norm_factor(occ, weight)
    return total


def _merge_occupations(occ_a: tuple, occ_b: tuple) -> tuple:
    counts = dict(occ_a)
    for m, c in occ_b:
        counts[m] = counts.get(m, 0) + c
    return tuple(sorted(counts.items()))


def sym_product(
    u: FockVector,
    v: FockVector,
    weight: FockWeight | None = None,
    nmax: int | None = None,
) -> FockVector:
    """Symmetric product: occupations add, amplitudes multiply, bilinear.

    The vacuum is the unit and the product is commutative and associative.
    With ``nmax`` set, terms whose grading exceeds the cutoff are dropped and
    their norm is reported on the result (``weight`` is then required).
    """
    if nmax is not None and weight is None:
        raise ValidationError("a grading cutoff needs the weight to report dropped mass")
    out: dict = {}
    dropped: dict = {}
    for occ_a, a in u.terms.items():
        for occ_b, b in v.terms.items():
            occ = _merge_occupations(occ_a, occ_b)
            target = out if nmax is None or grading(occ) <= nmax else dropped
            target[occ] = target.get(occ, 0.0) + a * b
    result = FockVector(out)
    if dropped:
        result.truncated_mass = FockVector(dropped).norm(weight)
    return result


def vector_power(amplitudes: dict, n: int) -> FockVector:
    """n-th symmetric power of a grading-1 vector with the given mode amplitudes.

    (sum_k eta_k zeta_k)^(vee n) expands over occupations A of grading n with
    multinomial coefficients n!/prod A_k! times prod eta_k^A_k.
    """
    _count("n", n, 0, _MAX_TERMS)
    if n == 0:
        return FockVector.vacuum()
    modes = sorted(m for m, a in amplitudes.items() if a != 0)
    fact_n = math.factorial(n)
    terms = {}
    for combo in itertools.combinations_with_replacement(modes, n):
        occ = []
        coeff = 1.0 + 0.0j
        denom = 1
        for m, group in itertools.groupby(combo):
            c = len(list(group))
            occ.append((m, c))
            coeff *= amplitudes[m] ** c
            denom *= math.factorial(c)
        terms[tuple(occ)] = (fact_n // denom) * coeff
    return FockVector(terms)


def occupation_frequency(occ: tuple, freqs: dict) -> float:
    return sum(c * freqs[m] for m, c in occ)


def apply_lifted_generator(freqs: dict, v: FockVector) -> FockVector:
    """Diagonal lift of a generator: occupation A scales by i sum_k A_k omega_k.

    The lift satisfies the derivation rule over the symmetric product because
    occupation frequencies add when occupations merge.
    """
    return FockVector(
        {
            occ: 1j * occupation_frequency(occ, freqs) * a
            for occ, a in v.terms.items()
            if occ != VACUUM
        }
    )


def evolve_lifted(freqs: dict, v: FockVector, t: float) -> FockVector:
    """Unitary lifted evolution: phase exp(i t sum_k A_k omega_k) per occupation."""
    phases = _phases(t, [occupation_frequency(occ, freqs) for occ in v.terms]).tolist()
    return FockVector(
        {occ: complex(np.exp(1j * p)) * a for (occ, a), p in zip(v.terms.items(), phases)}
    )


@dataclass(frozen=True)
class SpectrumTorusPoint:
    """Point a, z of a phase torus in the algebra's multiplicative spectrum.

    ``modes`` lists the mode labels, position 0 carrying the constant mode.
    Amplitudes are nonnegative with l2 norm at most 1 (the series radius for
    these weights) and phases are unimodular; the constant mode carries no
    phase.  The associated functional pairs vectors against
    xi = sum_n w^-2(n) eta^(vee n) with eta_k = a_k z_k.
    """

    modes: tuple
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        a = _finite_point(self.amplitudes, len(self.modes), "amplitudes")
        z = np.asarray(self.phases, dtype=complex)
        if a.shape != z.shape:
            raise ValidationError("modes, amplitudes, and phases must align")
        if np.any(a < 0):
            raise ValidationError("amplitudes must be nonnegative")
        if np.linalg.norm(a) > 1.0 + 1e-12:
            raise ValidationError("amplitude vector exceeds the series radius 1")
        if not np.all(np.abs(np.abs(z) - 1.0) <= 1e-12):  # a NaN phase fails too
            raise ValidationError("phases must be unimodular")
        if abs(z[0] - 1.0) > 1e-12:
            raise ValidationError("the constant mode carries no phase")
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "phases", z)

    def eta(self) -> dict:
        return {
            m: complex(self.amplitudes[k] * self.phases[k])
            for k, m in enumerate(self.modes)
            if self.amplitudes[k] != 0.0
        }


def rotate_phase_point(
    pt: SpectrumTorusPoint, freqs: dict, t: float
) -> SpectrumTorusPoint:
    """Rotate the torus point: z_k -> exp(-i omega_k t) z_k, amplitudes fixed.

    This is the spectrum-side image of the lifted evolution: pairing the
    rotated point against a vector equals pairing the original point against
    the evolved vector.
    """
    omegas = _phases(t, [freqs[m] for m in pt.modes])
    return SpectrumTorusPoint(pt.modes, pt.amplitudes, np.exp(-1j * omegas) * pt.phases)


def xi_vector(eta: dict, weight: FockWeight, nmax: int | None = None) -> FockVector:
    """Truncated multiplicative-functional vector sum_{n<=nmax} w^-2(n) eta^(vee n)."""
    if nmax is None:
        nmax = weight.nmax
    _count("nmax", nmax, 0, _MAX_TERMS)
    out = FockVector.vacuum()  # w^-2(0) = 1
    for n in range(1, nmax + 1):
        out = out.plus(vector_power(eta, n).scaled(1.0 / weight.squared(n)))
    return out


def xi_tail_norm(eta_norm: float, weight: FockWeight, nmax: int | None = None) -> float:
    """Norm bound for the discarded tail of the xi series beyond the cutoff.

    The grading-n term has norm w^-1(n) ||eta||^n, so the squared tail is at
    most ||eta||^(2(nmax+1)) sum_{n>nmax} w^-2(n) for ||eta|| <= 1.
    """
    if nmax is None:
        nmax = weight.nmax
    _count("nmax", nmax, 0, _MAX_TERMS)
    _real("eta norm", eta_norm, 0, 1.0 + 1e-12)  # the series radius 1
    return float(min(eta_norm, 1.0) ** (nmax + 1) * math.sqrt(weight.inv_square_tail(nmax)))


@dataclass(frozen=True)
class SecondQuantizationParams:
    """Knobs of the grading-m kernel-section forecast.

    ``m`` is the tensor grading, which enters the closed form as the power
    k^m of the scalar section pairing (exact by grading orthogonality and
    the multiplicative lift, so no occupations are enumerated);
    ``sigma``/``tau`` the feature/section smoothing parameters
    (tau <= sigma/2; tau cancels from the value and sets only the state
    tail); ``obs_concentration`` the concentration of the
    strictly positive observation kernel exp(c (cos(x-y) - 1)); the grid
    drives the quadrature of the integral operator.  ``weight`` fixes the
    cutoff of the reported xi-series tail; the forecast itself does not
    depend on it.
    """

    m: int = 1
    sigma: float = 0.4
    tau: float = 0.2
    p: float = 0.5
    bandwidth: int = 16
    grid_size: int = 256
    obs_concentration: float = 4.0
    weight: FockWeight = field(default_factory=lambda: FockWeight(3.0, 0.5, 6))

    def __post_init__(self):
        _count("m", self.m, 1, self.weight.nmax)  # the grading cutoff covers m
        if not (0.0 < self.tau <= self.sigma / 2.0):
            raise ValidationError("need 0 < tau <= sigma/2")
        _count("bandwidth", self.bandwidth, 0)
        _count("grid_size", self.grid_size, 2 * self.bandwidth + 2)  # resolves the lattice
        _real("p", self.p, 0, 1, strict=True)
        _real("obs_concentration", self.obs_concentration, 0, strict=True)


@dataclass
class SecondQuantizationResult:
    value: float
    normalization: float
    kernel_mode_tail: float
    state_tail_norm: float


def second_quantization_forecast(
    f: FourierObservable,
    sys: RotationSystem,
    params: SecondQuantizationParams,
    x,
    t: float,
) -> SecondQuantizationResult:
    """Normalized grading-m forecast of f at time t, evaluated at x.

    In the Fock picture the quadrature images (1/G^d) sum_g f(y_g)
    kappa_tau(., y_g)^(vee m) of f and of the constant 1, where the smoothed
    section kappa_tau(., y) has mode coefficients sqrt(lambda_tau(j)) c_j
    e^{-i j.y}, evolve under the lifted rotation and are paired against the
    feature point xi of x, whose mode vector is eta_j = lambda_sigma(j)
    e^{-i j.x} / (sqrt(lambda_tau(j)) varpi^2) with varpi^2 = sum_j
    lambda_sigma(j); the forecast is the real part of their ratio.  Grading
    orthogonality leaves only w^-2(m) eta^(vee m) of xi in the pairing,
    <a^(vee m), b^(vee m)> = w^2(m) <a, b>^m cancels that weight, and the
    lift multiplies mode j by e^{i t j.alpha}.  So each grid point
    contributes exactly k(y_g)^m, with the scalar pairing

        k(y) = sum_j a_j e^{-i j.y},
        a_j = conj(eta_j) sqrt(lambda_tau(j)) c_j e^{i t j.alpha}
            = lambda_sigma(j) c_j e^{i j.(x + t alpha)} / varpi^2,

    and the forecast is Re(sum_g f(y_g) k(y_g)^m / sum_g k(y_g)^m) with
    normalization |sum_g k(y_g)^m| / G^d.  tau cancels from a_j, so it
    only sets the state tail.  Every factor of a_j is a product over the
    axes (the weights, the observation kernel's ``von_mises_kernel_row``,
    the phases), so a_j = prod_i a_i(j_i) and k(y) = prod_i k_i(y_i).  With
    K_i the length-G inverse DFT of k_i^m on the axis grid, aliasing
    included, (1/G^d) sum_g e^{i j.y_g} k(y_g)^m = prod_i K_i(j_i mod G):
    the numerator is sum_j f_j prod_i K_i(j_i mod G) over the support of f
    and the normalizing sum is prod_i K_i(0).  Nothing of size G^d is
    formed; each axis costs two length-G FFTs.  The state tail is the norm
    of the xi series beyond the configured cutoff, with ||eta|| the d-th
    power of its one-axis value; the kernel mode tail is the
    observation-kernel mass outside the lattice.
    """
    d = sys.d
    _same_dimension(observable=f.d, system=d)
    x = _finite_point(x, d)
    shift = _phases(t, sys.alpha)  # t alpha
    J, g = params.bandwidth, params.grid_size
    j = np.arange(-J, J + 1)
    power = np.abs(j) ** params.p
    # eta2 is sum_j |eta_j|^2 on one axis, lambda_sigma^2 / lambda_tau in one exp; a
    # sigma or 2 sigma - tau that overflows gives inf * 0 = NaN at j = 0, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        lam_sigma = np.exp(-params.sigma * power)
        eta2 = float(np.sum(np.exp(-(2.0 * params.sigma - params.tau) * power)))
    varpi2 = float(np.sum(lam_sigma))  # one axis: varpi^2 is its d-th power
    c = von_mises_kernel_row(params.obs_concentration, J)
    a = (lam_sigma * c / varpi2) * np.exp(1j * np.outer(x + shift, j))  # row i: a_i
    if not (np.all(np.isfinite(a)) and math.isfinite(eta2)):
        raise DegeneracyError(f"the section pairing is not finite at sigma={params.sigma!r}")
    k_pow = np.fft.ifft(grid_sum(-j[:, None], a, g) ** params.m, axis=-1)  # row i: K_i

    idx = np.array(list(f.coeffs), dtype=int).reshape(-1, d) % g
    num = np.dot(np.prod(k_pow[np.arange(d), idx], axis=1), list(f.coeffs.values()))
    den = np.prod(k_pow[:, 0])
    if abs(den) < 1e-8:
        raise DegenerateNormalizationError(
            f"normalizing pairing {abs(den):.3e} below threshold 1e-8"
        )
    return SecondQuantizationResult(
        value=float((num / den).real),
        normalization=float(abs(den)),
        kernel_mode_tail=1.0 - float(np.sum(c)) ** d,
        state_tail_norm=xi_tail_norm((math.sqrt(eta2) / varpi2) ** d, params.weight),
    )


@dataclass(frozen=True)
class TensorNetworkParams:
    """Knobs of the tensor-power expectation.

    ``n`` is the number of tensor factors (each an n-th root of the state
    density); ``bandwidth`` truncates each factor.  The smoothing sandwich
    of the observable needs no parameter: for the diagonal rotation
    generator its multipliers cancel exactly against the basis weights.
    """

    n: int = 1
    bandwidth: int = 16

    def __post_init__(self):
        _count("n", self.n, 1, 3)
        _count("bandwidth", self.bandwidth, 1)


@dataclass
class TensorNetworkResult:
    value: float
    truncation_bound: float


def tensor_network_expectation(
    f: FourierObservable,
    state: VonMisesDensity,
    sys: RotationSystem,
    params: TensorNetworkParams,
    t: float,
) -> TensorNetworkResult:
    """Normalized tensor-power forecast E[A_f] / E[A_1] at time t.

    Each of the n state factors is the analytic n-th root of the von Mises
    density (same family, concentration kappa/n) truncated to |j_i| <= J: the
    outer product over dimensions of the rows r_i(j) e^{-i j mu_i}, r_i(j) =
    I_|j|(kappa_i/n)/I_0(kappa_i/n).  The sandwich is the quadratic form
    int f |p|^2 dmu / int |p|^2 dmu in the coefficients of their product p,
    and evolving the state is the same as pairing the root-power density
    with U^t f: num = sum_k (U^t f)_k sum_j conj(p_j) p_{j-k}, den = |p|^2.
    p is the outer product of the rows q_i(j) e^{-i j mu_i}, q_i the n-th
    convolution power of r_i, so the inner sum is the product over i of
    e^{i k_i mu_i} sum_j q_i(j) q_i(j - k_i): one shifted dot product per
    dimension, zero once some |k_i| reaches the length 2nJ + 1 of q_i.  The
    reported truncation bound, finite and at most ||f||_l1 + |value|,
    dominates the difference from the untruncated-factor value, which is the
    same for every n; the n=2 vs n=1 discrepancy is bounded by the sum of
    their bounds.
    """
    d = state.d
    _same_dimension(observable=f.d, state=d, system=sys.d)
    _real("time", t)
    J, n = params.bandwidth, params.n
    root = state.nth_root(n)
    # one Miller run per dimension: the factor's row and its tail beyond J
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

    # factor truncation bound: coefficient tail of the root density beyond J
    tail = 2.0 * float(np.sum(ratios[:, J + 1 :]))
    u_l1 = float(np.sum(functools.reduce(np.multiply.outer, rows)))  # sum_j |u_j|
    f_l1 = sum(abs(c) for c in f.coeffs.values())
    sup_diff = n * (u_l1 + tail) ** (n - 1) * tail
    slack = (2.0 * math.sqrt(den) + sup_diff) * sup_diff
    value = float(num.real / den)
    guard = den - slack
    # both values average f under nonnegative weights, so neither exceeds
    # sup|f| <= f_l1 and their distance never exceeds f_l1 + |value|
    trivial = f_l1 + abs(value)
    bound = min(trivial * slack / guard, trivial) if guard > 0 else trivial
    return TensorNetworkResult(value=value, truncation_bound=bound)
