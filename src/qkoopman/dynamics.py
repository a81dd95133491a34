"""Measure-preserving model systems and band-limited observables.

Two exactly tractable system families are provided: ergodic rotations on the
d-torus (continuous time, pure point spectrum) and cyclic shifts on a finite
periodic orbit (discrete time, exact finite-dimensional Koopman matrix).
Observables on the torus are finite Fourier sums; their exact Koopman
evolution multiplies each coefficient by a phase and serves as the oracle
against which every approximation in the package is checked.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ValidationError

TWO_PI = 2.0 * math.pi

# Defined here, where the command line reads them without loading the
# modules that use them: qmda's observation kinds, and qcirc's statevector
# cap (2^20 complex amplitudes take 16 MiB).
GAUSSIAN = "gaussian"
VON_MISES = "vonmises"
EVENT = "event"
MAX_STATEVECTOR_QUBITS = 20
# Largest grading, series cutoff (nmax, jmax, bandwidth), shot count,
# trajectory length, lattice dimension or lattice box accepted: each takes a
# float per term, 8 MB at the cap; tests and demos use at most 200,000.
_MAX_TERMS = 10**6
# Largest side n of a dense n x n array a library call builds, checked by
# the function that allocates it: the orbit's Koopman matrix (M), an
# embedded density and a point multiplier (point count), a projected orbit
# effect's real form (rank), the torus filter's T0 (2J+1), a Fourier
# multiplier matrix (lattice size) and a Gram matrix (point count).  2048^2
# complex entries take 64 MiB; the command line's MAX_LATTICE_MODES is 2048.
_MAX_DENSE_SIDE = 2048
# Largest number of values a run keeps or a design accumulates: a filter's
# trace (steps times the state's length, qmda) and the command line's
# data-driven samples times modes.  9 modes at 10^6 samples is the
# data-driven lattice of d = 2; 144 MB of complex values at the cap.
_MAX_STORED = 9 * 10**6


def wrap_angles(theta) -> np.ndarray:
    """Canonical torus representative with every angle in [0, 2*pi)."""
    out = np.atleast_1d(np.asarray(theta, dtype=float)) % TWO_PI
    # x % TWO_PI can round up to TWO_PI for tiny negative x; fold it back.
    out[out >= TWO_PI] = 0.0
    return out


@dataclass(frozen=True)
class RotationSystem:
    """Rotation flow theta -> theta + t*alpha (mod 2*pi) on the d-torus."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = _finite_point(self.alpha, np.size(self.alpha), "alpha")
        if alpha.size < 1 or np.any(alpha == 0.0):
            raise ValidationError("alpha must be a nonempty vector of nonzero frequencies")
        object.__setattr__(self, "alpha", alpha)

    @property
    def d(self) -> int:
        return self.alpha.size


# The library's argument rules, one function each; every entry point that
# applies a rule calls it once, before any work, and its ValidationError
# names the argument.  One rule is checked where its numbers are formed:
# ``_phase_check`` refuses a phase of ``_MAX_PHASE`` rad or more, a t * omega
# (``_phases``) or a j.x, with a DegeneracyError naming the time or the point.


def _floats(name: str, value, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``, float or complex.

    A number past the float range is refused naming ``name``.
    """
    try:
        return np.asarray(value, dtype=dtype)
    except OverflowError:  # a Python int too large for a double
        raise ValidationError(f"{name} must be finite, got a number past the float range") from None


def _finite_point(x, d: int, name: str = "point") -> np.ndarray:
    """``x`` as a vector of d finite floats; ValidationError naming ``name`` otherwise."""
    x = np.atleast_1d(_floats(name, x))
    if x.shape != (d,):
        raise ValidationError(f"{name} of shape {x.shape} does not match the dimension {d}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} must be finite, got {x}")
    return x


def _count(name: str, value, lo: float, hi: float = math.inf) -> None:
    """ValidationError unless ``value`` is an integer in [lo, hi].

    An integer is a ``numbers.Integral`` (NumPy integers included) other
    than a bool.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ValidationError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def _lattice_modes(d: int, J: int) -> None:
    """ValidationError unless the box |j_i| <= J in Z^d has at most ``_MAX_TERMS`` modes.

    The box has (2J+1)^d modes; the exponent stops at 20, since 3^20 is
    already past the cap, so a huge d costs nothing.
    """
    if (2 * J + 1) ** min(d, 20) > _MAX_TERMS:
        raise ValidationError(f"lattice d={d}, J={J} has more than {_MAX_TERMS} modes")


def _same_dimension(**dims: int) -> None:
    """ValidationError unless every keyword names the same dimension."""
    if len(set(dims.values())) > 1:
        named = ", ".join(f"{name} {d}" for name, d in dims.items())
        raise ValidationError(f"dimensions differ: {named}")


def _real(name: str, value, lo: float = -math.inf, hi: float = math.inf, strict=False) -> None:
    """ValidationError unless ``value``, a number or an array of them, is finite and in [lo, hi].

    With ``strict`` the interval is (lo, hi).  One float is checked without
    numpy, as the filters check an observation each step.  The error names
    the first value refused; one above a finite closed ``hi`` is reported
    against that cap.
    """
    if isinstance(value, float) and math.isfinite(value) and (
            lo < value < hi if strict else lo <= value <= hi):
        return
    x = _floats(name, value)
    ok = np.isfinite(x) & ((x > lo) & (x < hi) if strict else (x >= lo) & (x <= hi))
    if ok.all():
        return
    bad = float(x[~ok][0])
    if not strict and hi < bad < math.inf:
        raise ValidationError(f"{name} {bad!r} is above the cap of {hi:g}")
    interval = f"({lo:g}, {hi:g})" if strict else f"[{lo:g}, {hi:g}]"
    raise ValidationError(f"{name} must be finite and in {interval}, got {bad!r}")


def _integer_key(j) -> tuple | None:
    """j (a scalar or a sequence) as a tuple of ints, or None unless every entry is integral."""
    try:
        values = (j,) if np.isscalar(j) else tuple(j)
    except TypeError:  # neither a scalar nor a sequence
        return None
    if all(isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v) for v in values):
        return tuple(int(v) for v in values)
    return None


# One ulp of a phase this large is a whole radian: the phase keeps no digit.
_MAX_PHASE = 2.0**52


def _phase_check(form, name: str, value):
    """The phases ``form()`` returns, real or complex, each below ``_MAX_PHASE`` rad.

    A larger or NaN phase raises a DegeneracyError naming ``name`` and
    ``value``, the time or the point the phases are formed from; a
    ``value`` that is a table of points, a row per row of phases, is named
    by its first point with such a phase.  ``form`` runs with overflow
    ignored, since a phase past the float range is refused with the rest,
    and callers use the phases returned, so the check and the arithmetic
    are one.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN for d >= 2
        phases = form()
    ok = np.abs(phases) < _MAX_PHASE
    if ok.all():
        return phases
    arg = np.asarray(value if np.ndim(value) < 2 else value[np.argmin(ok.all(axis=1))]).tolist()
    raise DegeneracyError(f"{name}={arg!r} takes a phase of 2**52 rad or more: it keeps no digit")


def _phases(t: float, freqs, name: str = "time") -> np.ndarray:
    """The phases t * freqs for a finite ``t`` (checked by ``_real``).

    A phase of 2**52 rad or more, or one past the float range, raises a
    DegeneracyError naming ``t`` (``_phase_check``).
    """
    _real(name, t)
    return _phase_check(lambda: t * np.asarray(freqs), f"{name} t", t)


def flow(sys: RotationSystem, theta, t: float) -> np.ndarray:
    """Advance a torus point by time t: (theta + t*alpha) mod 2*pi.

    A single fused mod is applied after the arithmetic so repeated calls
    are bitwise reproducible.  A t*alpha of 2**52 rad or more raises a
    DegeneracyError naming t (``_phases``).
    """
    theta = _finite_point(theta, sys.d)
    return wrap_angles(theta + _phases(t, sys.alpha))


def _wrap_angle(x: float) -> float:
    """One float angle in [0, 2*pi), bitwise the entry ``wrap_angles`` gives.

    Python's float % is the IEEE double operation np.remainder performs,
    and the fold is the one in ``wrap_angles``.
    """
    x %= TWO_PI
    return 0.0 if x >= TWO_PI else x


# TWO_PI's leading 24 bits and the rest (Cody-Waite): q * _TURN_HI is exact
# for |q| < 2**29 and q * _TURN_LO, of at most 29 bits, for |q| < 2**24
_TURN_HI = math.floor(TWO_PI * 2.0**21) / 2.0**21
_TURN_LO = TWO_PI - _TURN_HI


def _rotation_orbit(x: float, step: float, n: int) -> np.ndarray:
    """x and the n - 1 angles (x + k step) mod 2*pi, k = 1..n-1, in closed form.

    The step is reduced exactly (``math.fmod``) and split into hi + lo,
    hi of 26 bits (Veltkamp), so k hi is exact for k < 2**27.  Its whole
    turns q = rint(k hi / 2 pi) leave k hi - q ``_TURN_HI`` exactly, a
    number in (-4, 4); -q ``_TURN_LO`` + k lo, x wrapped and one fold into
    [0, 2*pi) follow.  For k <= ``_MAX_TERMS`` every angle after x lies in
    [0, 2*pi) and within 2e-15 rad of (x + k step) mod 2*pi taken exactly
    on these floats (1.1e-15 measured), where the recurrence x <- (x +
    step) mod 2*pi drifts by a rounding a step.
    """
    step = math.fmod(step, TWO_PI)
    split = step * 134217729.0  # 2**27 + 1
    hi = split - (split - step)
    k = np.arange(n, dtype=float)
    out = k * hi
    turns = np.rint(out / TWO_PI)
    out -= turns * _TURN_HI
    k *= step - hi
    turns *= _TURN_LO
    k -= turns
    out += k
    out += _wrap_angle(x)
    np.add(out, TWO_PI, out=out, where=out < 0.0)
    np.subtract(out, TWO_PI, out=out, where=out >= TWO_PI)  # also a sum rounded up to 2 pi
    out[:1] = x
    return out


def _characters(theta, J: int) -> np.ndarray:
    """e^{ij theta} for j = -J..J on a new last axis, from one exp per angle.

    The characters multiply, e^{ij theta} = (e^{i theta})^j: j > 0 is a
    cumulative product, j < 0 its exact conjugate, j = 0 exactly 1.  Entry j
    is within 4 |j| eps of exp(1j * j * theta) for theta in [0, 2*pi) (2.3
    |j| eps measured), about the rounding that j * theta itself carries.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape + (2 * J + 1,), dtype=complex)
    out[..., J] = 1.0
    if J:
        up = out[..., J + 1 :]
        up[...] = np.exp(1j * theta)[..., None]
        np.multiply.accumulate(up, axis=-1, out=up)
        np.conjugate(up[..., ::-1], out=out[..., :J])
    return out


def sample_trajectory(sys: RotationSystem, x0, dt: float, n: int) -> np.ndarray:
    """Return the n points x0, Phi^dt(x0), ..., Phi^((n-1)dt)(x0).

    Each coordinate is one ``_rotation_orbit`` call: row k holds (x0_i + k
    dt alpha_i) mod 2*pi from the wrapped x0, in closed form, so no row
    inherits the rounding of the rows before it, as repeated ``flow`` calls
    would.
    """
    _count("n", n, 1, _MAX_TERMS)
    _real("dt", dt, 0, strict=True)
    start = wrap_angles(_finite_point(x0, sys.d))
    out = np.empty((n, sys.d))
    for i, step in enumerate(_phases(dt, sys.alpha, "dt")):
        out[:, i] = _rotation_orbit(float(start[i]), float(step), n)
    return out


def rational_dependence_warnings(alpha):
    """Frequency-ratio pairs suspiciously close to a small rational.

    Rational independence cannot be certified in floating point; this scan
    flags every pair (i, k) whose ratio alpha_i/alpha_k lies within 1e-9 of
    a rational with denominator <= 100.  Returns a list of (i, k, Fraction)
    triples; an empty list means nothing was flagged.
    """
    alpha = _finite_point(alpha, np.size(alpha), "alpha")
    flagged = []
    if alpha.size < 2:  # no pair, and no import of fractions (and decimal) to scan none
        return flagged
    from fractions import Fraction

    for i in range(alpha.size):
        for k in range(i + 1, alpha.size):
            ratio = alpha[i] / alpha[k]
            best = Fraction(ratio).limit_denominator(100)
            if abs(ratio - float(best)) <= 1e-9:
                flagged.append((i, k, best))
    return flagged


@dataclass(frozen=True)
class PeriodicOrbitSystem:
    """Cyclic shift i -> i+1 (mod M) on M states with uniform measure."""

    M: int

    def __post_init__(self):
        _count("M", self.M, 1)

    @property
    def mu(self) -> np.ndarray:
        return np.full(self.M, 1.0 / self.M)

    def step(self, i: int) -> int:
        return (i + 1) % self.M

    def koopman_matrix(self) -> np.ndarray:
        """Permutation matrix of f -> f o Phi in the orthonormal point basis.

        Dense M x M, so an M above ``_MAX_DENSE_SIDE`` is refused.
        """
        _count("M", self.M, 1, _MAX_DENSE_SIDE)
        u = np.zeros((self.M, self.M))
        u[np.arange(self.M), (np.arange(self.M) + 1) % self.M] = 1.0
        return u

    def transfer_matrix(self) -> np.ndarray:
        """Adjoint (= inverse) of the Koopman matrix; pushes densities forward."""
        return self.koopman_matrix().T


class FourierObservable:
    """Band-limited function on the d-torus, stored as multi-index -> coefficient.

    The represented function is f(theta) = sum_j c_j exp(i j.theta).  A real
    valued function requires c_{-j} = conj(c_j) for every stored index.
    Every coefficient is finite.  An index is an integer or a sequence of
    integers (integral floats included, as ``_integer_key`` reads it); a
    non-integral index, or two keys naming one index, such as ``2`` and
    ``(2,)``, is refused.
    """

    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs: dict, d: int | None = None):
        items = {}
        for j, c in coeffs.items():
            key = _integer_key(j)
            if key is None:
                raise ValidationError(f"index {j!r} must be an integer or a tuple of integers")
            if key in items:
                raise ValidationError(f"index {j!r} repeats the index {key}")
            items[key] = c
        values = _floats("coefficients", list(items.values()), complex)
        _finite_point(values.view(float), 2 * len(items), "coefficients")
        items = dict(zip(items, values.tolist()))
        if d is None:
            if not items:
                raise ValidationError("dimension required for an empty observable")
            d = len(next(iter(items)))
        for key in items:
            if len(key) != d:
                raise ValidationError(f"index {key} does not have dimension {d}")
        self.coeffs = items
        self.d = d

    @classmethod
    def constant(cls, value: complex, d: int = 1) -> "FourierObservable":
        return cls({(0,) * d: value}, d=d)

    @classmethod
    def harmonic(cls, j) -> "FourierObservable":
        """exp(i j.theta); ``j`` is an integer or a sequence of them."""
        return cls({j if np.isscalar(j) else tuple(j): 1.0})

    @property
    def bandwidth(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(v) for v in j) for j in self.coeffs)

    def evaluate(self, theta) -> complex:
        theta = _finite_point(theta, self.d)
        phases = _phase_check(lambda: [float(theta.dot(j)) for j in self.coeffs], "point x", theta)
        return sum((c * np.exp(1j * p) for c, p in zip(self.coeffs.values(), phases)), 0.0 + 0.0j)

    def conjugate(self) -> "FourierObservable":
        return FourierObservable(
            {tuple(-v for v in j): c.conjugate() for j, c in self.coeffs.items()},
            d=self.d,
        )

    def is_real(self) -> bool:
        """Whether every c_{-j} is within 1e-12 of conj(c_j)."""
        for j, c in self.coeffs.items():
            mirror = self.coeffs.get(tuple(-v for v in j), 0.0)
            if abs(mirror - c.conjugate()) > 1e-12:
                return False
        return True

    def plus(self, other: "FourierObservable") -> "FourierObservable":
        _same_dimension(observable=self.d, other=other.d)
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, 0.0) + c
        return FourierObservable(out, d=self.d)

    def l2_norm(self) -> float:
        """Norm of the coefficient vector (= L2(mu) norm of the function)."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))


def grid_sum(indices, coeffs, grid_size: int) -> np.ndarray:
    """sum_j c_j exp(i j.y) at every point y = 2*pi*k/G of the uniform d-grid.

    On the grid exp(i j.y) depends on j only through j mod G, so placing
    every coefficient at j mod G (repeats add up: the aliasing is exact) and
    taking the unscaled inverse DFT gives the sum, in O(G^d log G) for any
    support.  ``indices`` is an (n, d) table of integral values, and
    ``coeffs`` holds its n coefficients on the last axis; leading axes of
    ``coeffs`` are a batch of sums, each placed and transformed on its own.
    The result has shape coeffs.shape[:-1] + (G,) * d.  A non-finite
    coefficient, an index table of another shape or with a non-integral
    entry, or a grid of more than ``_MAX_TERMS`` points G^d (the exponent
    stops at 20, as in ``_lattice_modes``) is refused, once per call.
    """
    _count("grid_size", grid_size, 1)
    coeffs = _floats("coefficients", coeffs, complex)
    _finite_point(np.ravel(coeffs).view(float), 2 * coeffs.size, "coefficients")
    try:
        indices = np.asarray(indices)
    except ValueError:  # a ragged list
        raise ValidationError(f"indices must be a table of integers, a row per coefficient of "
                              f"shape {coeffs.shape}, not rows of unequal length") from None
    if indices.dtype.kind == "f" and np.all((abs(indices) < 2.0**63)
                                            & (indices == np.floor(indices))):
        indices = indices.astype(int)
    if indices.dtype.kind not in "iu" or indices.ndim != 2 or indices.shape[:1] != coeffs.shape[-1:]:
        raise ValidationError(f"indices of shape {indices.shape} ({indices.dtype}) must be a table "
                              f"of integers, a row per coefficient of shape {coeffs.shape}")
    d = indices.shape[1]
    if grid_size ** min(d, 20) > _MAX_TERMS:
        raise ValidationError(f"grid d={d}, grid_size={grid_size} has more than {_MAX_TERMS} "
                              f"points")
    box = np.zeros(coeffs.shape[:-1] + (grid_size,) * d, dtype=complex)
    np.add.at(box, (Ellipsis,) + tuple((indices % grid_size).T), coeffs)
    return np.fft.ifftn(box, axes=tuple(range(-d, 0)), norm="forward")


def koopman_exact(f: FourierObservable, sys: RotationSystem, t: float) -> FourierObservable:
    """Exact Koopman image U^t f = f o Phi^t: c_j -> exp(i t j.alpha) c_j.

    This is the oracle every forecast in the package is compared against.
    """
    _same_dimension(observable=f.d, system=sys.d)
    phases = _phases(t, [float(np.dot(j, sys.alpha)) for j in f.coeffs]).tolist()
    return FourierObservable(
        {j: c * complex(np.exp(1j * p)) for (j, c), p in zip(f.coeffs.items(), phases)}, d=f.d
    )


def _i0e(kappa: float) -> float:
    """Exponentially scaled modified Bessel function I_0(kappa) e^-|kappa|.

    For |kappa| <= 25 the power series sum_k ((kappa/2)^k / k!)^2 (A&S
    9.6.12), whose terms are all positive, times e^-|kappa|; above 25 the
    asymptotic series e^kappa / sqrt(2 pi kappa) sum_k ((2k-1)!!)^2 /
    (k! (8 kappa)^k) (A&S 9.7.1), whose terms are also positive and fall
    below 1e-17 of the sum long before they start to grow.  Both are
    within 2e-15 relative of the exact value.  Above about 2.86e307, where
    2 pi kappa overflows, the root is taken as sqrt(2 pi) sqrt(kappa).
    """
    x = abs(float(kappa))
    term = total = 1.0
    k = 0
    if x <= 25.0:
        half = 0.5 * x
        while term > 1e-17 * total:
            k += 1
            r = half / k
            term *= r * r
            total += term
        return total * math.exp(-x)
    while term > 1e-17 * total:
        k += 1
        term *= (2 * k - 1) ** 2 / (8.0 * k * x)
        total += term
    product = TWO_PI * x
    return total / (math.sqrt(product) if product < math.inf else math.sqrt(TWO_PI) * math.sqrt(x))


_BESSEL_RTOL = 1e-13  # agreement of the runs from s and 2s, whole sequence
# Fewer concentrations than this run as float loops: a lane step costs about
# as much as 20 float steps, and the lanes that start first run alone.
_MILLER_MIN_LANES = 32
# Largest concentration accepted.  The Miller start grows as sqrt(37 kappa):
# at the cap (jmax = 32, one BLAS thread, 2 vCPUs) one concentration's pair
# of runs takes ~0.014 s and 256 lanes' ~0.21 s, where kappa = 1e12 took
# 2.4 s and 1e200 overflowed the int64 start index.  The filters reach ~1e5.
_BESSEL_MAX_KAPPA = 1e8


def _miller_start(kappa: np.ndarray, jmax: int) -> np.ndarray:
    """The first Miller run's start index for each concentration, as int64.

    A start N leaves entry j a relative error near e^{-(N^2 - j^2)/kappa}
    once kappa >> j, since there I_m/I_0 ~ e^{-m^2/2kappa}; that is below
    1e-16 for N^2 >= jmax^2 + 37 kappa.  The start is the larger of that and
    jmax + 2 sqrt(max(jmax, kappa) + 1) + 10 (at least jmax + 20), which
    already converges for kappa below about 3 jmax.  Each square root is
    truncated toward zero.
    """
    base = jmax + np.maximum(20, (2.0 * np.sqrt(np.maximum(jmax, kappa) + 1)).astype(np.int64) + 10)
    return np.maximum(base, np.sqrt(jmax * jmax + 37.0 * kappa).astype(np.int64) + 10)


def _miller_float(kappa: float, start: int, jmax: int) -> np.ndarray:
    """One Miller run for one concentration, in Python floats.

    The recurrence is carried as the ratios r_m = I_m/I_{m-1}, every one of
    them in [0, 1], so nothing overflows; entries 0..jmax are kept.
    """
    head = [1.0] * (jmax + 1)
    r = 0.0  # r_{start+1}: the trial run sets I_{start+1} = 0
    for m in range(start, 0, -1):
        r = kappa / (2.0 * m + kappa * r)
        if m <= jmax:
            head[m] = r
    return np.cumprod(head)


def _miller_lanes(kappas: np.ndarray, starts: np.ndarray, jmax: int) -> np.ndarray:
    """``_miller_float`` for many concentrations at once, one numpy lane each.

    Every lane does the float run's operations in the same order, so each
    row is bitwise that run.  Lanes are sorted by start, largest first, so
    the lanes already running at index m are a prefix; a lane that has not
    started keeps its initial ratio 0.  Each index runs three ufuncs into
    preallocated buffers, and the prefix views change only when a lane
    starts, so the loop allocates no temporaries.
    """
    order = np.argsort(-starts, kind="stable")
    kappas = kappas[order]
    begins = starts[order].tolist()
    lanes = kappas.size
    head = np.ones((jmax + 1, lanes))
    r = np.zeros(lanes)
    denom = np.empty(lanes)
    running = 0
    for m in range(begins[0], 0, -1):
        if running < lanes and begins[running] >= m:
            while running < lanes and begins[running] >= m:
                running += 1
            k, rk, dk = kappas[:running], r[:running], denom[:running]
        # r = kappa / (2m + kappa r), the float run's order of operations
        np.multiply(k, rk, out=dk)
        np.add(2.0 * m, dk, out=dk)
        np.divide(k, dk, out=rk)
        if m <= jmax:
            head[m] = r
    out = np.empty((lanes, jmax + 1))
    out[order] = np.cumprod(head, axis=0).T
    return out


def bessel_ratios(kappa, jmax: int) -> np.ndarray:
    """Ratios I_j(kappa)/I_0(kappa) for j = 0..jmax, by backward recurrence.

    Uses Miller's algorithm in ratio form (Gautschi 1967): from a trial
    start well above jmax, where I_{start+1} is taken as 0, run
    r_m = I_m/I_{m-1} = kappa/(2m + kappa r_{m+1}) downward and return the
    products r_1 ... r_j.  Every r_m lies in [0, 1], so no concentration,
    however small, overflows the run.  Each concentration takes two runs,
    from s = ``_miller_start(kappa, jmax)``, at least
    sqrt(jmax^2 + 37 kappa) + 10, from which the run has already converged
    to rounding, and from 2s; the run from 2s is returned.  The pair is the
    safety check: both must agree to 1e-13 relative in every entry 0..jmax
    (entries below 1e-300 compare absolutely), ten times below the 1e-12
    accuracy promised here, or a DegeneracyError names the first
    concentration, in input order, whose pair disagrees, with jmax and both
    starts, instead of returning an unconverged sequence.  A stricter test,
    such as 1e-15, sits below the rounding floor of a long recurrence: for
    jmax in the hundreds two runs keep differing by a few ulps however far
    apart their starts are.  kappa = 0 returns (1, 0, ..., 0) at once; a
    concentration above ``_BESSEL_MAX_KAPPA``, or a jmax above
    ``_MAX_TERMS``, is refused before any run.

    ``kappa`` is one concentration, giving shape (jmax + 1,), or a 1-d
    array of them, giving one row each, every one from its own start.
    Fewer than ``_MILLER_MIN_LANES`` nonzero concentrations run as a
    Python-float loop per run; more run both starts as one pass of numpy
    lanes over twice the concentrations (one lane alone costs about 20
    times its float loop).  The two forms are bitwise equal, so a row never
    depends on the other concentrations passed with it.
    """
    kappas = np.asarray(kappa, dtype=float)
    if kappas.ndim > 1:
        raise ValidationError("kappa must be a number or a 1-d array")
    _real("concentration", kappa, 0, _BESSEL_MAX_KAPPA)
    _count("jmax", jmax, 0, _MAX_TERMS)
    rows = kappas.reshape(-1)
    out = np.zeros((rows.size, jmax + 1))
    out[:, 0] = 1.0
    todo = np.flatnonzero(rows != 0.0)  # input order
    first = _miller_start(rows[todo], jmax)
    lanes = np.tile(rows[todo], 2)
    starts = np.concatenate((first, 2 * first))
    if todo.size < _MILLER_MIN_LANES:
        runs = np.array([_miller_float(k, s, jmax) for k, s in zip(lanes.tolist(), starts.tolist())])
    else:
        runs = _miller_lanes(lanes, starts, jmax)
    prev, cur = runs.reshape(2, todo.size, jmax + 1)
    scale = np.maximum(np.abs(cur), 1e-300)
    agree = np.max(np.abs(cur - prev) / scale, axis=1) < _BESSEL_RTOL
    if not agree.all():
        i = int(np.argmin(agree))
        raise DegeneracyError(
            f"bessel_ratios(kappa={float(rows[todo[i]])!r}, jmax={jmax}): the Miller runs "
            f"from starts {first[i]} and {2 * first[i]} did not agree to {_BESSEL_RTOL:g}"
        )
    out[todo] = cur
    return out if kappas.ndim else out[0]


def _von_mises_rows(kappa, mu, J: int) -> np.ndarray:
    """I_|j|(kappa)/I_0(kappa) e^{-i j mu} for j = -J..J, a row per (kappa, mu).

    Row i holds the Fourier coefficients of the von Mises density with
    concentration kappa[i] and location mu[i], truncated to |j| <= J;
    ``kappa`` and ``mu`` are equal-length 1-d arrays.
    """
    j = np.arange(-J, J + 1)
    phases = _phase_check(lambda: j * mu[:, None], "location mu", mu[:, None])
    return bessel_ratios(kappa, J)[:, np.abs(j)] * np.exp(-1j * phases)


def von_mises_kernel_row(kappa: float, bandwidth: int) -> np.ndarray:
    """Fourier coefficients I_|j|(kappa) e^-kappa of exp(kappa (cos u - 1)), j = -J..J."""
    ratios = bessel_ratios(kappa, bandwidth) * _i0e(kappa)
    return ratios[np.abs(np.arange(-bandwidth, bandwidth + 1))]


@dataclass(frozen=True)
class VonMisesDensity:
    """Product von Mises density p(theta) = prod_i exp(kappa_i cos(theta_i - mu_i))/I_0(kappa_i).

    Each kappa_i lies in [0, ``_BESSEL_MAX_KAPPA``], the concentrations
    ``bessel_ratios`` accepts.
    """

    mu: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        kappa = np.atleast_1d(np.asarray(self.kappa, dtype=float))
        mu = _finite_point(self.mu, kappa.size)  # the location: one angle per kappa
        _real("kappa", kappa, 0, _BESSEL_MAX_KAPPA)
        object.__setattr__(self, "mu", wrap_angles(mu))
        object.__setattr__(self, "kappa", kappa)

    @property
    def d(self) -> int:
        return self.mu.size

    def density(self, theta) -> float:
        theta = _finite_point(theta, self.d)
        value = 1.0
        for i in range(self.d):
            value *= math.exp(self.kappa[i] * (math.cos(theta[i] - self.mu[i]) - 1.0))
            value /= _i0e(self.kappa[i])
        return value

    def nth_root(self, n: int) -> "VonMisesDensity":
        """The normalized density proportional to p^(1/n): same family, kappa/n."""
        _count("n", n, 1)
        return VonMisesDensity(self.mu, self.kappa / n)


def von_mises_fourier(p: VonMisesDensity, bandwidth: int) -> FourierObservable:
    """Fourier coefficients of a von Mises density, truncated to |j_i| <= bandwidth.

    Per factor the coefficient at frequency j is I_|j|(kappa)/I_0(kappa)
    times the location phase exp(-i j mu); the product density multiplies
    these across dimensions.  More than ``_MAX_TERMS`` coefficients are
    refused before any is computed.
    """
    _count("bandwidth", bandwidth, 0)
    _lattice_modes(p.d, bandwidth)
    js = range(-bandwidth, bandwidth + 1)
    coeffs = {(): 1.0 + 0.0j}
    for row in _von_mises_rows(p.kappa, p.mu, bandwidth).tolist():
        coeffs = {key + (j,): c * cj for key, c in coeffs.items() for j, cj in zip(js, row)}
    return FourierObservable(coeffs, d=p.d)

