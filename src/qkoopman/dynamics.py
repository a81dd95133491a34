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
# Largest grading, series cutoff (nmax) or shot count accepted: each takes a
# float per term, 8 MB at the cap; tests and demos use at most 200,000.
_MAX_TERMS = 10**6


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
# names the argument.  ``_phases`` also refuses a t * frequency past the
# float range, with a DegeneracyError naming t.


def _finite_point(x, d: int, name: str = "point") -> np.ndarray:
    """``x`` as a vector of d finite floats; ValidationError naming ``name`` otherwise."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
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
    x = np.asarray(value, dtype=float)
    ok = np.isfinite(x) & ((x > lo) & (x < hi) if strict else (x >= lo) & (x <= hi))
    if ok.all():
        return
    bad = float(x[~ok][0])
    if not strict and hi < bad < math.inf:
        raise ValidationError(f"{name} {bad!r} is above the cap of {hi:g}")
    interval = f"({lo:g}, {hi:g})" if strict else f"[{lo:g}, {hi:g}]"
    raise ValidationError(f"{name} must be finite and in {interval}, got {bad!r}")


def _phases(t: float, freqs, name: str = "time") -> np.ndarray:
    """The phases t * freqs for a finite ``t`` (checked by ``_real``).

    A product past the float range raises a DegeneracyError naming ``t``;
    callers use the product returned, so the check and the arithmetic are
    one.
    """
    _real(name, t)
    with np.errstate(over="ignore"):
        phases = t * np.asarray(freqs)
    if not np.all(np.isfinite(phases)):
        raise DegeneracyError(f"{name} t={t!r} takes a phase past the float range")
    return phases


def flow(sys: RotationSystem, theta, t: float) -> np.ndarray:
    """Advance a torus point by time t: (theta + t*alpha) mod 2*pi.

    A single fused mod is applied after the arithmetic so repeated calls
    are bitwise reproducible.  A t*alpha past the float range raises a
    DegeneracyError naming t (``_phases``).
    """
    theta = _finite_point(theta, sys.d)
    return wrap_angles(theta + _phases(t, sys.alpha))


def _rotation_orbit(x: float, step: float, n: int):
    """Yield x and n - 1 further angles, each (previous + step) mod 2*pi.

    Python's float + and % are the IEEE double operations numpy's + and
    np.remainder perform, and the fold is the one in ``wrap_angles``, so
    every angle is bitwise what repeated ``flow`` calls give.
    """
    for _ in range(n):
        yield x
        x = (x + step) % TWO_PI
        if x >= TWO_PI:
            x = 0.0


def sample_trajectory(sys: RotationSystem, x0, dt: float, n: int) -> np.ndarray:
    """Return the n points x0, Phi^dt(x0), ..., Phi^((n-1)dt)(x0).

    Each coordinate is a scalar recurrence x_i -> (x_i + dt alpha_i) mod
    2*pi from the wrapped x0, so consecutive rows are bitwise the flow step
    ``flow(sys, row, dt)`` without a numpy call per sample.
    """
    _count("n", n, 1)
    _real("dt", dt, 0, strict=True)
    start = wrap_angles(_finite_point(x0, sys.d))
    out = np.empty((n, sys.d))
    for i, step in enumerate(_phases(dt, sys.alpha, "dt")):
        out[:, i] = np.fromiter(_rotation_orbit(float(start[i]), float(step), n), float, count=n)
    return out


def rational_dependence_warnings(alpha, tol: float = 1e-9, max_denominator: int = 100):
    """Frequency-ratio pairs suspiciously close to a small rational.

    Rational independence cannot be certified in floating point; this scan
    flags every pair (i, k) whose ratio alpha_i/alpha_k lies within ``tol``
    of a rational with denominator <= ``max_denominator``.  Returns a list
    of (i, k, Fraction) triples; an empty list means nothing was flagged.
    """
    from fractions import Fraction  # only here, so importing the package skips it

    alpha = _finite_point(alpha, np.size(alpha), "alpha")
    flagged = []
    for i in range(alpha.size):
        for k in range(i + 1, alpha.size):
            ratio = alpha[i] / alpha[k]
            best = Fraction(ratio).limit_denominator(max_denominator)
            if abs(ratio - float(best)) <= tol:
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
        """Permutation matrix of f -> f o Phi in the orthonormal point basis."""
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
    Every coefficient is finite.
    """

    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs: dict, d: int | None = None):
        items = {}
        for j, c in coeffs.items():
            key = (int(j),) if np.isscalar(j) else tuple(int(v) for v in j)
            items[key] = complex(c)
        values = np.array(list(items.values()), dtype=complex)
        _finite_point(values.view(float), 2 * values.size, "coefficients")
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
    def harmonic(cls, j, value: complex = 1.0) -> "FourierObservable":
        key = (int(j),) if np.isscalar(j) else tuple(int(v) for v in j)
        return cls({key: value}, d=len(key))

    @property
    def bandwidth(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(v) for v in j) for j in self.coeffs)

    def evaluate(self, theta) -> complex:
        theta = _finite_point(theta, self.d)
        total = 0.0 + 0.0j
        for j, c in self.coeffs.items():
            total += c * np.exp(1j * float(np.dot(j, theta)))
        return total

    def conjugate(self) -> "FourierObservable":
        return FourierObservable(
            {tuple(-v for v in j): c.conjugate() for j, c in self.coeffs.items()},
            d=self.d,
        )

    def is_real(self, tol: float = 1e-12) -> bool:
        for j, c in self.coeffs.items():
            mirror = self.coeffs.get(tuple(-v for v in j), 0.0)
            if abs(mirror - c.conjugate()) > tol:
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
    support.  ``indices`` is an (n, d) integer array and ``coeffs`` holds
    its n coefficients on the last axis; leading axes of ``coeffs`` are a
    batch of sums, each placed and transformed on its own.  The result has
    shape coeffs.shape[:-1] + (G,) * d.  A non-finite coefficient is
    refused, once per call.
    """
    _count("grid_size", grid_size, 1)
    indices = np.asarray(indices, dtype=int)
    coeffs = np.asarray(coeffs, dtype=complex)
    _finite_point(np.ravel(coeffs).view(float), 2 * coeffs.size, "coefficients")
    d = indices.shape[1]
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
    within 2e-15 relative of the exact value.
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
    return total / math.sqrt(TWO_PI * x)


_BESSEL_RTOL = 1e-13  # agreement of successive Miller runs, whole sequence
_BESSEL_DOUBLINGS = 12
# Fewer concentrations than this run as float loops: a lane step costs about
# as much as 20 float steps, and the lanes that start first run alone.
_MILLER_MIN_LANES = 32
# Largest concentration accepted.  The Miller start grows as 2 sqrt(kappa):
# at the cap one concentration runs in ~0.03 s and 256 lanes in ~0.75 s,
# where kappa = 1e12 took 2.4 s and 1e200 overflowed the int64 start index.
# The filters reach ~1e5.
_BESSEL_MAX_KAPPA = 1e8


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
    however small, overflows the run.  The start index is doubled until two
    successive runs agree to 1e-13 relative in every entry 0..jmax (entries
    below 1e-300 compare absolutely), ten times below the 1e-12 accuracy
    promised here.  A stricter test, such as 1e-15, sits below the rounding
    floor of a long recurrence: for jmax in the hundreds successive runs
    keep differing by a few ulps however far the start moves, so the test
    is never met.  If no two runs agree within twelve doublings a
    DegeneracyError is raised instead of returning an unconverged sequence.
    kappa = 0 returns (1, 0, ..., 0) at once; a concentration above
    ``_BESSEL_MAX_KAPPA`` is refused before any run.

    ``kappa`` is one concentration, giving shape (jmax + 1,), or a 1-d
    array of them, giving one row each.  Every concentration starts at its
    own index and stops doubling once its own runs agree; the error names
    the first one, in input order, that never agrees.  A round of runs over
    fewer than ``_MILLER_MIN_LANES`` concentrations is a Python-float loop
    per concentration, a larger one runs them as numpy lanes (one lane alone
    costs about 20 times its float loop).  The two are bitwise equal, so a
    row never depends on the other concentrations passed with it.
    """
    kappas = np.asarray(kappa, dtype=float)
    if kappas.ndim > 1:
        raise ValidationError("kappa must be a number or a 1-d array")
    _real("concentration", kappa, 0, _BESSEL_MAX_KAPPA)
    _count("jmax", jmax, 0)
    rows = kappas.reshape(-1)
    out = np.zeros((rows.size, jmax + 1))
    out[:, 0] = 1.0
    todo = np.flatnonzero(rows != 0.0)  # input order
    starts = np.array([
        jmax + max(20, int(2.0 * math.sqrt(max(jmax, k) + 1)) + 10) for k in rows[todo].tolist()
    ], dtype=np.int64)

    def run(lanes, starts):
        if lanes.size < _MILLER_MIN_LANES:
            return np.array([
                _miller_float(kappa, start, jmax)
                for kappa, start in zip(rows[lanes].tolist(), starts.tolist())
            ]).reshape(-1, jmax + 1)
        return _miller_lanes(rows[lanes], starts, jmax)

    prev = run(todo, starts)
    for _ in range(_BESSEL_DOUBLINGS):
        if not todo.size:
            break
        starts = 2 * starts
        cur = run(todo, starts)
        scale = np.maximum(np.abs(cur), 1e-300)
        done = np.max(np.abs(cur - prev) / scale, axis=1) < _BESSEL_RTOL
        out[todo[done]] = cur[done]
        todo, starts, prev = todo[~done], starts[~done], cur[~done]
    if todo.size:
        raise DegeneracyError(
            f"bessel_ratios(kappa={float(rows[todo[0]])!r}, jmax={jmax}): successive Miller "
            f"runs did not agree to {_BESSEL_RTOL:g} within {_BESSEL_DOUBLINGS} doublings"
        )
    return out if kappas.ndim else out[0]


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
    these across dimensions.
    """
    _count("bandwidth", bandwidth, 0)
    per_dim = []
    for i in range(p.d):
        ratios = bessel_ratios(p.kappa[i], bandwidth)
        one = {
            j: ratios[abs(j)] * complex(np.exp(-1j * j * p.mu[i]))
            for j in range(-bandwidth, bandwidth + 1)
        }
        per_dim.append(one)
    coeffs = {(): 1.0 + 0.0j}
    for one in per_dim:
        coeffs = {
            key + (j,): c * cj for key, c in coeffs.items() for j, cj in one.items()
        }
    return FourierObservable(coeffs, d=p.d)

