"""Skew-adjoint generators on the truncated basis and their unitary groups.

Both generators are stored in one spectral form, W = V diag(i omega) V*.  For
a torus rotation the lattice basis itself diagonalizes W, with frequencies
omega_j = j.alpha, so the generator is just that frequency vector and no
square matrix is formed.  A data-driven substitute estimates W from one
trajectory by tapered ergodic averages of central finite differences, then
enforces skew-adjointness by antisymmetrization and pins the constant
function as an exact null vector by deflation; it is diagonalized once.
Each generates a unitary group, applied as phases e^{i t omega} in the
eigenbasis rather than by series summation, so the result is unitary up to
eigensolver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (FourierObservable, RotationSystem, _phase_check, _phases, _real,
                       _same_dimension)
from .errors import DegeneracyError, RankDeficiencyError, ValidationError
from .rkha import SubexpWeight, TruncatedLattice


def _spectral_order(omega: np.ndarray) -> np.ndarray:
    # |omega| ascending, positive member of each +/- pair first, stable
    # tie-break; a magnitude within 1e-12 of the next smaller one ties with
    # it, so no rounding boundary splits a pair (rounding to 12 decimals did)
    mags = np.abs(omega)
    by_mag = np.argsort(mags, kind="stable")
    ties = np.empty(omega.size, dtype=int)
    ties[by_mag] = np.cumsum(np.diff(mags[by_mag], prepend=0.0) > 1e-12)
    return np.lexsort((np.arange(omega.size), omega < 0, ties))


@dataclass(frozen=True)
class GeneratorSpec:
    """A skew-adjoint generator W = V diag(i omega) V* on a truncated lattice.

    ``vectors is None`` means the lattice basis diagonalizes W: ``omega``
    then holds the frequency at each lattice position and no matrix exists.
    Otherwise ``vectors`` holds unitary eigenvectors as columns in the order
    of ``omega``, and ``matrix`` the estimated generator in the
    lattice-ordered coefficient basis, checked to be skew-adjoint.
    """

    lattice: TruncatedLattice
    omega: np.ndarray
    vectors: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        a = self.matrix
        if a is not None and np.max(np.abs(a + a.conj().T)) > 1e-12:
            raise ValidationError("generator matrix is not skew-adjoint")

    @property
    def eigen_omega(self) -> np.ndarray:
        """The frequencies sorted by |omega|, positive member of each pair first."""
        return self.omega[_spectral_order(self.omega)]

    def omega_at(self, j) -> float:
        if self.vectors is not None:
            raise ValidationError("per-index frequencies exist only for a diagonal generator")
        return float(self.omega[self.lattice.position(j)])

    def propagate(self, vec: np.ndarray, t: float) -> np.ndarray:
        """exp(tW) applied to a coefficient vector in lattice order."""
        phases = np.exp(1j * _phases(t, self.omega))
        if self.vectors is None:
            return phases * vec
        v = self.vectors
        return v @ (phases * (v.conj().T @ vec))


def analytic_generator(sys: RotationSystem, lat: TruncatedLattice) -> GeneratorSpec:
    """Exact rotation generator: diagonal with omega_j = j.alpha on the lattice."""
    _same_dimension(system=sys.d, lattice=lat.d)
    return GeneratorSpec(lattice=lat, omega=lat.indices @ sys.alpha)


# Interior samples per block of the data-driven generator's ergodic sum: each
# block holds a few (block + 2) x modes complex arrays
_SAMPLE_BLOCK = 256


def _taper_weights(m: int) -> np.ndarray:
    """Normalized bump-window weights for ergodic averages along a trajectory.

    The smooth window exp(-1/(u(1-u))) vanishes to all orders at the ends,
    which suppresses the finite-trajectory boundary error of quasi-periodic
    averages far below the estimator's finite-difference bias.
    """
    u = (np.arange(m) + 1.0) / (m + 1.0)
    w = np.exp(-1.0 / (u * (1.0 - u)))
    return w / w.sum()


def data_driven_generator(
    samples: np.ndarray, dt: float, lat: TruncatedLattice
) -> GeneratorSpec:
    """Galerkin estimate of the generator from one sampled trajectory.

    The raw matrix is the tapered ergodic average of
    conj(gamma_j(x_n)) * (gamma_k(x_{n+1}) - gamma_k(x_{n-1})) / (2 dt),
    antisymmetrized to enforce skew-adjointness and deflated so the constant
    function is an exact null vector.  The average is accumulated over
    blocks of ``_SAMPLE_BLOCK`` interior samples, so the basis values held
    at once grow with the block and the lattice, not with the trajectory.
    """
    _real("dt", dt, 0, strict=True)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    _same_dimension(trajectory=samples.shape[1], lattice=lat.d)
    _real("trajectory samples", samples)
    n = samples.shape[0]
    interior = n - 2
    if interior < lat.size:
        raise RankDeficiencyError(
            f"trajectory supplies {max(interior, 0)} usable samples for a basis of "
            f"size {lat.size}; {lat.size - max(interior, 0)} directions are unresolved",
            deficiency=lat.size - max(interior, 0),
        )
    w = _taper_weights(interior)
    a = np.zeros((lat.size, lat.size), dtype=complex)
    for lo in range(0, interior, _SAMPLE_BLOCK):
        hi = min(lo + _SAMPLE_BLOCK, interior)
        block = samples[lo : hi + 2]  # basis: (hi - lo + 2, lat.size)
        basis = np.exp(1j * _phase_check(lambda: block @ lat.indices.T, "sample x", block))
        diff = (basis[2:] - basis[:-2]) / (2.0 * dt)
        a += (basis[1:-1].conj() * w[lo:hi, None]).T @ diff
    if not np.all(np.isfinite(a)):  # as when 1/(2 dt) overflows
        raise DegeneracyError(f"the generator estimate at dt={dt!r} is not finite")
    a = 0.5 * (a - a.conj().T)
    zero = lat.position((0,) * lat.d)
    a[zero, :] = 0.0
    a[:, zero] = 0.0
    omega, vectors = np.linalg.eigh(-1j * a)
    order = _spectral_order(omega)
    return GeneratorSpec(lattice=lat, omega=omega[order], vectors=vectors[:, order], matrix=a)


def evolve(gen: GeneratorSpec, f: FourierObservable, t: float) -> FourierObservable:
    """Unitary evolution exp(t * generator) applied to a band-limited observable."""
    vec = gen.lattice.observable_vector(f)
    return gen.lattice.vector_observable(gen.propagate(vec, t))


def smoothing_identity_residual(
    w: SubexpWeight, gen: GeneratorSpec, f: FourierObservable, t: float
) -> float:
    """Residual of the two equivalent smoothed-evolution sandwiches.

    Compares K* exp(tW) K f against G_half exp(tV) G_half f in coefficient
    space, where K carries sqrt(lambda) per index, G_half carries the
    half-parameter weight, and W and V share the same matrix under the
    coefficient identification of the two bases.  For diagonal generators the
    two sides agree to roundoff; the returned value is the l2 norm of their
    difference.
    """
    lat = gen.lattice
    vec = lat.observable_vector(f)
    lam = w.lattice_values(lat)
    half = w.half().lattice_values(lat)
    left = np.sqrt(lam) * gen.propagate(np.sqrt(lam) * vec, t)
    right = half * gen.propagate(half * vec, t)
    return float(np.linalg.norm(left - right))


def frequency_table(gen: GeneratorSpec, reference: GeneratorSpec | None = None):
    """Rows (index, omega, abs error vs the reference generator's spectrum).

    The r-th smallest estimate is scored against the r-th smallest reference
    frequency, so an estimate collapsed to all zeros does not read zero error.
    """
    omega = gen.eigen_omega
    err = np.zeros(omega.size)
    if reference is not None:
        _same_dimension(generator=omega.size, reference=reference.omega.size)
        err[np.argsort(omega, kind="stable")] = np.abs(np.sort(omega) - np.sort(reference.omega))
    return [(k, float(om), float(e)) for k, (om, e) in enumerate(zip(omega, err))]
