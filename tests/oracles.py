"""Dense formulations the package's fast paths replaced, kept as test oracles.

Each function here is the direct, matrix-building form of a computation the
package now does in closed form, by FFT or on a state vector.  Nothing in
``src/`` calls them; the tests compare the fast paths against them.
"""

from __future__ import annotations

import math

import numpy as np

from qkoopman.dynamics import (
    TWO_PI,
    FourierObservable,
    RotationSystem,
    koopman_exact,
)
from qkoopman.errors import ValidationError, ZeroEvidenceError
from qkoopman.fock import FockVector, FockWeight, SpectrumTorusPoint, fock_inner, xi_vector
from qkoopman.qcirc import QubitEncoding, _check_observable, _projected_observable
from qkoopman.qmda import (
    ObservationModel,
    _orbit_mode_order,
    effect_sqrt,
    multiplication_operator_fourier,
    multiplication_operator_point,
)
from qkoopman.rkha import SubexpWeight, TruncatedLattice


# --- qmda: the density-operator filter on M x M matrices ---------------------


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


def orbit_mode_transform(m: int) -> np.ndarray:
    """Unitary point-basis -> mode-basis map, rows ordered by |frequency|."""
    freqs = _orbit_mode_order(m)
    points = np.arange(m)
    return np.exp(-2j * math.pi * np.outer(freqs, points) / m) / math.sqrt(m)


def torus_grid_matrix(grid_size: int, lat: TruncatedLattice) -> np.ndarray:
    """G x (2J+1) evaluation of the lattice characters on the uniform circle grid."""
    theta_grid = np.arange(grid_size) * TWO_PI / grid_size
    return np.exp(1j * np.outer(theta_grid, lat.indices[:, 0]))


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
