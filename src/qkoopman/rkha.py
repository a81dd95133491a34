"""Subconvolutive weights, truncated kernels, and the smoothing semigroup.

A weight lambda_tau(j) = prod_i exp(-tau |j_i|^p), 0 < p < 1, on the integer
lattice induces a translation-invariant reproducing kernel on the d-torus via
the truncated Mercer sum k(x, y) = sum_j lambda(j) exp(i j.(y-x)).  The scaled
characters psi_j = sqrt(lambda(j)) gamma_j form an orthonormal basis of the
induced space, which is simultaneously a Banach algebra under pointwise
multiplication; the comultiplication coefficients and the subconvolutivity,
GRS and Beurling-Domar diagnostics below quantify that structure at finite
truncation.

All operators are realized on coefficient vectors.  The kernel integral
operator K multiplies L2 Fourier coefficients by sqrt(lambda(j)) (mapping
the L2 basis vector to the unit basis vector psi_j), its adjoint K* does the
same in the opposite direction, and G = K*K multiplies by lambda(j).  The
family {G_tau} is a semigroup: composing smoothers adds their tau parameters
exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import _MAX_TERMS, FourierObservable, _count, _finite_point, _real, _same_dimension
from .errors import OutOfLatticeError, ValidationError


def _integer_key(j) -> tuple | None:
    """j (a scalar or a sequence) as a tuple of ints, or None unless every entry is integral."""
    try:
        values = (j,) if np.isscalar(j) else tuple(j)
    except TypeError:  # neither a scalar nor a sequence
        return None
    if all(isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v) for v in values):
        return tuple(int(v) for v in values)
    return None


@dataclass(frozen=True)
class SubexpWeight:
    """Subexponential lattice weight lambda(j) = prod_i exp(-tau |j_i|^p), formed from ``log_values``."""

    tau: float
    p: float
    d: int = 1

    def __post_init__(self):
        _real("tau", self.tau, 0, strict=True)
        _real("p", self.p, 0, 1, strict=True)
        _count("d", self.d, 1)

    def log_values(self, indices) -> np.ndarray:
        """log lambda(j) = -tau sum_i |j_i|^p per row j of an (n, d) index table: the one exponent."""
        return -self.tau * np.sum(np.abs(np.asarray(indices, dtype=float)) ** self.p, axis=-1)

    def log_value(self, j) -> float:
        return float(self.log_values(np.atleast_1d(j)))

    def value(self, j) -> float:
        return math.exp(self.log_value(j))

    def lattice_values(self, lat: "TruncatedLattice") -> np.ndarray:
        return np.exp(self.log_values(lat.indices))

    def half(self) -> "SubexpWeight":
        return SubexpWeight(self.tau / 2.0, self.p, self.d)

    def combined(self, other: "SubexpWeight") -> "SubexpWeight":
        if other.p != self.p or other.d != self.d:
            raise ValidationError("weights combine only within one (p, d) family")
        return SubexpWeight(self.tau + other.tau, self.p, self.d)


class TruncatedLattice:
    """All multi-indices j in Z^d with |j_i| <= J, in lexicographic order.

    The box is a product of d copies of [-J, J], so membership and position
    are arithmetic: j is in the box when it has d integral entries, each
    |j_i| <= J, and sits at row sum_i (j_i + J) (2J+1)^(d-1-i) of
    ``indices``.  A non-integral entry is not in the box.
    """

    __slots__ = ("d", "J", "indices")

    def __init__(self, d: int, J: int):
        _count("d", d, 1)
        _count("J", J, 0)
        self.d = d
        self.J = J
        grid = np.indices((2 * J + 1,) * d, dtype=int).reshape(d, -1) - J
        self.indices = np.ascontiguousarray(grid.T)

    @property
    def size(self) -> int:
        return (2 * self.J + 1) ** self.d

    def _key(self, j) -> tuple | None:
        """The index as a tuple of ints, or None unless it is in the box."""
        key = _integer_key(j)
        if key is None or len(key) != self.d or any(abs(v) > self.J for v in key):
            return None
        return key

    def position(self, j) -> int:
        key = self._key(j)
        if key is None:
            raise ValidationError(f"index {j!r} outside lattice J={self.J}")
        pos = 0
        for v in key:
            pos = pos * (2 * self.J + 1) + v + self.J
        return pos

    def __contains__(self, j) -> bool:
        return self._key(j) is not None

    def observable_vector(self, f: FourierObservable) -> np.ndarray:
        """Dense coefficient vector of f over this lattice (error if outside)."""
        _same_dimension(observable=f.d, lattice=self.d)
        out = np.zeros(self.size, dtype=complex)
        for j, c in f.coeffs.items():
            if j not in self:
                raise OutOfLatticeError(f"coefficient at {j} outside lattice J={self.J}")
            out[self.position(j)] = c
        return out

    def vector_observable(self, vec: np.ndarray) -> FourierObservable:
        return FourierObservable(
            {tuple(self.indices[k]): vec[k] for k in range(self.size) if vec[k] != 0},
            d=self.d,
        )


# Phases the kernel sum holds at once, in floats (2 MiB): a batch of
# differences times half the lattice.
_GRAM_BATCH = 2**18


def _kernel_sum(w: SubexpWeight, lat: TruncatedLattice, diffs: np.ndarray) -> np.ndarray:
    """k at each row u = y - x of an (n, d) table: lambda(0) + 2 sum_{j > 0} lambda(j) cos(j.u).

    Real, as the weight is even and the box symmetric; j > 0 are the indices
    after 0 in lexicographic order, and lambda(0) = 1.  A row's phases are
    formed elementwise and summed along it, so no batch moves its bits.
    """
    freqs = lat.indices[lat.size // 2 + 1 :].astype(float)
    half = np.exp(w.log_values(freqs))
    out = np.empty(diffs.shape[0])
    batch = max(1, _GRAM_BATCH // max(1, half.size))
    for lo in range(0, out.size, batch):
        phases = diffs[lo : lo + batch, :1] * freqs[:, 0]
        for axis in range(1, lat.d):
            phases += diffs[lo : lo + batch, axis : axis + 1] * freqs[:, axis]
        terms = np.cos(phases, out=phases)
        terms *= half
        out[lo : lo + batch] = 1.0 + 2.0 * terms.sum(axis=1)
    return out


def kernel_value(w: SubexpWeight, lat: TruncatedLattice, x, y) -> complex:
    """Truncated Mercer sum k(x, y) = sum_{j in lat} lambda(j) exp(i j.(y-x)), exactly real."""
    x, y = _finite_point(x, lat.d), _finite_point(y, lat.d)
    return complex(_kernel_sum(w, lat, (y - x)[None, :])[0])


def kernel_row(w: SubexpWeight, lat: TruncatedLattice, x, grid: np.ndarray) -> np.ndarray:
    """Kernel section k(x, .) on 1-d grid points (d=1 only), bitwise ``kernel_value``'s."""
    if lat.d != 1:
        raise ValidationError("kernel_row is a d=1 convenience")
    grid = _finite_point(np.ravel(grid), np.size(grid))
    return _kernel_sum(w, lat, (grid - _finite_point(x, 1))[:, None])


def kernel_gram(w: SubexpWeight, lat: TruncatedLattice, points: np.ndarray) -> np.ndarray:
    """Matrix k(x_a, x_b) over a point set, each unordered pair once.

    Pair a <= b is summed from its difference x_b - x_a, so entry (a, b) is
    bitwise ``kernel_value(w, lat, x_a, x_b)``, and mirrored into (b, a).
    The matrix is exactly Hermitian (real, held as complex) with a constant
    diagonal.  Memory beyond it is the pairs' differences and
    ``_GRAM_BATCH`` phases.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != lat.d:
        raise ValidationError(f"points have shape {pts.shape}, the lattice dimension is {lat.d}")
    _finite_point(pts.reshape(-1), pts.size)
    gram = np.zeros((pts.shape[0],) * 2, dtype=complex)
    rows, cols = np.triu_indices(pts.shape[0])
    gram.real[rows, cols] = gram.real[cols, rows] = _kernel_sum(w, lat, pts[cols] - pts[rows])
    return gram


def fourier_multiplier_matrix(coeffs: dict, indices: np.ndarray) -> np.ndarray:
    """Dense matrix with entries c(i - j) over the rows of an index table.

    Entries are gathered, not recomputed, from a box holding the coefficients
    by index difference, so each one equals its dict value exactly (zero where
    the difference carries no coefficient).
    """
    indices = np.asarray(indices, dtype=int).reshape(len(indices), -1)
    span = indices.max(axis=0) - indices.min(axis=0)
    box = np.zeros(tuple(2 * span + 1), dtype=complex)
    for m, c in coeffs.items():
        if len(m) == span.size and np.all(np.abs(m) <= span):
            box[tuple(np.asarray(m) + span)] = c
    diff = indices[:, None, :] - indices[None, :, :] + span
    return box[tuple(np.moveaxis(diff, -1, 0))]


def truncated_autoconvolution(w: SubexpWeight, lat: TruncatedLattice) -> np.ndarray:
    """(lambda * lambda)(j) = sum_{k, j-k in lat} lambda(k) lambda(j-k), on lat.

    Both the weight and the box factor over the d axes, so the sum is the
    outer product over the axes of one 1-d autoconvolution of the row
    exp(-tau |j|^p), |j| <= J, kept on |j| <= J: O(J^2) work, not
    O((2J+1)^(2d)).
    """
    J = lat.J
    row = np.exp(w.log_values(np.arange(-J, J + 1)[:, None]))
    axis = np.convolve(row, row)[J : 3 * J + 1]
    out = axis
    for _ in range(lat.d - 1):
        out = np.multiply.outer(out, axis)
    return out.reshape(lat.size)


def subconvolutivity_constant(w: SubexpWeight, lat: TruncatedLattice) -> float:
    """max_j (lambda*lambda)(j) / lambda(j) over the lattice points where
    lambda(j) does not underflow to 0."""
    conv = truncated_autoconvolution(w, lat)
    lam = w.lattice_values(lat)
    mask = lam > 0
    return float(np.max(conv[mask] / lam[mask]))


def _gamma_terms(w: SubexpWeight, gamma, nmax: int):
    """s = sum_i |gamma_i|^p and n = 1..nmax, for a finite nonzero gamma and nmax >= 1."""
    gamma = _finite_point(gamma, np.size(gamma), "gamma")
    if np.all(gamma == 0):
        raise ValidationError("gamma must be nonzero")
    _count("nmax", nmax, 1, _MAX_TERMS)  # refused before np.arange allocates it
    return float(np.sum(np.abs(gamma) ** w.p)), np.arange(1, nmax + 1, dtype=float)


def grs_sequence(w: SubexpWeight, gamma, nmax: int) -> np.ndarray:
    """lambda(n*gamma)^(1/n) for n = 1..nmax; tends to 1 for these weights."""
    s, n = _gamma_terms(w, gamma, nmax)
    return np.exp(-w.tau * n ** (w.p - 1.0) * s)


def beurling_domar_sum(w: SubexpWeight, gamma, nmax: int = 100_000):
    """Partial sum of sum_n ln(1/lambda(n*gamma))/n^2 plus a closed-form tail bound.

    The summand is tau * n^(p-2) * sum_i |gamma_i|^p, so the tail beyond nmax
    is below tau * s * nmax^(p-1) / (1-p) by integral comparison.
    """
    s, n = _gamma_terms(w, gamma, nmax)
    partial = w.tau * s * float(np.sum(n ** (w.p - 2.0)))
    tail = w.tau * s * nmax ** (w.p - 1.0) / (1.0 - w.p)
    return partial, tail


def comultiplication_pairs(w: SubexpWeight, gamma, lat: TruncatedLattice):
    """All (alpha, beta, coeff) with alpha + beta = gamma inside the lattice.

    The basis vector at gamma splits as sum over such pairs with coefficient
    sqrt(lambda(alpha) lambda(beta) / lambda(gamma)).
    """
    gamma_t = lat._key(gamma)
    if gamma_t is None:
        raise ValidationError(f"gamma {gamma!r} outside lattice")
    log_g = w.log_value(gamma_t)
    pairs = []
    for alpha in lat.indices:
        beta = tuple(int(g - a) for g, a in zip(gamma_t, alpha))
        if beta in lat:
            alpha_t = tuple(int(v) for v in alpha)
            coeff = math.exp(0.5 * (w.log_value(alpha_t) + w.log_value(beta) - log_g))
            pairs.append((alpha_t, beta, coeff))
    return pairs


def feature_coefficients(w: SubexpWeight, lat: TruncatedLattice, x) -> np.ndarray:
    """Coefficients of the kernel section at x in the orthonormal basis.

    Entry at j is sqrt(lambda(j)) exp(-i j.x); the squared norm reproduces
    kernel_value(x, x).
    """
    return _feature_vector(w, lat.indices, x)


def _feature_vector(w: SubexpWeight, indices: np.ndarray, x) -> np.ndarray:
    """sqrt(lambda(j)) exp(-i j.x) per row j of an index table (also ``qcirc``'s amplitudes)."""
    x = _finite_point(x, indices.shape[1])
    return np.sqrt(np.exp(w.log_values(indices))) * np.exp(-1j * (indices @ x))


K_TAU = "K_tau"
K_STAR = "K_star"
G_TAU = "G_tau"


@dataclass(frozen=True)
class DiagonalSmoother:
    """Coefficient-diagonal realization of the kernel smoothing operators.

    role K_tau:  L2 coefficients -> basis coefficients, multiplier sqrt(lambda)
    role K_star: basis coefficients -> L2 coefficients, multiplier sqrt(lambda)
    role G_tau:  L2 -> L2, multiplier lambda (= K_star after K_tau)
    """

    weight: SubexpWeight
    role: str = G_TAU

    def __post_init__(self):
        if self.role not in (K_TAU, K_STAR, G_TAU):
            raise ValidationError(f"unknown smoother role {self.role!r}")

    def multiplier(self, j) -> float:
        log = self.weight.log_value(j)
        return math.exp(log if self.role == G_TAU else 0.5 * log)


def apply_smoother(op: DiagonalSmoother, f: FourierObservable) -> FourierObservable:
    return FourierObservable(
        {j: op.multiplier(j) * c for j, c in f.coeffs.items()}, d=f.d
    )


def compose_smoothers(a: DiagonalSmoother, b: DiagonalSmoother) -> DiagonalSmoother:
    """Exact semigroup composition: G_tau after G_sigma is G_{tau+sigma}."""
    if a.role != G_TAU or b.role != G_TAU:
        raise ValidationError("only G-type smoothers compose within the semigroup")
    return DiagonalSmoother(a.weight.combined(b.weight), G_TAU)
