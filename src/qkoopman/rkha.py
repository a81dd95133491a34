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
from dataclasses import dataclass

import numpy as np

from .dynamics import FourierObservable, _finite_point
from .errors import OutOfLatticeError, ValidationError


@dataclass(frozen=True)
class SubexpWeight:
    """Subexponential lattice weight lambda(j) = prod_i exp(-tau |j_i|^p)."""

    tau: float
    p: float
    d: int = 1

    def __post_init__(self):
        if not (self.tau > 0):
            raise ValidationError("tau must be positive")
        if not (0.0 < self.p < 1.0):
            raise ValidationError("p must lie in (0, 1)")
        if self.d < 1:
            raise ValidationError("dimension must be >= 1")

    def log_value(self, j) -> float:
        j = np.atleast_1d(np.asarray(j, dtype=float))
        return -self.tau * float(np.sum(np.abs(j) ** self.p))

    def value(self, j) -> float:
        return math.exp(self.log_value(j))

    def lattice_values(self, lat: "TruncatedLattice") -> np.ndarray:
        return np.exp(-self.tau * np.sum(np.abs(lat.indices) ** self.p, axis=1))

    def half(self) -> "SubexpWeight":
        return SubexpWeight(self.tau / 2.0, self.p, self.d)

    def combined(self, other: "SubexpWeight") -> "SubexpWeight":
        if other.p != self.p or other.d != self.d:
            raise ValidationError("weights combine only within one (p, d) family")
        return SubexpWeight(self.tau + other.tau, self.p, self.d)


class TruncatedLattice:
    """All multi-indices j in Z^d with |j_i| <= J, in lexicographic order.

    The box is a product of d copies of [-J, J], so membership and position
    are arithmetic: j is in the box when it has d entries, each |j_i| <= J,
    and sits at row sum_i (j_i + J) (2J+1)^(d-1-i) of ``indices``.
    """

    __slots__ = ("d", "J", "indices")

    def __init__(self, d: int, J: int):
        if d < 1 or J < 0:
            raise ValidationError("lattice needs d >= 1 and J >= 0")
        self.d = d
        self.J = J
        grid = np.indices((2 * J + 1,) * d, dtype=int).reshape(d, -1) - J
        self.indices = np.ascontiguousarray(grid.T)

    @property
    def size(self) -> int:
        return (2 * self.J + 1) ** self.d

    def _key(self, j) -> tuple:
        return (int(j),) if np.isscalar(j) else tuple(int(v) for v in j)

    def position(self, j) -> int:
        key = self._key(j)
        if key not in self:
            raise ValidationError(f"index {key} outside lattice J={self.J}")
        pos = 0
        for v in key:
            pos = pos * (2 * self.J + 1) + v + self.J
        return pos

    def __contains__(self, j) -> bool:
        key = self._key(j)
        return len(key) == self.d and all(abs(v) <= self.J for v in key)

    def observable_vector(self, f: FourierObservable) -> np.ndarray:
        """Dense coefficient vector of f over this lattice (error if outside)."""
        if f.d != self.d:
            raise ValidationError("observable and lattice dimensions differ")
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


def kernel_value(w: SubexpWeight, lat: TruncatedLattice, x, y) -> complex:
    """Truncated Mercer sum k(x, y) = sum_{j in lat} lambda(j) exp(i j.(y-x))."""
    x, y = _finite_point(x, lat.d), _finite_point(y, lat.d)
    lam = w.lattice_values(lat)
    phases = lat.indices @ (y - x)
    return complex(np.sum(lam * np.exp(1j * phases)))


def kernel_row(w: SubexpWeight, lat: TruncatedLattice, x, grid: np.ndarray) -> np.ndarray:
    """Kernel section k(x, .) evaluated on a set of 1-d grid points (d=1 only)."""
    if lat.d != 1:
        raise ValidationError("kernel_row is a d=1 convenience")
    x0 = float(_finite_point(x, 1)[0])
    grid = _finite_point(np.ravel(grid), np.size(grid))
    lam = w.lattice_values(lat)
    j = lat.indices[:, 0].astype(float)
    out = np.empty(grid.size)
    for chunk in range(0, grid.size, 64):
        u = grid[chunk : chunk + 64] - x0
        out[chunk : chunk + 64] = (lam[None, :] * np.cos(np.outer(u, j))).sum(axis=1)
    return out


# Phases kernel_gram holds at once, in floats (2 MiB): a batch of point
# pairs times half the lattice.
_GRAM_BATCH = 2**18


def kernel_gram(w: SubexpWeight, lat: TruncatedLattice, points: np.ndarray) -> np.ndarray:
    """Matrix k(x_a, x_b) over a point set, each unordered pair once.

    The weight is even, lambda(j) = lambda(-j), and the box is symmetric, so
    the kernel is real: k(x, y) = lambda(0) + 2 sum_{j > 0} lambda(j)
    cos(j.(y - x)) over the lattice's positive half (the indices after 0 in
    lexicographic order).  Each pair a < b is evaluated from its difference
    x_b - x_a, as ``kernel_value`` does, and mirrored into (b, a); the
    diagonal is the same sum at difference 0.  The matrix is then exactly
    Hermitian (real symmetric, held as complex) with a constant diagonal.
    Memory beyond the matrix is O(|lat|) per pair in batches of
    ``_GRAM_BATCH`` floats.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != lat.d:
        raise ValidationError(f"points have shape {pts.shape}, the lattice dimension is {lat.d}")
    _finite_point(pts.reshape(-1), pts.size)
    lam = w.lattice_values(lat)
    mid = lat.size // 2  # the index 0; indices past it are the positive half
    freqs = lat.indices[mid + 1 :].astype(float)
    half = lam[mid + 1 :]

    def values(diff):
        # elementwise and summed along rows, so a pair's bits never depend
        # on the batch it sits in
        phases = diff[:, :1] * freqs[:, 0]
        for axis in range(1, lat.d):
            phases += diff[:, axis : axis + 1] * freqs[:, axis]
        terms = np.cos(phases, out=phases)
        terms *= half
        return lam[mid] + 2.0 * terms.sum(axis=1)

    n = pts.shape[0]
    gram = np.zeros((n, n), dtype=complex)
    rows, cols = np.triu_indices(n, 1)
    batch = max(1, _GRAM_BATCH // max(1, half.size))
    for lo in range(0, rows.size, batch):
        a, b = rows[lo : lo + batch], cols[lo : lo + batch]
        gram.real[a, b] = gram.real[b, a] = values(pts[b] - pts[a])
    np.fill_diagonal(gram.real, values(np.zeros((1, lat.d)))[0])
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
    row = np.exp(-w.tau * np.abs(np.arange(-J, J + 1, dtype=float)) ** w.p)
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


def grs_sequence(w: SubexpWeight, gamma, nmax: int) -> np.ndarray:
    """lambda(n*gamma)^(1/n) for n = 1..nmax; tends to 1 for these weights."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if np.all(gamma == 0):
        raise ValidationError("gamma must be nonzero")
    s = float(np.sum(np.abs(gamma) ** w.p))
    n = np.arange(1, nmax + 1, dtype=float)
    return np.exp(-w.tau * n ** (w.p - 1.0) * s)


def beurling_domar_sum(w: SubexpWeight, gamma, nmax: int = 100_000):
    """Partial sum of sum_n ln(1/lambda(n*gamma))/n^2 plus a closed-form tail bound.

    The summand is tau * n^(p-2) * sum_i |gamma_i|^p, so the tail beyond nmax
    is below tau * s * nmax^(p-1) / (1-p) by integral comparison.
    """
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if np.all(gamma == 0):
        raise ValidationError("gamma must be nonzero")
    s = float(np.sum(np.abs(gamma) ** w.p))
    n = np.arange(1, nmax + 1, dtype=float)
    partial = w.tau * s * float(np.sum(n ** (w.p - 2.0)))
    tail = w.tau * s * nmax ** (w.p - 1.0) / (1.0 - w.p)
    return partial, tail


def comultiplication_pairs(w: SubexpWeight, gamma, lat: TruncatedLattice):
    """All (alpha, beta, coeff) with alpha + beta = gamma inside the lattice.

    The basis vector at gamma splits as sum over such pairs with coefficient
    sqrt(lambda(alpha) lambda(beta) / lambda(gamma)).
    """
    gamma_t = (int(gamma),) if np.isscalar(gamma) else tuple(int(v) for v in gamma)
    if gamma_t not in lat:
        raise ValidationError(f"gamma {gamma_t} outside lattice")
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
    x = _finite_point(x, lat.d)
    lam = w.lattice_values(lat)
    return np.sqrt(lam) * np.exp(-1j * (lat.indices @ x))


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
