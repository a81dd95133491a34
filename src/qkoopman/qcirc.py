"""Simulated qubit realization of torus rotations with pure point spectra.

Lattice indices j with 0 < |j_i| <= 2^q per dimension map bijectively onto
n = d(q+1) qubit basis states.  Because the index decoded from the bits is
affine in the bits, the projected generator diag(i omega) decomposes into a
sum of single-qubit Z terms whose coefficients come from the Walsh
(parity-function) transform of the frequency vector, with vanishing constant
term and no weight >= 2 content.  The induced unitary therefore factorizes
into n independent single-qubit phase rotations: evolution costs O(n 2^n)
scalar work on a statevector and never materializes a 2^n x 2^n matrix.

The measured observable is the symmetrized multiplier
S_f = (D^-1 C D + D C D^-1) / 2, with D = diag(sqrt(lambda(j))) and C the
convolution by f's Fourier coefficients over the decoded indices.  For real
f, C is Hermitian, so <psi, S_f psi> = Re <D^-1 psi, C D psi>, and C acts on
a statevector as one shifted gather per support point of f in O(2^n |supp f|)
work.  Only shot sampling, which needs the eigenbasis, builds S_f densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _MAX_TERMS,
    MAX_STATEVECTOR_QUBITS,
    FourierObservable,
    RotationSystem,
    _count,
    _finite_point,
    _floats,
    _integer_key,
    _phase_check,
    _phases,
    _real,
    _same_dimension,
)
from .errors import DegeneracyError, NotAffineError, ValidationError
from .rkha import SubexpWeight, _feature_vector, fourier_multiplier_matrix

# the dense observable of shot sampling, 2^10 x 2^10 complex, takes 16 MiB
MAX_DENSE_QUBITS = 10


@dataclass(frozen=True)
class QubitEncoding:
    """Bijection between J_q^d (indices with 0 < |j_i| <= 2^q) and n-bit strings.

    Within each dimension the integer j maps to the digit j + 2^q (j < 0) or
    j + 2^q - 1 (j > 0), written as q+1 bits most-significant-first; the d
    groups are concatenated, qubit 0 being the most significant bit of the
    first dimension.  ``encode`` and ``_decode`` shift all digits at once.
    """

    d: int
    q: int

    def __post_init__(self):
        _count("d", self.d, 1)
        _count("q", self.q, 0)
        if self.n_qubits > MAX_STATEVECTOR_QUBITS:
            raise ValidationError(
                f"encoding needs {self.n_qubits} qubits (d={self.d}, q={self.q}); "
                f"the statevector limit is {MAX_STATEVECTOR_QUBITS}"
            )

    @property
    def n_qubits(self) -> int:
        return self.d * (self.q + 1)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def _shifts(self) -> np.ndarray:  # bit offset of each digit, the first one highest
        return (self.q + 1) * np.arange(self.d - 1, -1, -1)

    def encode(self, j) -> int:
        key = _integer_key(j)
        if key is None or len(key) != self.d:
            raise ValidationError(f"index must have dimension {self.d} and integral components")
        j = np.array(key)
        half = 2**self.q
        outside = (j == 0) | (np.abs(j) > half)
        if outside.any():
            raise ValidationError(f"component {j[outside][0]} outside the encodable set")
        digits = np.where(j < 0, j + half, j + half - 1)
        return int(np.sum(digits << self._shifts()))

    def bits(self, j) -> tuple:
        index = self.encode(j)
        return tuple((index >> (self.n_qubits - 1 - i)) & 1 for i in range(self.n_qubits))

    def _decode(self, indices: np.ndarray) -> np.ndarray:
        """Decoded multi-index of each basis index in an array (one row each)."""
        table = (indices[:, None] >> self._shifts()) & (2 ** (self.q + 1) - 1)
        table -= 2**self.q
        table[table >= 0] += 1
        return table

    def decode(self, index: int):
        key = _integer_key(index)
        if key is None or len(key) != 1 or not (0 <= key[0] < self.dim):
            raise ValidationError(f"basis index must be an integer in [0, {self.dim})")
        return tuple(int(v) for v in self._decode(np.array(key))[0])

    def index_table(self) -> np.ndarray:
        """Decoded multi-index for every computational basis state (one row each)."""
        return self._decode(np.arange(self.dim))


def frequency_vector(enc: QubitEncoding, sys: RotationSystem) -> np.ndarray:
    """Frequency j.alpha of the decoded index at every basis state."""
    _same_dimension(encoding=enc.d, system=sys.d)
    return enc.index_table() @ sys.alpha


def _walsh_transform(values: np.ndarray, n: int) -> np.ndarray:
    """Coefficients over parity subsets: (1/2^n) sum_b f(b) prod_{i in S}(-1)^{b_i}."""
    cube = np.array(values, dtype=float).reshape((2,) * n)
    for axis in range(n):
        plus = np.take(cube, 0, axis=axis)
        minus = np.take(cube, 1, axis=axis)
        cube = np.stack((plus + minus, plus - minus), axis=axis)
    return cube.reshape(-1) / values.size


@dataclass(frozen=True)
class WalshCoefficients:
    """Per-qubit purely imaginary Z coefficients of the projected generator.

    Entry i multiplies Z on qubit i; the reconstructed diagonal
    sum_i v_i (-1)^{b_i} equals i times the frequency at basis state b.
    """

    v: np.ndarray  # length n, purely imaginary

    @property
    def n_qubits(self) -> int:
        return self.v.size


def walsh_coefficients(freqs: np.ndarray) -> WalshCoefficients:
    """Extract the n weight-1 Walsh coefficients of a frequency vector.

    Raises if the constant term or any weight >= 2 coefficient exceeds
    1e-10 times max|freq|, since that breaks the single-qubit phase
    factorization of the evolution, and refuses a non-finite frequency.
    """
    freqs = _finite_point(freqs, np.size(freqs), "frequencies")
    size = freqs.size
    n = size.bit_length() - 1
    if 2**n != size:
        raise ValidationError("frequency vector length must be a power of two")
    coeffs = _walsh_transform(freqs, n)
    scale = float(np.max(np.abs(freqs))) or 1.0
    masks = np.arange(size)
    weight = np.zeros(size, dtype=int)
    for bit in range(n):
        weight += (masks >> bit) & 1
    offending = np.flatnonzero((weight != 1) & (np.abs(coeffs) > 1e-10 * scale))
    if offending.size:
        s = int(offending[0])
        raise NotAffineError(
            f"Walsh coefficient of weight {weight[s]} at mask {s:#b} is "
            f"{coeffs[s]:.3e}; frequencies are not affine in the bits"
        )
    # axis k of the cube is qubit k, most significant bit first: mask 1 << b is qubit n-1-b
    weight_one = coeffs[1 << np.arange(n - 1, -1, -1)]
    return WalshCoefficients(v=1j * weight_one)


def evolve_statevector(coeffs: WalshCoefficients, psi: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(t sum_i v_i Z_i) by n independent per-qubit phase pairs.

    Work and memory are O(n 2^n); no 2^n x 2^n operator is ever formed.
    """
    forward, backward = _phases(t, coeffs.v), _phases(-t, coeffs.v)  # t v_i and -t v_i
    n = coeffs.n_qubits
    _same_dimension(statevector=psi.size, register=2**n)
    cube = np.array(psi, dtype=complex).reshape((2,) * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = 2
        phases = np.exp(np.array([forward[i], backward[i]])).reshape(shape)
        cube = cube * phases
    return cube.reshape(-1)


def feature_amplitudes(enc: QubitEncoding, w: SubexpWeight, x) -> np.ndarray:
    """Unnormalized feature-state amplitudes sqrt(lambda(j)) exp(-i j.x) per state."""
    return _feature_vector(w, enc.index_table(), x)


def _weight_total(total: float, w: SubexpWeight) -> float:
    """``total``, a norm or sum of the weights on the encoded indices, unless it is 0.

    It is 0 when every weight underflows, as at a huge tau, and the
    normalized state would be 0/0: that raises a DegeneracyError naming tau.
    """
    if total == 0.0:
        raise DegeneracyError(f"tau={w.tau!r}: every weight on the encoded indices underflows to 0")
    return total


def feature_state(enc: QubitEncoding, w: SubexpWeight, x) -> np.ndarray:
    """The unit feature state; every weight underflowing raises (``_weight_total``)."""
    amps = feature_amplitudes(enc, w, x)
    return amps / _weight_total(np.linalg.norm(amps), w)


def _check_observable(enc: QubitEncoding, f: FourierObservable) -> None:
    _same_dimension(observable=f.d, encoding=enc.d)
    if not f.is_real():
        raise ValidationError("observable must be real-valued (conjugate-symmetric)")


def _projected_observable(table: np.ndarray, w: SubexpWeight, f: FourierObservable) -> np.ndarray:
    """Symmetrized multiplier of f on the encoded subspace, a Hermitian matrix.

    The raw multiplier M = D^-1 C D has entries c(i-j) sqrt(lambda(j)/lambda(i));
    only the symmetrization (M + M*)/2 is a measurable observable, and its
    feature state expectations agree with the raw multiplier's for real f.
    Dense, so limited to MAX_DENSE_QUBITS qubits.
    """
    if table.shape[0] > 2**MAX_DENSE_QUBITS:
        raise ValidationError(
            f"a dense observable is limited to {MAX_DENSE_QUBITS} qubits; "
            f"this encoding has {table.shape[0].bit_length() - 1}"
        )
    log_lam = w.log_values(table)
    scale = np.exp(0.5 * (log_lam[None, :] - log_lam[:, None]))
    m = fourier_multiplier_matrix(f.coeffs, table) * scale
    return 0.5 * (m + m.conj().T)


def _apply_convolution(table: np.ndarray, f: FourierObservable, v: np.ndarray) -> np.ndarray:
    """(C v)(i) = sum_m c(m) v(i - m) over the decoded indices, matrix-free.

    v is scattered into the (2^(q+1) + 1)^d box of indices (zero at j_i = 0),
    then every support point m of f adds one shifted gather from that box.
    """
    half = int(np.max(table))
    side = 2 * half + 1
    box = np.zeros((side,) * table.shape[1], dtype=complex)
    box[tuple((table + half).T)] = v
    out = np.zeros(v.size, dtype=complex)
    for m, c in f.coeffs.items():
        src = table - np.asarray(m) + half
        inside = np.all((src >= 0) & (src < side), axis=1)
        out[inside] += c * box[tuple(src[inside].T)]
    return out


def circuit_expectation(
    enc: QubitEncoding,
    w: SubexpWeight,
    sys: RotationSystem,
    f: FourierObservable,
    x,
    t: float,
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """Expectation of the symmetrized multiplier in the evolved feature state.

    The state evolves with exp(-t V) (state-side evolution; the sign is what
    makes the value track f composed with the forward flow, and is locked by
    a regression test).  The observable is S_f = (D^-1 C D + D C D^-1) / 2
    (module docstring), and the exact value Re <D^-1 psi_t, C D psi_t> is
    computed matrix-free.  The feature state is psi = D chi / |D chi| with
    unimodular chi_j = exp(-i j.x), and D commutes with the diagonal
    evolution, so the value is Re <chi_t, C lambda chi_t> / sum lambda and
    nothing is divided by a weight.  With ``shots`` the expectation is
    estimated by sampling measurement outcomes in the observable's eigenbasis
    with a seeded generator; only that path builds the dense S_f, so it is
    limited to MAX_DENSE_QUBITS qubits.  Where every weight on the encoded
    indices underflows, both paths raise a DegeneracyError naming tau; a
    seed outside [0, 2**64 - 1] is refused before any work.
    """
    _same_dimension(encoding=enc.d, system=sys.d)
    _check_observable(enc, f)
    _real("time", t)
    if shots is not None:
        _count("shots", shots, 1, _MAX_TERMS)
    _count("seed", seed, 0, 2**64 - 1)
    table = enc.index_table()
    coeffs = walsh_coefficients(table @ sys.alpha)
    # exp(-t V) as exp(t (-V)): the same phases, bit for bit, and a phase
    # error names the caller's t
    back = WalshCoefficients(v=-coeffs.v)
    if shots is None:
        lam = np.exp(w.log_values(table))
        total = _weight_total(np.sum(lam), w)
        x = _finite_point(x, enc.d)
        chi = np.exp(-1j * _phase_check(lambda: table @ x, "point x", x))
        chi_t = evolve_statevector(back, chi, t)
        return float(np.vdot(chi_t, _apply_convolution(table, f, lam * chi_t)).real / total)
    psi_t = evolve_statevector(back, feature_state(enc, w, x), t)
    eigenvalues, vectors = np.linalg.eigh(_projected_observable(table, w, f))
    probs = np.abs(vectors.conj().T @ psi_t) ** 2
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(eigenvalues, size=shots, p=probs)
    return float(np.mean(outcomes))


def export_circuit(coeffs: WalshCoefficients, enc: QubitEncoding, t: float, prep: np.ndarray) -> str:
    """Deterministic text form of the factorized evolution.

    One Z-rotation line per qubit with angle theta_i = -2 t Im(v_i) (the
    standard rz convention reproduces the per-qubit phases exactly); state
    preparation and measurement are described as amplitude lists rather than
    synthesized into gates.  ``prep`` holds the register's 2^n amplitudes,
    each finite; another length, or a NaN or infinite part, is refused.
    """
    prep = _floats("prep", prep, complex)
    for part in (prep.real, prep.imag):
        _finite_point(part, enc.dim, "prep")
    thetas = _phases(t, -2.0 * coeffs.v.imag).tolist()  # (-2t) v_i bitwise: doubling is exact
    lines = [
        "# diagonal phase circuit",
        f"# n={enc.n_qubits} d={enc.d} q={enc.q} t={format(t, '.17g')}",
    ]
    for i, theta in enumerate(thetas):
        lines.append(f"rz({format(theta, '.17g')}) q[{i}]")
    lines.append("# state preparation amplitudes (computational basis order)")
    for k, a in enumerate(prep):
        lines.append(f"prep[{k}] {format(a.real, '.17g')} {format(a.imag, '.17g')}")
    lines.append("# measurement: amplitude-list expectation of the exported observable")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str):
    """Invert export_circuit: returns (n, d, q, t, angles, prep).

    A text without its header, its rotation lines or its ``prep`` lines is
    refused.
    """
    n = d = q = None
    t = 0.0
    angles = []
    prep = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# n="):
            parts = dict(p.split("=") for p in line[2:].split())
            n, d, q, t = int(parts["n"]), int(parts["d"]), int(parts["q"]), float(parts["t"])
        elif line.startswith("rz("):
            angle, rest = line[3:].split(")")
            angles.append(float(angle))
        elif line.startswith("prep["):
            idx, re_part, im_part = line[5:].replace("]", "").split()
            prep[int(idx)] = float(re_part) + 1j * float(im_part)
    if n is None or len(angles) != n:
        raise ValidationError("circuit text is missing the header or rotation lines")
    if not prep:
        raise ValidationError("circuit text carries no preparation amplitudes")
    prep_vec = np.zeros(2**n, dtype=complex)
    for k, a in prep.items():
        prep_vec[k] = a
    return n, d, q, t, np.array(angles), prep_vec


def simulate_exported(text: str) -> np.ndarray:
    """Replay an exported circuit: rz phase pairs applied to the prep amplitudes."""
    _, _, _, _, angles, prep = parse_circuit(text)
    # rz(angle) on qubit i is exp(-i angle/2 Z_i): one unit step of v_i = -i angle/2
    return evolve_statevector(WalshCoefficients(v=-0.5j * angles), prep, 1.0)
