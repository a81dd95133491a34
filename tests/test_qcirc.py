import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qkoopman.dynamics import FourierObservable, RotationSystem, koopman_exact
from qkoopman.errors import NotAffineError, ValidationError
from qkoopman.qcirc import (
    MAX_DENSE_QUBITS,
    MAX_STATEVECTOR_QUBITS,
    QubitEncoding,
    WalshCoefficients,
    _walsh_transform,
    circuit_expectation,
    evolve_statevector,
    export_circuit,
    feature_amplitudes,
    feature_state,
    frequency_vector,
    parse_circuit,
    simulate_exported,
    walsh_coefficients,
)
from qkoopman.rkha import SubexpWeight, TruncatedLattice

from oracles import decode_loop, projected_observable

COS = FourierObservable({(1,): 0.5, (-1,): 0.5}, d=1)
# real observables whose support reaches past every encoded index difference
# tested here (|m| up to 2^(q+1) + 3 for the largest q)
MULTI_MODE = {
    1: FourierObservable(
        {(0,): 0.3, (1,): 0.5, (-1,): 0.5, (3,): 0.2 - 0.1j, (-3,): 0.2 + 0.1j,
         (131,): 0.05j, (-131,): -0.05j},
        d=1,
    ),
    2: FourierObservable(
        {(0, 0): -0.4, (1, 0): 0.5, (-1, 0): 0.5, (1, -2): 0.2 - 0.1j, (-1, 2): 0.2 + 0.1j,
         (0, 19): 0.3, (0, -19): 0.3},
        d=2,
    ),
}


class TestEncoding:
    def test_documented_bit_patterns(self):
        enc = QubitEncoding(d=1, q=1)
        assert enc.bits((-2,)) == (0, 0)
        assert enc.bits((1,)) == (1, 0)
        assert enc.bits((-1,)) == (0, 1)
        assert enc.bits((2,)) == (1, 1)

    def test_roundtrip_exhaustive_d2_q2(self):
        enc = QubitEncoding(d=2, q=2)
        values = [-4, -3, -2, -1, 1, 2, 3, 4]
        for j in itertools.product(values, values):
            assert enc.decode(enc.encode(j)) == j
        # and every basis state decodes into the index set
        for b in range(enc.dim):
            j = enc.decode(b)
            assert enc.encode(j) == b

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    def test_index_table_matches_decode(self, d, q):
        enc = QubitEncoding(d=d, q=q)
        table = enc.index_table()
        assert table.shape == (enc.dim, d)
        assert np.array_equal(table, np.array([decode_loop(enc, b) for b in range(enc.dim)]))
        assert all(enc.decode(b) == decode_loop(enc, b) for b in range(enc.dim))
        assert all(enc.encode(decode_loop(enc, b)) == b for b in range(enc.dim))

    @pytest.mark.parametrize("j", [[1.7], [-0.5], [math.nan], [math.inf], [1, 2], [0], [5]])
    def test_encode_rejects_non_indices(self, j):
        # [1.7] once encoded the index 1
        with pytest.raises(ValidationError):
            QubitEncoding(d=1, q=2).encode(j)

    @pytest.mark.parametrize("index", [3.5, -1, 8, math.nan, "3"])
    def test_decode_rejects_non_basis_indices(self, index):
        # 3.5 once raised a bare TypeError
        with pytest.raises(ValidationError):
            QubitEncoding(d=1, q=2).decode(index)

    def test_integral_numbers_accepted(self):
        enc = QubitEncoding(d=2, q=2)
        assert enc.encode([np.int64(-3), 2.0]) == enc.encode((-3, 2))
        assert enc.decode(np.int32(9)) == enc.decode(9.0) == decode_loop(enc, 9)

    def test_statevector_cap(self):
        assert QubitEncoding(d=1, q=MAX_STATEVECTOR_QUBITS - 1).n_qubits == MAX_STATEVECTOR_QUBITS
        with pytest.raises(ValidationError):
            QubitEncoding(d=1, q=MAX_STATEVECTOR_QUBITS)
        with pytest.raises(ValidationError):
            QubitEncoding(d=2, q=MAX_STATEVECTOR_QUBITS // 2)

    def test_zero_rejected(self):
        enc = QubitEncoding(d=1, q=2)
        with pytest.raises(ValidationError):
            enc.encode((0,))
        with pytest.raises(ValidationError):
            enc.encode((5,))


class TestFrequencyVector:
    def test_enumeration_oracle(self):
        enc = QubitEncoding(d=1, q=1)
        freqs = frequency_vector(enc, RotationSystem(np.array([1.0])))
        assert np.array_equal(freqs, [-2.0, -1.0, 1.0, 2.0])

    def test_zero_mean(self):
        enc = QubitEncoding(d=2, q=2)
        freqs = frequency_vector(enc, RotationSystem(np.array([math.sqrt(2.0), 0.3])))
        assert abs(freqs.mean()) < 1e-12

    def test_linear_in_alpha(self):
        enc = QubitEncoding(d=1, q=3)
        f1 = frequency_vector(enc, RotationSystem(np.array([1.3])))
        f2 = frequency_vector(enc, RotationSystem(np.array([2.6])))
        assert np.allclose(f2, 2.0 * f1)


def _walsh_loop_oracle(freqs, rel_tol=1e-10):
    """The former per-mask loop of walsh_coefficients: Im of v, or the error text."""
    size = freqs.size
    n = size.bit_length() - 1
    coeffs = _walsh_transform(freqs, n)
    scale = float(np.max(np.abs(freqs))) or 1.0
    weight_one = np.zeros(n)
    for s in range(size):
        weight = bin(s).count("1")
        if weight == 1:
            weight_one[n - 1 - int(math.log2(s))] = coeffs[s]
        elif abs(coeffs[s]) > rel_tol * scale:
            return (
                f"Walsh coefficient of weight {weight} at mask {s:#b} is "
                f"{coeffs[s]:.3e}; frequencies are not affine in the bits"
            )
    return weight_one


class TestWalsh:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_loop_oracle(self, n):
        rng = np.random.default_rng(n)
        shifts = np.arange(n - 1, -1, -1)
        bits = (np.arange(2**n)[:, None] >> shifts) & 1

        def parity(mask):  # the Walsh function whose only coefficient is at mask
            return 1.0 - 2.0 * ((bits @ ((mask >> shifts) & 1)) % 2)

        affine = (1.0 - 2.0 * bits) @ rng.standard_normal(n)
        cases = [affine, affine + 0.25]  # the second has a constant term
        heavy = [s for s in range(2**n) if bin(s).count("1") >= 2]
        for _ in range(3 if heavy else 0):
            # two weight >= 2 terms: the error must name the lower mask
            low, high = sorted(rng.choice(heavy, 2, replace=len(heavy) < 2))
            cases.append(affine + 0.3 * parity(high) + 1e-3 * parity(low))
        for freqs in cases:
            expected = _walsh_loop_oracle(freqs)
            if isinstance(expected, str):
                with pytest.raises(NotAffineError) as err:
                    walsh_coefficients(freqs)
                assert str(err.value) == expected
            else:
                assert np.array_equal(walsh_coefficients(freqs).v, 1j * expected)

    def test_documented_example(self):
        enc = QubitEncoding(d=1, q=1)
        freqs = frequency_vector(enc, RotationSystem(np.array([1.0])))
        coeffs = walsh_coefficients(freqs)
        assert coeffs.v[0] == pytest.approx(1j * -1.5)
        assert coeffs.v[1] == pytest.approx(1j * -0.5)

    def test_dense_hadamard_oracle(self):
        enc = QubitEncoding(d=1, q=1)
        freqs = frequency_vector(enc, RotationSystem(np.array([1.0])))
        h = np.array([[1.0, 1.0], [1.0, -1.0]])
        h4 = np.kron(h, h)
        dense = h4 @ freqs / 4.0  # coefficient at mask s, bit order MSB-first
        coeffs = walsh_coefficients(freqs)
        assert dense[0b10] == pytest.approx(coeffs.v[0].imag)
        assert dense[0b01] == pytest.approx(coeffs.v[1].imag)
        assert abs(dense[0b00]) < 1e-12 and abs(dense[0b11]) < 1e-12

    def test_reconstruction(self):
        enc = QubitEncoding(d=2, q=2)
        sys = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(3.0)]))
        freqs = frequency_vector(enc, sys)
        coeffs = walsh_coefficients(freqs)
        n = enc.n_qubits
        rebuilt = np.zeros(enc.dim)
        for b in range(enc.dim):
            signs = [1.0 if (b >> (n - 1 - i)) & 1 == 0 else -1.0 for i in range(n)]
            rebuilt[b] = sum(coeffs.v[i].imag * signs[i] for i in range(n))
        assert np.max(np.abs(rebuilt - freqs)) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_affinity_all_small_encodings(self, d, q):
        alpha = np.array([math.sqrt(2.0), math.sqrt(3.0)])[:d]
        enc = QubitEncoding(d=d, q=q)
        freqs = frequency_vector(enc, RotationSystem(alpha))
        walsh_coefficients(freqs)  # raises NotAffineError on failure

    def test_non_affine_rejected(self):
        freqs = np.array([0.0, 1.0, 1.0, 0.0])  # pure weight-2 parity
        with pytest.raises(NotAffineError):
            walsh_coefficients(freqs)

    def test_zero_frequencies(self):
        coeffs = walsh_coefficients(np.zeros(8))
        assert np.all(coeffs.v == 0)


class TestEvolveStatevector:
    def test_identity_at_t0(self):
        rng = np.random.default_rng(0)
        coeffs = WalshCoefficients(v=1j * rng.standard_normal(3))
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(evolve_statevector(coeffs, psi, 0.0), psi)

    def test_single_qubit_phases(self):
        coeffs = WalshCoefficients(v=np.array([0.7j]))
        psi = np.array([1.0 + 0j, 1.0 + 0j]) / math.sqrt(2)
        out = evolve_statevector(coeffs, psi, 2.0)
        assert out[0] == pytest.approx(psi[0] * np.exp(1.4j))
        assert out[1] == pytest.approx(psi[1] * np.exp(-1.4j))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_dense_expm(self, n):
        rng = np.random.default_rng(n)
        v = 1j * rng.standard_normal(n)
        coeffs = WalshCoefficients(v=v)
        z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        dense = np.zeros((2**n, 2**n), dtype=complex)
        for i in range(n):
            term = np.array([[1.0]], dtype=complex)
            for k in range(n):
                term = np.kron(term, z if k == i else np.eye(2))
            dense += v[i] * term
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
        for _ in range(20 if n <= 4 else 5):
            t = float(rng.uniform(-3, 3))
            psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            psi /= np.linalg.norm(psi)
            fast = evolve_statevector(coeffs, psi, t)
            slow = np.exp(t * np.diag(dense)) * psi  # expm of the diagonal dense
            assert np.max(np.abs(fast - slow)) <= 1e-10

    def test_unitary_and_group_law(self):
        rng = np.random.default_rng(5)
        coeffs = WalshCoefficients(v=1j * rng.standard_normal(4))
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi /= np.linalg.norm(psi)
        out = evolve_statevector(coeffs, psi, 1.3)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-13)
        two = evolve_statevector(coeffs, evolve_statevector(coeffs, psi, 0.4), 0.9)
        assert np.max(np.abs(two - out)) < 1e-13

    def test_non_finite_time_rejected(self):
        # t = nan once returned NaN amplitudes
        coeffs = WalshCoefficients(v=np.array([0.7j, 0.2j]))
        with pytest.raises(ValidationError, match="finite"):
            evolve_statevector(coeffs, np.ones(4, dtype=complex) / 2, math.nan)

    def test_allocation_budget(self):
        # the factorized evolution must never build a 2^n x 2^n matrix
        n = 12
        rng = np.random.default_rng(6)
        coeffs = WalshCoefficients(v=1j * rng.standard_normal(n))
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        tracemalloc.start()
        evolve_statevector(coeffs, psi, 1.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        statevector_bytes = 16 * 2**n
        assert peak < 32 * statevector_bytes  # dense operator would need 2^n times more


class TestFeatureState:
    W = SubexpWeight(0.2, 0.5)

    def test_constant_modulus_profile(self):
        enc = QubitEncoding(d=1, q=3)
        psi_a = np.abs(feature_state(enc, self.W, [0.7]))
        psi_b = np.abs(feature_state(enc, self.W, [2.9]))
        assert np.allclose(psi_a, psi_b, atol=1e-13)

    def test_norm_squared_is_lattice_weight_sum(self):
        enc = QubitEncoding(d=1, q=4)
        amps = feature_amplitudes(enc, self.W, [1.1])
        lat = TruncatedLattice(1, 16)
        lam = self.W.lattice_values(lat)
        expected = float(np.sum(lam)) - 1.0  # index 0 is excluded from the encoding
        assert np.vdot(amps, amps).real == pytest.approx(expected, abs=1e-12)

    def test_overlap_peaks_at_matching_point(self):
        enc = QubitEncoding(d=1, q=4)
        x = 2.0
        psi_x = feature_state(enc, self.W, [x])
        grid = np.linspace(0, 2 * math.pi, 128, endpoint=False)
        overlaps = [abs(np.vdot(feature_state(enc, self.W, [y]), psi_x)) for y in grid]
        assert abs(grid[int(np.argmax(overlaps))] - x) < 2 * math.pi / 64


class TestProjectedObservable:
    W = SubexpWeight(0.2, 0.5)

    def test_constant_gives_identity(self):
        enc = QubitEncoding(d=1, q=2)
        s = projected_observable(enc, self.W, FourierObservable.constant(3.0, d=1))
        assert np.array_equal(s, 3.0 * np.eye(enc.dim))

    def test_two_cosine_band_structure(self):
        enc = QubitEncoding(d=1, q=2)
        f = FourierObservable({(1,): 1.0, (-1,): 1.0}, d=1)  # 2 cos(theta)
        s = projected_observable(enc, self.W, f)
        table = enc.index_table()
        for a in range(enc.dim):
            for b in range(enc.dim):
                gap = int(table[a][0] - table[b][0])
                if abs(gap) != 1:
                    assert s[a, b] == 0.0
                else:
                    la = self.W.value(tuple(table[a]))
                    lb = self.W.value(tuple(table[b]))
                    expected = 0.5 * (math.sqrt(lb / la) + math.sqrt(la / lb))
                    assert s[a, b] == pytest.approx(expected, abs=1e-12)

    def test_quadrature_oracle_for_matrix_elements(self):
        # <psi_i, f psi_j> against dense quadrature of conj(psi_i) f psi_j / lambda
        enc = QubitEncoding(d=1, q=2)
        f = FourierObservable({(1,): 1.0, (-1,): 1.0}, d=1)
        table = enc.index_table()
        grid = 512
        theta = np.arange(grid) * 2 * math.pi / grid
        fvals = 2.0 * np.cos(theta)
        raw = np.zeros((enc.dim, enc.dim), dtype=complex)
        for a in range(enc.dim):
            ia = table[a][0]
            la = self.W.value((ia,))
            for b in range(enc.dim):
                jb = table[b][0]
                lb = self.W.value((jb,))
                psi_a = math.sqrt(la) * np.exp(1j * ia * theta)
                fpsi_b = fvals * math.sqrt(lb) * np.exp(1j * jb * theta)
                # basis inner product weights Fourier coefficients by 1/lambda;
                # the product is band-limited so the grid mean is exact
                raw[a, b] = np.mean(np.conj(psi_a) * fpsi_b) / la
        s = projected_observable(enc, self.W, f)
        sym = 0.5 * (raw + raw.conj().T)
        assert np.max(np.abs(s - sym)) < 1e-12

    def test_hermitian_exactly(self):
        enc = QubitEncoding(d=1, q=3)
        s = projected_observable(enc, self.W, COS)
        assert np.array_equal(s, s.conj().T)

    def test_non_real_rejected(self):
        enc = QubitEncoding(d=1, q=2)
        with pytest.raises(ValidationError):
            projected_observable(enc, self.W, FourierObservable({(1,): 1.0}, d=1))

    @pytest.mark.parametrize("d, q", [(1, 1), (1, 5), (2, 2)])
    def test_matches_loop_oracle(self, d, q):
        # the double loop projected_observable replaced; the weight ratios come
        # from math.exp there and np.exp here, so they agree to rounding only
        enc = QubitEncoding(d=d, q=q)
        f = MULTI_MODE[d]
        table = enc.index_table()
        log_lam = -self.W.tau * np.sum(np.abs(table) ** self.W.p, axis=1)
        raw = np.zeros((enc.dim, enc.dim), dtype=complex)
        for a in range(enc.dim):
            for b in range(enc.dim):
                c = f.coeffs.get(tuple(int(v) for v in (table[a] - table[b])))
                if c is not None:
                    raw[a, b] = c * math.exp(0.5 * (log_lam[b] - log_lam[a]))
        oracle = 0.5 * (raw + raw.conj().T)
        s = projected_observable(enc, self.W, f)
        assert np.array_equal(s == 0, oracle == 0)
        assert np.max(np.abs(s - oracle)) <= 1e-15 * np.max(np.abs(oracle))

    def test_dense_cap(self):
        enc = QubitEncoding(d=1, q=MAX_DENSE_QUBITS)
        with pytest.raises(ValidationError):
            projected_observable(enc, self.W, COS)


class TestCircuitExpectation:
    W = SubexpWeight(0.2, 0.5)
    SYS = RotationSystem(np.array([math.sqrt(2.0)]))

    def test_constant_exact(self):
        enc = QubitEncoding(d=1, q=3)
        c = FourierObservable.constant(1.75, d=1)
        for t in (0.0, 2.0):
            val = circuit_expectation(enc, self.W, self.SYS, c, [1.0], t)
            assert val == pytest.approx(1.75, abs=1e-13)

    def test_error_decreases_with_resolution(self):
        x, t = 1.0, 0.0
        errors = []
        for q in range(2, 7):
            enc = QubitEncoding(d=1, q=q)
            val = circuit_expectation(enc, self.W, self.SYS, COS, [x], t)
            errors.append(abs(val - math.cos(x)))
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_forward_flow_regression(self):
        # the state-evolution sign tracks f(Phi^t x), not f(Phi^-t x)
        enc = QubitEncoding(d=1, q=6)
        x, t = 1.0, 2.0
        val = circuit_expectation(enc, self.W, self.SYS, COS, [x], t)
        forward = koopman_exact(COS, self.SYS, t).evaluate([x]).real
        backward = koopman_exact(COS, self.SYS, -t).evaluate([x]).real
        assert abs(val - forward) < 0.05
        assert abs(val - forward) < abs(val - backward)

    def test_time_invariance_of_error(self):
        enc = QubitEncoding(d=1, q=4)
        x, t = 0.7, 1.9
        val_t = circuit_expectation(enc, self.W, self.SYS, COS, [x], t)
        err_t = abs(val_t - math.cos(x + t * self.SYS.alpha[0]))
        shifted = (x + t * self.SYS.alpha[0]) % (2 * math.pi)
        val_0 = circuit_expectation(enc, self.W, self.SYS, COS, [shifted], 0.0)
        err_0 = abs(val_0 - math.cos(shifted))
        assert abs(err_t - err_0) < 1e-10

    def test_sampling_estimator_converges(self):
        enc = QubitEncoding(d=1, q=3)
        exact = circuit_expectation(enc, self.W, self.SYS, COS, [1.0], 1.0)
        sampled = circuit_expectation(
            enc, self.W, self.SYS, COS, [1.0], 1.0, shots=200_000, seed=11
        )
        assert abs(sampled - exact) < 0.01

    @pytest.mark.parametrize(
        "d, q", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 1), (2, 2), (2, 3)]
    )
    @pytest.mark.parametrize("name", ["cos", "constant", "multi"])
    def test_matrix_free_matches_dense(self, d, q, name):
        enc = QubitEncoding(d=d, q=q)
        sys = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(3.0)])[:d])
        f = {
            "cos": FourierObservable({(1,) + (0,) * (d - 1): 0.5, (-1,) + (0,) * (d - 1): 0.5}, d=d),
            "constant": FourierObservable.constant(1.75, d=d),
            "multi": MULTI_MODE[d],
        }[name]
        x = [1.0, 2.5][:d]
        s_f = projected_observable(enc, self.W, f)
        coeffs = walsh_coefficients(frequency_vector(enc, sys))
        for t in (0.0, 0.7, 2.0):
            psi_t = evolve_statevector(coeffs, feature_state(enc, self.W, x), -t)
            dense = np.vdot(psi_t, s_f @ psi_t).real
            fast = circuit_expectation(enc, self.W, sys, f, x, t)
            assert abs(fast - dense) <= 1e-12

    @pytest.mark.parametrize("shots", [1, 1000])
    def test_shots_over_dense_cap_rejected(self, shots):
        enc = QubitEncoding(d=1, q=MAX_DENSE_QUBITS)
        with pytest.raises(ValidationError):
            circuit_expectation(enc, self.W, self.SYS, COS, [1.0], 1.0, shots=shots)

    def test_non_real_rejected(self):
        enc = QubitEncoding(d=1, q=2)
        with pytest.raises(ValidationError):
            circuit_expectation(enc, self.W, self.SYS, FourierObservable({(1,): 1.0}, d=1), [1.0], 0.0)

    def test_sampling_deterministic_per_seed(self):
        enc = QubitEncoding(d=1, q=2)
        a = circuit_expectation(enc, self.W, self.SYS, COS, [1.0], 1.0, shots=100, seed=5)
        b = circuit_expectation(enc, self.W, self.SYS, COS, [1.0], 1.0, shots=100, seed=5)
        assert a == b

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x,t", [([1.0, 2.0], 1.0), ([], 1.0), ([math.inf], 1.0),
                                     ([math.nan], 1.0), ([1.0], math.nan), ([1.0], math.inf)])
    @pytest.mark.parametrize("shots", [None, 100])
    def test_bad_point_or_time_rejected(self, x, t, shots):
        # a wrong length once raised numpy's matmul ValueError, t = nan
        # returned nan and x = inf an invalid-value RuntimeWarning
        enc = QubitEncoding(d=1, q=2)
        with pytest.raises(ValidationError, match="dimension|finite"):
            circuit_expectation(enc, self.W, self.SYS, COS, x, t, shots=shots)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [feature_amplitudes, feature_state])
    @pytest.mark.parametrize("x", [[1.0, 2.0], [math.inf], [math.nan]])
    def test_feature_state_bad_point_rejected(self, build, x):
        with pytest.raises(ValidationError, match="dimension|finite"):
            build(QubitEncoding(d=1, q=2), self.W, x)


class TestExport:
    def test_line_count_and_zero_angles(self):
        enc = QubitEncoding(d=1, q=2)
        freqs = frequency_vector(enc, RotationSystem(np.array([1.0])))
        coeffs = walsh_coefficients(freqs)
        text = export_circuit(coeffs, enc, 0.0)
        rz_lines = [l for l in text.splitlines() if l.startswith("rz(")]
        assert len(rz_lines) == enc.n_qubits
        assert all(l.startswith("rz(0)") or l.startswith("rz(-0)") for l in rz_lines)

    def test_non_finite_time_rejected(self):
        # t = nan once wrote rz(nan) lines
        enc = QubitEncoding(d=1, q=2)
        coeffs = walsh_coefficients(frequency_vector(enc, RotationSystem(np.array([1.0]))))
        with pytest.raises(ValidationError, match="finite"):
            export_circuit(coeffs, enc, math.nan)

    def test_roundtrip_reproduces_evolution(self):
        enc = QubitEncoding(d=1, q=3)
        sys = RotationSystem(np.array([math.sqrt(2.0)]))
        coeffs = walsh_coefficients(frequency_vector(enc, sys))
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(enc.dim) + 1j * rng.standard_normal(enc.dim)
        psi /= np.linalg.norm(psi)
        t = 1.7
        text = export_circuit(coeffs, enc, t, prep=psi)
        n, d, q, t_back, angles, prep = parse_circuit(text)
        assert (n, d, q) == (enc.n_qubits, 1, 3)
        assert t_back == t
        replayed = simulate_exported(text)
        direct = evolve_statevector(coeffs, psi, t)
        assert np.max(np.abs(replayed - direct)) <= 1e-12
