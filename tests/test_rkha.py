import itertools
import math

import numpy as np
import pytest
from oracles import direct_convolve, kernel_value_complex

from qkoopman.dynamics import TWO_PI, FourierObservable
from qkoopman import rkha
from qkoopman.errors import ValidationError
from qkoopman.rkha import (
    G_TAU,
    K_STAR,
    K_TAU,
    DiagonalSmoother,
    SubexpWeight,
    TruncatedLattice,
    apply_smoother,
    beurling_domar_sum,
    compose_smoothers,
    comultiplication_pairs,
    feature_coefficients,
    grs_sequence,
    kernel_gram,
    kernel_row,
    kernel_value,
    subconvolutivity_constant,
    truncated_autoconvolution,
)


class TestWeight:
    def test_point_values(self):
        w = SubexpWeight(1.0, 0.5)
        assert w.value((0,)) == 1.0
        assert w.value((4,)) == pytest.approx(math.exp(-2.0))
        w2 = SubexpWeight(0.5, 0.5, d=2)
        assert w2.value((1, 4)) == pytest.approx(math.exp(-1.5))

    def test_symmetry_and_range(self):
        w = SubexpWeight(0.7, 0.3)
        lat = TruncatedLattice(1, 20)
        vals = w.lattice_values(lat)
        assert np.all(vals > 0) and np.all(vals <= 1.0)
        assert vals[lat.position((5,))] == vals[lat.position((-5,))]

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            SubexpWeight(-1.0, 0.5)
        with pytest.raises(ValidationError):
            SubexpWeight(1.0, 1.0)

    def test_weight_product_semigroup(self):
        wa, wb = SubexpWeight(0.4, 0.5), SubexpWeight(0.6, 0.5)
        lat = TruncatedLattice(1, 32)
        prod = wa.lattice_values(lat) * wb.lattice_values(lat)
        comb = wa.combined(wb).lattice_values(lat)
        assert np.max(np.abs(prod - comb) / comb) < 5e-16


class TestLattice:
    def test_enumeration_order(self):
        lat = TruncatedLattice(2, 1)
        assert lat.size == 9
        assert tuple(lat.indices[0]) == (-1, -1)
        assert tuple(lat.indices[-1]) == (1, 1)
        # lexicographic by (j_1, ..., j_d)
        as_tuples = [tuple(r) for r in lat.indices]
        assert as_tuples == sorted(as_tuples)

    def test_roundtrip(self):
        lat = TruncatedLattice(1, 4)
        f = FourierObservable({(-3,): 2.0, (1,): 1j}, d=1)
        vec = lat.observable_vector(f)
        g = lat.vector_observable(vec)
        assert g.coeffs == f.coeffs

    @pytest.mark.parametrize("d,J", [(1, 0), (1, 5), (2, 0), (2, 3), (3, 2), (4, 1)])
    def test_indices_match_product_enumeration(self, d, J):
        lat = TruncatedLattice(d, J)
        want = np.array(list(itertools.product(range(-J, J + 1), repeat=d)), dtype=int)
        assert lat.indices.dtype == want.dtype and np.array_equal(lat.indices, want)
        assert lat.indices.flags.c_contiguous

    @pytest.mark.parametrize("d,J", [(1, 0), (1, 5), (2, 3), (3, 2)])
    def test_position_and_membership_match_enumeration(self, d, J):
        lat = TruncatedLattice(d, J)
        table = {tuple(row): k for k, row in enumerate(lat.indices.tolist())}
        for key, k in table.items():
            assert key in lat and lat.position(key) == k
            as_numpy = np.array(key, dtype=np.int32)
            assert as_numpy in lat and lat.position(as_numpy) == k
            assert lat.position([np.int64(v) for v in key]) == k
            if d == 1:
                assert key[0] in lat and lat.position(key[0]) == k
                assert lat.position(np.int16(key[0])) == k
        # out of the box, then of the wrong length (a scalar is a 1-tuple)
        outside = [(J + 1,) + (0,) * (d - 1), (0,) * (d - 1) + (-J - 1,), -J - 1,
                   (0,) * (d - 1), (0,) * (d + 1)]
        for key in outside:
            assert key not in lat
            with pytest.raises(ValidationError):
                lat.position(key)

    @pytest.mark.parametrize("key", [1.7, (0.5,), (math.nan,), math.inf, "1", [[1]]])
    def test_non_integral_index_is_outside(self, key):
        # 1.7 once answered for 1, and 1.7 in lat was True
        lat = TruncatedLattice(1, 4)
        assert key not in lat
        with pytest.raises(ValidationError):
            lat.position(key)

    def test_integral_floats_are_inside(self):
        lat = TruncatedLattice(2, 3)
        assert (1.0, -2.0) in lat and lat.position((1.0, -2.0)) == lat.position((1, -2))


class TestKernel:
    def test_diagonal_series_oracle(self):
        w = SubexpWeight(1.0, 0.5)
        lat = TruncatedLattice(1, 50)
        expected = 1.0 + 2.0 * sum(math.exp(-math.sqrt(m)) for m in range(1, 51))
        got = kernel_value(w, lat, [0.3], [0.3])
        assert got.real == pytest.approx(expected, abs=1e-12)
        assert abs(got.imag) < 1e-12

    @pytest.mark.parametrize("x,y", [([math.nan], [0.3]), ([0.3], [math.nan])])
    def test_non_finite_point_rejected(self, x, y):
        # a NaN point once returned k = nan
        with pytest.raises(ValidationError, match="finite"):
            kernel_value(SubexpWeight(1.0, 0.5), TruncatedLattice(1, 4), x, y)

    def test_row_sum_is_one(self):
        # only the weight at 0 survives averaging over a fine uniform grid
        w = SubexpWeight(1.0, 0.5)
        lat = TruncatedLattice(1, 64)
        grid = np.arange(512) * TWO_PI / 512
        row = kernel_row(w, lat, [1.1], grid)
        assert np.mean(row) == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_on_grid(self):
        w = SubexpWeight(1.0, 0.5)
        lat = TruncatedLattice(1, 64)
        grid = np.arange(512) * TWO_PI / 512
        row = kernel_row(w, lat, [0.0], grid)
        assert row.min() >= -1e-10

    def test_hermitian_symmetry(self):
        w = SubexpWeight(0.5, 0.5, d=2)
        lat = TruncatedLattice(2, 6)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x, y = rng.uniform(0, TWO_PI, 2), rng.uniform(0, TWO_PI, 2)
            kxy = kernel_value(w, lat, x, y)
            kyx = kernel_value(w, lat, y, x)
            assert abs(kxy - kyx.conjugate()) < 1e-14
            assert abs(kxy.imag) < 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 5, 17])
    def test_gram_matches_kernel_value_loop(self, d, n):
        w = SubexpWeight(0.7, 0.5, d=d)
        lat = TruncatedLattice(d, 9 if d == 1 else 4)
        pts = np.random.default_rng(10 * d + n).uniform(0, TWO_PI, size=(n, d))
        oracle = np.array(
            [[kernel_value_complex(w, lat, pts[a], pts[b]) for b in range(n)] for a in range(n)]
        )
        gram = kernel_gram(w, lat, pts)
        assert np.max(np.abs(gram - oracle)) <= 1e-14
        assert np.max(np.abs(gram - gram.conj().T)) == 0.0
        assert np.ptp(np.diag(gram).real) == 0.0

    @pytest.mark.parametrize("d,J,n,offset", [(1, 16, 40, 1e6), (2, 12, 64, 0.0),
                                              (2, 4, 17, 1e6)])
    def test_gram_pairs_match_kernel_value_loop(self, d, J, n, offset):
        # each pair from its own difference, as the complex sum forms it:
        # far from the origin, a product of feature vectors e^{-ij.x} would
        # be off by about 1e-9 (the phases' rounding at |j.x| ~ 1e7).  The
        # bound is 1e-14 of the largest entry k(x, x) = sum lambda, 36 at
        # d = 2, J = 12, where two orders of the same sum differ by 3 ulps
        w = SubexpWeight(0.7, 0.5, d=d)
        lat = TruncatedLattice(d, J)
        pts = offset + np.random.default_rng(n).uniform(0, TWO_PI, size=(n, d))
        oracle = np.array(
            [[kernel_value_complex(w, lat, pts[a], pts[b]) for b in range(n)] for a in range(n)]
        )
        gram = kernel_gram(w, lat, pts)
        assert np.max(np.abs(gram - oracle)) <= 1e-14 * max(1.0, np.sum(w.lattice_values(lat)))
        assert np.max(np.abs(gram - gram.conj().T)) == 0.0
        assert np.ptp(np.diag(gram).real) == 0.0

    @pytest.mark.parametrize("d,J,offset", [(1, 16, 0.0), (1, 16, 1e6), (2, 12, 0.0), (2, 4, 1e6),
                                            (3, 2, 0.0)])
    def test_value_real_and_within_complex_sum(self, d, J, offset):
        # the real half-lattice sum leaves no imaginary rounding residue
        w = SubexpWeight(0.7, 0.5, d=d)
        lat = TruncatedLattice(d, J)
        pts = offset + np.random.default_rng(J).uniform(0, TWO_PI, size=(6, d))
        bound = 1e-14 * np.sum(w.lattice_values(lat))
        for x, y in itertools.product(pts, pts):
            got = kernel_value(w, lat, x, y)
            assert got.imag == 0.0
            assert abs(got - kernel_value_complex(w, lat, x, y)) <= bound

    @pytest.mark.parametrize("d,J,n", [(1, 16, 40), (2, 4, 17), (3, 2, 9)])
    def test_gram_entries_are_kernel_values(self, d, J, n):
        w = SubexpWeight(0.7, 0.5, d=d)
        lat = TruncatedLattice(d, J)
        pts = 1e6 + np.random.default_rng(n).uniform(0, TWO_PI, size=(n, d))
        gram = kernel_gram(w, lat, pts)
        for a, b in itertools.product(range(n), range(n)):
            assert gram[a, b] == kernel_value(w, lat, pts[a], pts[b])

    @pytest.mark.parametrize("x", [0.0, 1.1, -1e6])
    def test_row_entries_are_kernel_values(self, x):
        w = SubexpWeight(0.7, 0.5)
        lat = TruncatedLattice(1, 64)
        grid = np.arange(300) * TWO_PI / 300
        row = kernel_row(w, lat, [x], grid)
        assert all(row[i] == kernel_value(w, lat, [x], [g]).real for i, g in enumerate(grid))

    def test_gram_in_batches_of_pairs(self, monkeypatch):
        # 100 phases per batch at J = 9: batches of 11 pairs, the last partial
        w = SubexpWeight(0.7, 0.5)
        lat = TruncatedLattice(1, 9)
        pts = np.random.default_rng(3).uniform(0, TWO_PI, size=(13, 1))
        whole = kernel_gram(w, lat, pts)
        monkeypatch.setattr(rkha, "_GRAM_BATCH", 100)
        assert kernel_gram(w, lat, pts).tobytes() == whole.tobytes()

    def test_gram_rejects_point_dimension(self):
        w = SubexpWeight(0.7, 0.5, d=2)
        with pytest.raises(ValidationError):
            kernel_gram(w, TruncatedLattice(2, 3), np.zeros((4, 3)))

    def test_gram_psd(self):
        w = SubexpWeight(1.0, 0.5)
        lat = TruncatedLattice(1, 32)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, TWO_PI, size=(32, 1))
        gram = kernel_gram(w, lat, pts)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        assert eigs.min() >= -1e-10


class TestPointChecks:
    """Every kernel evaluation refuses a non-finite or wrong-length point."""

    W = SubexpWeight(1.0, 0.5)
    LAT = TruncatedLattice(1, 4)

    @pytest.mark.parametrize("x,grid", [([math.nan], [0.0, 1.0]), ([0.0], [0.0, math.inf]),
                                        ([0.0], [math.nan])])
    def test_kernel_row_non_finite(self, x, grid):
        # a NaN point or grid value once gave a NaN row
        with pytest.raises(ValidationError, match="finite"):
            kernel_row(self.W, self.LAT, x, np.array(grid))

    def test_kernel_row_longer_point(self):
        # [0.0, 5.0] once gave the row of [0.0]
        with pytest.raises(ValidationError, match="dimension"):
            kernel_row(self.W, self.LAT, [0.0, 5.0], np.arange(4.0))

    @pytest.mark.parametrize("pts", [[[0.0], [math.nan]], [[math.inf]]])
    def test_kernel_gram_non_finite(self, pts):
        # a NaN point once gave a NaN row and column
        with pytest.raises(ValidationError, match="finite"):
            kernel_gram(self.W, self.LAT, np.array(pts))

    @pytest.mark.parametrize("x", [[math.nan], [0.0, 5.0]])
    def test_feature_coefficients_bad_point(self, x):
        # a NaN point once gave NaN coefficients
        with pytest.raises(ValidationError):
            feature_coefficients(self.W, self.LAT, x)


class TestSubconvolutivity:
    # d = 3 stops at J = 12: a 49^3 cube takes 45 s through the direct sum
    @pytest.mark.parametrize("d,J", [(d, J) for d in (1, 2, 3) for J in (0, 1, 6, 12, 24)
                                     if (d, J) != (3, 24)])
    @pytest.mark.parametrize("tau,p", [(1.0, 0.5), (0.3, 0.9), (2.5, 0.2), (0.05, 0.5)])
    def test_per_axis_matches_dense_oracle(self, d, J, tau, p):
        # the replaced path: the weight cube through the n-d direct sum
        w, lat = SubexpWeight(tau, p, d), TruncatedLattice(d, J)
        cube = w.lattice_values(lat).reshape((2 * J + 1,) * d)
        centre = tuple(slice(J, 3 * J + 1) for _ in range(d))
        want = direct_convolve(cube, cube)[centre].reshape(lat.size)
        got = truncated_autoconvolution(w, lat)
        assert np.max(np.abs(got - want) / want) <= 1e-13
        lam = w.lattice_values(lat)
        want_c = float(np.max(want / lam))
        assert abs(subconvolutivity_constant(w, lat) - want_c) <= 1e-13 * want_c

    def test_underflowing_weight_gives_finite_constant(self):
        # lambda = exp(-1000 sqrt|j|) underflows to 0 for |j| >= 1 and
        # exp(-1000 (sqrt|k| + sqrt|j-k|)) too, so only j = 0 enters the max
        w, lat = SubexpWeight(1000.0, 0.5), TruncatedLattice(1, 64)
        assert np.count_nonzero(w.lattice_values(lat)) < lat.size
        value = subconvolutivity_constant(w, lat)
        assert math.isfinite(value) and value == 1.0

    def test_stable_under_doubling(self):
        w = SubexpWeight(1.0, 0.5)
        values = [subconvolutivity_constant(w, TruncatedLattice(1, j)) for j in (16, 32, 64)]
        assert values[0] < values[1] < values[2]
        assert values[1] / values[0] <= 1.5
        assert values[2] / values[1] <= 1.5

    def test_convolution_at_zero_two_ways(self):
        w = SubexpWeight(1.0, 0.5)
        lat = TruncatedLattice(1, 24)
        conv = truncated_autoconvolution(w, lat)
        lam = w.lattice_values(lat)
        assert conv[lat.position((0,))] == pytest.approx(np.sum(lam**2), abs=1e-12)


def kronecker_convolve(a, b):
    """Full n-d convolution as one 1-d ``np.convolve`` (Kronecker substitution).

    Both operands are zero-padded to the output's shape and flattened; an
    index sum i + j stays inside that shape, so it never carries between
    axes, and the 1-d convolution's leading entries are the n-d one's.
    """
    shape = tuple(m + n - 1 for m, n in zip(a.shape, b.shape))
    flat = [np.pad(x, [(0, s - n) for s, n in zip(shape, x.shape)]).ravel() for x in (a, b)]
    return np.convolve(*flat)[: math.prod(shape)].reshape(shape)


class TestDirectConvolve:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_scipy_direct(self, d, dtype):
        # the cross-check scipy.signal.convolve gave, from np.convolve, so that
        # the tests need no scipy
        rng = np.random.default_rng(d)
        for _ in range(10):
            arrays = []
            for shape in (tuple(rng.integers(1, 7, d)), tuple(rng.integers(1, 7, d))):
                a = rng.standard_normal(shape)
                if dtype is complex:
                    a = a + 1j * rng.standard_normal(shape)
                arrays.append(a)
            got = direct_convolve(*arrays)
            want = kronecker_convolve(*arrays)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_unit_impulse_is_exact(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        assert np.array_equal(direct_convolve(np.ones((1, 1)), b), b)
        assert np.array_equal(direct_convolve(b, np.ones((1, 1))), b)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            direct_convolve(np.ones(3), np.ones((3, 3)))


class TestGrowthConditions:
    def test_grs_point_value(self):
        w = SubexpWeight(1.0, 0.5)
        seq = grs_sequence(w, (1,), 100)
        assert seq[99] == pytest.approx(math.exp(-0.1))

    def test_grs_monotone_to_one(self):
        w = SubexpWeight(1.0, 0.5)
        seq = grs_sequence(w, (2,), 10_000)
        assert np.all(np.diff(seq) > 0)
        assert 1.0 - seq[-1] <= 0.01 * math.sqrt(2)  # |2|^0.5 scales the exponent

    def test_grs_at_1e4(self):
        w = SubexpWeight(1.0, 0.5)
        seq = grs_sequence(w, (1,), 10_000)
        assert 1.0 - seq[-1] <= 0.01

    def test_bd_partial_sum_converges(self):
        w = SubexpWeight(1.0, 0.5)
        partial, tail = beurling_domar_sum(w, (1,), nmax=100_000)
        assert math.isfinite(partial)
        assert tail < 1e-2 * partial

    @pytest.mark.parametrize("gamma", [(math.nan,), (math.inf,), (1.0, -math.inf), (0, 0)])
    @pytest.mark.parametrize("diagnostic", [beurling_domar_sum, grs_sequence])
    def test_gamma_finite_and_nonzero(self, diagnostic, gamma):
        # (nan,) once gave (nan, nan) and (inf,) a GRS row of zeros
        with pytest.raises(ValidationError, match="gamma"):
            diagnostic(SubexpWeight(1.0, 0.5), gamma, 3)

    @pytest.mark.parametrize("nmax", [0, -3])
    @pytest.mark.parametrize("diagnostic", [beurling_domar_sum, grs_sequence])
    def test_nmax_at_least_one(self, diagnostic, nmax):
        # beurling_domar_sum once raised ZeroDivisionError at 0 and gave a
        # complex tail at -3
        with pytest.raises(ValidationError, match="nmax"):
            diagnostic(SubexpWeight(1.0, 0.5), (1,), nmax)


class TestComultiplication:
    def test_unit_terms(self):
        w = SubexpWeight(1.0, 0.5)
        lat = TruncatedLattice(1, 5)
        pairs = {(a, b): c for a, b, c in comultiplication_pairs(w, (3,), lat)}
        assert pairs[((0,), (3,))] == pytest.approx(1.0)
        assert pairs[((3,), (0,))] == pytest.approx(1.0)

    def test_coefficient_square_sum_matches_convolution(self):
        w = SubexpWeight(0.8, 0.5)
        lat = TruncatedLattice(1, 6)
        conv = truncated_autoconvolution(w, lat)
        for gamma in ((0,), (2,), (-5,)):
            pairs = comultiplication_pairs(w, gamma, lat)
            total = sum(c**2 for _, _, c in pairs)
            expected = conv[lat.position(gamma)] / w.value(gamma)
            assert total == pytest.approx(expected, abs=1e-12)

    def test_coassociativity_small_lattice(self):
        # leaves in |a| <= J, intermediate sums enumerated over |.| <= 2J
        w = SubexpWeight(0.6, 0.5)
        J = 3
        leaves = TruncatedLattice(1, J)
        wide = TruncatedLattice(1, 2 * J)
        for gamma in ((0,), (1,), (3,), (-2,)):
            left = {}
            for alpha, delta, c1 in comultiplication_pairs(w, gamma, wide):
                for a, b, c2 in comultiplication_pairs(w, alpha, wide):
                    if a in leaves and b in leaves and delta in leaves:
                        key = (a, b, delta)
                        left[key] = left.get(key, 0.0) + c1 * c2
            right = {}
            for a, beta, c1 in comultiplication_pairs(w, gamma, wide):
                for b, delta, c2 in comultiplication_pairs(w, beta, wide):
                    if a in leaves and b in leaves and delta in leaves:
                        key = (a, b, delta)
                        right[key] = right.get(key, 0.0) + c1 * c2
            assert left.keys() == right.keys()
            for key, val in left.items():
                assert val == pytest.approx(right[key], abs=1e-12)

    def test_gamma_outside_lattice(self):
        w = SubexpWeight(1.0, 0.5)
        with pytest.raises(ValidationError):
            comultiplication_pairs(w, (9,), TruncatedLattice(1, 3))


class TestFeatureMap:
    def test_constant_entry(self):
        w = SubexpWeight(1.0, 0.5)
        lat = TruncatedLattice(1, 8)
        for x in (0.0, 1.7, 5.2):
            vec = feature_coefficients(w, lat, [x])
            assert vec[lat.position((0,))] == pytest.approx(1.0)

    def test_reproducing_identity(self):
        w = SubexpWeight(1.0, 0.5)
        lat = TruncatedLattice(1, 40)
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, y = rng.uniform(0, TWO_PI, 2)
            fx = feature_coefficients(w, lat, [x])
            fy = feature_coefficients(w, lat, [y])
            inner = np.vdot(fx, fy)
            assert abs(inner - kernel_value(w, lat, [x], [y])) < 1e-12

    def test_norm_squared_is_diagonal_kernel(self):
        w = SubexpWeight(0.5, 0.5)
        lat = TruncatedLattice(1, 30)
        x = [2.4]
        vec = feature_coefficients(w, lat, x)
        assert np.vdot(vec, vec).real == pytest.approx(
            kernel_value(w, lat, x, x).real, abs=1e-12
        )


class TestSmoothers:
    def test_constant_preserved(self):
        g = DiagonalSmoother(SubexpWeight(2.0, 0.5), G_TAU)
        f = FourierObservable.constant(3.5, d=1)
        out = apply_smoother(g, f)
        assert out.coeffs[(0,)] == pytest.approx(3.5)

    def test_semigroup(self):
        wa, wb = SubexpWeight(0.4, 0.5), SubexpWeight(1.1, 0.5)
        ga, gb = DiagonalSmoother(wa, G_TAU), DiagonalSmoother(wb, G_TAU)
        composed = compose_smoothers(ga, gb)
        assert composed.weight == SubexpWeight(1.5, 0.5)
        rng = np.random.default_rng(21)
        f = FourierObservable(
            {(j,): complex(rng.standard_normal(), rng.standard_normal()) for j in range(-20, 21)},
            d=1,
        )
        chained = apply_smoother(ga, apply_smoother(gb, f))
        direct = apply_smoother(composed, f)
        for j in f.coeffs:
            assert abs(chained.coeffs[j] - direct.coeffs[j]) <= 1e-14 * abs(direct.coeffs[j]) + 1e-300

    def test_kstar_after_k_is_g(self):
        w = SubexpWeight(1.3, 0.5)
        k, ks, g = (
            DiagonalSmoother(w, K_TAU),
            DiagonalSmoother(w, K_STAR),
            DiagonalSmoother(w, G_TAU),
        )
        f = FourierObservable({(j,): 1.0 + 0.5j for j in range(-10, 11)}, d=1)
        two_step = apply_smoother(ks, apply_smoother(k, f))
        one_step = apply_smoother(g, f)
        for j in f.coeffs:
            assert abs(two_step.coeffs[j] - one_step.coeffs[j]) <= 1e-15 * abs(one_step.coeffs[j])
