import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qkoopman.dynamics import (
    FourierObservable,
    RotationSystem,
    koopman_exact,
    sample_trajectory,
)
from qkoopman.errors import (
    DegeneracyError,
    OutOfLatticeError,
    RankDeficiencyError,
    ValidationError,
)
from qkoopman.rkha import SubexpWeight, TruncatedLattice
from qkoopman.spectral import (
    _SAMPLE_BLOCK,
    GeneratorSpec,
    analytic_generator,
    data_driven_generator,
    evolve,
    frequency_table,
    smoothing_identity_residual,
)

from oracles import one_shot_data_driven_generator


def random_observable(rng, lat, real=False):
    coeffs = {tuple(j): complex(rng.standard_normal(), rng.standard_normal()) for j in lat.indices}
    if real:
        snap = dict(coeffs)
        for j in list(coeffs):
            coeffs[j] = 0.5 * (snap[j] + snap[tuple(-v for v in j)].conjugate())
    return FourierObservable(coeffs, d=lat.d)


class TestAnalyticGenerator:
    def test_zero_frequency_at_origin(self):
        gen = analytic_generator(RotationSystem(np.array([1.0])), TruncatedLattice(1, 3))
        assert gen.omega_at((0,)) == 0.0

    def test_direct_formula(self):
        sys = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(3.0)]))
        gen = analytic_generator(sys, TruncatedLattice(2, 2))
        assert gen.omega_at((1, -1)) == pytest.approx(math.sqrt(2.0) - math.sqrt(3.0))

    def test_spectrum_symmetry(self):
        sys = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(3.0)]))
        lat = TruncatedLattice(2, 3)
        gen = analytic_generator(sys, lat)
        for j in lat.indices:
            assert gen.omega_at(tuple(j)) == pytest.approx(-gen.omega_at(tuple(-j)))

    def test_eigenvalues_imaginary(self):
        # the lattice basis diagonalizes the generator: its eigenvalues are
        # i omega with omega = j.alpha real, and no matrix is stored
        sys = RotationSystem(np.array([math.sqrt(2.0)]))
        lat = TruncatedLattice(1, 8)
        gen = analytic_generator(sys, lat)
        assert gen.matrix is None and gen.vectors is None
        assert gen.omega.dtype == np.float64
        assert np.array_equal(gen.omega, lat.indices @ sys.alpha)

    def test_omega_at_refused_for_eigenvectors(self):
        traj = sample_trajectory(RotationSystem(np.array([1.0])), [0.1], 0.01, 500)
        gen = data_driven_generator(traj, 0.01, TruncatedLattice(1, 2))
        with pytest.raises(ValidationError):
            gen.omega_at((1,))

    def test_stores_no_square_array(self):
        # 255.9 MiB peak once, with a dense diagonal and a permuted identity
        lat = TruncatedLattice(1, 1023)
        sys = RotationSystem(np.array([math.sqrt(2.0)]))
        tracemalloc.start()
        try:
            analytic_generator(sys, lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def sorted_eigensystem(omega, vectors):
    """The eigenpair order GeneratorSpec.eigen_omega reproduces: |omega|
    ascending, a magnitude within 1e-12 of the next smaller one tied with
    it, positive member of each tie first, stable tie-break."""
    tie, prev, ties = 0, None, {}
    for i in sorted(range(omega.size), key=lambda i: abs(omega[i])):
        tie += prev is not None and abs(omega[i]) - prev > 1e-12
        ties[i], prev = tie, abs(omega[i])
    order = sorted(range(omega.size), key=lambda i: (ties[i], omega[i] < 0, i))
    return omega[order], vectors[:, order]


class TestSpectralForm:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_dense_generator(self, d):
        rng = np.random.default_rng(7)
        sys = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(3.0)][:d]))
        lat = TruncatedLattice(d, 3)
        gen = analytic_generator(sys, lat)
        v = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
        for t in (0.0, 0.3, -2.9):
            dense = np.exp(t * 1j * gen.omega) * v  # expm of the diagonal generator
            assert np.max(np.abs(gen.propagate(v, t) - dense)) <= 1e-14

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(8)
        traj = sample_trajectory(RotationSystem(np.array([1.0])), [0.2], 0.01, 3000)
        gen = data_driven_generator(traj, 0.01, TruncatedLattice(1, 3))
        v = rng.standard_normal(gen.lattice.size) + 1j * rng.standard_normal(gen.lattice.size)
        for t in (0.0, 0.3, -2.9):
            u = gen.vectors
            dense = u @ np.diag(np.exp(1j * t * gen.omega)) @ u.conj().T @ v
            assert np.max(np.abs(gen.propagate(v, t) - dense)) <= 1e-13

    @pytest.mark.parametrize("d", [1, 2])
    def test_eigen_omega_order(self, d):
        sys = RotationSystem(np.array([math.sqrt(2.0), 1.0][:d]))  # d=2 has ties in |omega|
        lat = TruncatedLattice(d, 4)
        gen = analytic_generator(sys, lat)
        omega, _ = sorted_eigensystem(gen.omega.copy(), np.eye(lat.size, dtype=complex))
        assert gen.eigen_omega.tobytes() == omega.tobytes()

    def test_pair_across_a_rounding_boundary(self):
        # the pair's magnitudes straddle 0.0036889824455: rounded to 12
        # decimals they parted, and the negative member came first
        lat = TruncatedLattice(1, 2)
        omega = np.array([0.0, -3.6889824454996068e-03, 3.6889824455039011e-03, 9.06, -9.06])
        assert GeneratorSpec(lat, omega).eigen_omega.tolist() == omega[[0, 2, 1, 3, 4]].tolist()

    def test_data_driven_order(self):
        traj = sample_trajectory(RotationSystem(np.array([1.0, math.sqrt(2.0)])),
                                 [0.2, 0.4], 0.01, 3000)
        lat = TruncatedLattice(2, 1)
        gen = data_driven_generator(traj, 0.01, lat)
        omega, vectors = sorted_eigensystem(*np.linalg.eigh(-1j * gen.matrix))
        assert gen.omega.tobytes() == omega.tobytes() == gen.eigen_omega.tobytes()
        assert gen.vectors.tobytes() == vectors.tobytes()


class TestEvolve:
    def test_identity_at_t0(self):
        rng = np.random.default_rng(0)
        lat = TruncatedLattice(1, 4)
        gen = analytic_generator(RotationSystem(np.array([1.3])), lat)
        f = random_observable(rng, lat)
        g = evolve(gen, f, 0.0)
        for j, c in f.coeffs.items():
            assert g.coeffs[j] == pytest.approx(c)

    def test_matches_exact_koopman(self):
        rng = np.random.default_rng(1)
        sys = RotationSystem(np.array([math.sqrt(2.0)]))
        lat = TruncatedLattice(1, 5)
        gen = analytic_generator(sys, lat)
        f = random_observable(rng, lat)
        for t in (0.2, 1.0, -3.7):
            via_gen = evolve(gen, f, t)
            via_exact = koopman_exact(f, sys, t)
            for j in f.coeffs:
                assert abs(via_gen.coeffs[j] - via_exact.coeffs[j]) < 1e-14

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        lat = TruncatedLattice(1, 6)
        gen = analytic_generator(RotationSystem(np.array([math.sqrt(5.0)])), lat)
        f = random_observable(rng, lat)
        assert evolve(gen, f, 7.7).l2_norm() == pytest.approx(f.l2_norm(), abs=1e-12)

    def test_out_of_lattice_rejected(self):
        gen = analytic_generator(RotationSystem(np.array([1.0])), TruncatedLattice(1, 2))
        f = FourierObservable({(3,): 1.0}, d=1)
        with pytest.raises(OutOfLatticeError):
            evolve(gen, f, 1.0)

    def test_group_law_both_kinds(self):
        rng = np.random.default_rng(3)
        sys = RotationSystem(np.array([1.0]))
        lat = TruncatedLattice(1, 3)
        gens = [
            analytic_generator(sys, lat),
            data_driven_generator(sample_trajectory(sys, [0.1], 0.01, 3000), 0.01, lat),
        ]
        f = random_observable(rng, lat)
        for gen in gens:
            s, t = 0.7, 2.1
            lhs = evolve(gen, evolve(gen, f, s), t)
            rhs = evolve(gen, f, s + t)
            for j in f.coeffs:
                assert abs(lhs.coeffs[j] - rhs.coeffs[j]) < 1e-11

    def test_reality_commutes_with_conjugation(self):
        rng = np.random.default_rng(4)
        lat = TruncatedLattice(1, 4)
        sys = RotationSystem(np.array([math.sqrt(2.0)]))
        gen = analytic_generator(sys, lat)
        f = random_observable(rng, lat, real=True)
        t = 1.9
        evolved = evolve(gen, f, t)
        evolved_conj = evolve(gen, f.conjugate(), t)
        for j, c in evolved.coeffs.items():
            mirror = evolved_conj.coeffs[tuple(-v for v in j)]
            assert abs(mirror - c.conjugate()) < 1e-12

    def test_propagate_rejects_non_finite_time(self):
        # t = nan once returned NaN coefficients
        gen = analytic_generator(RotationSystem(np.array([1.0])), TruncatedLattice(1, 4))
        with pytest.raises(ValidationError, match="finite"):
            gen.propagate(np.ones(gen.lattice.size, dtype=complex), math.nan)


class TestSmoothingIdentity:
    def test_semigroup_at_t0(self):
        rng = np.random.default_rng(5)
        lat = TruncatedLattice(1, 6)
        gen = analytic_generator(RotationSystem(np.array([1.0])), lat)
        w = SubexpWeight(1.0, 0.5)
        f = random_observable(rng, lat)
        assert smoothing_identity_residual(w, gen, f, 0.0) <= 1e-13

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_analytic_diagonal_paths_agree(self, t):
        rng = np.random.default_rng(6)
        lat = TruncatedLattice(1, 8)
        gen = analytic_generator(RotationSystem(np.array([math.sqrt(2.0)])), lat)
        w = SubexpWeight(0.7, 0.5)
        f = random_observable(rng, lat)
        assert smoothing_identity_residual(w, gen, f, t) <= 1e-12

    def test_constant_observable(self):
        lat = TruncatedLattice(1, 4)
        gen = analytic_generator(RotationSystem(np.array([1.0])), lat)
        w = SubexpWeight(1.0, 0.5)
        f = FourierObservable.constant(2.0, d=1)
        assert smoothing_identity_residual(w, gen, f, 3.3) == 0.0

    def test_non_finite_time_rejected(self):
        # t = nan once returned a NaN residual
        gen = analytic_generator(RotationSystem(np.array([1.0])), TruncatedLattice(1, 4))
        f = FourierObservable.harmonic(1)
        with pytest.raises(ValidationError, match="finite"):
            smoothing_identity_residual(SubexpWeight(1.0, 0.5), gen, f, math.nan)


class TestDataDrivenGenerator:
    def setup_method(self):
        self.sys = RotationSystem(np.array([1.0]))
        self.lat = TruncatedLattice(1, 3)
        traj = sample_trajectory(self.sys, [0.2], 0.01, 5000)
        self.gen = data_driven_generator(traj, 0.01, self.lat)

    def test_recovers_base_frequency(self):
        # sorted order: 0 first, then the +/- pair of the base frequency
        assert abs(self.gen.eigen_omega[0]) <= 1e-10
        assert abs(self.gen.eigen_omega[1] - 1.0) <= 1e-3
        assert abs(self.gen.eigen_omega[2] + 1.0) <= 1e-3

    def test_antisymmetry_exact(self):
        a = self.gen.matrix
        assert np.array_equal(a + a.conj().T, np.zeros_like(a))

    def test_constant_is_exact_null_vector(self):
        e0 = np.zeros(self.lat.size)
        e0[self.lat.position((0,))] = 1.0
        assert np.array_equal(self.gen.matrix @ e0, np.zeros(self.lat.size, dtype=complex))

    def test_conjugate_pairing(self):
        om = self.gen.eigen_omega
        for k in range(1, om.size - 1, 2):
            assert om[k] == pytest.approx(-om[k + 1], abs=1e-10)

    def test_eigenvalues_purely_imaginary(self):
        eigs = np.linalg.eigvals(self.gen.matrix)
        assert np.max(np.abs(eigs.real)) <= 1e-10

    def test_rank_deficiency_error(self):
        traj = sample_trajectory(self.sys, [0.0], 0.01, 6)
        with pytest.raises(RankDeficiencyError) as err:
            data_driven_generator(traj, 0.01, TruncatedLattice(1, 3))
        assert err.value.deficiency == 3

    def test_frequency_table(self):
        ref = analytic_generator(self.sys, self.lat)
        rows = frequency_table(self.gen, ref)
        assert len(rows) == self.lat.size
        assert max(r[2] for r in rows) <= 1e-3

    def test_frequency_table_matches_by_rank(self):
        # an all-zero estimate is scored against every reference frequency,
        # not against the nearest one (0) for each
        ref = analytic_generator(self.sys, self.lat)
        zero = GeneratorSpec(lattice=self.lat, omega=np.zeros(self.lat.size))
        errors = [r[2] for r in frequency_table(zero, ref)]
        assert sorted(errors) == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        with pytest.raises(ValidationError):
            frequency_table(zero, analytic_generator(self.sys, TruncatedLattice(1, 2)))

    def test_non_finite_estimate_raises(self):
        # 1/(2 dt) overflows at a subnormal dt
        traj = sample_trajectory(self.sys, [1.0], 1e-320, 50)
        with np.errstate(all="ignore"), pytest.raises(DegeneracyError, match="not finite"):
            data_driven_generator(traj, 1e-320, TruncatedLattice(1, 3))

    @pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
    def test_non_finite_dt_rejected(self, dt):
        # before any work: no numpy warning, no all-zero spectrum
        traj = sample_trajectory(self.sys, [0.2], 0.01, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="dt must be finite"):
                data_driven_generator(traj, dt, self.lat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        traj = sample_trajectory(self.sys, [0.2], 0.01, 50)
        traj[17, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="samples must be finite"):
                data_driven_generator(traj, 0.01, self.lat)


class TestBlockedGenerator:
    """The sum over sample blocks against the one-shot sum it replaced."""

    ALPHA = [math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)]

    @pytest.mark.parametrize("dt", [1e-3, 0.01, 0.3])
    @pytest.mark.parametrize(
        "n",
        ["min", _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 3, 20000],
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_one_shot_oracle(self, d, n, dt):
        lat = TruncatedLattice(d, 3 if d == 1 else 1)
        n = lat.size + 2 if n == "min" else n
        sys_ = RotationSystem(np.array(self.ALPHA[:d]))
        traj = sample_trajectory(sys_, [0.3, -1.1, 2.0][:d], dt, n)
        gen = data_driven_generator(traj, dt, lat)
        ref = one_shot_data_driven_generator(traj, dt, lat)
        scale = np.max(np.abs(ref.matrix))
        assert np.max(np.abs(gen.matrix - ref.matrix)) <= 1e-13 * scale
        assert np.max(np.abs(gen.omega - ref.omega)) <= 1e-13 * np.max(np.abs(ref.omega))

    def test_memory_bounded_by_block(self):
        # the one-shot sum peaks at 8.8 MiB here: four 20000 x 7 complex arrays
        traj = sample_trajectory(RotationSystem(np.array([1.0])), [0.2], 0.01, 20000)
        lat = TruncatedLattice(1, 3)
        tracemalloc.start()
        try:
            data_driven_generator(traj, 0.01, lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
