import functools
import itertools
import math
import signal
import sys
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from qkoopman.dynamics import (
    FourierObservable,
    RotationSystem,
    VonMisesDensity,
    bessel_ratios,
    koopman_exact,
    von_mises_fourier,
)
from qkoopman.errors import DegeneracyError, DegenerateNormalizationError, ValidationError
from qkoopman.fock import (
    FockVector,
    FockWeight,
    SecondQuantizationParams,
    SpectrumTorusPoint,
    TensorNetworkParams,
    _log_gammaincc,
    apply_lifted_generator,
    evolve_lifted,
    fock_inner,
    grading,
    occupation,
    rotate_phase_point,
    second_quantization_forecast,
    sym_product,
    tensor_network_expectation,
    vector_power,
    xi_tail_norm,
    xi_vector,
)

from oracles import (
    direct_grid_values,
    eta_from_feature,
    gelfand_eval,
    grid_forecast,
    outer_sum_tensor_expectation,
    state_evolved_tensor_expectation,
)

W = FockWeight(3.0, 0.5, 6)


def occupation_inner_oracle(occ_a, occ_b, weight):
    """Permutation-sum definition of the basis inner product, brute force."""
    list_a = [m for m, c in occ_a for _ in range(c)]
    list_b = [m for m, c in occ_b for _ in range(c)]
    if len(list_a) != len(list_b):
        return 0.0
    n = len(list_a)
    if n == 0:
        return 1.0
    total = 0.0
    for sa in itertools.permutations(range(n)):
        for sb in itertools.permutations(range(n)):
            if all(list_a[sa[i]] == list_b[sb[i]] for i in range(n)):
                total += 1.0
    return weight.squared(n) / math.factorial(n) ** 2 * total


def random_vector(rng, modes, max_grading, weight=None):
    terms = {}
    for n in range(0, max_grading + 1):
        for combo in itertools.combinations_with_replacement(modes, n):
            occ = occupation((m, len(list(g))) for m, g in itertools.groupby(combo))
            terms[occ] = complex(rng.standard_normal(), rng.standard_normal())
    return FockVector(terms)


class TestWeight:
    def test_unit_at_zero(self):
        assert W.value(0) == 1.0

    def test_increasing(self):
        vals = [W.value(n) for n in range(8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_default_tail_small(self):
        assert W.inv_square_tail(6) < 1e-6

    def test_tail_bounds_direct_sum(self):
        direct = sum(math.exp(-2 * W.sigma_w * n**W.p_w) for n in range(7, 400))
        assert W.inv_square_tail(6) >= direct

    @pytest.mark.parametrize("p_w", [0.005, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sigma_w", [0.1, 1.0, 3.0, 10.0, 1e300])
    def test_tail_against_mpmath(self, sigma_w, p_w):
        # p_w = 0.005 overflowed Gamma(1/p_w) to inf; sigma_w = 1e300 overflowed c^(1/p_w)
        weight = FockWeight(sigma_w, p_w, 6)
        for n in (0, 1, 6, 20):
            with mpmath.workdps(40):
                a, c = 1 / mpmath.mpf(p_w), 2 * mpmath.mpf(sigma_w)
                exact = mpmath.gammainc(a, c * mpmath.mpf(n) ** p_w) / (p_w * c**a)
            if exact > sys.float_info.max:
                with pytest.raises(DegeneracyError, match="sigma_w=.*p_w="):
                    weight.inv_square_tail(n)
            else:
                assert weight.inv_square_tail(n) == pytest.approx(float(exact), rel=1e-12, abs=1e-300)

    def test_tail_zero_where_the_argument_overflows(self):
        # c n^p overflows to inf, so Q(a, inf) == 0 and so is the bound
        assert FockWeight(5e307, 0.999, 6).inv_square_tail(6) == 0.0

    def test_tail_underflow_skips_the_series(self):
        # a = 1/p_w = 1e15 and c n^p close to a: the series for Q would take
        # about 3e8 terms, but Gamma(a) / (p_w c^a) alone rounds to 0
        start = time.perf_counter()
        assert FockWeight(5e14, 1e-15, 6).inv_square_tail(6) == 0.0
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("n", [math.nan, math.inf, -1, -0.5])
    def test_tail_start_finite_and_nonnegative(self, n):
        # n = nan once never left _log_gammaincc's Lentz loop, and n = -1
        # raised a bare TypeError from the complex (-1)^p; the alarm fails a
        # hang instead of waiting on it
        def hung(signum, frame):
            raise TimeoutError(f"inv_square_tail({n}) ran past 5 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(ValidationError, match="finite"):
                W.inv_square_tail(n)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("p_w", [5e-324, 1e-310])
    def test_tail_reciprocal_overflow_is_degenerate(self, p_w):
        # 1/p_w overflows to inf, and the bound has no float value
        with pytest.raises(DegeneracyError, match="sigma_w=.*p_w="):
            FockWeight(3.0, p_w, 6).inv_square_tail()


class TestUpperGamma:
    @pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 7.0, 19.9, 20.0, 50.0, 200.0, 1000.0])
    def test_against_mpmath(self, a):
        # 1e-3 a to 10 a, the bulk a +- 3 sqrt(a), and both sides of the switch
        # from the series to the continued fraction at x = a + 1
        xs = [*(a * np.geomspace(1e-3, 10.0, 41)), a + 1.0 - 1e-9, a + 1.0, a + 1.0 + 1e-9,
              *np.linspace(a - 3.0 * math.sqrt(a), a + 3.0 * math.sqrt(a), 13)]
        for x in (float(v) for v in xs if v > 0):
            with mpmath.workdps(40):
                exact = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                log_exact = float(mpmath.log(exact))
            got = _log_gammaincc(a, x)
            if exact > 1e-300:
                assert math.exp(got) == pytest.approx(float(exact), rel=1e-13), x
            else:  # Q underflows, its log does not
                assert got == pytest.approx(log_exact, rel=1e-13), x

    @pytest.mark.parametrize("a", [1.5, 20.0, 200.0])
    def test_against_scipy(self, a):
        # the cross-check scipy.special.gammaincc gave, from mpmath, so that
        # the tests need no scipy
        for x in a * np.geomspace(1e-2, 4.0, 25):
            with mpmath.workdps(40):
                exact = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
            assert math.exp(_log_gammaincc(a, x)) == pytest.approx(exact, rel=1e-12), x

    def test_ends(self):
        assert _log_gammaincc(3.0, 0.0) == 0.0
        assert _log_gammaincc(3.0, math.inf) == -math.inf


class TestInnerProduct:
    def test_vacuum(self):
        assert fock_inner(FockVector.vacuum(), FockVector.vacuum(), W) == 1.0

    def test_single_mode(self):
        z = FockVector.mode(1)
        assert fock_inner(z, z, W) == pytest.approx(W.squared(1))

    def test_mixed_pair_values(self):
        z12 = FockVector({occupation([(1, 1), (2, 1)]): 1.0})
        z11 = FockVector({occupation([(1, 2)]): 1.0})
        assert fock_inner(z12, z12, W) == pytest.approx(W.squared(2) / 2.0)
        assert fock_inner(z11, z11, W) == pytest.approx(W.squared(2))

    def test_closed_form_matches_permutation_sum(self):
        # every occupation pair with grading <= 4 over 3 modes
        occs = []
        for n in range(0, 5):
            for combo in itertools.combinations_with_replacement((0, 1, 2), n):
                occs.append(
                    occupation((m, len(list(g))) for m, g in itertools.groupby(combo))
                )
        for occ_a in occs:
            for occ_b in occs:
                got = fock_inner(FockVector({occ_a: 1.0}), FockVector({occ_b: 1.0}), W)
                want = occupation_inner_oracle(occ_a, occ_b, W)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_grading_orthogonality_exact(self):
        u = FockVector({occupation([(0, 2)]): 1.5})
        v = FockVector({occupation([(0, 3)]): 2.5})
        assert fock_inner(u, v, W) == 0.0


class TestSymProduct:
    def test_vacuum_is_unit(self):
        rng = np.random.default_rng(0)
        v = random_vector(rng, (0, 1), 3)
        out = sym_product(FockVector.vacuum(), v)
        assert out.terms == v.terms

    def test_commutative(self):
        rng = np.random.default_rng(1)
        u = random_vector(rng, (0, 1, 2), 2)
        v = random_vector(rng, (0, 1, 2), 2)
        uv = sym_product(u, v)
        vu = sym_product(v, u)
        assert uv.terms.keys() == vu.terms.keys()
        for occ in uv.terms:
            assert uv.terms[occ] == pytest.approx(vu.terms[occ], abs=1e-14)
        # a product of basis elements commutes bitwise (single term, no resummation)
        za = FockVector({occupation([(0, 1)]): 1.5 + 0.5j})
        zb = FockVector({occupation([(1, 2)]): -0.75j})
        assert sym_product(za, zb).terms == sym_product(zb, za).terms

    def test_matches_tensor_symmetrization(self):
        # grading-1 times grading-1 against the dense symmetric tensor over 2 modes
        rng = np.random.default_rng(2)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u = FockVector.from_modes({0: a[0], 1: a[1]})
        v = FockVector.from_modes({0: b[0], 1: b[1]})
        got = sym_product(u, v)
        tensor = 0.5 * (np.outer(a, b) + np.outer(b, a))
        assert got.terms[occupation([(0, 2)])] == pytest.approx(tensor[0, 0])
        assert got.terms[occupation([(1, 2)])] == pytest.approx(tensor[1, 1])
        assert got.terms[occupation([(0, 1), (1, 1)])] == pytest.approx(2 * tensor[0, 1])

    def test_power_expansion(self):
        rng = np.random.default_rng(3)
        amps = {0: complex(rng.standard_normal()), 1: complex(rng.standard_normal())}
        direct = vector_power(amps, 2)
        via_product = sym_product(FockVector.from_modes(amps), FockVector.from_modes(amps))
        for occ, val in direct.terms.items():
            assert via_product.terms[occ] == pytest.approx(val)

    def test_associative(self):
        rng = np.random.default_rng(4)
        u = random_vector(rng, (0, 1), 2)
        v = random_vector(rng, (0, 1), 1)
        z = random_vector(rng, (0, 1), 1)
        left = sym_product(sym_product(u, v), z)
        right = sym_product(u, sym_product(v, z))
        assert left.terms.keys() == right.terms.keys()
        for occ in left.terms:
            assert left.terms[occ] == pytest.approx(right.terms[occ], abs=1e-12)


class TestLiftedGenerator:
    FREQS = {0: 0.0, 1: 1.3, 2: -0.4}

    def test_vacuum_annihilated(self):
        out = apply_lifted_generator(self.FREQS, FockVector.vacuum())
        assert out.terms == {}

    def test_single_mode(self):
        out = apply_lifted_generator(self.FREQS, FockVector.mode(1))
        assert out.terms[occupation([(1, 1)])] == pytest.approx(1j * 1.3)

    def test_pair_adds_frequencies(self):
        pair = FockVector({occupation([(1, 1), (2, 1)]): 1.0})
        out = apply_lifted_generator(self.FREQS, pair)
        assert out.terms[occupation([(1, 1), (2, 1)])] == pytest.approx(1j * (1.3 - 0.4))

    def test_leibniz_rule(self):
        rng = np.random.default_rng(5)
        u = random_vector(rng, (0, 1, 2), 2)
        v = random_vector(rng, (0, 1, 2), 2)
        lhs = apply_lifted_generator(self.FREQS, sym_product(u, v))
        rhs = sym_product(apply_lifted_generator(self.FREQS, u), v).plus(
            sym_product(u, apply_lifted_generator(self.FREQS, v))
        )
        for occ in set(lhs.terms) | set(rhs.terms):
            assert lhs.terms.get(occ, 0.0) == pytest.approx(rhs.terms.get(occ, 0.0), abs=1e-12)


class TestLiftedEvolution:
    FREQS = {0: 0.0, 1: math.sqrt(2.0), 2: -1.0}

    def test_identity_at_t0(self):
        rng = np.random.default_rng(6)
        v = random_vector(rng, (0, 1, 2), 3)
        out = evolve_lifted(self.FREQS, v, 0.0)
        for occ, val in v.terms.items():
            assert out.terms[occ] == pytest.approx(val)

    def test_multiplicative(self):
        rng = np.random.default_rng(7)
        u = random_vector(rng, (0, 1, 2), 2)
        v = random_vector(rng, (0, 1, 2), 2)
        t = 1.7
        lhs = evolve_lifted(self.FREQS, sym_product(u, v), t)
        rhs = sym_product(evolve_lifted(self.FREQS, u, t), evolve_lifted(self.FREQS, v, t))
        for occ in set(lhs.terms) | set(rhs.terms):
            assert lhs.terms.get(occ, 0.0) == pytest.approx(rhs.terms.get(occ, 0.0), abs=1e-12)

    def test_gradingwise_norm_preserved(self):
        rng = np.random.default_rng(8)
        for n in range(1, 4):
            terms = {}
            for combo in itertools.combinations_with_replacement((0, 1, 2), n):
                occ = occupation((m, len(list(g))) for m, g in itertools.groupby(combo))
                terms[occ] = complex(rng.standard_normal(), rng.standard_normal())
            v = FockVector(terms)
            out = evolve_lifted(self.FREQS, v, 2.4)
            assert out.norm(W) == pytest.approx(v.norm(W), abs=1e-12)


def random_torus_point(rng, n_modes):
    a = rng.uniform(0.0, 1.0, n_modes)
    a = a / (np.linalg.norm(a) * rng.uniform(1.0, 2.0))
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, n_modes))
    z[0] = 1.0
    return SpectrumTorusPoint(tuple(range(n_modes)), a, z)


class TestSpectrumTorus:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SpectrumTorusPoint((0, 1), np.array([2.0, 2.0]), np.array([1.0, 1.0 + 0j]))
        with pytest.raises(ValidationError):
            SpectrumTorusPoint((0, 1), np.array([0.5, 0.5]), np.array([1.0, 2.0 + 0j]))

    def test_rotation_identity_at_t0(self):
        rng = np.random.default_rng(9)
        pt = random_torus_point(rng, 4)
        freqs = {k: float(k) for k in range(4)}
        out = rotate_phase_point(pt, freqs, 0.0)
        assert np.allclose(out.phases, pt.phases)

    def test_rotation_composition(self):
        rng = np.random.default_rng(10)
        pt = random_torus_point(rng, 4)
        freqs = {0: 0.0, 1: 1.0, 2: math.sqrt(2.0), 3: -0.7}
        two = rotate_phase_point(rotate_phase_point(pt, freqs, 0.6), freqs, 1.1)
        one = rotate_phase_point(pt, freqs, 1.7)
        assert np.max(np.abs(two.phases - one.phases)) < 1e-14
        assert np.array_equal(two.amplitudes, pt.amplitudes)

    def test_duality_with_lifted_evolution(self):
        rng = np.random.default_rng(11)
        freqs = {0: 0.0, 1: 1.0, 2: math.sqrt(2.0), 3: -0.9}
        for _ in range(100):
            pt = random_torus_point(rng, 4)
            v = random_vector(rng, (0, 1, 2, 3), 3)
            t = float(rng.uniform(-3, 3))
            lhs = fock_inner(xi_vector(pt.eta(), W), evolve_lifted(freqs, v, t), W)
            rhs = fock_inner(xi_vector(rotate_phase_point(pt, freqs, t).eta(), W), v, W)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestGelfand:
    def test_vacuum_value(self):
        rng = np.random.default_rng(12)
        pt = random_torus_point(rng, 3)
        assert gelfand_eval(pt, FockVector.vacuum(), W) == pytest.approx(1.0)

    def test_zero_amplitudes_pick_vacuum_amplitude(self):
        rng = np.random.default_rng(13)
        v = random_vector(rng, (0, 1), 3)
        pt = SpectrumTorusPoint((0, 1), np.zeros(2), np.ones(2, dtype=complex))
        assert gelfand_eval(pt, v, W) == pytest.approx(v.terms[()])

    def test_multiplicative(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            pt = random_torus_point(rng, 3)
            u = random_vector(rng, (0, 1, 2), 3)
            v = random_vector(rng, (0, 1, 2), 3)
            chi_uv = gelfand_eval(pt, sym_product(u, v), W)
            chi_u = gelfand_eval(pt, u, W)
            chi_v = gelfand_eval(pt, v, W)
            assert abs(chi_uv - chi_u * chi_v) <= 1e-8

    def test_tail_norm_reported(self):
        assert xi_tail_norm(0.5, W, 6) <= xi_tail_norm(1.0, W, 6)
        assert xi_tail_norm(1.0, W, 6) < 1e-3


class TestSecondQuantizationForecast:
    SYS = RotationSystem(np.array([math.sqrt(2.0)]))
    COS = FourierObservable({(1,): 0.5, (-1,): 0.5}, d=1)

    def test_constant_observable(self):
        c = FourierObservable.constant(2.5, d=1)
        for t in (0.0, 1.0):
            res = second_quantization_forecast(c, self.SYS, SecondQuantizationParams(m=2), [1.0], t)
            assert res.value == pytest.approx(2.5, abs=1e-12)

    SYS2 = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(3.0)]))
    F2 = FourierObservable(
        {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25j, (1, -1): 0.2, (0, 0): 0.3}, d=2
    )

    @pytest.mark.parametrize("m", [1, 2, 3], ids=lambda m: f"m{m}")
    @pytest.mark.parametrize("d", [1, 2], ids=lambda d: f"d{d}")
    def test_matches_kernel_regression_oracle(self, d, m):
        from qkoopman.rkha import SubexpWeight, TruncatedLattice
        from qkoopman.dynamics import bessel_ratios

        if d == 1:
            f, sys_, params = self.COS, self.SYS, SecondQuantizationParams(m=m)
        else:
            f, sys_ = self.F2, self.SYS2
            params = SecondQuantizationParams(m=m, bandwidth=4, grid_size=32)
        x, t = np.full(d, 1.0), 1.0
        res = second_quantization_forecast(f, sys_, params, x, t)
        lat = TruncatedLattice(d, params.bandwidth)
        lam = SubexpWeight(params.sigma, params.p, d).lattice_values(lat)
        cj = bessel_ratios(params.obs_concentration, params.bandwidth) * float(
            mpmath.besseli(0, params.obs_concentration) * mpmath.exp(-params.obs_concentration)
        )
        c = np.prod(cj[np.abs(lat.indices)], axis=1)
        g = params.grid_size
        axes = np.meshgrid(*[np.arange(g) * 2 * np.pi / g] * d, indexing="ij")
        grid = np.stack([a.ravel() for a in axes], axis=1)
        shift = x + t * sys_.alpha
        kernel = ((lam * c) @ np.exp(1j * lat.indices @ (shift - grid).T)).real
        fvals = direct_grid_values(f, g).ravel()
        oracle = float(((fvals * kernel**m).sum() / (kernel**m).sum()).real)
        assert res.value == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("t", [0.0, 1.0], ids=lambda t: f"t{t:g}")
    @pytest.mark.parametrize("m", [1, 2, 3], ids=lambda m: f"m{m}")
    @pytest.mark.parametrize("d", [1, 2], ids=lambda d: f"d{d}")
    def test_matches_fock_definition(self, d, m, t):
        """The closed form against the grading-m image built from Fock vectors."""
        from qkoopman.rkha import SubexpWeight, TruncatedLattice
        from qkoopman.dynamics import bessel_ratios

        if d == 1:
            f, sys_ = self.COS.plus(FourierObservable.constant(0.5)), self.SYS
            params = SecondQuantizationParams(m=m, bandwidth=2, grid_size=8)
        else:
            f, sys_ = self.F2, self.SYS2
            params = SecondQuantizationParams(m=m, bandwidth=1, grid_size=4)
        x = np.full(d, 1.0)
        lat = TruncatedLattice(d, params.bandwidth)
        labels = [tuple(int(v) for v in j) for j in lat.indices]
        w_tau = SubexpWeight(params.tau, params.p, d)
        cj = bessel_ratios(params.obs_concentration, params.bandwidth) * float(
            mpmath.besseli(0, params.obs_concentration) * mpmath.exp(-params.obs_concentration)
        )
        b = np.sqrt(w_tau.lattice_values(lat)) * np.prod(cj[np.abs(lat.indices)], axis=1)
        g = params.grid_size
        fgrid = direct_grid_values(f, g)
        # (1/G^d) sum_g f(y_g) kappa_g^(vee m) and the same image of the constant 1
        image_f, image_1 = FockVector(), FockVector()
        for point in itertools.product(range(g), repeat=d):
            y = np.array(point) * 2 * np.pi / g
            section = b * np.exp(-1j * (lat.indices @ y))
            power = vector_power(dict(zip(labels, section)), m)
            image_f = image_f.plus(power.scaled(fgrid[point] / g**d))
            image_1 = image_1.plus(power.scaled(1.0 / g**d))
        freqs = {label: float(j @ sys_.alpha) for label, j in zip(labels, lat.indices)}
        eta, _ = eta_from_feature(SubexpWeight(params.sigma, params.p, d), w_tau, lat, x)
        xi = xi_vector(dict(zip(labels, eta.tolist())), params.weight, nmax=m)
        num = fock_inner(xi, evolve_lifted(freqs, image_f, t), params.weight)
        den = fock_inner(xi, evolve_lifted(freqs, image_1, t), params.weight)
        value = (num / den).real

        res = second_quantization_forecast(f, sys_, params, x, t)
        assert abs(res.value - value) <= 1e-12 * abs(value)
        assert abs(res.normalization - abs(den)) <= 1e-12 * abs(den)

    @staticmethod
    def assert_matches(new, old, value_tol):
        assert abs(new.value - old.value) <= value_tol
        assert abs(new.normalization - old.normalization) <= 1e-13 * old.normalization
        # 1 - sum_j c_j cancels to a small tail: compare it absolutely
        assert abs(new.kernel_mode_tail - old.kernel_mode_tail) <= 1e-15
        assert abs(new.state_tail_norm - old.state_tail_norm) <= 1e-13 * old.state_tail_norm

    @staticmethod
    def l1(f):
        return sum(abs(c) for c in f.coeffs.values())

    @pytest.mark.parametrize(
        "d, bandwidth, grid_size, m",
        [(1, 1023, 2048, 1), (1, 1023, 2048, 3), (1, 16, 256, 2), (2, 6, 32, 1), (2, 6, 14, 3)],
    )
    def test_matches_character_matrix_oracle(self, d, bandwidth, grid_size, m):
        """The per-axis FFT sums against the G^d grid form with the
        character-matrix k(y) and the direct f(y)."""
        f, sys_ = (self.COS, self.SYS) if d == 1 else (self.F2, self.SYS2)
        params = SecondQuantizationParams(
            m=m, sigma=2.0, tau=1.0, bandwidth=bandwidth, grid_size=grid_size
        )
        x, t = np.full(d, 1.3), 0.7
        fast = second_quantization_forecast(f, sys_, params, x, t)
        old = grid_forecast(f, sys_, params, x, t, direct=True)
        self.assert_matches(fast, old, 1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_grid_oracle(self, d):
        """The product of d one-axis sums against the G^d grid sums, from the
        smallest grid 2J + 2 up, every grading to Nmax, and observables past
        G/2, whose indices alias."""
        rng = np.random.default_rng(30 + d)
        sys_ = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)])[:d])
        x = np.array([1.3, 0.2, 5.9])[:d]
        checked = 0
        for J in (1, 2, 5):
            for g in (2 * J + 2, 2 * J + 3, 2 * J + 8, 64):
                keys = {tuple(rng.integers(-g, g + 1, d).tolist()) for _ in range(6)}
                keys |= {(0,) * d, (g // 2 + 1,) + (0,) * (d - 1)}
                f = FourierObservable({k: complex(*rng.standard_normal(2)) for k in keys}, d=d)
                assert f.bandwidth > g // 2
                nmax = SecondQuantizationParams().weight.nmax
                for m, t in itertools.product(range(1, nmax + 1), (0.0, 0.7, -2.5)):
                    params = SecondQuantizationParams(
                        m=m, sigma=1.0, tau=0.5, bandwidth=J, grid_size=g, obs_concentration=0.5)
                    try:
                        old = grid_forecast(f, sys_, params, x, t)
                    except DegenerateNormalizationError:
                        with pytest.raises(DegenerateNormalizationError):
                            second_quantization_forecast(f, sys_, params, x, t)
                        continue
                    new = second_quantization_forecast(f, sys_, params, x, t)
                    self.assert_matches(new, old, 1e-13 * self.l1(f))
                    checked += 1
        assert checked >= 150  # of 216; the rest raise in both forms

    # sqrt 2, sqrt 3 and sqrt 5 rounded to 2^-10, and a dyadic x: j.alpha,
    # t j.alpha and x + t alpha are then exact at t = 1e3, so both forms take
    # their phases from the same exact arguments
    EXACT_ALPHA = np.array([1448.0, 1774.0, 2290.0]) / 1024.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_grid_oracle_at_large_t(self, d):
        sys_ = RotationSystem(self.EXACT_ALPHA[:d])
        x = np.array([1.25, 0.5, 5.75])[:d]
        f = self.F2 if d == 2 else FourierObservable(
            {(1,) * d: 0.5, (-1,) * d: 0.5, (9,) + (0,) * (d - 1): 0.3j}, d=d)
        for m, t in itertools.product((1, 3), (1e3, -1e3)):
            params = SecondQuantizationParams(
                m=m, sigma=1.0, tau=0.5, bandwidth=4, grid_size=12, obs_concentration=0.5)
            self.assert_matches(second_quantization_forecast(f, sys_, params, x, t),
                                grid_forecast(f, sys_, params, x, t), 1e-13 * self.l1(f))

    def test_memory_on_axis_grids(self):
        # the G^d form held several 64 MiB complex grids at d = 2, G = 2048
        params = SecondQuantizationParams(m=2, bandwidth=22, grid_size=2048)
        tracemalloc.start()
        try:
            second_quantization_forecast(self.F2, self.SYS2, params, [1.0, 0.5], 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("x", [[1.0], [1.0, 0.5, 0.2], [[1.0, 0.5]]], ids=["1", "3", "nested"])
    def test_point_of_wrong_dimension_rejected(self, x):
        with pytest.raises(ValidationError, match="dimension"):
            second_quantization_forecast(self.F2, self.SYS2, SecondQuantizationParams(), x, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_or_time_rejected(self, bad):
        params = SecondQuantizationParams()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                second_quantization_forecast(self.F2, self.SYS2, params, [1.0, bad], 1.0)
            with pytest.raises(ValidationError, match="finite"):
                second_quantization_forecast(self.F2, self.SYS2, params, [1.0, 0.5], bad)

    def test_smoothing_bias_at_t0(self):
        res = second_quantization_forecast(
            self.COS, self.SYS, SecondQuantizationParams(m=1), [1.0], 0.0
        )
        assert abs(res.value - math.cos(1.0)) < 0.35  # kernel-smoothing bias only

    def test_error_decreases_along_m(self):
        x, t = 1.0, 1.0
        exact = koopman_exact(self.COS, self.SYS, t).evaluate([x]).real
        errors = []
        for m in (1, 2, 3):
            res = second_quantization_forecast(
                self.COS, self.SYS, SecondQuantizationParams(m=m), [x], t
            )
            errors.append(abs(res.value - exact))
        assert errors[0] > errors[1] > errors[2]

    def test_degenerate_normalization_raises(self):
        # high grading over a diffuse feature point dilutes the pairing
        params = SecondQuantizationParams(
            m=8, sigma=0.05, tau=0.025, bandwidth=4, weight=FockWeight(3.0, 0.5, 8)
        )
        with pytest.raises(DegenerateNormalizationError):
            second_quantization_forecast(self.COS, self.SYS, params, [1.0], 0.0)


class TestTensorNetworkExpectation:
    SYS = RotationSystem(np.array([math.sqrt(2.0)]))
    COS = FourierObservable({(1,): 0.5, (-1,): 0.5}, d=1)
    STATE = VonMisesDensity(np.array([1.0]), np.array([20.0]))

    def test_constant_is_exactly_one(self):
        one = FourierObservable.constant(1.0, d=1)
        for n in (1, 2, 3):
            for t in (0.0, 0.7, 2.0):
                res = tensor_network_expectation(
                    one, self.STATE, self.SYS, TensorNetworkParams(n=n, bandwidth=24), t
                )
                assert res.value == 1.0

    def test_dense_quadrature_oracle_at_t0(self):
        res = tensor_network_expectation(
            self.COS, self.STATE, self.SYS, TensorNetworkParams(n=1, bandwidth=24), 0.0
        )
        xi = von_mises_fourier(self.STATE, 24)
        grid = 4096
        theta = np.arange(grid) * 2 * np.pi / grid
        dens = np.abs(direct_grid_values(xi, grid)) ** 2
        oracle = float((np.cos(theta) * dens).sum() / dens.sum())
        assert res.value == pytest.approx(oracle, abs=1e-8)

    def test_cross_n_within_truncation_bound(self):
        results = [
            tensor_network_expectation(
                self.COS, self.STATE, self.SYS, TensorNetworkParams(n=n, bandwidth=24), 1.0
            )
            for n in (1, 2)
        ]
        diff = abs(results[0].value - results[1].value)
        assert diff <= results[0].truncation_bound + results[1].truncation_bound

    def test_small_bandwidth_bound_finite(self):
        # at J=4 the guard of the bound is negative and the bound used to be inf
        for n in (1, 2, 3):
            for t in (0.0, 1.0):
                coarse, fine = (
                    tensor_network_expectation(
                        self.COS, self.STATE, self.SYS, TensorNetworkParams(n=n, bandwidth=J), t
                    )
                    for J in (4, 64)
                )
                assert math.isfinite(coarse.truncation_bound)
                assert abs(coarse.value - fine.value) <= coarse.truncation_bound

    # sqrt 2 and sqrt 3 rounded to 2^-10: k.alpha is then exact, and so is
    # t k.alpha at t = 1e3, where one rounding of it is up to 1e-11 rad
    EXACT_ALPHA = np.array([1448.0, 1774.0]) / 1024.0

    @staticmethod
    def observables(n, d, J):
        """Supports inside J, between J and nJ, and past nJ up to the zero edge 2nJ + 1."""
        def e(*ks):
            return ks + (0,) * (d - len(ks))

        inside = {e(0): 0.2, e(1): 0.5 - 0.1j, e(-1): 0.5 + 0.1j, e(J): 0.25, e(-J): 0.25}
        between = {e(n * J): 0.3j, e(-n * J): -0.3j, e(J + 1): 0.1, e(-J - 1): 0.1}
        past = {e(n * J + 1): 0.4, e(-n * J - 1): 0.4, e(2 * n * J): 0.2, e(-2 * n * J): 0.2,
                e(-2 * n * J - 1): 1.0}
        if d == 2:
            between[(J + 1, -1)] = 0.2
            past[(1, 2 * n * J)] = 0.3
            past[(-1, -2 * n * J - 1)] = 0.3
        return [FourierObservable(c, d=d) for c in (inside, between, past)]

    @pytest.mark.parametrize("J", [1, 4, 24])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_state_evolved_oracle(self, n, d, J):
        """Pairing U^t f against the fixed state, as the state-evolving form did."""
        sys_, params = RotationSystem(self.EXACT_ALPHA[:d]), TensorNetworkParams(n=n, bandwidth=J)
        for kappa, t, f in itertools.product(
            (0.0, 5.0, 150.0), (0.0, 0.7, -2.5, 1e3), self.observables(n, d, J)
        ):
            state = VonMisesDensity(np.linspace(0.4, 1.3, d), np.full(d, kappa))
            new = tensor_network_expectation(f, state, sys_, params, t)
            old = state_evolved_tensor_expectation(f, state, sys_, params, t)
            assert abs(new.value - old.value) <= 1e-13
            assert abs(new.truncation_bound - old.truncation_bound) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_within_phase_rounding_at_irrational_alpha(self, n):
        # With alpha = sqrt 2 both forms round their phase arguments: the
        # oracle t j.alpha for every |j| <= J of each factor, the new form
        # t k.alpha for each coefficient of f.  Each rounding moves a phase by
        # at most |t j.alpha| 2^-52 rad and the value, an average of f's
        # coefficients with weights of modulus <= 1, by f_l1 times that; at
        # t = 1e3 the two differ by up to 5e-13.
        J, t = 24, 1e3
        sys_, params = RotationSystem(np.array([math.sqrt(2.0)])), TensorNetworkParams(n, J)
        state = VonMisesDensity(np.array([0.4]), np.array([150.0]))
        for f in self.observables(n, 1, J):
            f_l1 = sum(abs(c) for c in f.coeffs.values())
            phase_error = abs(t) * math.sqrt(2.0) * (2 * n * J + f.bandwidth) * 2.0**-51
            new = tensor_network_expectation(f, state, sys_, params, t)
            old = state_evolved_tensor_expectation(f, state, sys_, params, t)
            assert abs(new.value - old.value) <= 1e-13 + f_l1 * phase_error

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bound_matches_box_sum_of_the_factor(self, d):
        # The factor's l1 norm as the product of its rows' sums is within
        # 1e-15 of the sum over all (2J+1)^d entries of their outer product.
        # It enters the bound through (l1 + tail)^(n-1), at most twice, so
        # the bound is bitwise at n = 1 or d = 1 and within 2 (n-1) 1e-15.
        sys_ = RotationSystem(self.EXACT_ALPHA[np.arange(d) % 2] * (1.0 + np.arange(d)))
        f = FourierObservable({(1,) + (0,) * (d - 1): 0.5, (-1,) + (0,) * (d - 1): 0.5}, d=d)
        for n, J, kappa in itertools.product((1, 2, 3), (1, 4, 12), (0.0, 5.0, 150.0)):
            state = VonMisesDensity(np.linspace(0.4, 1.3, d), np.full(d, kappa))
            ratios = bessel_ratios(state.nth_root(n).kappa, 4 * J + 8)
            rows = ratios[:, np.abs(np.arange(-J, J + 1))]
            box = float(np.sum(functools.reduce(np.multiply.outer, rows)))
            l1 = math.prod(float(np.sum(row)) for row in rows)
            assert l1 == pytest.approx(box, rel=1e-15, abs=0)
            params = TensorNetworkParams(n=n, bandwidth=J)
            new = tensor_network_expectation(f, state, sys_, params, 0.7)
            old = outer_sum_tensor_expectation(f, state, sys_, params, 0.7)
            assert new.value == old.value
            if n == 1 or d == 1:
                assert new.truncation_bound == old.truncation_bound
            else:
                assert new.truncation_bound == pytest.approx(old.truncation_bound,
                                                             rel=2 * (n - 1) * 1e-15, abs=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                tensor_network_expectation(
                    self.COS, self.STATE, self.SYS, TensorNetworkParams(n=2, bandwidth=8), bad
                )

    def test_forecasts_forward_flow(self):
        # sharp state: expectation approximates f(Phi^t x)
        state = VonMisesDensity(np.array([1.0]), np.array([60.0]))
        for t in (0.5, 1.0, 3.0):
            res = tensor_network_expectation(
                self.COS, state, self.SYS, TensorNetworkParams(n=1, bandwidth=48), t
            )
            exact = koopman_exact(self.COS, self.SYS, t).evaluate([1.0]).real
            assert abs(res.value - exact) < 0.01


def test_occupation_and_grading_helpers():
    occ = occupation([(2, 1), (0, 3)])
    assert occ == ((0, 3), (2, 1))
    assert grading(occ) == 4
    assert occupation([(0, 0), (1, 1)]) == ((1, 1),)  # zero counts normalize away
    with pytest.raises(ValidationError):
        occupation([(0, -1), (1, 1)])
