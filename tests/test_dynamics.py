import math
import time

import mpmath
import numpy as np
import pytest

from qkoopman.dynamics import (
    FourierObservable,
    PeriodicOrbitSystem,
    RotationSystem,
    VonMisesDensity,
    _i0e,
    bessel_ratios,
    flow,
    grid_sum,
    koopman_exact,
    rational_dependence_warnings,
    sample_trajectory,
    von_mises_fourier,
    von_mises_kernel_row,
    wrap_angles,
)
from qkoopman import dynamics
from qkoopman.errors import DegeneracyError, ValidationError
from qkoopman.fock import FockWeight
from qkoopman.qmda import ObservationModel
from qkoopman.rkha import SubexpWeight

from oracles import direct_grid_values

TWO_PI = 2.0 * math.pi


def random_observable(rng, d=1, bandwidth=3, real=False):
    coeffs = {}
    lattice = range(-bandwidth, bandwidth + 1)
    if d == 1:
        keys = [(j,) for j in lattice]
    else:
        keys = [(j1, j2) for j1 in lattice for j2 in lattice]
    for j in keys:
        coeffs[j] = complex(rng.standard_normal(), rng.standard_normal())
    if real:
        snapshot = dict(coeffs)
        for j in keys:
            coeffs[j] = 0.5 * (snapshot[j] + snapshot[tuple(-v for v in j)].conjugate())
    return FourierObservable(coeffs, d=d)


class TestFlow:
    def test_identity_at_t0(self):
        sys = RotationSystem(np.array([math.sqrt(2.0)]))
        assert flow(sys, [0.5], 0.0) == pytest.approx([0.5])

    def test_direct_formula(self):
        sys = RotationSystem(np.array([1.0]))
        assert flow(sys, [0.0], math.pi) == pytest.approx([math.pi])

    def test_high_precision_oracle(self):
        # expected values from 50-digit arithmetic
        mpmath.mp.dps = 50
        expected = [
            float(mpmath.fmod(10 * mpmath.sqrt(2), 2 * mpmath.pi)),
            float(mpmath.fmod(10 * mpmath.sqrt(3), 2 * mpmath.pi)),
        ]
        sys = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(3.0)]))
        got = flow(sys, [0.0, 0.0], 10.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(7)
        sys = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(3.0)]))
        for _ in range(50):
            x = rng.uniform(0, TWO_PI, size=2)
            s, t = rng.uniform(-5, 5, size=2)
            two_step = flow(sys, flow(sys, x, s), t)
            one_step = flow(sys, x, s + t)
            diff = np.abs(np.exp(1j * two_step) - np.exp(1j * one_step))
            assert np.max(diff) < 1e-12

    def test_wrap_range(self):
        out = wrap_angles([-1e-18, TWO_PI, 3 * TWO_PI + 0.25, -7.5])
        assert np.all(out >= 0.0) and np.all(out < TWO_PI)

    def test_invalid_system(self):
        with pytest.raises(ValidationError):
            RotationSystem(np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            RotationSystem(np.array([]))


class TestTrajectory:
    def test_single_point(self):
        sys = RotationSystem(np.array([1.0]))
        traj = sample_trajectory(sys, [0.3], 0.1, 1)
        assert traj.shape == (1, 1)
        assert traj[0, 0] == pytest.approx(0.3)

    def test_consecutive_points_are_flow_steps(self):
        sys = RotationSystem(np.array([math.sqrt(2.0)]))
        traj = sample_trajectory(sys, [1.0], 0.37, 200)
        for k in range(199):
            assert np.array_equal(flow(sys, traj[k], 0.37), traj[k + 1])

    def test_full_period(self):
        sys = RotationSystem(np.array([1.0]))
        traj = sample_trajectory(sys, [0.4], TWO_PI, 5)
        for k in range(5):
            assert abs(np.exp(1j * traj[k, 0]) - np.exp(1j * 0.4)) < 1e-12

    def test_preconditions(self):
        sys = RotationSystem(np.array([1.0]))
        with pytest.raises(ValidationError):
            sample_trajectory(sys, [0.0], 0.1, 0)
        with pytest.raises(ValidationError):
            sample_trajectory(sys, [0.0], -0.1, 3)

    @staticmethod
    def flow_loop(sys, x0, dt, n):
        """The per-sample loop sample_trajectory replaced: one flow call per row."""
        out = np.empty((n, sys.d))
        out[0] = wrap_angles(x0)
        for k in range(1, n):
            out[k] = flow(sys, out[k - 1], dt)
        return out

    def test_matches_flow_loop(self):
        rng = np.random.default_rng(11)
        cases = [(np.array([-1e-17]), np.array([0.0]), 1.0, 50)]  # the 0/2 pi seam
        for d in (1, 2, 4, 16):
            for _ in range(12):
                alpha = rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-8, 3, d)
                x0 = rng.uniform(-50.0, 50.0, d)  # mostly outside [0, 2 pi)
                dt = 10.0 ** rng.uniform(-3, 1)
                cases.append((alpha, x0, dt, int(rng.integers(1, 5001))))
        for alpha, x0, dt, n in cases:
            sys = RotationSystem(alpha)
            got = sample_trajectory(sys, x0, dt, n)
            expected = self.flow_loop(sys, x0, dt, n)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (alpha, dt, n)
        seam = sample_trajectory(RotationSystem(np.array([-1e-17])), [0.0], 1.0, 3)
        assert np.all(seam == 0.0)  # -1e-17 mod 2 pi rounds to 2 pi, folded to 0

    def test_wrong_dimension_rejected(self):
        sys = RotationSystem(np.array([1.0, 2.0]))
        for x0 in ([0.1], [0.1, 0.2, 0.3]):
            for n in (1, 4):
                with pytest.raises(ValidationError):
                    sample_trajectory(sys, x0, 0.1, n)


class TestEvaluate:
    def test_constant(self):
        f = FourierObservable.constant(1.0, d=1)
        assert f.evaluate([2.1]) == pytest.approx(1.0)

    def test_single_harmonic(self):
        f = FourierObservable.harmonic(1)
        assert f.evaluate([math.pi / 2]) == pytest.approx(1j)

    def test_matches_term_by_term_sum(self):
        rng = np.random.default_rng(11)
        f = random_observable(rng, d=1, bandwidth=3)
        x = rng.uniform(0, TWO_PI)
        direct = sum(c * np.exp(1j * j[0] * x) for j, c in f.coeffs.items())
        assert abs(f.evaluate([x]) - direct) < 1e-14

    def test_real_symmetry_detection(self):
        rng = np.random.default_rng(3)
        f = random_observable(rng, d=1, bandwidth=2, real=True)
        assert f.is_real()
        g = FourierObservable({(1,): 1.0}, d=1)
        assert not g.is_real()


def random_support(rng, d, bandwidth, count):
    """``count`` random coefficients at indices with every |j_i| <= bandwidth."""
    keys = {tuple(int(v) for v in rng.integers(-bandwidth, bandwidth + 1, d)) for _ in range(count)}
    return FourierObservable(
        {j: complex(rng.standard_normal(), rng.standard_normal()) for j in keys}, d=d
    )


def fft_grid_values(f, grid_size):
    """f on the uniform grid by ``grid_sum`` over its support."""
    indices = np.array(list(f.coeffs), dtype=int).reshape(-1, f.d)
    return grid_sum(indices, list(f.coeffs.values()), grid_size)


class TestGridSum:
    # (d, G, bandwidth): G from 1 to 2048, bandwidths at and past G/2, so
    # indices alias onto one grid frequency
    CASES = [
        (1, 1, 3), (1, 2, 1), (1, 3, 7), (1, 7, 4), (1, 64, 32), (1, 64, 200),
        (1, 2048, 1023), (1, 2048, 5000),
        (2, 1, 2), (2, 5, 3), (2, 16, 8), (2, 32, 70),
        (3, 1, 1), (3, 4, 2), (3, 9, 12),
    ]

    @pytest.mark.parametrize("d, g, bandwidth", CASES)
    def test_matches_direct_sum(self, d, g, bandwidth):
        rng = np.random.default_rng(100 * d + g + bandwidth)
        f = random_support(rng, d, bandwidth, 2047 if d == 1 else 60)
        fast = fft_grid_values(f, g)
        direct = direct_grid_values(f, g)
        assert fast.shape == (g,) * d
        scale = sum(abs(c) for c in f.coeffs.values())
        assert np.max(np.abs(fast - direct)) <= 1e-12 * scale

    def test_repeated_indices_add(self):
        values = grid_sum(np.array([[1], [1], [-4]]), [1.0, 2.0, 0.5j], 5)
        f = FourierObservable({(1,): 3.0, (-4,): 0.5j}, d=1)
        assert np.max(np.abs(values - direct_grid_values(f, 5))) <= 1e-15

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_observable(self, d):
        f = FourierObservable({}, d=d)
        assert np.array_equal(fft_grid_values(f, 4), np.zeros((4,) * d, dtype=complex))
        assert np.array_equal(fft_grid_values(f, 4), direct_grid_values(f, 4))

    @pytest.mark.parametrize("g", [0, -3])
    def test_grid_size_below_one_rejected(self, g):
        with pytest.raises(ValidationError, match="grid_size"):
            fft_grid_values(FourierObservable({(1,): 1.0}), g)
        with pytest.raises(ValidationError, match="grid_size"):
            grid_sum(np.array([[1]]), [1.0], g)


class TestKoopmanExact:
    def test_identity_at_t0(self):
        rng = np.random.default_rng(5)
        f = random_observable(rng, d=1, bandwidth=3)
        g = koopman_exact(f, RotationSystem(np.array([1.0])), 0.0)
        for j in f.coeffs:
            assert g.coeffs[j] == pytest.approx(f.coeffs[j])

    def test_single_mode_phase(self):
        f = FourierObservable.harmonic(1)
        g = koopman_exact(f, RotationSystem(np.array([1.0])), math.pi)
        assert g.coeffs[(1,)] == pytest.approx(-1.0)

    def test_composition_oracle(self):
        rng = np.random.default_rng(13)
        sys = RotationSystem(np.array([math.sqrt(2.0), math.sqrt(5.0)]))
        for _ in range(20):
            f = random_observable(rng, d=2, bandwidth=2)
            x = rng.uniform(0, TWO_PI, size=2)
            t = rng.uniform(-3, 3)
            lhs = koopman_exact(f, sys, t).evaluate(x)
            rhs = f.evaluate(flow(sys, x, t))
            assert abs(lhs - rhs) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(17)
        f = random_observable(rng, d=1, bandwidth=4)
        g = koopman_exact(f, RotationSystem(np.array([math.sqrt(2.0)])), 1.7)
        assert g.l2_norm() == pytest.approx(f.l2_norm(), abs=1e-13)


class TestPeriodicOrbit:
    def test_permutation_unitarity(self):
        for m in range(1, 9):
            u = PeriodicOrbitSystem(m).koopman_matrix()
            assert np.array_equal(u @ u.T, np.eye(m))

    def test_koopman_is_composition(self):
        sys = PeriodicOrbitSystem(5)
        rng = np.random.default_rng(23)
        f = rng.standard_normal(5)
        uf = sys.koopman_matrix() @ f
        for i in range(5):
            assert uf[i] == f[sys.step(i)]


class TestVonMises:
    def test_uniform_limit(self):
        p = VonMisesDensity(np.array([1.0]), np.array([0.0]))
        f = von_mises_fourier(p, 3)
        assert f.coeffs[(0,)] == pytest.approx(1.0)
        for j in range(1, 4):
            assert abs(f.coeffs[(j,)]) == 0.0

    def test_quadrature_oracle(self):
        # coefficients of exp(cos(theta - mu))/I_0(1) against dense quadrature
        p = VonMisesDensity(np.array([0.7]), np.array([1.0]))
        f = von_mises_fourier(p, 2)
        grid = 4096
        theta = np.arange(grid) * TWO_PI / grid
        dens = np.array([p.density([v]) for v in theta])
        for j in range(-2, 3):
            oracle = np.mean(dens * np.exp(-1j * j * theta))
            assert abs(f.coeffs[(j,)] - oracle) < 1e-10

    def test_conjugate_symmetry(self):
        p = VonMisesDensity(np.array([0.3, 5.0]), np.array([2.0, 0.5]))
        f = von_mises_fourier(p, 2)
        assert f.is_real(tol=1e-14)

    def test_density_normalization(self):
        p = VonMisesDensity(np.array([2.0]), np.array([3.0]))
        grid = 2048
        theta = np.arange(grid) * TWO_PI / grid
        total = np.mean([p.density([v]) for v in theta])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_nth_root_family(self):
        p = VonMisesDensity(np.array([1.0]), np.array([4.0]))
        r = p.nth_root(4)
        assert r.kappa[0] == pytest.approx(1.0)
        theta = 2.2
        ratio = p.density([theta]) ** 0.25 / r.density([theta])
        ratio2 = p.density([0.1]) ** 0.25 / r.density([0.1])
        assert ratio == pytest.approx(ratio2, rel=1e-12)


class TestI0e:
    # both sides of the switch from the power series to the asymptotic one at 25
    KAPPAS = [0.0, 1e-6, 24.999, 25.0, 25.001, 1e5,
              *np.geomspace(1e-5, 1e4, 46), *np.linspace(24.0, 26.0, 21)]

    def test_against_mpmath(self):
        with mpmath.workdps(40):
            for kappa in self.KAPPAS:
                exact = float(mpmath.besseli(0, kappa) * mpmath.exp(-kappa))
                assert abs(_i0e(kappa) - exact) <= 2e-15 * exact, kappa

    def test_against_scipy(self):
        from scipy.special import i0e

        for kappa in self.KAPPAS:
            assert _i0e(kappa) == pytest.approx(float(i0e(kappa)), rel=3e-15), kappa


class TestBesselRatios:
    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        for kappa in (0.3, 1.0, 4.0, 25.0):
            got = bessel_ratios(kappa, 12)
            i0 = mpmath.besseli(0, kappa)
            for j in range(13):
                exact = float(mpmath.besseli(j, kappa) / i0)
                assert abs(got[j] - exact) <= 1e-12 * max(abs(exact), 1e-30)

    def test_zero_concentration(self):
        got = bessel_ratios(0.0, 5)
        assert got[0] == 1.0
        assert np.all(got[1:] == 0.0)

    @pytest.mark.parametrize(
        "kappa, jmax",
        [(150.0, 264), (6.0, 264), (75.0, 520), (0.5, 520), (1200.0, 32), (5000.0, 12)],
    )
    def test_long_sequences_against_mpmath(self, kappa, jmax):
        # jmax in the hundreds: successive Miller runs never agree to 1e-15 here
        mpmath.mp.dps = 40
        got = bessel_ratios(kappa, jmax)
        i0 = mpmath.besseli(0, kappa)
        for j in range(jmax + 1):
            exact = mpmath.besseli(j, kappa) / i0
            if exact >= mpmath.mpf("1e-290"):
                assert abs(got[j] - float(exact)) <= 1e-12 * float(exact), j

    def test_negative_jmax_rejected(self):
        with pytest.raises(ValidationError):
            bessel_ratios(2.0, -1)

    def test_no_doubling_cliff(self):
        # the kappa=150, bandwidth=64 tensor-power call of demo 04
        start = time.perf_counter()
        bessel_ratios(150.0, 264)
        assert time.perf_counter() - start < 0.5

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_BESSEL_RTOL", 0.0)
        with pytest.raises(DegeneracyError, match=r"kappa=6\.0, jmax=40"):
            bessel_ratios(6.0, 40)

    # 1e-300 and 1e-12 take the products below the 1e-300 floor, where runs
    # compare absolutely; 6..700 and 1e5 stop after different numbers of
    # doublings.  Shuffled, so the lanes' start order differs from the input
    # order; enough of them to run as numpy lanes.
    LANE_KAPPAS = np.random.default_rng(11).permutation(
        np.concatenate([[0.0, 1e-300, 1e-12, 1e-3], np.geomspace(6.0, 700.0, 96), [1e5]]))

    @pytest.mark.parametrize("jmax", [0, 12, 32, 264])
    def test_lanes_are_bitwise_the_float_runs(self, jmax):
        lanes = bessel_ratios(self.LANE_KAPPAS, jmax)
        floats = np.array([bessel_ratios(float(k), jmax) for k in self.LANE_KAPPAS])
        assert lanes.shape == (self.LANE_KAPPAS.size, jmax + 1)
        assert np.array_equal(lanes.view(np.uint64), floats.view(np.uint64))

    @pytest.mark.parametrize("jmax", [12, 264])
    def test_both_forms_raise_no_floating_point_error(self, jmax):
        # no overflow, no inf/inf and no division by zero in either form.
        # Underflow stays quiet: kappa = 1e-300 and I_264(6)/I_0(6) ~ 1e-400
        # have ratios and products below the float range, rounded to 0.
        with np.errstate(all="raise", under="ignore"):
            lanes = bessel_ratios(self.LANE_KAPPAS, jmax)
            floats = np.array([bessel_ratios(float(k), jmax) for k in self.LANE_KAPPAS])
        assert np.array_equal(lanes, floats)

    @pytest.mark.parametrize("kappa", [1e-110, 1e-120, 1e-160, 1e-200, 1e-240, 5e-324])
    def test_tiny_concentrations(self, kappa):
        # one step multiplies I_m by 2m/kappa > 1e58: the unscaled Miller run
        # overflowed here.  I_j/I_0 = (kappa/2)^j/j! to double precision.
        mpmath.mp.dps = 30
        exact = [float((mpmath.mpf(kappa) / 2) ** j / mpmath.factorial(j)) for j in range(9)]
        scalar = bessel_ratios(kappa, 8)
        assert np.array_equal(scalar, exact)
        lanes = bessel_ratios(np.full(64, kappa), 8)
        assert np.array_equal(lanes, np.tile(exact, (lanes.shape[0], 1)))

    def test_lanes_stop_doubling_on_their_own(self, monkeypatch):
        # one doubling settles kappa = 2 and 3 but not 600 or 900
        monkeypatch.setattr(dynamics, "_BESSEL_DOUBLINGS", 1)
        settled = np.repeat([2.0, 3.0], dynamics._MILLER_MIN_LANES)
        assert np.array_equal(bessel_ratios(settled, 32),
                              [bessel_ratios(float(k), 32) for k in settled])
        with pytest.raises(DegeneracyError, match=r"kappa=900\.0, jmax=32"):
            bessel_ratios(np.concatenate([settled, [900.0, 3.0, 600.0]]), 32)

    @pytest.mark.parametrize("kappas, first", [([0.0, 6.0, 2.0, 0.5], "6.0"),
                                               ([0.0, 0.5, 600.0, 6.0], "0.5")])
    @pytest.mark.parametrize("copies", [1, 32])  # float loops, then numpy lanes
    def test_lanes_name_the_first_unconverged_concentration(self, monkeypatch, kappas,
                                                             first, copies):
        monkeypatch.setattr(dynamics, "_BESSEL_RTOL", 0.0)
        monkeypatch.setattr(dynamics, "_BESSEL_DOUBLINGS", 2)
        with pytest.raises(DegeneracyError, match=rf"kappa={first}, jmax=40\)"):
            bessel_ratios(np.tile(kappas, copies), 40)

    def test_array_shapes_and_checks(self):
        assert bessel_ratios(np.array([]), 3).shape == (0, 4)
        assert np.array_equal(bessel_ratios(np.zeros(2), 2), [[1.0, 0.0, 0.0]] * 2)
        with pytest.raises(ValidationError):
            bessel_ratios(np.array([1.0, -1.0]), 3)
        with pytest.raises(ValidationError):
            bessel_ratios(np.ones((2, 2)), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_concentration_rejected(self, bad):
        # 100 NaN concentrations once ran twelve futile doublings first
        with pytest.raises(ValidationError, match="finite"):
            bessel_ratios(bad, 3)
        with pytest.raises(ValidationError, match="finite"):
            bessel_ratios(np.full(100, bad), 3)


def test_rational_dependence_scan():
    flagged = rational_dependence_warnings(np.array([2.0, 3.0]))
    assert flagged and float(flagged[0][2]) == pytest.approx(2.0 / 3.0)
    assert rational_dependence_warnings(np.array([1.0, math.sqrt(2.0)])) == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: SubexpWeight(math.nan, 0.5, 1),
        lambda: FockWeight(math.nan, 0.5, 6),
        lambda: ObservationModel(scale=math.nan),
        lambda: ObservationModel(noise_std=math.nan),
        lambda: sample_trajectory(RotationSystem(np.array([math.sqrt(2.0)])), [0.0], math.nan, 3),
        lambda: VonMisesDensity(np.array([0.0]), np.array([math.nan])),
    ],
    ids=["tau", "sigma_w", "scale", "noise_std", "dt", "kappa"],
)
def test_nan_parameters_rejected(build):
    # each check is written so that a NaN fails it
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: ObservationModel(scale=math.inf),
        lambda: ObservationModel(noise_std=math.inf),
        lambda: VonMisesDensity(np.array([0.0]), np.array([math.inf])),
    ],
    ids=["scale", "noise_std", "kappa"],
)
def test_inf_parameters_rejected(build):
    # scale = inf once raised a bare OverflowError from the Bessel start
    # index, noise_std = inf a DegeneracyError on kappa = nan
    with pytest.raises(ValidationError, match="finite"):
        build()


SQRT2 = RotationSystem(np.array([math.sqrt(2.0)]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_trajectory(SQRT2, [0.0], math.inf, 3),
        lambda: sample_trajectory(SQRT2, [math.nan], 0.1, 3),
        lambda: sample_trajectory(SQRT2, [math.inf], 0.1, 3),
        lambda: VonMisesDensity(np.array([math.nan]), np.array([1.0])),
        lambda: VonMisesDensity(np.array([math.inf]), np.array([1.0])),
        lambda: koopman_exact(FourierObservable.harmonic(1), SQRT2, math.nan),
        lambda: flow(SQRT2, [0.0], math.inf),
        lambda: flow(SQRT2, [math.nan], 1.0),
    ],
    ids=["dt-inf", "x0-nan", "x0-inf", "mu-nan", "mu-inf", "koopman-t-nan", "flow-t-inf",
         "flow-theta-nan"],
)
def test_non_finite_points_and_times_rejected(call):
    # each once gave NaN rows or coefficients, or an invalid-value RuntimeWarning
    with pytest.raises(ValidationError, match="finite"):
        call()


class TestVonMisesKernelRow:
    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 4.0, 60.0, 1e5])
    @pytest.mark.parametrize("J", [0, 1, 16, 64])
    def test_against_mpmath(self, kappa, J):
        row = von_mises_kernel_row(kappa, J)
        assert row.shape == (2 * J + 1,)
        with mpmath.workdps(40):
            for j in range(-J, J + 1):
                exact = float(mpmath.besseli(abs(j), kappa) * mpmath.exp(-kappa))
                if exact < 1e-300:
                    assert abs(row[j + J] - exact) <= 1e-300, (j, row[j + J], exact)
                else:
                    assert abs(row[j + J] - exact) <= 1e-13 * exact, (j, row[j + J], exact)
