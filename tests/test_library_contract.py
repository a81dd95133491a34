"""The library's boundary contract, one row per probe.

Bad input to a public library call raises ``ValidationError`` naming the
argument, and arithmetic that leaves the float range raises
``DegeneracyError``: never a bare numpy or Python error, a RuntimeWarning, a
hang, or a value accepted without a word.  The rows are direct calls; each
runs under a 5 s alarm with RuntimeWarnings as errors.
"""

import math
import signal

import numpy as np
import pytest

from qkoopman import dynamics, fock, qcirc, qmda, rkha, spectral
from qkoopman.errors import DegeneracyError, ValidationError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NAN = math.nan
ORBIT = dynamics.PeriodicOrbitSystem(8)
ROTATION = dynamics.RotationSystem([math.sqrt(2.0)])
MODEL = qmda.ObservationModel()
WEIGHT = rkha.SubexpWeight(1.0, 0.5)
DENSITY = dynamics.VonMisesDensity([0.5], [4.0])
HUGE = dynamics.RotationSystem([1e308])  # t * alpha overflows at t = 10
COS = dynamics.FourierObservable({(1,): 0.5, (-1,): 0.5})
ENCODING = qcirc.QubitEncoding(1, 2)
FOCK_WEIGHT = fock.FockWeight(3.0, 0.5, 6)
FREQS = {0: 0.0, 1: 1.0}
TORUS_POINT = fock.SpectrumTorusPoint((0, 1), [0.5, 0.5], [1.0, 1j])


def count(name, call):
    """A count probe: ValidationError whose message starts with the argument's name."""
    return pytest.param(call, ValidationError, rf"^{name} must be an integer", id=f"count-{name}")


# the 26 count arguments given a non-integral value or NaN
COUNT_PROBES = [
    count("J", lambda: rkha.TruncatedLattice(1, 2.5)),
    count("J", lambda: rkha.TruncatedLattice(1, NAN)),
    count("M", lambda: dynamics.PeriodicOrbitSystem(2.5)),
    count("M", lambda: dynamics.PeriodicOrbitSystem(NAN)),
    count("steps", lambda: qmda.run_filter(ORBIT, MODEL, 0, 2.5)),
    count("steps", lambda: qmda.run_filter(ORBIT, MODEL, 0, NAN)),
    count("x0", lambda: qmda.run_filter(ORBIT, MODEL, NAN, 5)),
    count("steps", lambda: qmda.run_torus_filter(ROTATION, MODEL, 1.0, 2.5, 0.1)),
    count("grid_size", lambda: qmda.run_torus_filter(ROTATION, MODEL, 1.0, 5, 0.1, grid_size=2.5)),
    count("bandwidth", lambda: qmda.run_torus_filter(ROTATION, MODEL, 1.0, 5, 0.1, bandwidth=2.5)),
    count("n", lambda: dynamics.sample_trajectory(ROTATION, [0.0], 0.1, 2.5)),
    count("n", lambda: dynamics.sample_trajectory(ROTATION, [0.0], 0.1, NAN)),
    count("grid_size", lambda: dynamics.grid_sum([[1]], [1.0], 2.5)),
    count("jmax", lambda: dynamics.bessel_ratios(1.0, 2.5)),
    count("jmax", lambda: dynamics.bessel_ratios(1.0, NAN)),
    count("q", lambda: qcirc.QubitEncoding(1, 2.5)),
    count("d", lambda: rkha.SubexpWeight(1.0, 0.5, 2.5)),
    count("n", lambda: DENSITY.nth_root(2.5)),
    count("n", lambda: fock.TensorNetworkParams(n=2.5)),
    count("bandwidth", lambda: fock.TensorNetworkParams(bandwidth=2.5)),
    count("m", lambda: fock.SecondQuantizationParams(m=1.5)),
    count("nmax", lambda: fock.FockWeight(3.0, 0.5, 2.5)),
    count("bandwidth", lambda: dynamics.von_mises_fourier(DENSITY, 2.5)),
    count("J", lambda: rkha.kernel_gram(WEIGHT, rkha.TruncatedLattice(1, 2.5), [[0.0]])),
    count("nmax", lambda: rkha.grs_sequence(WEIGHT, (1,), 2.5)),
    count("rank", lambda: qmda.compress(np.eye(4), 2.5)),
]

# non-finite values once accepted without a word, an overflow once left to
# a RuntimeWarning, and a wrong length once left to numpy
VALUE_PROBES = [
    pytest.param(lambda: dynamics.FourierObservable({(1,): NAN}), ValidationError,
                 "coefficients must be finite", id="observable-nan"),
    pytest.param(lambda: dynamics.grid_sum([[1], [2]], [1.0, NAN], 8), ValidationError,
                 "coefficients must be finite", id="grid_sum-nan"),
    pytest.param(lambda: qcirc.walsh_coefficients([NAN, 1.0]), ValidationError,
                 "frequencies must be finite", id="walsh-nan"),
    pytest.param(lambda: rkha.SubexpWeight(math.inf, 0.5), ValidationError,
                 "tau must be finite", id="weight-tau-inf"),
    pytest.param(lambda: dynamics.flow(dynamics.RotationSystem([1e308]), [0.0], 10.0),
                 DegeneracyError, r"t=10\.0", id="flow-overflow"),
    pytest.param(lambda: qmda.run_filter(ORBIT, MODEL, 0, 5, sigma0=np.ones(3)), ValidationError,
                 r"sigma0 of shape \(3,\) does not match the dimension 8", id="sigma0-length"),
    pytest.param(lambda: rkha.TruncatedLattice(True, 2), ValidationError,
                 "^d must be an integer", id="count-bool"),
]



def real(probe, name, call, error=ValidationError, message="must be finite"):
    """A real-valued probe: the named error, its message starting with the argument's name."""
    return pytest.param(call, error, rf"^{name} {message}", id=f"real-{probe}")


def shots(value):
    return lambda: qcirc.circuit_expectation(ENCODING, WEIGHT, ROTATION, COS, [0.0], 0.5,
                                             shots=value)


# reals out of their interval and phases past the float range, once accepted,
# left to a bare Python error or a RuntimeWarning; then counts once left to
# bare errors, and finite points not yet checked
REAL_PROBES = [
    real("fock-weight-inf", "sigma_w", lambda: fock.FockWeight(math.inf, 0.5, 3)),
    real("second-quantization-p-2", "p", lambda: fock.SecondQuantizationParams(p=2.0),
         message=r"must be finite and in \(0, 1\), got 2\.0"),
    real("second-quantization-p-nan", "p", lambda: fock.SecondQuantizationParams(p=NAN)),
    real("obs-concentration-inf", "obs_concentration",
         lambda: fock.SecondQuantizationParams(obs_concentration=math.inf)),
    real("obs-concentration-nan", "obs_concentration",
         lambda: fock.SecondQuantizationParams(obs_concentration=NAN)),
    real("von-mises-1e308", "kappa", lambda: dynamics.VonMisesDensity([0.0], [1e308]),
         message=r"1e\+308 is above the cap of 1e\+08"),
    real("von-mises-1e9", "kappa", lambda: dynamics.VonMisesDensity([0.0], [1e9]),
         message=r"1000000000\.0 is above the cap"),
    real("sample-trajectory-overflow", "dt",
         lambda: dynamics.sample_trajectory(HUGE, [0.0], 10.0, 3), DegeneracyError,
         r"t=10\.0 takes a phase past the float range"),
    real("koopman-exact-overflow", "time",
         lambda: dynamics.koopman_exact(dynamics.FourierObservable({(1,): 1.0}), HUGE, 10.0),
         DegeneracyError, r"t=10\.0 takes a phase"),
    real("propagate-overflow", "time",
         lambda: spectral.analytic_generator(ROTATION, rkha.TruncatedLattice(1, 2))
         .propagate(np.ones(5), 1e308), DegeneracyError, r"t=1e\+308 takes a phase"),
    real("circuit-overflow", "time",
         lambda: qcirc.circuit_expectation(ENCODING, WEIGHT, ROTATION, COS, [0.0], 1e308),
         DegeneracyError, r"t=-1e\+308 takes a phase"),  # the state evolves by -t
    count("n", lambda: fock.vector_power({0: 0.5}, 2.5)),
    count("n", lambda: fock.vector_power({0: 0.5}, -1)),
    count("nmax", lambda: fock.xi_vector({0: 0.5}, FOCK_WEIGHT, 2.5)),
    count("nmax", lambda: fock.xi_tail_norm(0.5, FOCK_WEIGHT, 2.5)),
    count("shots", shots(2.5)),
    count("shots", shots(0)),
    count("nmax", lambda: rkha.beurling_domar_sum(WEIGHT, (1,), 10**12)),
    count("nmax", lambda: rkha.grs_sequence(WEIGHT, (1,), 10**12)),
    # dt alpha is finite, its largest rotation phase dt alpha J is not
    real("torus-filter-rotation", r"dt\*alpha",
         lambda: qmda.run_torus_filter(ROTATION, MODEL, 1.0, 5, 1e308), DegeneracyError,
         r"t=1\.4142135623730951e\+308 takes a phase"),
    real("evolve-lifted-nan", "time",
         lambda: fock.evolve_lifted(FREQS, fock.FockVector.vacuum(), NAN)),
    real("rotate-phase-point-nan", "time",
         lambda: fock.rotate_phase_point(TORUS_POINT, FREQS, NAN)),
    pytest.param(lambda: fock.second_quantization_forecast(
        COS, ROTATION, fock.SecondQuantizationParams(sigma=math.inf), [0.0], 1.0),
        DegeneracyError, "not finite at sigma=inf", id="real-sigma-inf"),
    real("rational-dependence-nan", "alpha",
         lambda: dynamics.rational_dependence_warnings([1.0, NAN])),
    real("torus-point-nan", "amplitudes",
         lambda: fock.SpectrumTorusPoint((0, 1), [NAN, 0.1], [1.0, 1j])),
]


@pytest.fixture
def alarm():
    def hung(signum, frame):
        raise TimeoutError("the call ran past 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call,error,message", COUNT_PROBES + VALUE_PROBES + REAL_PROBES)
def test_bad_input_raises_a_package_error(alarm, call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert info.type is error


def test_numpy_integer_counts_accepted(alarm):
    n = np.int64
    assert rkha.TruncatedLattice(n(1), n(3)).size == 7
    assert qcirc.QubitEncoding(n(1), n(2)).dim == 8
    assert dynamics.bessel_ratios(1.0, n(4)).tolist() == dynamics.bessel_ratios(1.0, 4).tolist()
    assert dynamics.sample_trajectory(ROTATION, [0.0], 0.1, n(3)).shape == (3, 1)
    got = qmda.run_filter(dynamics.PeriodicOrbitSystem(n(8)), MODEL, n(2), n(5))
    want = qmda.run_filter(ORBIT, MODEL, 2, 5)
    assert got.steps == want.steps


def test_closed_interval_ends_accepted(alarm):
    assert qmda.ObservationModel(noise_std=0.0).noise_std == 0.0
    assert dynamics.VonMisesDensity([0.0], [0.0]).density([1.0]) == 1.0
    assert dynamics.bessel_ratios(0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]
    trace = qmda.run_torus_filter(ROTATION, MODEL, 1.0, 5, 0.1, kappa0=0.0)
    assert len(trace.steps) == 5
    assert np.all(np.isfinite(dynamics.bessel_ratios(1e8, 4)))
    assert 0.0 < dynamics.VonMisesDensity([0.0], [1e8]).density([0.0]) < math.inf
    assert 0.0 < FOCK_WEIGHT.inv_square_tail(0) < math.inf


def test_overflowing_two_sigma_names_sigma(alarm):
    # 2 sigma - tau = inf gave the state tail inf * 0 = NaN at j = 0, which the
    # command line reported as a NaN CSV value
    params = fock.SecondQuantizationParams(sigma=1e308)
    with pytest.raises(DegeneracyError, match=r"sigma=1e\+308"):
        fock.second_quantization_forecast(COS, ROTATION, params, [0.0], 1.0)
