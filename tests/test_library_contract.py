"""The library's boundary contract, one row per probe.

Bad input to a public library call raises ``ValidationError`` naming the
argument, and arithmetic that leaves the float range raises
``DegeneracyError``: never a bare numpy or Python error, a RuntimeWarning, a
hang, or a value accepted without a word.  The rows are direct calls; each
runs under a 5 s alarm with RuntimeWarnings as errors; a size past a cap,
which a lost cap would allocate, runs in a child process instead.
"""

import math
import os
import re
import signal
import subprocess
import sys

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


# the 27 count arguments given a non-integral value or NaN
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
    count("bandwidth", lambda: qmda.ObservationModel("event", 1.0).fourier_coeffs(0.0, 2.5)),
]

# non-finite values once accepted without a word, an overflow once left to
# a RuntimeWarning, and a wrong length once left to numpy
VALUE_PROBES = [
    pytest.param(lambda: dynamics.FourierObservable({(1,): NAN}), ValidationError,
                 "coefficients must be finite", id="observable-nan"),
    pytest.param(lambda: dynamics.grid_sum([[1], [2]], [1.0, NAN], 8), ValidationError,
                 "coefficients must be finite", id="grid_sum-nan"),
    # the one coefficient was broadcast to both indices, 1.5 was truncated
    # to 1, and a 1-d table was a bare IndexError
    pytest.param(lambda: dynamics.grid_sum([[1], [2]], [1.0], 4), ValidationError,
                 r"^indices of shape \(2, 1\) \(int64\) must be a table of integers, a row per "
                 r"coefficient of shape \(1,\)", id="grid_sum-rows"),
    pytest.param(lambda: dynamics.grid_sum([[1.5]], [1.0], 4), ValidationError,
                 r"^indices of shape \(1, 1\) \(float64\)", id="grid_sum-non-integral"),
    pytest.param(lambda: dynamics.grid_sum([1, 2], [1.0, 2.0], 4), ValidationError,
                 r"^indices of shape \(2,\) \(int64\)", id="grid_sum-1d"),
    # a ragged list was numpy's bare "inhomogeneous shape" ValueError
    pytest.param(lambda: dynamics.grid_sum([[1], [2, 3]], [1.0, 2.0], 4), ValidationError,
                 r"^indices must be a table of integers, a row per coefficient of shape \(2,\), "
                 r"not rows of unequal length", id="grid_sum-ragged"),
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
    # an index was truncated by int(): {2: 1, (2.5,): 3} became {(2,): 3}
    pytest.param(lambda: dynamics.FourierObservable({2.5: 1.0}), ValidationError,
                 r"^index 2\.5 must be an integer", id="index-non-integral"),
    pytest.param(lambda: dynamics.FourierObservable({2: 1.0, (2.5,): 3.0}), ValidationError,
                 r"^index \(2\.5,\) must be an integer", id="index-truncated"),
    pytest.param(lambda: dynamics.FourierObservable({2: 1.0, (2,): 3.0}), ValidationError,
                 r"^index \(2,\) repeats the index", id="index-repeated"),
    pytest.param(lambda: dynamics.FourierObservable.harmonic(3.7), ValidationError,
                 r"^index 3\.7 must be an integer", id="harmonic-non-integral"),
    # numpy's "array is too big", and below its limit an allocation
    pytest.param(lambda: rkha.TruncatedLattice(40, 1), ValidationError,
                 r"^lattice d=40, J=1 has more than 1000000 modes", id="lattice-d-too-big"),
    pytest.param(lambda: rkha.TruncatedLattice(6, 1023), ValidationError,
                 r"^lattice d=6, J=1023 has more than 1000000 modes", id="lattice-J-too-big"),
    pytest.param(lambda: rkha.TruncatedLattice(1, 500_000), ValidationError,
                 r"^lattice d=1, J=500000 has more than", id="lattice-one-past-the-cap"),
    # the truths' closed-form orbit is within 2e-15 rad of the exact one for k <= 10**6
    pytest.param(lambda: qmda.run_torus_filter(ROTATION, MODEL, 1.0, 10**6 + 1, 0.1),
                 ValidationError, r"^steps must be an integer in \[1, 1000000\]",
                 id="torus-steps-one-past-the-cap"),
    # indices @ x overflowed in a RuntimeWarning
    pytest.param(lambda: rkha.feature_coefficients(WEIGHT, rkha.TruncatedLattice(1, 2), [1e308]),
                 DegeneracyError, r"^point x=\[1e\+308\] takes a phase of 2\*\*52 rad or more",
                 id="feature-overflow"),
    pytest.param(lambda: rkha.feature_coefficients(WEIGHT, rkha.TruncatedLattice(1, 2), [-1e308]),
                 DegeneracyError, r"^point x=\[-1e\+308\] takes a phase",
                 id="feature-overflow-neg"),
    pytest.param(lambda: rkha.feature_coefficients(rkha.SubexpWeight(1.0, 0.5, 2),
                                                   rkha.TruncatedLattice(2, 1), [1e308, -1e308]),
                 DegeneracyError, r"^point x=\[1e\+308, -1e\+308\] takes a phase",
                 id="feature-overflow-inf-minus-inf"),
    # a phase j.x of 2**52 rad or more keeps no digit: the circuit's exact
    # path gave 0.633 at x = 1e20, where f(x) read 0.764, and NaN with
    # three RuntimeWarnings at 1e308; the other callers' values meant as little
    *(pytest.param(call, DegeneracyError, rf"^{name}={point} takes a phase of 2\*\*52 rad or more",
                   id=f"point-{probe}")
      for probe, call, name, point in [
          ("circuit-1e20", lambda: qcirc.circuit_expectation(
              ENCODING, WEIGHT, ROTATION, COS, [1e20], 0.5), "point x", r"\[1e\+20\]"),
          ("circuit-1e308", lambda: qcirc.circuit_expectation(
              ENCODING, WEIGHT, ROTATION, COS, [1e308], 0.5), "point x", r"\[1e\+308\]"),
          ("evaluate", lambda: COS.evaluate([1e20]), "point x", r"\[1e\+20\]"),
          ("evaluate-inf-minus-inf", lambda: dynamics.FourierObservable({(2, 2): 1.0}).evaluate(
              [1e308, -1e308]), "point x", r"\[1e\+308, -1e\+308\]"),
          ("second-quantization", lambda: fock.second_quantization_forecast(
              COS, ROTATION, fock.SecondQuantizationParams(), [1e20], 0.0),
           r"point x\+t\*alpha", r"\[1e\+20\]"),
          ("fourier-coeffs", lambda: MODEL.fourier_coeffs(1e308, 2), "observation y", r"1e\+308"),
          ("data-driven", lambda: spectral.data_driven_generator(
              [[0.0], [1e20]] * 4, 0.1, rkha.TruncatedLattice(1, 1)),
           "sample x", r"\[1e\+20\]"),
          ("torus-filter-x0", lambda: qmda.run_torus_filter(ROTATION, MODEL, 1e20, 5, 0.1),
           "x0", r"1e\+20"),
      ]),
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
         r"t=10\.0 takes a phase of 2\*\*52 rad or more"),
    real("koopman-exact-overflow", "time",
         lambda: dynamics.koopman_exact(dynamics.FourierObservable({(1,): 1.0}), HUGE, 10.0),
         DegeneracyError, r"t=10\.0 takes a phase"),
    real("propagate-overflow", "time",
         lambda: spectral.analytic_generator(ROTATION, rkha.TruncatedLattice(1, 2))
         .propagate(np.ones(5), 1e308), DegeneracyError, r"t=1e\+308 takes a phase"),
    real("circuit-overflow", "time",
         lambda: qcirc.circuit_expectation(ENCODING, WEIGHT, ROTATION, COS, [0.0], 1e308),
         DegeneracyError, r"t=1e\+308 takes a phase"),
    count("n", lambda: fock.vector_power({0: 0.5}, 2.5)),
    count("n", lambda: fock.vector_power({0: 0.5}, -1)),
    count("nmax", lambda: fock.xi_vector({0: 0.5}, FOCK_WEIGHT, 2.5)),
    count("nmax", lambda: fock.xi_tail_norm(0.5, FOCK_WEIGHT, 2.5)),
    count("shots", shots(2.5)),
    count("shots", shots(0)),
    count("nmax", lambda: rkha.beurling_domar_sum(WEIGHT, (1,), 10**12)),
    count("nmax", lambda: rkha.grs_sequence(WEIGHT, (1,), 10**12)),
    # dt alpha is below 2**52 rad, its largest rotation phase dt alpha J is not
    real("torus-filter-rotation", r"dt\*alpha",
         lambda: qmda.run_torus_filter(ROTATION, MODEL, 1.0, 5, 2.0**48), DegeneracyError,
         r"t=398065729532860\.8 takes a phase"),
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
    # a Python int past the float range was numpy's OverflowError
    real("huge-int", "tau", lambda: rkha.SubexpWeight(10**400, 0.5),
         message="must be finite, got a number past the float range"),
    real("gram-huge-int", "points", lambda: rkha.kernel_gram(WEIGHT, rkha.TruncatedLattice(1, 2),
                                                            [[10**400]]),
         message="must be finite, got a number past the float range"),
    real("observable-huge-int", "coefficients", lambda: dynamics.FourierObservable({1: 10**400}),
         message="must be finite, got a number past the float range"),
    real("grid-sum-huge-int", "coefficients", lambda: dynamics.grid_sum([[1]], [10**400], 4),
         message="must be finite, got a number past the float range"),
    real("likelihood-huge-int", "likelihood",
         lambda: qmda.classical_analysis(np.ones(2), [10**400, 1.0], np.full(2, 0.5)),
         message="must be finite, got a number past the float range"),
    # scale (cos - 1) overflowed in kappa, and 2 scale^2 underflowed to a 0/0
    real("vonmises-scale-1e308", "scale", lambda: qmda.ObservationModel(scale=1e308),
         message=r"must be finite and in \(0, 1e\+300\), got 1e\+308"),
    real("gaussian-scale-1e-300", "scale",
         lambda: qmda.ObservationModel(kind="gaussian", scale=1e-300),
         message=r"must be finite and in \(1e-150, 1e\+150\), got 1e-300"),
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
    assert rkha.TruncatedLattice(n(1), n(499_999)).size == 999_999  # the largest box of d = 1
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


def test_extreme_finite_values_accepted(alarm):
    # y - x overflowed at the points +-1e308; they are wrapped first
    lat = rkha.TruncatedLattice(1, 4)
    far = [[1e308], [-1e308]]
    near = dynamics.wrap_angles(np.ravel(far))
    value = rkha.kernel_value(WEIGHT, lat, far[0], far[1])
    assert value == rkha.kernel_value(WEIGHT, lat, [near[0]], [near[1]])
    gram = rkha.kernel_gram(WEIGHT, lat, far)
    assert gram[0, 1] == value and np.all(np.isfinite(gram))
    # a feature vector's phases are taken as given, not wrapped, so j x of
    # 2**52 rad or more is refused
    with pytest.raises(DegeneracyError, match=r"^point x=\[1e\+307\] takes a phase of 2\*\*52"):
        rkha.feature_coefficients(WEIGHT, lat, [1e307])
    # 2 pi kappa overflowed in _i0e, so the scaled I_0 was 0 and the
    # classical evidence a ZeroDivisionError
    trace = qmda.run_torus_filter(ROTATION, MODEL, 1.0, 5, 0.1, kappa0=1e308, mode="classical")
    assert len(trace.steps) == 5
    # x0 = 2**49 took a phase of 2**52 rad or more in J x0; the filter starts
    # from the wrapped x0, as its truths do
    far, near = 2.0**49, float(dynamics.wrap_angles(2.0**49)[0])
    assert (qmda.run_torus_filter(ROTATION, MODEL, far, 5, 0.1).steps
            == qmda.run_torus_filter(ROTATION, MODEL, near, 5, 0.1).steps)
    assert dynamics._i0e(1e308) == pytest.approx(1.0 / math.sqrt(2e308 * math.pi), rel=1e-15)


# Every phase maker at a largest phase of t = 2**52 rad, and one ulp below
# it: one ulp of such a phase is a whole radian.  Each frequency is 1, or
# -1 for the export's rz angle -2 t Im v_i.
UNIT = dynamics.RotationSystem([1.0])
PHASE_MAKERS = {
    "flow": lambda t: dynamics.flow(UNIT, [0.0], t),
    "koopman-exact": lambda t: dynamics.koopman_exact(COS, UNIT, t),
    "propagate": lambda t: spectral.analytic_generator(UNIT, rkha.TruncatedLattice(1, 1))
    .propagate(np.ones(3), t),
    "evolve-statevector": lambda t: qcirc.evolve_statevector(
        qcirc.WalshCoefficients(np.array([1j])), np.ones(2, dtype=complex), t),
    "export-circuit": lambda t: qcirc.export_circuit(
        qcirc.WalshCoefficients(np.full(3, 0.5j)), ENCODING, t),
}


@pytest.mark.parametrize("name", sorted(PHASE_MAKERS))
def test_phase_of_2_52_refused_and_below_accepted(alarm, name):
    call = PHASE_MAKERS[name]
    call(np.nextafter(2.0**52, 0.0))
    with pytest.raises(DegeneracyError,
                       match=r"^time t=4503599627370496\.0 takes a phase of 2\*\*52 rad or more"):
        call(2.0**52)


def test_one_mode_lattice_of_any_dimension(alarm):
    # np.indices((1,) * d) built a (d + 1)-dimensional array, past numpy's
    # 64 dimensions from d = 64
    for d in (64, 1000):
        lat = rkha.TruncatedLattice(d, 0)
        assert lat.indices.shape == (1, d) and not lat.indices.any()
        assert lat.position((0,) * d) == 0


# Sizes past ``_MAX_TERMS`` (10^6), each once allocated unchecked, or for
# the lattice of d = 10^9 built as a tuple of 10^9 entries.  Each runs in a
# child under a 1 GiB address-space limit, so a lost cap ends there in a
# MemoryError, never in the test process's memory.  The last row is no cap
# but a call that needs no large array: the tensor powers at d = 6, J = 12
# once summed the (2J+1)^d = 25^6 entries of the factor, 1.82 GiB.
CAP_PROBES = [
    ("rkha.TruncatedLattice(10**9, 0)", r"d must be an integer in \[1, 1000000\]"),
    ("dynamics.bessel_ratios(1.0, 10**6 + 1)", r"jmax must be an integer in \[0, 1000000\]"),
    ("qmda.ObservationModel('event', 1.0).fourier_coeffs(0.0, 10**6 + 1)",
     r"bandwidth must be an integer in \[0, 1000000\]"),
    ("dynamics.von_mises_fourier(dynamics.VonMisesDensity([0.0, 0.0], [1.0, 1.0]), 500)",
     r"lattice d=2, J=500 has more than 1000000 modes"),  # 1001^2 coefficients
    ("dynamics.sample_trajectory(ROTATION, [0.0], 0.1, 10**6 + 1)",
     r"n must be an integer in \[1, 1000000\]"),
    ("fock.tensor_network_expectation(dynamics.FourierObservable.constant(1.0, 6), "
     "dynamics.VonMisesDensity([0.5] * 6, [20.0] * 6), dynamics.RotationSystem(range(1, 7)), "
     "fock.TensorNetworkParams(n=1, bandwidth=12), 1.0)",
     r"TensorNetworkResult\(value=1\.0, truncation_bound="),
]
CHILD = """
import math, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qkoopman import dynamics, fock, qmda, rkha
from qkoopman.errors import ValidationError
ROTATION = dynamics.RotationSystem([math.sqrt(2.0)])
try:
    print(eval(sys.argv[1]))
except ValidationError as err:
    print(err)
"""


@pytest.mark.parametrize("call,message", CAP_PROBES, ids=[c.split("(")[0] for c, _ in CAP_PROBES])
def test_size_past_the_cap_refused_before_allocating(call, message):
    proc = subprocess.run([sys.executable, "-c", CHILD, call], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert re.match(message, proc.stdout), proc.stdout


def test_overflowing_two_sigma_names_sigma(alarm):
    # 2 sigma - tau = inf gave the state tail inf * 0 = NaN at j = 0, which the
    # command line reported as a NaN CSV value
    params = fock.SecondQuantizationParams(sigma=1e308)
    with pytest.raises(DegeneracyError, match=r"sigma=1e\+308"):
        fock.second_quantization_forecast(COS, ROTATION, params, [0.0], 1.0)
