"""One pass of the library-inproc workload: public library calls, in-process.

Every call goes through a module attribute (``rkha.kernel_gram(...)``), so
the traced run sees it when it swaps those attributes for timing wrappers.
The seed moves initial points and the observation-noise seed only; every
size below is fixed.
"""

from __future__ import annotations

import math

import numpy as np

from qkoopman import dynamics, fock, qmda, rkha, spectral

ALPHA_1 = np.array([math.sqrt(2.0)])
ALPHA_2 = np.array([math.sqrt(2.0), math.sqrt(3.0)])
COS_1 = {(1,): 0.5, (-1,): 0.5}
COS_2 = {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25, (0, -1): 0.25}


def run_pass(seed: int) -> dict:
    """Run every call once and return the numbers the checks look at."""
    rng = np.random.default_rng(seed)
    out = {}

    out["subconvolutivity_constant"] = rkha.subconvolutivity_constant(
        rkha.SubexpWeight(1.0, 0.5, 2), rkha.TruncatedLattice(2, 24)
    )

    points = rng.uniform(0.0, 2.0 * math.pi, size=(64, 1))
    gram = rkha.kernel_gram(rkha.SubexpWeight(1.0, 0.5, 1), rkha.TruncatedLattice(1, 16), points)
    diagonal = np.diag(gram).real
    out["kernel_gram.hermitian_residual"] = float(np.max(np.abs(gram - gram.conj().T)))
    out["kernel_gram.diagonal_spread"] = float(np.ptp(diagonal) / np.max(diagonal))
    out["kernel_gram.frobenius"] = float(np.linalg.norm(gram))

    mult = qmda.multiplication_operator_fourier(COS_1, rkha.TruncatedLattice(1, 64))
    out["multiplication_operator.hermitian_residual"] = float(np.max(np.abs(mult - mult.conj().T)))
    out["multiplication_operator.frobenius"] = float(np.linalg.norm(mult))

    rotation = dynamics.RotationSystem(ALPHA_1)
    model = qmda.ObservationModel(kind="vonmises", scale=6.0, noise_std=0.05)
    x0 = float(rng.uniform(0.0, 2.0 * math.pi))
    noise_seed = int(rng.integers(2**31))
    for mode, rank in ((qmda.QUANTUM, None), (qmda.QUANTUM_PROJECTED, 33)):
        trace = qmda.run_torus_filter(
            rotation, model, x0, 200, 0.1, bandwidth=32, mode=mode, rank=rank, seed=noise_seed
        )
        out[f"torus_filter.{mode}.consistency_max"] = trace.consistency_max()
        out[f"torus_filter.{mode}.mean_estimate_error"] = float(
            np.mean([step.estimate_error for step in trace.steps])
        )

    torus = dynamics.RotationSystem(ALPHA_2)
    f2 = dynamics.FourierObservable(COS_2, d=2)
    state2 = dynamics.VonMisesDensity(rng.uniform(0.0, 2.0 * math.pi, 2), np.array([20.0, 20.0]))
    res = fock.tensor_network_expectation(
        f2, state2, torus, fock.TensorNetworkParams(n=3, bandwidth=12), 1.0
    )
    out["tensor_power.d2.value"] = res.value
    out["tensor_power.d2.bound"] = res.truncation_bound

    # demos/04_fock_forecasts.py, sharpest state: bessel_ratios(150, 264)
    # runs all twelve start-index doublings without meeting its own test.
    f1 = dynamics.FourierObservable(COS_1, d=1)
    state1 = dynamics.VonMisesDensity(np.array([x0]), np.array([150.0]))
    res = fock.tensor_network_expectation(
        f1, state1, rotation, fock.TensorNetworkParams(n=1, bandwidth=64), 1.0
    )
    out["tensor_power.kappa150.value"] = res.value
    out["tensor_power.kappa150.bound"] = res.truncation_bound
    one = dynamics.FourierObservable.constant(1.0, d=1)
    res = fock.tensor_network_expectation(
        one, state1, rotation, fock.TensorNetworkParams(n=2, bandwidth=24), 1.0
    )
    out["tensor_power.unit_value"] = res.value

    trajectory = dynamics.sample_trajectory(torus, rng.uniform(0.0, 2.0 * math.pi, 2), 0.01, 5000)
    generator = spectral.data_driven_generator(trajectory, 0.01, rkha.TruncatedLattice(2, 1))
    out["data_driven_generator.omega"] = [float(w) for w in generator.eigen_omega]
    return out
