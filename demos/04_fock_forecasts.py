"""Forecasting through the weighted symmetric Fock space.

Two routes to the same target f(Phi^t(x)).  The grading-m route integrates
m-fold symmetric powers of smoothed kernel sections against the observable,
evolves the resulting Fock vector with the lifted generator, and pairs it
with the multiplicative functional sitting at the feature point of x; the
error contracts as m grows.  The tensor-power route builds a pure state out
of n-th roots of a von Mises density, multiplies them back together, and
pairs the result with the Koopman-evolved observable, which is the same as
evolving each factor; its value is independent of n up to the reported
factor truncation and approximates the target to the state's own smoothing
width.
"""

import math

import numpy as np

from qkoopman.dynamics import (
    FourierObservable,
    RotationSystem,
    VonMisesDensity,
    koopman_exact,
)
from qkoopman.fock import (
    SecondQuantizationParams,
    TensorNetworkParams,
    second_quantization_forecast,
    tensor_network_expectation,
)

system = RotationSystem(np.array([math.sqrt(2.0)]))
f = FourierObservable({(1,): 0.5, (-1,): 0.5}, d=1)  # cos(theta)
x, t = 1.0, 1.0
target = koopman_exact(f, system, t).evaluate([x]).real
print(f"target f(Phi^t x) = cos(x + t sqrt(2)) = {target:+.6f}\n")

print("grading sweep of the kernel-section forecast:")
for m in (1, 2, 3):
    res = second_quantization_forecast(f, system, SecondQuantizationParams(m=m), [x], t)
    print(
        f"  m={m}: value {res.value:+.6f}  error {abs(res.value - target):.4f}  "
        f"(normalization {res.normalization:.2e}, state tail {res.state_tail_norm:.1e})"
    )

print("\ntensor-power expectation with a concentrated von Mises state:")
state = VonMisesDensity(np.array([x]), np.array([20.0]))
for n in (1, 2, 3):
    res = tensor_network_expectation(f, state, system, TensorNetworkParams(n=n, bandwidth=24), t)
    print(
        f"  n={n}: value {res.value:+.8f}  error {abs(res.value - target):.4f}  "
        f"(factor truncation bound {res.truncation_bound:.1e})"
    )

print("\nsharpening the state closes the remaining gap:")
for kappa in (20.0, 60.0, 150.0):
    state = VonMisesDensity(np.array([x]), np.array([kappa]))
    res = tensor_network_expectation(f, state, system, TensorNetworkParams(n=1, bandwidth=64), t)
    print(f"  kappa={kappa:>5}: error {abs(res.value - target):.5f}")

print("\nthe unit observable self-normalizes exactly:")
one = FourierObservable.constant(1.0, d=1)
res = tensor_network_expectation(one, state, system, TensorNetworkParams(n=2, bandwidth=24), t)
print(f"  n=2 expectation of 1 -> {res.value} (exact)")
