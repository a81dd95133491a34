"""Bayesian filtering on a periodic orbit, classically and with operators.

The classical filter tracks a probability density over the orbit points; the
operator filter tracks the rank-1 projector onto the square-root density and
conditions with the square root of the observation effect.  Without
compression the two agree to machine precision at every step.  Compressing
every operator to a few frequency modes keeps states positive (that is the
point of conjugation-style projection) but leaves the classical world: the
trace-norm gap becomes visible while the point estimates still track truth.
"""

import math

import numpy as np

from qkoopman.dynamics import PeriodicOrbitSystem, RotationSystem
from qkoopman.qmda import (
    CLASSICAL,
    QUANTUM,
    QUANTUM_PROJECTED,
    ObservationModel,
    consistency_chain_gap,
    min_sqrt_density,
    run_filter,
    run_torus_filter,
)

system = PeriodicOrbitSystem(8)
model = ObservationModel(kind="vonmises", scale=6.0, noise_std=0.05)

print("one-step statistics agree across all four expectation routes:")
rng = np.random.default_rng(0)
sigma = rng.uniform(0.2, 1.0, 8)
sigma /= sigma.mean()
f = rng.standard_normal(8)
print(f"  largest pairwise gap: {consistency_chain_gap(system, sigma, f):.2e}")

print("\nexact operator filter vs classical filter, 20 steps:")
trace = run_filter(system, model, x0=0, steps=20, mode=QUANTUM, seed=3)
print(f"  worst trace-norm distance: {trace.consistency_max():.2e}")
print(f"  estimate matches truth in {100 * trace.estimate_match_fraction():.0f}% of steps")

print("\nprojected filter (6 of 8 modes):")
projected = run_filter(system, model, x0=0, steps=20, mode=QUANTUM_PROJECTED, rank=6, seed=3)
print(f"  worst trace-norm distance: {projected.consistency_max():.3f} (no longer classical)")
print(f"  estimate matches truth in {100 * projected.estimate_match_fraction():.0f}% of steps")

print("\nper-step view (step, evidence, consistency, |estimate - truth|):")
for step in projected.steps[:8]:
    print(
        f"  {step.step:>2}  {step.evidence:.3f}  {step.consistency:.3e}  "
        f"{step.estimate_error:.0f}"
    )

print("\nclassical-only run for reference (uninformative after flattening):")
flat = ObservationModel(kind="vonmises", scale=1e-9)
stationary = run_filter(system, flat, x0=0, steps=5, mode=CLASSICAL, seed=1)
for post in stationary.classical_posteriors[:3]:
    print("  posterior:", np.round(post, 6))

# the same story on the circle: the exact conjugate-family filter vs the
# truncated square-root-density track, with and without mode projection
rotation = RotationSystem(np.array([math.sqrt(2.0)]))
circular = ObservationModel(kind="vonmises", scale=4.0, noise_std=0.1)
print("\ncircle rotation filter (32 modes):")
full = run_torus_filter(rotation, circular, 1.0, 15, dt=0.3, mode=QUANTUM, seed=2)
print(f"  full lattice: consistency {full.consistency_max():.1e} (truncation only)")
proj = run_torus_filter(
    rotation, circular, 1.0, 15, dt=0.3, mode=QUANTUM_PROJECTED, rank=9, seed=2
)
neg = min_sqrt_density(proj.quantum_posteriors).min()
print(
    f"  9 modes kept: consistency {proj.consistency_max():.3f}, square-root density "
    f"dips to {neg:.3f} on the grid, estimate error <= "
    f"{max(s.estimate_error for s in proj.steps):.3f} rad"
)
