import cmath
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from qkoopman import dynamics
from qkoopman.dynamics import PeriodicOrbitSystem
from qkoopman.errors import DegeneracyError, ValidationError, ZeroEvidenceError
from qkoopman.dynamics import FourierObservable, RotationSystem, sample_trajectory, wrap_angles
from qkoopman import qmda
from qkoopman.qmda import (
    CLASSICAL,
    QUANTUM,
    QUANTUM_PROJECTED,
    ObservationModel,
    check_density,
    classical_analysis,
    classical_forecast,
    compress,
    consistency_chain_gap,
    embed_density,
    multiplication_operator_fourier,
    multiplication_operator_point,
    orbit_observation_values,
    run_filter,
    run_torus_filter,
    _pure_state_distance,
    _sqrt_von_mises_rows,
)
from qkoopman.rkha import TruncatedLattice

from oracles import (
    check_density_operator,
    check_effect,
    classical_forecast_rotation,
    effect_from_observation,
    effect_sqrt,
    orbit_mode_order,
    orbit_mode_transform,
    quantum_analysis,
    quantum_forecast,
    sqrt_von_mises_coeffs,
    stepwise_torus_filter,
    torus_grid_matrix,
    trace_norm,
    vdot_pure_state_distance,
)


def random_density(rng, m):
    raw = rng.uniform(0.05, 1.0, size=m)
    return raw / raw.mean()


class TestEmbedding:
    def test_uniform_two_points(self):
        rho = embed_density(np.ones(2), np.full(2, 0.5))
        assert np.allclose(rho, np.full((2, 2), 0.5))

    def test_point_mass(self):
        sigma = np.array([0.0, 0.0, 3.0])
        rho = embed_density(sigma, np.full(3, 1 / 3))
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert np.allclose(rho, expected)

    def test_rank_one_unit_trace(self):
        rng = np.random.default_rng(0)
        sigma = random_density(rng, 6)
        rho = embed_density(sigma, np.full(6, 1 / 6))
        eigs = np.sort(np.linalg.eigvalsh(rho))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(eigs[-2]) <= 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        check_density_operator(rho)

    def test_nan_density_rejected(self):
        # np.max(sigma) <= 0 is False for NaN, so it once returned a NaN projector
        with pytest.raises(ValidationError, match="non-finite"):
            embed_density(np.array([1.0, math.nan, 1.0]), np.full(3, 1 / 3))


class TestClassicalFilter:
    def test_identity_system(self):
        sys = PeriodicOrbitSystem(1)
        sigma = np.array([1.0])
        assert np.array_equal(classical_forecast(sys, sigma), sigma)

    def test_period_three(self):
        sys = PeriodicOrbitSystem(3)
        sigma = np.array([3.0, 0.0, 0.0])
        out = sigma
        for _ in range(3):
            out = classical_forecast(sys, out)
        assert np.array_equal(out, sigma)

    def test_mass_conserved(self):
        rng = np.random.default_rng(1)
        sys = PeriodicOrbitSystem(7)
        sigma = random_density(rng, 7)
        out = classical_forecast(sys, sigma)
        assert np.sum(out) == pytest.approx(np.sum(sigma), abs=1e-14)

    def test_forecast_follows_dynamics(self):
        sys = PeriodicOrbitSystem(4)
        sigma = np.array([4.0, 0.0, 0.0, 0.0])  # mass at point 0
        out = classical_forecast(sys, sigma)
        assert out[sys.step(0)] == 4.0

    def test_uninformative_likelihood(self):
        rng = np.random.default_rng(2)
        sigma = random_density(rng, 5)
        mu = np.full(5, 0.2)
        out = classical_analysis(sigma, np.ones(5), mu)
        assert np.allclose(out, sigma)

    def test_indicator_likelihood(self):
        sigma = np.array([1.0, 1.0, 1.0, 1.0])
        mu = np.full(4, 0.25)
        out = classical_analysis(sigma, np.array([0.0, 1.0, 0.0, 0.0]), mu)
        assert np.allclose(out, [0.0, 4.0, 0.0, 0.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        m = 8
        sigma = random_density(rng, m)
        mu = np.full(m, 1 / m)
        h = orbit_observation_values(PeriodicOrbitSystem(m))
        like = np.exp(-((1.3 - h) ** 2) / 0.5)
        got = classical_analysis(sigma, like, mu)
        brute = sigma * like
        brute = brute / np.dot(mu, brute)
        assert np.max(np.abs(got - brute)) < 1e-14

    def test_zero_evidence(self):
        sigma = np.array([0.0, 2.0])
        mu = np.full(2, 0.5)
        with pytest.raises(ZeroEvidenceError):
            classical_analysis(sigma, np.array([1.0, 0.0]), mu)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_likelihood_rejected(self, bad):
        # a NaN likelihood once gave a NaN evidence, which passed the zero test
        with pytest.raises(ValidationError, match="likelihood"):
            classical_analysis(np.ones(3), np.array([1.0, bad, 0.5]), np.full(3, 1 / 3))

    @pytest.mark.filterwarnings("error")
    def test_nan_density_rejected(self):
        # NaN fails both the minimum and the sum comparison, so it once passed
        with pytest.raises(ValidationError, match="non-finite"):
            check_density(np.array([1.0, math.nan, 1.0]), np.full(3, 1 / 3))


class TestQuantumSteps:
    def test_forecast_identity(self):
        rng = np.random.default_rng(4)
        rho = embed_density(random_density(rng, 4), np.full(4, 0.25))
        out = quantum_forecast(np.eye(4, dtype=complex), rho)
        assert np.allclose(out, rho)

    def test_forecast_moves_point_mass(self):
        sys = PeriodicOrbitSystem(4)
        mu = sys.mu
        sigma = np.zeros(4)
        sigma[1] = 4.0
        rho = embed_density(sigma, mu)
        transfer = sys.transfer_matrix().astype(complex)
        out = quantum_forecast(transfer, rho)
        expected = embed_density(classical_forecast(sys, sigma), mu)
        assert np.allclose(out, expected, atol=1e-14)

    def test_forecast_preserves_spectrum(self):
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        eigs = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        rho = (basis * eigs) @ basis.conj().T
        u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        out = quantum_forecast(u, rho)
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12)

    def test_forecast_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            quantum_forecast(np.ones((2, 2), dtype=complex), np.eye(2, dtype=complex) / 2)

    def test_analysis_with_identity_effect(self):
        rng = np.random.default_rng(6)
        rho = embed_density(random_density(rng, 3), np.full(3, 1 / 3))
        out = quantum_analysis(rho, np.eye(3, dtype=complex))
        assert np.allclose(out, rho, atol=1e-14)

    def test_analysis_diagonal_restriction(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        e = np.diag([1.0, 1.0, 0.0]).astype(complex)
        out = quantum_analysis(rho, e)
        assert np.allclose(out, np.diag([0.625, 0.375, 0.0]))

    def test_consistent_with_classical_posterior(self):
        rng = np.random.default_rng(7)
        m = 6
        mu = np.full(m, 1 / m)
        sigma = random_density(rng, m)
        like = rng.uniform(0.1, 1.0, size=m)
        rho = embed_density(sigma, mu)
        effect = multiplication_operator_point(like)
        got = quantum_analysis(rho, effect)
        expected = embed_density(classical_analysis(sigma, like, mu), mu)
        assert trace_norm(got - expected) < 1e-12

    def test_analysis_output_valid(self):
        rng = np.random.default_rng(8)
        rho = embed_density(random_density(rng, 5), np.full(5, 0.2))
        e = multiplication_operator_point(rng.uniform(0.0, 1.0, 5))
        out = quantum_analysis(rho, e)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_root_of_projector_is_the_projector(self):
        # the zero eigenvalues, once rounded, must not come back as sqrt(rounding)
        m = 17
        modes = orbit_mode_transform(m)
        for window in (1, 2, 3, 8):
            proj = modes[:, :window] @ modes[:, :window].conj().T
            assert np.max(np.abs(effect_sqrt(proj) - proj)) <= 1e-14

    def test_zero_evidence(self):
        sigma = np.array([2.0, 0.0])
        rho = embed_density(sigma, np.full(2, 0.5))
        e = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ZeroEvidenceError):
            quantum_analysis(rho, e)


class TestEffects:
    @pytest.mark.parametrize("kind", ["gaussian", "vonmises", "event"])
    def test_nan_observation_rejected_by_kappa(self, kind):
        # y = nan once gave a NaN likelihood row
        model = ObservationModel(kind=kind, scale=1.0)
        with pytest.raises(ValidationError, match="finite"):
            model.kappa(math.nan, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("kind", ["vonmises", "event"])
    def test_nan_observation_rejected_by_fourier_coeffs(self, kind):
        # y = nan once gave NaN coefficients
        model = ObservationModel(kind=kind, scale=1.0)
        with pytest.raises(ValidationError, match="finite"):
            model.fourier_coeffs(math.nan, 4)

    @pytest.mark.parametrize("count", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("kind,noise_std", [("vonmises", 0.1), ("vonmises", 0.0),
                                                ("gaussian", 0.3), ("gaussian", 0.0),
                                                ("event", 0.2)])
    def test_block_observations_match_per_step_draws(self, kind, noise_std, count):
        # every true value of a run in one call, as both filters pass them,
        # against one scalar observe call per value from an equal generator
        model = ObservationModel(kind=kind, scale=1.0, noise_std=noise_std)
        truths = (5.0 + 0.37 * np.arange(count)).tolist()  # most past 2 pi
        blocked_rng, stepped_rng = np.random.default_rng(11), np.random.default_rng(11)
        blocked = model.observe(truths, blocked_rng)
        stepped = [model.observe(x, stepped_rng) for x in truths]
        assert bits(blocked) == bits(stepped)
        # and both generators have drawn the same numbers
        assert blocked_rng.standard_normal() == stepped_rng.standard_normal()

    @pytest.mark.parametrize("mode,rank", [(CLASSICAL, None), (QUANTUM, None),
                                           (QUANTUM_PROJECTED, 9)])
    def test_each_run_draws_once(self, monkeypatch, mode, rank):
        # one observe call over every true value, where the orbit filter once
        # drew one value a step and the torus filter one block of 256 a call
        sizes = []
        observe = ObservationModel.observe

        def counted(self, true_value, rng):
            sizes.append(np.size(true_value))
            return observe(self, true_value, rng)

        monkeypatch.setattr(ObservationModel, "observe", counted)
        model = ObservationModel(kind="vonmises", scale=4.0, noise_std=0.1)
        run_filter(PeriodicOrbitSystem(17), model, 3, 600, mode=mode, rank=rank, seed=1)
        run_torus_filter(RotationSystem(np.array([np.sqrt(2.0)])), model, 1.3, 600, 0.3,
                         mode=mode, rank=rank, seed=1)
        run_filter(PeriodicOrbitSystem(17), model, 3, 4, mode=mode, rank=rank,
                   observations=[0.1, 0.2, 0.3, 0.4])
        assert sizes == [600, 600]

    def test_uninformative_kernel_is_identity(self):
        model = ObservationModel(kind="vonmises", scale=3.0)
        vals = model.kappa(1.2, np.array([1.2]))
        assert vals[0] == pytest.approx(1.0)

    def test_event_effect_is_indicator(self):
        sys = PeriodicOrbitSystem(8)
        h = orbit_observation_values(sys)
        model = ObservationModel(kind="event", scale=0.5)
        e = multiplication_operator_point(model.kappa(h[3], h))
        diag = np.diag(e).real
        assert diag[3] == 1.0
        assert np.all(np.isin(diag, (0.0, 1.0)))
        check_effect(e)

    def test_event_kernel_is_circular(self):
        # the window of width scale around y = 0 wraps round to the last point
        h = orbit_observation_values(PeriodicOrbitSystem(17))
        model = ObservationModel(kind="event", scale=3.0 * 2 * np.pi / 17)
        expected = np.zeros(17)
        expected[[16, 0, 1]] = 1.0
        assert np.array_equal(model.kappa(0.0, h), expected)

    def test_gaussian_kernel_is_circular(self):
        # points 1 and 16 sit one spacing either side of y = 0 on the circle
        h = orbit_observation_values(PeriodicOrbitSystem(17))
        model = ObservationModel(kind="gaussian", scale=2 * np.pi / 17)
        values = model.kappa(0.0, h)
        assert values[1] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert values[16] == pytest.approx(values[1], rel=1e-12)

    def test_effect_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(9)
        lat = TruncatedLattice(1, 6)
        model = ObservationModel(kind="vonmises", scale=5.0)
        for _ in range(10):
            y = rng.uniform(0, 2 * np.pi)
            e = multiplication_operator_fourier(model.fourier_coeffs(y, 2 * lat.J), lat)
            check_effect(e)

    def test_event_fourier_effect(self):
        lat = TruncatedLattice(1, 8)
        model = ObservationModel(kind="event", scale=1.0)
        e = multiplication_operator_fourier(model.fourier_coeffs(2.0, 2 * lat.J), lat)
        check_effect(e, tol=1e-2)  # truncated indicator overshoots slightly

    def test_effect_dispatcher_both_bases(self):
        model = ObservationModel(kind="vonmises", scale=3.0)
        h = orbit_observation_values(PeriodicOrbitSystem(6))
        diag = effect_from_observation(model, 1.0, h)
        assert np.array_equal(np.diag(np.diag(diag)), diag)
        check_effect(diag)
        lat = TruncatedLattice(1, 5)
        toeplitz = effect_from_observation(model, 1.0, lat)
        assert toeplitz.shape == (11, 11)
        # constant diagonals (Toeplitz structure)
        for off in range(-2, 3):
            band = np.diagonal(toeplitz, offset=off)
            assert np.max(np.abs(band - band[0])) < 1e-15
        check_effect(toeplitz)


def loop_multiplier(coeffs, lat):
    """The double loop that multiplication_operator_fourier replaced."""
    out = np.zeros((lat.size, lat.size), dtype=complex)
    for a in range(lat.size):
        for b in range(lat.size):
            c = coeffs.get(tuple(int(v) for v in (lat.indices[a] - lat.indices[b])))
            if c is not None:
                out[a, b] = c
    return out


@pytest.mark.parametrize("d, J", [(1, 0), (1, 6), (2, 2), (3, 1)])
def test_multiplication_operator_matches_loop_oracle(d, J):
    rng = np.random.default_rng(d * 10 + J)
    lat = TruncatedLattice(d, J)
    coeffs = {}
    for _ in range(8):  # some keys fall outside every index difference
        m = tuple(int(v) for v in rng.integers(-2 * J - 2, 2 * J + 3, d))
        coeffs[m] = complex(rng.standard_normal(), rng.standard_normal())
    coeffs[(0,) * d] = 0.25
    assert np.array_equal(multiplication_operator_fourier(coeffs, lat), loop_multiplier(coeffs, lat))
    if d == 1:
        model = ObservationModel(kind="vonmises", scale=5.0)
        coeffs = model.fourier_coeffs(1.3, 2 * J)
        assert np.array_equal(
            multiplication_operator_fourier(coeffs, lat), loop_multiplier(coeffs, lat)
        )


class TestCompression:
    def test_full_rank_unchanged(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.array_equal(compress(a, 5), a)

    def test_psd_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 16))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            psd = b @ b.conj().T
            rank = int(rng.integers(1, n + 1))
            eigs = np.linalg.eigvalsh(compress(psd, rank))
            assert eigs.min() >= -1e-10

    def test_linearity(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        assert np.array_equal(compress(a, 3) + compress(b, 3), compress(a + b, 3))

    def test_compressed_multipliers_do_not_commute(self):
        lat = TruncatedLattice(1, 2)
        f = multiplication_operator_fourier({(1,): 1.0}, lat)
        g = multiplication_operator_fourier({(-1,): 1.0}, lat)
        fc, gc = compress(f, 3), compress(g, 3)
        commutator = fc @ gc - gc @ fc
        norm = np.linalg.norm(commutator)
        assert norm == pytest.approx(np.sqrt(2.0), abs=1e-12)
        # away from the truncation boundary the multipliers do commute
        interior = (f @ g - g @ f)[1:-1, 1:-1]
        assert np.linalg.norm(interior) == 0.0


class TestConsistencyChain:
    def test_random_pairs(self):
        rng = np.random.default_rng(13)
        sys = PeriodicOrbitSystem(8)
        for _ in range(100):
            sigma = random_density(rng, 8)
            f = rng.standard_normal(8)
            assert consistency_chain_gap(sys, sigma, f) < 1e-12


class TestRunFilter:
    def test_stationary_uniform(self):
        sys = PeriodicOrbitSystem(4)
        model = ObservationModel(kind="vonmises", scale=1e-9)  # essentially flat
        trace = run_filter(sys, model, 0, 10, mode=CLASSICAL, seed=1)
        for post in trace.classical_posteriors:
            assert np.allclose(post, np.ones(4), atol=1e-9)

    def test_exact_quantum_consistency(self):
        model = ObservationModel(kind="vonmises", scale=4.0, noise_std=0.1)
        for m in range(2, 9):
            trace = run_filter(PeriodicOrbitSystem(m), model, 0, 20, mode=QUANTUM, seed=2)
            assert trace.consistency_max() <= 1e-12

    def test_projected_mode_tracks_truth(self):
        sys = PeriodicOrbitSystem(8)
        model = ObservationModel(kind="vonmises", scale=6.0, noise_std=0.05)
        trace = run_filter(
            sys, model, 0, 20, mode=QUANTUM_PROJECTED, rank=6, seed=3
        )
        assert trace.consistency_max() > 0.0
        assert trace.estimate_match_fraction() >= 0.9

    def test_zero_evidence_names_step(self):
        # prior mass pinned at point 0 while the observation window sits elsewhere
        sys = PeriodicOrbitSystem(4)
        model = ObservationModel(kind="event", scale=1e-6)
        sigma0 = np.array([4.0, 0.0, 0.0, 0.0])
        with pytest.raises(ZeroEvidenceError, match=r"step 1"):
            run_filter(sys, model, 2, 5, mode=CLASSICAL, seed=4, sigma0=sigma0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode,rank", [(CLASSICAL, None), (QUANTUM, None),
                                           (QUANTUM_PROJECTED, 2)])
    @pytest.mark.parametrize("where", ["sigma0", "observations"])
    def test_nan_input_rejected_before_any_step(self, monkeypatch, mode, rank, where):
        # either NaN once ran every step and wrote evidence = nan from there on
        def refuse(*args, **kwargs):
            raise AssertionError("the filter stepped before it checked its inputs")

        monkeypatch.setattr(qmda, "classical_analysis", refuse)
        inputs = dict(sigma0=np.ones(4), observations=[0.1, 0.2, 0.3])
        inputs[where] = np.array([1.0, math.nan, 1.0, 1.0]) if where == "sigma0" else [
            0.1, 0.2, math.nan]
        with pytest.raises(ValidationError, match="finite"):
            run_filter(PeriodicOrbitSystem(4), ObservationModel(), 0, 3, mode=mode, rank=rank,
                       **inputs)

    def test_deterministic_given_seed(self):
        sys = PeriodicOrbitSystem(6)
        model = ObservationModel(kind="vonmises", scale=4.0, noise_std=0.2)
        t1 = run_filter(sys, model, 1, 15, mode=QUANTUM, seed=7)
        t2 = run_filter(sys, model, 1, 15, mode=QUANTUM, seed=7)
        for a, b in zip(t1.steps, t2.steps):
            assert (a.evidence, a.estimate, a.consistency) == (
                b.evidence,
                b.estimate,
                b.consistency,
            )


def dense_filter(sys, model, x0, steps, mode, rank, seed):
    """The dense M x M loop run_filter ran before it carried psi: the oracle.

    Returns (evidence, consistency, point marginals) per step.
    """
    rng = np.random.default_rng(seed)
    mu = sys.mu
    h = orbit_observation_values(sys)
    if mode == QUANTUM:
        to_basis, rank = np.eye(sys.M), sys.M
    else:
        to_basis = orbit_mode_transform(sys.M)

    def compressed(a):
        return compress(to_basis @ a @ to_basis.conj().T, rank)

    sigma = np.ones(sys.M)
    transfer = compressed(sys.transfer_matrix().astype(complex))
    rho = compressed(embed_density(sigma, mu))
    rho /= np.trace(rho).real
    x = x0 % sys.M
    out = []
    for _ in range(steps):
        x = sys.step(x)
        like = model.kappa(model.observe(h[x], rng), h)
        prior = classical_forecast(sys, sigma)
        sigma = classical_analysis(prior, like, mu)
        rho = quantum_forecast(transfer, rho)
        effect = compressed(multiplication_operator_point(like))
        rho = quantum_analysis(rho / np.trace(rho).real, effect)
        rho_point = to_basis.conj().T[:, :rank] @ rho @ to_basis[:rank, :]
        out.append(
            (
                float(np.dot(mu, prior * like)),
                trace_norm(compressed(embed_density(sigma, mu)) - rho),
                np.maximum(np.diag(rho_point).real, 0.0),
            )
        )
    return out


KERNELS = {
    "vonmises": lambda m: ObservationModel(kind="vonmises", scale=4.0, noise_std=0.1),
    "gaussian": lambda m: ObservationModel(kind="gaussian", scale=0.8, noise_std=0.1),
    # a window of three points around the noiseless observation
    "event": lambda m: ObservationModel(kind="event", scale=3.0 * 2 * np.pi / m),
}


@pytest.mark.parametrize("kind", sorted(KERNELS))
@pytest.mark.parametrize("m", [1, 2, 3, 8, 17, 128])
def test_run_filter_matches_dense_loop(m, kind):
    model = KERNELS[kind](m)
    sys = PeriodicOrbitSystem(m)
    runs = [(QUANTUM, m)] + [(QUANTUM_PROJECTED, L) for L in sorted({1, (m + 1) // 2, m})]
    for mode, rank in runs:
        for seed in (0, 1, 2):
            trace = run_filter(sys, model, seed, 10, mode=mode, rank=rank, seed=seed)
            oracle = dense_filter(sys, model, seed, 10, mode, rank, seed)
            for step, (evidence, consistency, marginals) in zip(trace.steps, oracle):
                assert step.evidence == evidence
                assert abs(step.consistency - consistency) <= 1e-13
                if mode == QUANTUM:
                    assert step.consistency <= 1e-12  # criterion 1
                second, top = np.sort(np.append(marginals, 0.0))[-2:]
                if top - second > 1e-9 * top:  # exact ties go either way
                    assert step.estimate == np.argmax(marginals)
            assert all(psi.shape == (rank,) for psi in trace.quantum_posteriors)


def ascending_effect(like, rank):
    """The compressed effect of ``like`` on the leading ``rank`` modes, built
    densely and reordered to the ascending band run_filter carries."""
    m = len(like)
    modes = orbit_mode_transform(m)
    band = np.argsort(qmda._orbit_mode_order(m)[:rank])
    return compress(modes @ np.diag(like) @ modes.conj().T, rank)[np.ix_(band, band)]


def mp_root_apply(like, rank, psi):
    """sqrt(C) psi at 40 digits, no clamp, for the effect of the float ``like``."""
    m = len(like)
    band = np.sort(qmda._orbit_mode_order(m)[:rank])
    with mpmath.workdps(40):
        dft = {
            n: mpmath.fsum(mpmath.mpf(float(v)) * mpmath.expjpi(mpmath.mpf(-2 * n * x) / m)
                           for x, v in enumerate(like)) / m
            for n in range(-(rank - 1), rank)
        }
        effect = mpmath.matrix([[dft[int(a - b)] for b in band] for a in band])
        eigs, vecs = mpmath.eighe(effect)
        coords = vecs.H * mpmath.matrix([mpmath.mpc(complex(p)) for p in psi])
        for i in range(rank):
            coords[i] *= mpmath.sqrt(max(eigs[i], 0))
        out = vecs * coords
        return np.array([complex(out[i]) for i in range(rank)]), max(map(float, eigs))


class TestProjectedStep:
    """The projected step's real square root against the dense complex one."""

    @pytest.mark.parametrize("m", [7, 8, 31, 32])
    def test_real_root_matches_dense_oracle(self, m):
        # every band shape for odd and even M: L = 1, 2, odd, even, M - 1 and
        # M, where the gaps k_a - k_b wrap mod M
        rng = np.random.default_rng(m)
        for rank in sorted({1, 2, 5, 6, m - 1, m}):
            flip = np.eye(rank)[::-1]
            unitary = cmath.exp(0.25j * math.pi) * (np.eye(rank) - 1j * flip) / math.sqrt(2)
            for _ in range(5):
                like = rng.uniform(0.0, 1.0, m)
                effect = ascending_effect(like, rank)
                real_form = qmda._effect_real_form(np.fft.fft(like) / m, rank)
                assert real_form.dtype == float
                assert np.max(np.abs(unitary.conj().T @ effect @ unitary - real_form)) <= 1e-14
                psi = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
                want = effect_sqrt(effect) @ psi
                got = qmda._real_form_root_apply(real_form, psi)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_projected_run_takes_no_complex_eigh(self, monkeypatch):
        eigh, shapes = np.linalg.eigh, []

        def real_only(a, *args, **kwargs):
            assert not np.iscomplexobj(a), "a complex matrix reached eigh"
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", real_only)
        run_filter(PeriodicOrbitSystem(17), KERNELS["vonmises"](17), 0, 6,
                   mode=QUANTUM_PROJECTED, rank=9, seed=1)
        assert shapes == [(9, 9)] * 6

    @pytest.mark.parametrize("rank", [14, 16])
    def test_gaussian_effect_roots_against_mpmath(self, rank):
        # at scale 0.3 the effect's eigenvalues reach 1e-24, far below the
        # clamp at L eps |C|.  Clamping and eigh's backward error move C by
        # about L eps |C|, and |sqrt(A) - sqrt(B)| <= |A - B|^(1/2) for
        # positive A, B, so both forms lie within that bound of the exact root
        rng = np.random.default_rng(rank)
        m = 16
        model = ObservationModel(kind="gaussian", scale=0.3)
        like = model.kappa(rng.uniform(0.0, 2 * math.pi), orbit_observation_values(
            PeriodicOrbitSystem(m)))
        psi = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        psi /= np.linalg.norm(psi)
        exact, top = mp_root_apply(like, rank, psi)
        bound = 2.0 * math.sqrt(rank * np.finfo(float).eps * top)
        dense = effect_sqrt(ascending_effect(like, rank)) @ psi
        real = qmda._real_form_root_apply(qmda._effect_real_form(np.fft.fft(like) / m, rank), psi)
        assert np.linalg.norm(dense - exact) <= bound
        assert np.linalg.norm(real - exact) <= bound

    @pytest.mark.parametrize("mode,rank", [(CLASSICAL, None), (QUANTUM, None),
                                           (QUANTUM_PROJECTED, 9)])
    def test_scored_once_per_block_of_rows(self, monkeypatch, mode, rank):
        # 51 point values on M = 17: blocks of 3 steps, the last partial,
        # against the default batch, which holds all 20 steps
        args = (PeriodicOrbitSystem(17), KERNELS["vonmises"](17), 4, 20)
        calls = []
        distance = qmda._pure_state_distance

        def counted(a, b):
            calls.append(len(a))
            return distance(a, b)

        monkeypatch.setattr(qmda, "_pure_state_distance", counted)
        want = run_filter(*args, mode=mode, rank=rank, seed=5)
        assert calls == ([] if mode == CLASSICAL else [20])
        calls.clear()
        monkeypatch.setattr(qmda, "_SCORE_BATCH", 51)
        got = run_filter(*args, mode=mode, rank=rank, seed=5)
        assert calls == ([] if mode == CLASSICAL else [3] * 6 + [2])
        assert got.steps == want.steps


def bits(values):
    """Bit patterns of a (nested) sequence of floats, for exact comparison."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestTorusFilter:
    SYS = RotationSystem(np.array([np.sqrt(2.0)]))
    MODEL = ObservationModel(kind="vonmises", scale=4.0, noise_std=0.1)

    def test_rotation_forecast_is_phase_shift(self):
        density = FourierObservable({(0,): 1.0, (1,): 0.2 - 0.1j, (-1,): 0.2 + 0.1j}, d=1)
        out = classical_forecast_rotation(self.SYS, density, 0.7)
        expected = 0.2 - 0.1j
        expected *= np.exp(-1j * 0.7 * np.sqrt(2.0))
        assert out.coeffs[(1,)] == pytest.approx(expected)
        assert out.coeffs[(0,)] == pytest.approx(1.0)

    def test_quantum_track_matches_exact_family(self):
        trace = run_torus_filter(
            self.SYS, self.MODEL, 1.0, 15, dt=0.3, bandwidth=32, kappa0=6.0,
            mode=QUANTUM, seed=2,
        )
        assert trace.consistency_max() < 1e-6  # truncation only
        assert max(s.estimate_error for s in trace.steps) < 0.2

    def test_projected_leaves_the_classical_cone(self):
        trace = run_torus_filter(
            self.SYS, self.MODEL, 1.0, 15, dt=0.3, bandwidth=32, kappa0=6.0,
            mode=QUANTUM_PROJECTED, rank=9, seed=2,
        )
        assert trace.consistency_max() > 1e-3
        # the projected square-root density dips negative on the grid
        assert min(neg for _, neg in trace.quantum_posteriors) < -1e-3
        # yet the estimates still track the true phase
        assert max(s.estimate_error for s in trace.steps) < 0.3

    def test_classical_mode_is_exact_conjugate_family(self):
        trace = run_torus_filter(self.SYS, self.MODEL, 1.0, 10, dt=0.3, mode=CLASSICAL, seed=2)
        assert all(s.consistency == 0.0 for s in trace.steps)
        mu, kappa = trace.classical_posteriors[-1]
        assert 0.0 <= mu < 2 * np.pi and kappa > 0

    @pytest.mark.parametrize("mode,rank", [(QUANTUM, None), (QUANTUM_PROJECTED, 9)])
    def test_truth_is_the_sampled_trajectory(self, mode, rank):
        x0, dt, steps = 7.9, 0.3, 200  # x0 outside [0, 2 pi)
        trace = run_torus_filter(self.SYS, self.MODEL, x0, steps, dt=dt, bandwidth=32,
                                 mode=mode, rank=rank, seed=3)
        truth = np.array([s.truth for s in trace.steps])
        expected = sample_trajectory(self.SYS, [x0], dt, steps + 1)[1:, 0]
        assert np.array_equal(truth.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("mode,rank", [(CLASSICAL, None), (QUANTUM, None),
                                           (QUANTUM_PROJECTED, 9)])
    def test_trace_matches_wrap_angles_truth(self, monkeypatch, mode, rank):
        # the truth track once took one wrap_angles call per step; run the
        # filter on that track and require every recorded number to be equal
        def orbit_by_wrap_angles(x, step, n):
            for _ in range(n):
                yield x
                x = float(wrap_angles(x + step)[0])

        def record(trace):
            rows = [dataclasses.astuple(s) for s in trace.steps]
            return rows, trace.classical_posteriors, [
                (psi.tobytes(), neg) for psi, neg in trace.quantum_posteriors]

        args = (self.SYS, self.MODEL, 1.3, 200)
        kwargs = dict(dt=0.3, bandwidth=32, mode=mode, rank=rank, seed=5)
        fast = record(run_torus_filter(*args, **kwargs))
        monkeypatch.setattr(qmda, "_rotation_orbit", orbit_by_wrap_angles)
        assert record(run_torus_filter(*args, **kwargs)) == fast

    @pytest.mark.parametrize("grid_size", [1, 2, 9, 64, 256])
    @pytest.mark.parametrize("mode,rank", [(QUANTUM, None), (QUANTUM_PROJECTED, 9)])
    def test_min_sqrt_matches_dense_grid_matrix(self, mode, rank, grid_size):
        # the G x (2J+1) evaluation matrix the FFT replaced, on grids both
        # coarser (aliasing) and finer than the 2J+1 = 65 lattice modes
        lat = TruncatedLattice(1, 32)
        on_grid = torus_grid_matrix(grid_size, lat)
        trace = run_torus_filter(self.SYS, self.MODEL, 1.3, 40, dt=0.3, bandwidth=32,
                                 mode=mode, rank=rank, seed=4, grid_size=grid_size)
        for psi, min_sqrt in trace.quantum_posteriors:
            values = on_grid @ psi
            mags = np.sort(np.abs(values))
            if mags.size > 1 and mags[-1] - mags[-2] <= 1e-9 * mags[-1]:
                continue  # a tie picks either phase
            phase = values[int(np.argmax(np.abs(values)))]
            dense = float((values * (phase.conjugate() / abs(phase))).real.min())
            assert abs(min_sqrt - dense) <= 1e-13

    @pytest.mark.parametrize("grid_size", [0, -3])
    @pytest.mark.parametrize("mode,rank", [(CLASSICAL, None), (QUANTUM, None),
                                           (QUANTUM_PROJECTED, 9)])
    def test_grid_size_below_one_rejected(self, mode, rank, grid_size):
        with pytest.raises(ValidationError, match="grid_size"):
            run_torus_filter(self.SYS, self.MODEL, 1.0, 5, dt=0.3, mode=mode, rank=rank,
                             grid_size=grid_size)

    def test_consistency_against_mpmath(self):
        # distances far below sqrt(eps): 1 - |<ref, psi>|^2 cancels them to 0
        lat = TruncatedLattice(1, 32)
        trace = run_torus_filter(
            self.SYS, self.MODEL, 1.3, 60, dt=0.3, bandwidth=32, kappa0=6.0,
            mode=QUANTUM, seed=5,
        )
        with mpmath.workdps(50):
            for step, (mu, kappa), (psi, _) in zip(
                trace.steps, trace.classical_posteriors, trace.quantum_posteriors
            ):
                exact = mp_pure_state_distance(sqrt_von_mises_coeffs(mu, kappa, lat), psi)
                assert abs(step.consistency - exact) <= 1e-15 + 1e-6 * exact, step.step

    @pytest.mark.parametrize("mode,rank", [(QUANTUM, None), (QUANTUM_PROJECTED, 9)])
    def test_operator_track_against_mpmath(self, mode, rank):
        # the convolution oracle and the package's rotating-frame Toeplitz
        # step both stay within 1e-13 of the same steps at 40 digits, run on
        # the same double inputs: initial state, rotation phases, kernel
        # magnitudes and observations
        args = (self.SYS, self.MODEL, 1.3, 40, 0.3)
        kwargs = dict(bandwidth=32, mode=mode, rank=rank, seed=5)
        got = run_torus_filter(*args, **kwargs)
        want = stepwise_torus_filter(*args, **kwargs)
        rng = np.random.default_rng(5)
        observations = [self.MODEL.observe(step.truth, rng) for step in got.steps]
        lat = TruncatedLattice(1, 32)
        keep = np.zeros(lat.size)
        keep[qmda._orbit_mode_order(lat.size)[: rank or lat.size] + lat.J] = 1.0
        psi0 = _sqrt_von_mises_rows(np.array([1.3]), np.array([6.0]), lat)[0] * keep
        rotate = np.exp(-1j * 0.3 * math.sqrt(2.0) * lat.indices[:, 0])
        magnitudes = dynamics.von_mises_kernel_row(self.MODEL.scale / 2.0, 2 * lat.J)
        with mpmath.workdps(40):
            exact = mp_torus_operator_track(psi0 / np.linalg.norm(psi0), observations, rotate,
                                            magnitudes, keep)
        for run in (want, got):
            gaps = [np.max(np.abs(psi - ref)) for (psi, _), ref in zip(run.quantum_posteriors, exact)]
            assert len(gaps) == 40 and max(gaps) <= 1e-13, max(gaps)


    @pytest.mark.parametrize("steps", [1, 255, 256, 257, 600])  # across block edges
    @pytest.mark.parametrize("grid_size", [1, 9, 256])
    @pytest.mark.parametrize("mode,rank", [(CLASSICAL, None), (QUANTUM, None),
                                           (QUANTUM_PROJECTED, 9)])
    def test_blocks_match_stepwise_oracle(self, mode, rank, grid_size, steps):
        args = (self.SYS, self.MODEL, 1.3, steps, 0.3)
        kwargs = dict(bandwidth=32, mode=mode, rank=rank, seed=7, grid_size=grid_size)
        want = stepwise_torus_filter(*args, **kwargs)
        got = run_torus_filter(*args, **kwargs)
        assert [s.step for s in got.steps] == list(range(1, steps + 1))
        for name in ("truth", "evidence"):
            assert bits([getattr(s, name) for s in got.steps]) == bits(
                [getattr(s, name) for s in want.steps])
        assert bits(got.classical_posteriors) == bits(want.classical_posteriors)
        assert len(got.quantum_posteriors) == len(want.quantum_posteriors)
        # the package conditions by one real Toeplitz product in the
        # observation's frame, the oracle by np.convolve: equal to rounding
        for (psi, min_sqrt), (psi_want, min_sqrt_want) in zip(got.quantum_posteriors,
                                                              want.quantum_posteriors):
            assert np.max(np.abs(psi - psi_want)) <= 1e-13
            assert abs(min_sqrt - min_sqrt_want) <= 1e-13
        for step, oracle in zip(got.steps, want.steps):
            assert abs(step.consistency - oracle.consistency) <= 1e-13 + 1e-12 * oracle.consistency
            assert abs(step.estimate - oracle.estimate) <= 1e-14
            assert abs(step.estimate_error - oracle.estimate_error) <= 1e-14

    @pytest.mark.parametrize("steps", [1, 200, 600])
    def test_one_i0e_per_step(self, monkeypatch, steps):
        # each prior reuses the previous posterior's value; the other calls
        # are the initial prior and, in the operator modes only, the half
        # kernel, whose row dynamics.von_mises_kernel_row builds
        calls = []
        i0e = dynamics._i0e

        def counted(kappa):
            calls.append(kappa)
            return i0e(kappa)

        monkeypatch.setattr(qmda, "_i0e", counted)
        monkeypatch.setattr(dynamics, "_i0e", counted)
        for mode, rank, extra in ((CLASSICAL, None, 1), (QUANTUM, None, 2),
                                  (QUANTUM_PROJECTED, 9, 2)):
            calls.clear()
            run_torus_filter(self.SYS, self.MODEL, 1.3, steps, 0.3, mode=mode, rank=rank, seed=7)
            assert len(calls) == steps + extra, mode

    def test_classical_mode_builds_no_half_kernel(self):
        # the half kernel's concentration 2.5e8 is above the Bessel cap, which
        # once refused this run in classical mode too, where no kernel is used
        model = ObservationModel(kind="vonmises", scale=5e8, noise_std=0.0)
        trace = run_torus_filter(self.SYS, model, 1.0, 50, 0.1, mode=CLASSICAL)
        assert len(trace.steps) == 50
        assert max(step.estimate_error for step in trace.steps) <= 1e-13
        for mode, rank in ((QUANTUM, None), (QUANTUM_PROJECTED, 9)):
            with pytest.raises(ValidationError, match="above the cap"):
                run_torus_filter(self.SYS, model, 1.0, 50, 0.1, mode=mode, rank=rank)

    @pytest.mark.parametrize("mode,rank", [(QUANTUM, None), (QUANTUM_PROJECTED, 9)])
    def test_grid_values_in_batches_of_rows(self, monkeypatch, mode, rank):
        # 1000 grid entries at grid_size 9: batches of 111 rows, the last
        # partial, against the default batch, which holds a block's rows
        args = (self.SYS, self.MODEL, 1.3, 300, 0.3)
        kwargs = dict(bandwidth=32, mode=mode, rank=rank, seed=7, grid_size=9)
        want = run_torus_filter(*args, **kwargs).quantum_posteriors
        monkeypatch.setattr(qmda, "_GRID_BATCH", 1000)
        got = run_torus_filter(*args, **kwargs).quantum_posteriors
        assert bits([m for _, m in got]) == bits([m for _, m in want])
        assert all(psi.tobytes() == psi_want.tobytes()
                   for (psi, _), (psi_want, _) in zip(got, want))

    @pytest.mark.parametrize("name,value", [
        ("x0", math.nan), ("x0", math.inf), ("dt", math.inf), ("dt", math.nan), ("dt", 0.0),
        ("dt", -0.3), ("kappa0", -1.0), ("kappa0", math.nan), ("kappa0", math.inf),
    ])
    @pytest.mark.parametrize("mode,rank", [(CLASSICAL, None), (QUANTUM, None),
                                           (QUANTUM_PROJECTED, 9)])
    def test_scalar_inputs_checked_before_any_work(self, monkeypatch, mode, rank, name, value):
        # x0 = nan once gave NaN estimates (classical) or a Bessel degeneracy
        # (quantum), dt = inf a bare math domain error, and kappa0 = -1 ran
        # in classical mode only
        def refuse(*args, **kwargs):
            raise AssertionError("the filter started before it checked its inputs")

        monkeypatch.setattr(qmda, "bessel_ratios", refuse)
        monkeypatch.setattr(qmda, "_rotation_orbit", refuse)
        inputs = dict(x0=1.0, dt=0.3, kappa0=6.0)
        inputs[name] = value
        with pytest.raises(ValidationError, match=name):
            run_torus_filter(self.SYS, self.MODEL, steps=5, mode=mode, rank=rank, **inputs)

    def test_memory_grows_with_steps_times_lattice_not_grid(self):
        # 1500 more steps of 4096 complex grid values would hold 98 MB; the
        # trace keeps under 1 KB a step at J = 4 (psi, posteriors, FilterStep)
        def peak(steps):
            tracemalloc.start()
            try:
                run_torus_filter(self.SYS, self.MODEL, 1.3, steps, 0.3, bandwidth=4,
                                 mode=QUANTUM, seed=1, grid_size=4096)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak(2000) - peak(500)
        assert growth < 1500 * 2048, growth

    def test_transient_memory_is_bounded_by_a_block(self):
        # peak minus what the trace retains: the rotating frames of a block
        # and a scoring batch, freed before the next.  At 3000 steps against
        # 300 it grows ~0.4 MiB (the run's observation arrays and lists);
        # frames taken for the whole run at once grew ~8.8 MiB
        def transient(steps):
            tracemalloc.start()
            try:
                trace = run_torus_filter(self.SYS, self.MODEL, 1.3, steps, 0.3, bandwidth=32,
                                         mode=QUANTUM, seed=1)
                retained, peak = tracemalloc.get_traced_memory()
                assert len(trace.steps) == steps
                return peak - retained
            finally:
                tracemalloc.stop()

        growth = transient(3000) - transient(300)
        assert growth < 2**20, growth

    @pytest.mark.parametrize("mode,rank", [(QUANTUM, None), (QUANTUM_PROJECTED, 9)])
    def test_huge_observation_scale_rejected(self, mode, rank):
        # scale = 1e200 once raised a bare OverflowError from bessel_ratios,
        # building the square-root kernel the operator track conditions by
        model = ObservationModel(kind="vonmises", scale=1e200)
        with pytest.raises(ValidationError, match="cap"):
            run_torus_filter(self.SYS, model, 1.3, 5, 0.3, mode=mode, rank=rank)


class TestTorusFilterFirstError:
    """The package raises what the stepwise filter raises, at the same step.

    Within a step the checks run in the order zero classical evidence,
    annihilated operator state, unconverged Bessel ratios.  The package
    finds the first two in its step loop and the third when it scores
    afterwards.  The scenarios fail past the first block of 256 steps.
    """

    SYS = RotationSystem(np.array([np.sqrt(2.0)]))
    # seed 1: an observation far from a sharp prior underflows the evidence
    EVIDENCE = ObservationModel(kind="vonmises", scale=400.0, noise_std=0.8)
    # seed 7 with one doubling: the posterior concentration outgrows the
    # Bessel recurrence's start
    SLOW = ObservationModel(kind="vonmises", scale=0.6, noise_std=0.1)
    MODES = [(CLASSICAL, None), (QUANTUM, None), (QUANTUM_PROJECTED, 9)]

    def errors(self, monkeypatch, model, seed, mode, rank, annihilate_at=None):
        """(type, message) of the stepwise and the blocked run's error."""
        calls = []

        def annihilating(step):
            # the operator state's conditioning step, once a step in either
            # run (np.convolve in the oracle, the Toeplitz product in the
            # package); zero at one step
            def seam(*args):
                calls.append(1)
                full = step(*args)
                return full * 0.0 if len(calls) == annihilate_at else full

            return seam

        monkeypatch.setattr(np, "convolve", annihilating(np.convolve))
        monkeypatch.setattr(qmda, "_toeplitz_step", annihilating(qmda._toeplitz_step))
        out = []
        for run in (stepwise_torus_filter, run_torus_filter):
            calls.clear()
            with pytest.raises(DegeneracyError) as info:
                run(self.SYS, model, 1.3, 600, 0.3, bandwidth=32, mode=mode, rank=rank,
                    seed=seed, grid_size=9)
            out.append((type(info.value), str(info.value)))
        return out

    def evidence_step(self):
        with pytest.raises(ZeroEvidenceError) as info:
            run_torus_filter(self.SYS, self.EVIDENCE, 1.3, 600, 0.3, mode=CLASSICAL, seed=1)
        step = int(str(info.value).rsplit(" ", 1)[1])
        assert step > 256
        return step

    def bessel_step(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_BESSEL_DOUBLINGS", 1)
        trace = run_torus_filter(self.SYS, self.SLOW, 1.3, 600, 0.3, mode=CLASSICAL, seed=7)
        for step, (_, kappa) in enumerate(trace.classical_posteriors, 1):
            try:
                dynamics.bessel_ratios(kappa / 2.0, 32)
            except DegeneracyError:
                assert step > 256
                return step
        raise AssertionError("no step outgrew one doubling")

    @pytest.mark.parametrize("mode,rank", MODES)
    @pytest.mark.parametrize("annihilate", [None, "same step", "step before"])
    def test_zero_evidence(self, monkeypatch, mode, rank, annihilate):
        step = self.evidence_step()
        at = {None: None, "same step": step, "step before": step - 1}[annihilate]
        (kind, message), blocked = self.errors(monkeypatch, self.EVIDENCE, 1, mode, rank, at)
        assert blocked == (kind, message)
        if at == step - 1 and mode != CLASSICAL:
            assert message == f"state annihilated at step {at}"
        else:
            assert (kind, message) == (ZeroEvidenceError, f"zero evidence at step {step}")

    @pytest.mark.parametrize("mode,rank", MODES[1:])
    @pytest.mark.parametrize("annihilate", [None, "same step", "step after"])
    def test_bessel_degeneracy(self, monkeypatch, mode, rank, annihilate):
        step = self.bessel_step(monkeypatch)
        at = {None: None, "same step": step, "step after": step + 1}[annihilate]
        (kind, message), blocked = self.errors(monkeypatch, self.SLOW, 7, mode, rank, at)
        assert blocked == (kind, message)
        if at == step:
            assert (kind, message) == (ZeroEvidenceError, f"state annihilated at step {step}")
        else:
            assert kind is DegeneracyError and "within 1 doublings" in message

    @pytest.mark.parametrize("mode,rank", MODES[1:])
    def test_annihilation(self, monkeypatch, mode, rank):
        (kind, message), blocked = self.errors(monkeypatch, self.SLOW, 7, mode, rank, 300)
        assert blocked == (kind, message) == (ZeroEvidenceError, "state annihilated at step 300")

    @pytest.mark.parametrize("mode,rank", MODES[1:])
    def test_annihilation_at_a_block_start(self, monkeypatch, mode, rank):
        # the first state of a block of rotating frames is annihilated: the
        # rows before it fill one scoring batch exactly, and blocks that
        # scored each run on their own once scored an empty one here
        (kind, message), blocked = self.errors(monkeypatch, self.SLOW, 7, mode, rank, 257)
        assert blocked == (kind, message) == (ZeroEvidenceError, "state annihilated at step 257")


def mp_pure_state_distance(a, b):
    """Trace norm of |a><a| - |b><b| at the working mpmath precision."""
    a = [mpmath.mpc(complex(v)) for v in a]
    b = [mpmath.mpc(complex(v)) for v in b]
    aa = mpmath.fsum(abs(v) ** 2 for v in a)
    bb = mpmath.fsum(abs(v) ** 2 for v in b)
    ab = mpmath.fsum(mpmath.conj(u) * v for u, v in zip(a, b))
    perp = mpmath.fsum(abs(v - u * ab / aa) ** 2 for u, v in zip(a, b))
    return float(mpmath.sqrt((aa - bb) ** 2 + 4 * aa * perp))


def mp_torus_operator_track(psi, observations, rotate, magnitudes, keep):
    """The torus filter's operator steps at the working mpmath precision.

    Each step rotates psi, convolves it with the kernel |k|_m e^{-imy}
    (``magnitudes`` holds |k|_m for m = -2J..2J), keeps the lattice's kept
    modes and normalizes.  Returns every step's state as complex doubles.
    """
    size = len(psi)
    span = size - 1  # 2J: index of m = 0 in ``magnitudes``
    psi = [mpmath.mpc(complex(v)) for v in psi]
    rotate = [mpmath.mpc(complex(v)) for v in rotate]
    magnitudes = [mpmath.mpf(float(v)) for v in magnitudes]
    states = []
    for y in observations:
        y = mpmath.mpf(y)
        kernel = [magnitudes[m + span] * mpmath.expj(-m * y) for m in range(-span, span + 1)]
        psi = [r * v for r, v in zip(rotate, psi)]
        psi = [mpmath.fsum(kernel[a - b + span] * psi[b] for b in range(size)) if keep[a]
               else mpmath.mpc(0) for a in range(size)]
        norm = mpmath.sqrt(mpmath.fsum(abs(v) ** 2 for v in psi))
        psi = [v / norm for v in psi]
        states.append(np.array([complex(v) for v in psi]))
    return states


class TestPureStateDistance:
    def test_matches_dense_trace_norm_with_unequal_norms(self):
        rng = np.random.default_rng(14)
        for n in (1, 2, 7, 40):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            dense = trace_norm(np.outer(a, a.conj()) - np.outer(b, b.conj()))
            assert _pure_state_distance(a, b) == pytest.approx(dense, rel=1e-12)
        # parallel, norms 2 and 1: diag(4 - 1)
        assert _pure_state_distance(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 3.0

    def test_rows_match_vdot_form(self):
        # a block of rows, as the torus filter passes, against one np.vdot pair at a time
        rng = np.random.default_rng(16)
        for n in (1, 2, 65):
            a = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
            b = rng.uniform(0.1, 2.0, (200, 1)) * (a + 1e-3 * rng.standard_normal((200, n)))
            got = _pure_state_distance(a, b)
            assert got.shape == (200,)
            for i in range(200):
                want = vdot_pure_state_distance(a[i], b[i])
                assert got[i] == pytest.approx(want, rel=1e-13, abs=1e-15)
        # stacked exact cases: orthogonal, parallel, equal
        a = np.array([[3.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 2.0j], [1.0, 0.0], [0.0, 1.0]])
        assert _pure_state_distance(a, b).tolist() == [13.0, 3.0, 0.0]

    def test_orthogonal(self):
        # |a|^2 + |b|^2
        assert _pure_state_distance(np.array([3.0, 0.0]), np.array([0.0, 2.0j])) == 13.0
        e = np.eye(5)
        assert _pure_state_distance(e[1], e[3]) == 2.0

    def test_phase_multiple(self):
        rng = np.random.default_rng(15)
        b = rng.standard_normal(65) + 1j * rng.standard_normal(65)
        b /= np.linalg.norm(b)
        for phase in (1.0, -1.0, 1j, -1j):  # products with these are exact
            assert _pure_state_distance(phase * b, b) == 0.0
            assert _pure_state_distance(b, phase * b) == 0.0
        with mpmath.workdps(50):
            for phi in (0.7, 2.1, -3.0):
                a = cmath.exp(1j * phi) * b  # rounded, so not exactly parallel
                exact = mp_pure_state_distance(a, b)
                assert abs(_pure_state_distance(a, b) - exact) <= 1e-15 + 1e-6 * exact


class TestSqrtVonMisesRows:
    @pytest.mark.parametrize("J", [0, 1, 32, 100])
    def test_batch_matches_scalar_rows(self, J):
        # lanes and float loops (more and fewer than 32 rows), sharp and flat states
        lat = TruncatedLattice(1, J)
        rng = np.random.default_rng(J)
        for count in (1, 5, 40):
            mu = rng.uniform(-10.0, 10.0, count)
            kappa = np.concatenate(([0.0], 10.0 ** rng.uniform(-3, 4, count - 1)))
            rows = _sqrt_von_mises_rows(mu, kappa, lat)
            assert rows.shape == (count, lat.size)
            for row, m, k in zip(rows, mu, kappa):
                want = sqrt_von_mises_coeffs(m, k, lat)
                assert np.max(np.abs(row - want)) <= 1e-15


class TestOverflowingNoise:
    """Noise that overflows a synthetic observation is a degeneracy of the run.

    At noise_std = 1e308 a normal draw past ~1.8 in magnitude overflows the
    observation to infinity (NaN once wrapped): the torus filter's
    classical mode once returned NaN rows, its operator modes raised a
    ValidationError from bessel_ratios, and the orbit filter a
    ValidationError about the observation, as if the user had given it.
    """

    MODES = [(CLASSICAL, None), (QUANTUM, None), (QUANTUM_PROJECTED, 6)]

    @staticmethod
    def first_overflow(truths, seed):
        with np.errstate(over="ignore"):
            noise = 1e308 * np.random.default_rng(seed).standard_normal(len(truths))
        step = int(np.flatnonzero(~np.isfinite(truths + noise))[0]) + 1
        assert step > 1
        return step

    @pytest.mark.parametrize("kind", ["vonmises", "gaussian", "event"])
    @pytest.mark.parametrize("mode,rank", MODES)
    def test_orbit_filter(self, monkeypatch, kind, mode, rank):
        def refuse(*args):
            raise AssertionError("a step ran before the observations were checked")

        sys_ = PeriodicOrbitSystem(8)
        truths = orbit_observation_values(sys_)[(3 + np.arange(1, 201)) % 8]
        step = self.first_overflow(truths, 1)
        monkeypatch.setattr(qmda, "classical_analysis", refuse)
        model = ObservationModel(kind=kind, scale=1.0, noise_std=1e308)
        with pytest.raises(DegeneracyError) as info:
            run_filter(sys_, model, 3, 200, mode=mode, rank=rank, seed=1)
        assert info.type is DegeneracyError
        assert str(info.value) == (
            f"noise_std 1e+308 overflows the synthetic observation at step {step}")

    @pytest.mark.parametrize("mode,rank", MODES)
    def test_torus_filter(self, monkeypatch, mode, rank):
        sys_ = RotationSystem(np.array([np.sqrt(2.0)]))
        truths = sample_trajectory(sys_, [1.0], 0.3, 201)[1:, 0]
        step = self.first_overflow(truths, 1)
        calls = []  # the initial prior's I_0, then one a step
        i0e = dynamics._i0e
        monkeypatch.setattr(qmda, "_i0e", lambda kappa: calls.append(kappa) or i0e(kappa))
        model = ObservationModel(kind="vonmises", scale=4.0, noise_std=1e308)
        with pytest.raises(DegeneracyError) as info:
            run_torus_filter(sys_, model, 1.0, 200, 0.3, mode=mode, rank=rank, seed=1)
        assert info.type is DegeneracyError
        assert str(info.value) == (
            f"noise_std 1e+308 overflows the synthetic observation at step {step}")
        assert len(calls) == 1


class TestModeOrder:
    @pytest.mark.parametrize("m", range(1, 65))
    def test_closed_form_matches_loop(self, m):
        got = qmda._orbit_mode_order(m)
        want = orbit_mode_order(m)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


class TestModeTransform:
    def test_unitary(self):
        for m in (2, 5, 8):
            f = orbit_mode_transform(m)
            assert np.allclose(f @ f.conj().T, np.eye(m), atol=1e-12)

    def test_diagonalizes_shift(self):
        sys = PeriodicOrbitSystem(6)
        f = orbit_mode_transform(6)
        u_mode = f @ sys.koopman_matrix() @ f.conj().T
        off = u_mode - np.diag(np.diag(u_mode))
        assert np.max(np.abs(off)) < 1e-12
