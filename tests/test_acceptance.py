"""Acceptance suite: one test per criterion, printed pass lines, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Golden numbers were derived once from the independent dense oracles
in this file and are frozen below.
"""

import itertools
import json
import math
import time

import mpmath
import numpy as np
import pytest

from qkoopman.cli import main as cli_main
from qkoopman.dynamics import (
    FourierObservable,
    PeriodicOrbitSystem,
    RotationSystem,
    VonMisesDensity,
    grid_sum,
    koopman_exact,
    sample_trajectory,
    von_mises_fourier,
)
from qkoopman.fock import (
    FockVector,
    FockWeight,
    SecondQuantizationParams,
    SpectrumTorusPoint,
    TensorNetworkParams,
    apply_lifted_generator,
    evolve_lifted,
    fock_inner,
    occupation,
    rotate_phase_point,
    second_quantization_forecast,
    sym_product,
    tensor_network_expectation,
    xi_vector,
)
from qkoopman.qcirc import (
    QubitEncoding,
    WalshCoefficients,
    circuit_expectation,
    evolve_statevector,
    frequency_vector,
    walsh_coefficients,
)
from qkoopman.qmda import (
    QUANTUM,
    ObservationModel,
    compress,
    consistency_chain_gap,
    multiplication_operator_fourier,
    run_filter,
)
from qkoopman.rkha import (
    SubexpWeight,
    TruncatedLattice,
    comultiplication_pairs,
    compose_smoothers,
    DiagonalSmoother,
    apply_smoother,
    kernel_row,
    subconvolutivity_constant,
)
from qkoopman.spectral import (
    analytic_generator,
    data_driven_generator,
    smoothing_identity_residual,
)

COS = FourierObservable({(1,): 0.5, (-1,): 0.5}, d=1)
ROT = RotationSystem(np.array([math.sqrt(2.0)]))

# goldens derived once from the dense oracles below, then frozen
GOLDEN_COMMUTATOR = math.sqrt(2.0)
GOLDEN_SQ_ERRORS = (0.3145752798729368, 0.10980208416438719, 0.05409808064396493)
GOLDEN_CIRCUIT_Q6 = 0.0169


def report(number: int, text: str):
    print(f"criterion {number:2d} PASS: {text}")


def random_density(rng, m):
    raw = rng.uniform(0.05, 1.0, size=m)
    return raw / raw.mean()


def test_criterion_01_qmda_exact_consistency():
    start = time.time()
    model = ObservationModel(kind="vonmises", scale=5.0, noise_std=0.1)
    worst = 0.0
    for m in range(2, 9):
        trace = run_filter(PeriodicOrbitSystem(m), model, 0, 20, mode=QUANTUM, seed=m)
        assert len(trace.steps) == 20
        worst = max(worst, trace.consistency_max())
    assert worst <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"trace-norm gap <= {worst:.2e} over M=2..8, 20 steps ({elapsed:.2f}s)")


def test_criterion_02_consistency_chain():
    start = time.time()
    rng = np.random.default_rng(42)
    sys_ = PeriodicOrbitSystem(8)
    worst = 0.0
    for _ in range(100):
        sigma = random_density(rng, 8)
        f = rng.standard_normal(8)
        worst = max(worst, consistency_chain_gap(sys_, sigma, f))
    assert worst <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(2, f"four expectations agree to {worst:.2e} over 100 pairs ({elapsed:.2f}s)")


def test_criterion_03_positivity_preservation():
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        psd = b @ b.conj().T
        rank = int(rng.integers(1, n + 1))
        worst = min(worst, float(np.linalg.eigvalsh(compress(psd, rank)).min()))
    assert worst >= -1e-10
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(3, f"1000 compressed PSD matrices, min eigenvalue {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_04_nonabelian_compression():
    lat = TruncatedLattice(1, 2)
    a = compress(multiplication_operator_fourier({(1,): 1.0}, lat), 3)
    b = compress(multiplication_operator_fourier({(-1,): 1.0}, lat), 3)
    norm = float(np.linalg.norm(a @ b - b @ a))
    assert norm > 0.1
    assert abs(norm - GOLDEN_COMMUTATOR) <= 1e-12
    report(4, f"compressed multiplier commutator norm {norm:.15f} (golden sqrt(2))")


def test_criterion_05_rkha_structure():
    start = time.time()
    # semigroup: exact at the operator level, machine precision entrywise
    ga = DiagonalSmoother(SubexpWeight(0.4, 0.5), "G_tau")
    gb = DiagonalSmoother(SubexpWeight(1.1, 0.5), "G_tau")
    assert compose_smoothers(ga, gb).weight == SubexpWeight(1.5, 0.5)
    f = FourierObservable({(j,): 1.0 + 0.25j for j in range(-64, 65)}, d=1)
    chained = apply_smoother(ga, apply_smoother(gb, f))
    direct = apply_smoother(DiagonalSmoother(SubexpWeight(1.5, 0.5), "G_tau"), f)
    semigroup_gap = max(
        abs(chained.coeffs[j] - direct.coeffs[j]) / abs(direct.coeffs[j]) for j in f.coeffs
    )
    assert semigroup_gap <= 1e-14

    grid = np.arange(1024) * 2 * math.pi / 1024
    scan = np.arange(512) * 2 * math.pi / 512
    kernel_min = math.inf
    rowsum_gap = 0.0
    for tau, j_scan in ((0.1, 32768), (1.0, 2048)):
        w = SubexpWeight(tau, 0.5)
        row = kernel_row(w, TruncatedLattice(1, 256), [0.9], grid)
        rowsum_gap = max(rowsum_gap, abs(float(np.mean(row)) - 1.0))
        kernel_min = min(kernel_min, float(kernel_row(w, TruncatedLattice(1, j_scan), [0.0], scan).min()))
    assert rowsum_gap <= 1e-8
    assert kernel_min >= -1e-10

    w1 = SubexpWeight(1.0, 0.5)
    consts = [subconvolutivity_constant(w1, TruncatedLattice(1, j)) for j in (16, 32, 64)]
    assert consts[0] < consts[1] < consts[2]
    assert consts[1] / consts[0] <= 1.5 and consts[2] / consts[1] <= 1.5

    # coassociativity with leaves in |a| <= J and intermediates over 2J
    wc = SubexpWeight(0.6, 0.5)
    coassoc_gap = 0.0
    for J in (2, 3):
        leaves = TruncatedLattice(1, J)
        wide = TruncatedLattice(1, 2 * J)
        for gamma in ((0,), (1,), (J,)):
            left, right = {}, {}
            for alpha, delta, c1 in comultiplication_pairs(wc, gamma, wide):
                for aa, bb, c2 in comultiplication_pairs(wc, alpha, wide):
                    if aa in leaves and bb in leaves and delta in leaves:
                        left[(aa, bb, delta)] = left.get((aa, bb, delta), 0.0) + c1 * c2
            for aa, beta, c1 in comultiplication_pairs(wc, gamma, wide):
                for bb, delta, c2 in comultiplication_pairs(wc, beta, wide):
                    if aa in leaves and bb in leaves and delta in leaves:
                        right[(aa, bb, delta)] = right.get((aa, bb, delta), 0.0) + c1 * c2
            assert left.keys() == right.keys()
            coassoc_gap = max(
                coassoc_gap, max(abs(left[k] - right[k]) for k in left)
            )
    assert coassoc_gap <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(
        5,
        f"semigroup {semigroup_gap:.1e}, row-sum {rowsum_gap:.1e}, kernel min "
        f"{kernel_min:.3f}, subconvolutivity growth <= 1.5, coassociativity "
        f"{coassoc_gap:.1e} ({elapsed:.2f}s)",
    )


def test_criterion_06_smoothing_identity():
    start = time.time()
    rng = np.random.default_rng(3)
    lat = TruncatedLattice(1, 8)
    gen = analytic_generator(ROT, lat)
    worst = 0.0
    for _ in range(50):
        coeffs = {
            (j,): complex(rng.standard_normal(), rng.standard_normal())
            for j in range(-8, 9)
        }
        f = FourierObservable(coeffs, d=1)
        t = float(rng.uniform(-10, 10))
        tau = float(rng.uniform(0.1, 2.0))
        worst = max(worst, smoothing_identity_residual(SubexpWeight(tau, 0.5), gen, f, t))
    assert worst <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(6, f"conjugation identity residual <= {worst:.2e} over 50 draws ({elapsed:.2f}s)")


def test_criterion_07_data_driven_recovery():
    start = time.time()
    sys_ = RotationSystem(np.array([1.0]))
    traj = sample_trajectory(sys_, [0.2], 0.01, 5000)
    gen = data_driven_generator(traj, 0.01, TruncatedLattice(1, 3))
    err = abs(gen.eigen_omega[1] - 1.0)
    assert err <= 1e-3
    a = gen.matrix
    assert np.array_equal(a + a.conj().T, np.zeros_like(a))
    e0 = np.zeros(7)
    e0[3] = 1.0
    assert np.array_equal(a @ e0, np.zeros(7, dtype=complex))
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(7, f"recovered base frequency error {err:.2e}; structure exact ({elapsed:.2f}s)")


def test_criterion_08_fock_inner_and_lift():
    start = time.time()
    # sigma_w = 1 keeps grading-4 norms O(e^4) so the absolute tolerance is meaningful
    weight = FockWeight(1.0, 0.5, 6)
    occs = []
    for n in range(0, 5):
        for combo in itertools.combinations_with_replacement((0, 1, 2), n):
            occs.append(occupation((m, len(list(g))) for m, g in itertools.groupby(combo)))
    worst_inner = 0.0
    for occ_a in occs:
        for occ_b in occs:
            got = fock_inner(FockVector({occ_a: 1.0}), FockVector({occ_b: 1.0}), weight)
            la = [m for m, c in occ_a for _ in range(c)]
            lb = [m for m, c in occ_b for _ in range(c)]
            want = 0.0
            if len(la) == len(lb):
                n = len(la)
                count = sum(
                    1
                    for sa in itertools.permutations(range(n))
                    for sb in itertools.permutations(range(n))
                    if all(la[sa[i]] == lb[sb[i]] for i in range(n))
                )
                want = weight.squared(n) * count / math.factorial(n) ** 2
            worst_inner = max(worst_inner, abs(got - want))
    assert worst_inner <= 1e-12

    rng = np.random.default_rng(8)
    freqs = {0: 0.0, 1: math.sqrt(2.0), 2: -0.7}

    def random_vec():
        terms = {}
        for n in range(0, 3):
            for combo in itertools.combinations_with_replacement((0, 1, 2), n):
                occ = occupation((m, len(list(g))) for m, g in itertools.groupby(combo))
                terms[occ] = complex(rng.standard_normal(), rng.standard_normal())
        return FockVector(terms)

    worst_leibniz = 0.0
    worst_mult = 0.0
    for _ in range(20):
        u, v = random_vec(), random_vec()
        lhs = apply_lifted_generator(freqs, sym_product(u, v))
        rhs = sym_product(apply_lifted_generator(freqs, u), v).plus(
            sym_product(u, apply_lifted_generator(freqs, v))
        )
        for occ in set(lhs.terms) | set(rhs.terms):
            worst_leibniz = max(
                worst_leibniz, abs(lhs.terms.get(occ, 0.0) - rhs.terms.get(occ, 0.0))
            )
        t = float(rng.uniform(-2, 2))
        ev_prod = evolve_lifted(freqs, sym_product(u, v), t)
        prod_ev = sym_product(evolve_lifted(freqs, u, t), evolve_lifted(freqs, v, t))
        for occ in set(ev_prod.terms) | set(prod_ev.terms):
            worst_mult = max(
                worst_mult, abs(ev_prod.terms.get(occ, 0.0) - prod_ev.terms.get(occ, 0.0))
            )
    assert worst_leibniz <= 1e-12
    assert worst_mult <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        8,
        f"inner-product oracle gap {worst_inner:.1e}; Leibniz {worst_leibniz:.1e}; "
        f"evolution multiplicativity {worst_mult:.1e} ({elapsed:.2f}s)",
    )


def test_criterion_09_spectrum_torus_duality():
    start = time.time()
    weight = FockWeight(3.0, 0.5, 6)
    rng = np.random.default_rng(9)
    freqs = {0: 0.0, 1: 1.0, 2: math.sqrt(2.0), 3: -0.9}
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0, 1, 4)
        a /= np.linalg.norm(a) * float(rng.uniform(1.0, 2.0))
        z = np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
        z[0] = 1.0
        pt = SpectrumTorusPoint((0, 1, 2, 3), a, z)
        terms = {}
        for n in range(0, 4):
            for combo in itertools.combinations_with_replacement((0, 1, 2, 3), n):
                occ = occupation((m, len(list(g))) for m, g in itertools.groupby(combo))
                terms[occ] = complex(rng.standard_normal(), rng.standard_normal())
        v = FockVector(terms)
        t = float(rng.uniform(-3, 3))
        lhs = fock_inner(xi_vector(pt.eta(), weight), evolve_lifted(freqs, v, t), weight)
        rhs = fock_inner(
            xi_vector(rotate_phase_point(pt, freqs, t).eta(), weight), v, weight
        )
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(9, f"rotation/evolution duality gap {worst:.2e} over 100 draws ({elapsed:.2f}s)")


def test_criterion_10_second_quantization_sweep():
    start = time.time()
    x, t = 1.0, 1.0
    exact = koopman_exact(COS, ROT, t).evaluate([x]).real
    errors = []
    for m in (1, 2, 3):
        params = SecondQuantizationParams(m=m)
        res = second_quantization_forecast(COS, ROT, params, [x], t)
        # dense oracle: kernel regression with the m-th power of the section pairing
        from qkoopman.dynamics import bessel_ratios

        lat = TruncatedLattice(1, params.bandwidth)
        lam = SubexpWeight(params.sigma, params.p).lattice_values(lat)
        cj = bessel_ratios(params.obs_concentration, params.bandwidth) * float(
            mpmath.besseli(0, params.obs_concentration) * mpmath.exp(-params.obs_concentration)
        )
        c = cj[np.abs(lat.indices[:, 0])]
        grid = np.arange(params.grid_size) * 2 * math.pi / params.grid_size
        kern = ((lam * c) @ np.exp(1j * np.outer(lat.indices[:, 0], x + t * ROT.alpha[0] - grid))).real
        oracle = float((np.cos(grid) * kern**m).sum() / (kern**m).sum())
        assert abs(res.value - oracle) <= 1e-9
        errors.append(abs(res.value - exact))
    assert errors[0] > errors[1] > errors[2]
    for err, golden in zip(errors, GOLDEN_SQ_ERRORS):
        assert err <= golden + 1e-6
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(
        10,
        "grading sweep errors "
        + " > ".join(f"{e:.4f}" for e in errors)
        + f", each at its frozen golden ({elapsed:.2f}s)",
    )


def test_criterion_11_tensor_network():
    start = time.time()
    state = VonMisesDensity(np.array([1.0]), np.array([20.0]))
    one = FourierObservable.constant(1.0, d=1)
    for n in (1, 2, 3):
        for t in (0.0, 0.7, 2.0):
            res = tensor_network_expectation(
                one, state, ROT, TensorNetworkParams(n=n, bandwidth=24), t
            )
            assert res.value == 1.0

    res0 = tensor_network_expectation(
        COS, state, ROT, TensorNetworkParams(n=1, bandwidth=24), 0.0
    )
    grid = 4096
    theta = np.arange(grid) * 2 * math.pi / grid
    xi = von_mises_fourier(state, 24)
    dens = np.abs(grid_sum(np.array(list(xi.coeffs)), list(xi.coeffs.values()), grid)) ** 2
    oracle = float((np.cos(theta) * dens).sum() / dens.sum())
    quad_gap = abs(res0.value - oracle)
    assert quad_gap <= 1e-8

    r1 = tensor_network_expectation(COS, state, ROT, TensorNetworkParams(n=1, bandwidth=24), 1.0)
    r2 = tensor_network_expectation(COS, state, ROT, TensorNetworkParams(n=2, bandwidth=24), 1.0)
    cross_gap = abs(r1.value - r2.value)
    assert cross_gap <= r1.truncation_bound + r2.truncation_bound
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(
        11,
        f"unit observable exact; quadrature gap {quad_gap:.1e}; cross-grading gap "
        f"{cross_gap:.1e} within bound {r1.truncation_bound + r2.truncation_bound:.1e} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_12_walsh_affinity():
    start = time.time()
    worst_rel = 0.0
    worst_reco = 0.0
    for d in (1, 2):
        alpha = np.array([math.sqrt(2.0), math.sqrt(3.0)])[:d]
        for q in (1, 2, 3, 4):
            enc = QubitEncoding(d=d, q=q)
            freqs = frequency_vector(enc, RotationSystem(alpha))
            coeffs = walsh_coefficients(freqs)  # raises past 1e-10 max|freq|
            n = enc.n_qubits
            rebuilt = np.zeros(enc.dim)
            for b in range(enc.dim):
                rebuilt[b] = sum(
                    coeffs.v[i].imag * (1.0 if (b >> (n - 1 - i)) & 1 == 0 else -1.0)
                    for i in range(n)
                )
            worst_reco = max(worst_reco, float(np.max(np.abs(rebuilt - freqs))))
            scale = float(np.max(np.abs(freqs)))
            cube = freqs.reshape((2,) * n).copy()
            for axis in range(n):
                plus = np.take(cube, 0, axis=axis)
                minus = np.take(cube, 1, axis=axis)
                cube = np.stack((plus + minus, plus - minus), axis=axis)
            walsh = cube.reshape(-1) / enc.dim
            for s in range(enc.dim):
                if bin(s).count("1") != 1:
                    worst_rel = max(worst_rel, abs(walsh[s]) / scale)
    assert worst_rel <= 1e-10
    assert worst_reco <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(
        12,
        f"constant/high-weight Walsh mass <= {worst_rel:.1e} of scale; "
        f"reconstruction gap {worst_reco:.1e} ({elapsed:.2f}s)",
    )


def test_criterion_13_factorized_unitary():
    start = time.time()
    rng = np.random.default_rng(13)
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    worst = 0.0
    for n in range(2, 9):
        v = 1j * rng.standard_normal(n)
        coeffs = WalshCoefficients(v=v)
        dense = np.zeros((2**n, 2**n), dtype=complex)
        for i in range(n):
            term = np.array([[1.0]], dtype=complex)
            for k in range(n):
                term = np.kron(term, z if k == i else np.eye(2))
            dense += v[i] * term
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
        for _ in range(20):
            t = float(rng.uniform(-3, 3))
            psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            psi /= np.linalg.norm(psi)
            fast = evolve_statevector(coeffs, psi, t)
            slow = np.exp(t * np.diag(dense)) * psi  # expm of the diagonal dense
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    assert worst <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(13, f"per-qubit vs dense exponential deviation {worst:.2e}, n<=8 ({elapsed:.2f}s)")


def test_criterion_14_circuit_forecast_convergence():
    start = time.time()
    w = SubexpWeight(0.2, 0.5)
    x, t = 1.0, 2.0
    target = math.cos(x + t * ROT.alpha[0])
    errors = []
    for q in range(2, 7):
        enc = QubitEncoding(d=1, q=q)
        val = circuit_expectation(enc, w, ROT, COS, [x], t)
        errors.append(abs(val - target))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= GOLDEN_CIRCUIT_Q6
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(
        14,
        "circuit errors "
        + " > ".join(f"{e:.4f}" for e in errors)
        + f", q=6 below golden {GOLDEN_CIRCUIT_Q6} ({elapsed:.2f}s)",
    )


def test_criterion_15_cli_determinism(tmp_path):
    start = time.time()
    alpha = math.sqrt(2.0)
    configs = {
        "rotate": {"system": {"kind": "rotation", "alpha": [alpha], "x0": [0.1]},
                   "rotate": {"dt": 0.3, "n": 25}},
        "filter": {"seed": 11, "system": {"kind": "orbit", "M": 8, "x0": 0},
                   "qmda": {"L": 6, "steps": 20,
                            "observation": {"kind": "vonmises", "scale": 6.0},
                            "noise_std": 0.05}},
        "koopman": {"system": {"kind": "rotation", "alpha": [alpha]},
                    "kernel": {"tau": 0.2, "p": 0.5, "d": 1, "J": 16},
                    "koopman": {"t_grid": [0.0, 1.0], "m_values": [1, 2],
                                "n_values": [1], "x0": [1.0], "n_samples": 2000}},
        "qcirc": {"system": {"kind": "rotation", "alpha": [alpha]},
                  "kernel": {"tau": 0.2, "p": 0.5, "d": 1},
                  "qcirc": {"q": [2, 3, 4], "t_grid": [0.0, 2.0], "x0": [1.0]}},
    }
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert cli_main([command, "--config", str(cfg), "--out", str(out_a), "--seed", "5"]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(out_b), "--seed", "5"]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir()) and names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(15, f"all four commands byte-identical across reruns ({elapsed:.2f}s)")
