"""Experiment harness: reproducible subcommands over JSON configs.

Every command reads one JSON config, validates it (unknown keys and range
violations are rejected before any computation), and writes CSV whose first
line records the schema version, a hash of the config, and the package
version.  Given the same config and seed the output is byte-identical across
runs.  Exit codes: 0 success, 2 validation failure, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    FourierObservable,
    PeriodicOrbitSystem,
    RotationSystem,
    VonMisesDensity,
    format_trajectory_csv,
    koopman_exact,
    rational_dependence_warnings,
    sample_trajectory,
)
from .errors import DegeneracyError, ValidationError
from .fock import (
    FockWeight,
    SecondQuantizationParams,
    TensorNetworkParams,
    second_quantization_forecast,
    tensor_network_expectation,
)
from .qcirc import (
    QubitEncoding,
    circuit_expectation,
    export_circuit,
    feature_state,
    frequency_vector,
    walsh_coefficients,
)
from .qmda import (
    CLASSICAL,
    QUANTUM,
    QUANTUM_PROJECTED,
    ObservationModel,
    run_filter,
)
from .rkha import SubexpWeight, TruncatedLattice
from .spectral import (
    analytic_generator,
    data_driven_generator,
    frequency_table,
    smoothing_identity_residual,
)

SCHEMA_VERSION = 1
# cmd_koopman builds dense (2J+1)^d square matrices over the kernel lattice;
# 2048 modes keeps each one below 67 MB
MAX_LATTICE_MODES = 2048

# every key the config may carry; None marks scalar leaves
_SCHEMA = {
    "schema_version": None,
    "seed": None,
    "system": {"kind": None, "alpha": None, "M": None, "x0": None},
    "kernel": {"tau": None, "p": None, "d": None, "J": None},
    "fock": {"sigma_w": None, "p_w": None, "Nmax": None},
    "qmda": {
        "L": None,
        "observation": {"kind": None, "scale": None},
        "noise_std": None,
        "steps": None,
        "seed": None,
        "observations_csv": None,
    },
    "qcirc": {"q": None, "t_grid": None, "x0": None, "observable": None},
    "rotate": {"dt": None, "n": None},
    "koopman": {
        "t_grid": None,
        "m_values": None,
        "n_values": None,
        "x0": None,
        "observable": None,
        "grid_size": None,
        "obs_concentration": None,
        "state_kappa": None,
        "dt": None,
        "n_samples": None,
    },
}


def _check_keys(config, schema, path=""):
    if not isinstance(config, dict):
        raise ValidationError(f"config section {path or '<root>'} must be an object")
    for key, value in config.items():
        if key not in schema:
            raise ValidationError(f"unknown config key {path}{key}")
        sub = schema[key]
        if isinstance(sub, dict):
            _check_keys(value, sub, path=f"{path}{key}.")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as err:
        raise ValidationError(f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
        raise ValidationError(f"config is not valid JSON: {err}") from None
    _check_keys(config, _SCHEMA)
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version}")
    return config


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, config: dict, columns, rows):
    lines = [
        f"# schema_version={SCHEMA_VERSION} config_sha256={config_hash(config)} "
        f"qkoopman={__version__}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rotation_system(config: dict) -> RotationSystem:
    system = config.get("system", {})
    if system.get("kind", "rotation") != "rotation":
        raise ValidationError("this command needs a rotation system")
    alpha = system.get("alpha", [math.sqrt(2.0)])
    sys_ = RotationSystem(np.asarray(alpha, dtype=float))
    for i, k, frac in rational_dependence_warnings(sys_.alpha):
        print(
            f"warning: alpha[{i}]/alpha[{k}] is within 1e-9 of {frac}; "
            "rational dependence breaks ergodicity of the rotation",
            file=sys.stderr,
        )
    return sys_


def _x0(config: dict, block: str, d: int, default: float) -> np.ndarray:
    """The finite d-dimensional point ``config[block]["x0"]``."""
    x0 = config.get(block, {}).get("x0", [default] * d)
    try:
        arr = np.atleast_1d(np.asarray(x0, dtype=float))
    except (TypeError, ValueError):
        raise ValidationError(f"{block}.x0 must be a list of numbers") from None
    if arr.shape != (d,):
        raise ValidationError(f"{block}.x0 must have dimension {d}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{block}.x0 must be finite")
    return arr


def _observable(entries, d: int) -> FourierObservable:
    if entries is None:
        if d != 1:
            raise ValidationError("a default observable exists only for d=1")
        return FourierObservable({(1,): 0.5, (-1,): 0.5}, d=1)  # cos(theta)
    coeffs = {}
    for key, pair in entries.items():
        index = tuple(int(part) for part in str(key).split(","))
        if len(index) != d:
            raise ValidationError(f"observable index {key} does not match d={d}")
        coeffs[index] = complex(pair[0], pair[1])
    return FourierObservable(coeffs, d=d)


def _kernel_weight(config: dict) -> tuple[SubexpWeight, int]:
    kernel = config.get("kernel", {})
    tau = float(kernel.get("tau", 1.0))
    p = float(kernel.get("p", 0.5))
    d = int(kernel.get("d", 1))
    bandwidth = int(kernel.get("J", 64 if d == 1 else 16))
    if bandwidth < 0:
        raise ValidationError("J must be >= 0")
    return SubexpWeight(tau, p, d), bandwidth


def _fock_weight(config: dict) -> FockWeight:
    fock = config.get("fock", {})
    return FockWeight(
        float(fock.get("sigma_w", 3.0)),
        float(fock.get("p_w", 0.5)),
        int(fock.get("Nmax", 6)),
    )


def cmd_rotate(config: dict, out: Path, seed: int) -> list[Path]:
    sys_ = _rotation_system(config)
    block = config.get("rotate", {})
    dt = float(block.get("dt", 0.1))
    n = int(block.get("n", 100))
    if n < 1 or dt <= 0:
        raise ValidationError("rotate needs n >= 1 and dt > 0")
    x0 = _x0(config, "system", sys_.d, 0.0)
    trajectory = sample_trajectory(sys_, x0, dt, n)
    times = [k * dt for k in range(n)]
    body = format_trajectory_csv(times, trajectory)
    header = (
        f"# schema_version={SCHEMA_VERSION} config_sha256={config_hash(config)} "
        f"qkoopman={__version__}\n"
    )
    path = out / "rotate.csv"
    path.write_text(header + body, encoding="utf-8")
    return [path]


def _read_observations(path: str) -> list[float]:
    values = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        parts = line.split(",")
        values.append(float(parts[1]))
    return values


def cmd_filter(config: dict, out: Path, seed: int) -> list[Path]:
    system = config.get("system", {})
    if system.get("kind", "orbit") != "orbit":
        raise ValidationError("the filter command runs on a periodic orbit system")
    m = int(system.get("M", 8))
    x0 = int(system.get("x0", 0) if np.isscalar(system.get("x0", 0)) else system["x0"][0])
    block = config.get("qmda", {})
    steps = int(block.get("steps", 20))
    rank = int(block.get("L", max(1, m - 2)))
    obs_spec = block.get("observation", {})
    model = ObservationModel(
        kind=obs_spec.get("kind", "vonmises"),
        scale=float(obs_spec.get("scale", 6.0)),
        noise_std=float(block.get("noise_std", 0.05)),
    )
    filter_seed = int(block.get("seed", seed))
    observations = None
    if "observations_csv" in block:
        observations = _read_observations(block["observations_csv"])

    sys_ = PeriodicOrbitSystem(m)
    rows = []
    for mode, kwargs in (
        (CLASSICAL, {}),
        (QUANTUM, {}),
        (QUANTUM_PROJECTED, {"rank": rank}),
    ):
        trace = run_filter(
            sys_,
            model,
            x0,
            steps,
            mode=mode,
            seed=filter_seed,
            observations=observations,
            **kwargs,
        )
        for step in trace.steps:
            rows.append(
                (step.step, mode, step.evidence, step.consistency, step.estimate_error)
            )
    path = out / "filter.csv"
    write_csv(
        path,
        config,
        ["step", "mode", "evidence", "consistency_trace_norm", "estimate_error"],
        rows,
    )
    return [path]


def cmd_koopman(config: dict, out: Path, seed: int) -> list[Path]:
    sys_ = _rotation_system(config)
    weight, bandwidth = _kernel_weight(config)
    if weight.d != sys_.d:
        raise ValidationError("kernel dimension must match the system dimension")
    modes = (2 * bandwidth + 1) ** sys_.d
    if modes > MAX_LATTICE_MODES:
        raise ValidationError(
            f"kernel lattice has {modes} modes (J={bandwidth}, d={sys_.d}); "
            f"the limit is {MAX_LATTICE_MODES}"
        )
    block = config.get("koopman", {})
    t_grid = [float(t) for t in block.get("t_grid", [0.0, 0.5, 1.0])]
    m_values = [int(m) for m in block.get("m_values", [1, 2, 3])]
    n_values = [int(n) for n in block.get("n_values", [1, 2])]
    x0 = _x0(config, "koopman", sys_.d, 1.0)
    f = _observable(block.get("observable"), sys_.d)
    fock_weight = _fock_weight(config)
    state_kappa = float(block.get("state_kappa", 20.0))
    sq_common = dict(
        sigma=2.0 * weight.tau,
        tau=weight.tau,
        p=weight.p,
        bandwidth=bandwidth,
        grid_size=int(block.get("grid_size", 256)),
        obs_concentration=float(block.get("obs_concentration", 4.0)),
        weight=fock_weight,
    )
    lat = TruncatedLattice(sys_.d, bandwidth)
    gen = analytic_generator(sys_, lat)
    state = VonMisesDensity(x0, np.full(sys_.d, state_kappa))

    rows = []
    for t in t_grid:
        exact = koopman_exact(f, sys_, t).evaluate(x0).real
        residual = smoothing_identity_residual(weight, gen, _restrict(f, lat), t)
        for m in m_values:
            res = second_quantization_forecast(
                f, sys_, SecondQuantizationParams(m=m, **sq_common), x0, t
            )
            rows.append(
                (t, f"m{m}", res.value, exact, abs(res.value - exact),
                 res.state_tail_norm, residual)
            )
        for n in n_values:
            tn = tensor_network_expectation(
                f,
                state,
                sys_,
                TensorNetworkParams(
                    n=n, sigma=2.0 * weight.tau, tau=weight.tau, bandwidth=min(bandwidth, 24)
                ),
                t,
            )
            rows.append(
                (t, f"n{n}", tn.value, exact, abs(tn.value - exact),
                 tn.truncation_bound, residual)
            )
    forecast_path = out / "koopman.csv"
    write_csv(
        forecast_path,
        config,
        ["t", "m_or_n", "value", "exact", "abs_error", "truncation_mass", "identity_residual"],
        rows,
    )

    dt = float(block.get("dt", 0.01))
    n_samples = int(block.get("n_samples", 5000))
    small_lat = TruncatedLattice(sys_.d, 3 if sys_.d == 1 else 1)
    trajectory = sample_trajectory(sys_, x0, dt, n_samples)
    data_gen = data_driven_generator(trajectory, dt, small_lat)
    reference = analytic_generator(sys_, small_lat)
    freq_rows = frequency_table(data_gen, reference)
    freq_path = out / "eigenfrequencies.csv"
    write_csv(freq_path, config, ["index", "omega", "abs_error_vs_analytic"], freq_rows)
    return [forecast_path, freq_path]


def _restrict(f: FourierObservable, lat: TruncatedLattice) -> FourierObservable:
    kept = {j: c for j, c in f.coeffs.items() if j in lat}
    return FourierObservable(kept or {(0,) * lat.d: 0.0}, d=lat.d)


def cmd_qcirc(config: dict, out: Path, seed: int) -> list[Path]:
    sys_ = _rotation_system(config)
    weight, _ = _kernel_weight(config)
    if weight.d != sys_.d:
        raise ValidationError("kernel dimension must match the system dimension")
    block = config.get("qcirc", {})
    q_values = [int(q) for q in block.get("q", [2, 3, 4, 5, 6])]
    t_grid = [float(t) for t in block.get("t_grid", [0.0, 1.0, 2.0])]
    if not q_values or not t_grid:
        raise ValidationError("qcirc.q and qcirc.t_grid must not be empty")
    if min(q_values) < 1:
        raise ValidationError("q must be >= 1")
    # QubitEncoding rejects sizes over the statevector limit before anything is allocated
    encodings = [QubitEncoding(d=sys_.d, q=q) for q in q_values]
    x0 = _x0(config, "qcirc", sys_.d, 1.0)
    f = _observable(block.get("observable"), sys_.d)

    rows = []
    for enc in encodings:
        for t in t_grid:
            value = circuit_expectation(enc, weight, sys_, f, x0, t)
            exact = koopman_exact(f, sys_, t).evaluate(x0).real
            rows.append((enc.q, t, value, exact, abs(value - exact)))
    csv_path = out / "qcirc.csv"
    write_csv(csv_path, config, ["q", "t", "value", "exact", "abs_error"], rows)

    enc = QubitEncoding(d=sys_.d, q=max(q_values))
    coeffs = walsh_coefficients(frequency_vector(enc, sys_))
    prep = feature_state(enc, weight, x0)
    circuit_path = out / "circuit.txt"
    circuit_path.write_text(
        export_circuit(coeffs, enc, t_grid[-1], prep=prep), encoding="utf-8"
    )
    return [csv_path, circuit_path]


COMMANDS = {
    "rotate": cmd_rotate,
    "filter": cmd_filter,
    "koopman": cmd_koopman,
    "qcirc": cmd_qcirc,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qkoopman",
        description="Operator-theoretic experiments for measure-preserving dynamics",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory for CSV files")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        if not (0 <= seed < 2**64):
            raise ValidationError("seed must fit in 64 bits")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        paths = COMMANDS[args.command](config, out, seed)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DegeneracyError as err:
        print(f"numerical degeneracy: {err}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
