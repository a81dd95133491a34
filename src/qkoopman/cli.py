"""Experiment harness: reproducible subcommands over JSON configs.

Every command reads one JSON config, checked key by key against ``_FIELDS``
before any computation, and writes CSV whose first line records the schema
version, a hash of the config as written, and the package version.  Given
the same config and seed the output is byte-identical across runs.  Exit
codes: 0 success, every CSV value finite; 2 a bad config or observation
file, or a size over a cap; 3 a numerical degeneracy, which the library
raises where it meets it, such as a time or a point with a phase of 2**52
rad or more (``dynamics._phase_check``).

Every command imports the library modules it runs when it runs, and calls
them as module attributes (``qmda.run_filter``), so that no command loads
the others: ``qcirc`` loads neither the filter nor the Fock space.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    EVENT,
    GAUSSIAN,
    MAX_STATEVECTOR_QUBITS,
    VON_MISES,
    _MAX_STORED,
    FourierObservable,
    PeriodicOrbitSystem,
    RotationSystem,
    VonMisesDensity,
    koopman_exact,
    rational_dependence_warnings,
    sample_trajectory,
)
from .errors import DegeneracyError, ValidationError

# The digest comes from the interpreter's built-in SHA-256; hashlib would
# load OpenSSL's libcrypto (3.6 MiB) to compute the same 16 hex digits.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

SCHEMA_VERSION = 1
# kernel lattice modes (2J+1)^d and the range of koopman.grid_size; the
# grading-m forecast works on d one-dimensional grids of grid_size points, so
# nothing of grid_size^d points is ever built and d leaves grid_size alone
MAX_LATTICE_MODES = 2048
# trajectory rows and filter steps; a d = 2 rotate run of 1e5 rows takes
# about 0.4 s on a 2-vCPU x86 host, nearly all of it writing the CSV (the
# trajectory itself about 2 ms), and one of 1e6 rows about 3 s
MAX_SAMPLES = 10**6
# torus dimension: rotate's rational-dependence scan is quadratic in it
MAX_DIMENSION = 16
# entries of one list-valued key; each t, m, n or q entry is a forecast or
# a circuit of its own, so a list's length multiplies a command's work
MAX_LIST_ENTRIES = 1024

# Every config key, "section.key": (type, lo, hi, default).  The type is int,
# float, [int] or [float] (a list of at most MAX_LIST_ENTRIES; one number
# stands for a one-element list), a tuple of the allowed words, str (a file
# path) or dict (Fourier coefficients {"j_1,...,j_d": [re, im]} with every
# |j_i| <= hi).  Numbers are finite, never bools, ints integral, and lie in
# the closed range [lo, hi].  Strict and joint conditions (tau > 0, tau <=
# sigma/2, p in (0, 1), m <= Nmax, L <= M, the qubit caps) are the library
# classes' own checks.  Concentrations stop at 1e5, the largest kappa
# bessel_ratios is tested at.  A default of None means the command works
# the value out.
_FIELDS = {
    "schema_version": (int, SCHEMA_VERSION, SCHEMA_VERSION, SCHEMA_VERSION),
    "seed": (int, 0, 2**64 - 1, 0),
    "system.kind": (("rotation", "orbit"), None, None, None),
    "system.alpha": ([float], -math.inf, math.inf, [math.sqrt(2.0)]),
    "system.M": (int, 1, MAX_LATTICE_MODES, 8),
    "system.x0": ([float], -math.inf, math.inf, None),
    "kernel.tau": (float, 0.0, math.inf, 1.0),
    "kernel.p": (float, 0.0, 1.0, 0.5),
    "kernel.d": (int, 1, MAX_DIMENSION, None),
    "kernel.J": (int, 0, MAX_LATTICE_MODES, None),
    "fock.sigma_w": (float, 0.0, math.inf, 3.0),
    "fock.p_w": (float, 0.0, 1.0, 0.5),
    "fock.Nmax": (int, 0, 64, 6),
    "qmda.L": (int, 1, MAX_LATTICE_MODES, None),
    "qmda.observation.kind": ((GAUSSIAN, VON_MISES, EVENT), None, None, VON_MISES),
    "qmda.observation.scale": (float, 0.0, math.inf, 6.0),
    "qmda.noise_std": (float, 0.0, math.inf, 0.05),
    "qmda.steps": (int, 1, MAX_SAMPLES, 20),
    "qmda.seed": (int, 0, 2**64 - 1, None),
    "qmda.observations_csv": (str, None, None, None),
    "qcirc.q": ([int], 1, MAX_STATEVECTOR_QUBITS, [2, 3, 4, 5, 6]),
    "qcirc.t_grid": ([float], -math.inf, math.inf, [0.0, 1.0, 2.0]),
    "qcirc.x0": ([float], -math.inf, math.inf, None),
    "qcirc.observable": (dict, None, MAX_LATTICE_MODES, None),
    "rotate.dt": (float, 0.0, math.inf, 0.1),
    "rotate.n": (int, 1, MAX_SAMPLES, 100),
    "koopman.t_grid": ([float], -math.inf, math.inf, [0.0, 0.5, 1.0]),
    "koopman.m_values": ([int], 1, 64, [1, 2, 3]),
    "koopman.n_values": ([int], 1, 3, [1, 2]),
    "koopman.x0": ([float], -math.inf, math.inf, None),
    "koopman.observable": (dict, None, MAX_LATTICE_MODES, None),
    "koopman.grid_size": (int, 1, MAX_LATTICE_MODES, 256),
    "koopman.obs_concentration": (float, 0.0, 1e5, 4.0),
    "koopman.state_kappa": (float, 0.0, 1e5, 20.0),
    "koopman.dt": (float, 0.0, math.inf, 0.01),
    "koopman.n_samples": (int, 1, MAX_SAMPLES, 5000),
}
_SECTIONS = {key[:i] for key in _FIELDS for i, char in enumerate(key) if char == "."}


def _number(key: str, kind: type, value, lo, hi):
    # the magnitude test is False for NaN, inf and ints past the float range
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max or kind is int and value != int(value)):
        what = "an integer" if kind is int else "a finite number"
        raise ValidationError(f"{key} must be {what}, got {value!r}")
    value = kind(value)
    if not lo <= value <= hi:
        raise ValidationError(f"{key} must lie in [{lo}, {hi}], got {value!r}")
    return value


def _coefficients(key: str, entries, bound: int) -> dict:
    if not isinstance(entries, dict):
        raise ValidationError(f"{key} must map \"j_1,...,j_d\" to [re, im]")
    coeffs = {}
    for index, pair in entries.items():
        try:
            j = tuple(int(part) for part in index.split(","))
        except ValueError:
            raise ValidationError(f"{key} index {index!r} is not j_1,...,j_d") from None
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{key}[{index}] must be [re, im], got {pair!r}")
        real, imag = (_number(f"{key}[{index}]", float, v, -math.inf, math.inf) for v in pair)
        j = tuple(_number(f"{key} index", int, i, -bound, bound) for i in j)
        coeffs[j] = complex(real, imag)
    return coeffs


def _value(key: str, value):
    """``value`` of config key ``key`` checked against ``_FIELDS``."""
    kind, lo, hi, _ = _FIELDS[key]
    if kind is str or isinstance(kind, tuple):
        if not isinstance(value, str) or kind is not str and value not in kind:
            what = "a string" if kind is str else "one of " + ", ".join(kind)
            raise ValidationError(f"{key} must be {what}, got {value!r}")
        return value
    if kind is dict:
        return _coefficients(key, value, hi)
    if isinstance(kind, list):
        items = value if isinstance(value, list) else [value]
        if len(items) > MAX_LIST_ENTRIES:
            raise ValidationError(
                f"{key} has {len(items)} entries, more than the cap of {MAX_LIST_ENTRIES}"
            )
        return [_number(key, kind[0], item, lo, hi) for item in items]
    return _number(key, kind, value, lo, hi)


def _walk(section, prefix: str, config: dict) -> None:
    if not isinstance(section, dict):
        raise ValidationError(f"config section {prefix[:-1] or '<root>'} must be an object")
    for name, value in section.items():
        key = prefix + name
        if "." in name or key not in _FIELDS and key not in _SECTIONS:
            raise ValidationError(f"unknown config key {key}")
        if key in _SECTIONS:
            _walk(value, key + ".", config)
        else:
            config[key] = _value(key, value)


def load_config(path: str) -> tuple[dict, str]:
    """The checked config, {"section.key": value} over every key of
    ``_FIELDS`` with defaults filled in, and the CSV headers' hash: 16 hex
    digits of the SHA-256 of the JSON as written, keys sorted, no spaces."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise ValidationError(f"cannot read config: {err}") from None
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"config is not valid JSON: {err}") from None
    config = {key: spec[3] for key, spec in _FIELDS.items()}
    _walk(raw, "", config)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return config, _sha256(canonical.encode()).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DegeneracyError(f"a CSV value is {value}")
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, digest: str, columns, rows):
    """Formats every row, so a NaN or inf raises before the file is written."""
    lines = [
        f"# schema_version={SCHEMA_VERSION} config_sha256={digest} qkoopman={__version__}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rotation_system(config: dict) -> RotationSystem:
    if config["system.kind"] not in (None, "rotation"):
        raise ValidationError("this command needs a rotation system")
    if len(config["system.alpha"]) > MAX_DIMENSION:
        raise ValidationError(f"system.alpha has more than {MAX_DIMENSION} frequencies")
    sys_ = RotationSystem(np.asarray(config["system.alpha"], dtype=float))
    for i, k, frac in rational_dependence_warnings(sys_.alpha):
        print(
            f"warning: alpha[{i}]/alpha[{k}] is within 1e-9 of {frac}; "
            "rational dependence breaks ergodicity of the rotation",
            file=sys.stderr,
        )
    return sys_


def _point(config: dict, key: str, d: int, default: float) -> np.ndarray:
    """The d-dimensional point ``config[key]``."""
    if config[key] is None:
        return np.full(d, default)
    if len(config[key]) != d:
        raise ValidationError(f"{key} must have dimension {d}")
    return np.asarray(config[key], dtype=float)


def _observable(config: dict, key: str, d: int) -> FourierObservable:
    if config[key] is None:
        if d != 1:
            raise ValidationError("a default observable exists only for d=1")
        return FourierObservable({(1,): 0.5, (-1,): 0.5}, d=1)  # cos(theta)
    return FourierObservable(config[key], d=d)


def _kernel_weight(config: dict, d: int):
    """The kernel's rkha.SubexpWeight on the d-torus."""
    from . import rkha

    if config["kernel.d"] not in (None, d):
        raise ValidationError("kernel dimension must match the system dimension")
    return rkha.SubexpWeight(config["kernel.tau"], config["kernel.p"], d)


def cmd_rotate(config: dict, out: Path, digest: str) -> list[Path]:
    sys_ = _rotation_system(config)
    dt = config["rotate.dt"]
    x0 = _point(config, "system.x0", sys_.d, 0.0)
    trajectory = sample_trajectory(sys_, x0, dt, config["rotate.n"])
    columns = ["t"] + [f"theta_{i}" for i in range(sys_.d)]
    write_csv(out / "rotate.csv", digest, columns,
              [(k * dt, *point) for k, point in enumerate(trajectory.tolist())])
    return [out / "rotate.csv"]


def _read_observations(path: str) -> list[float]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as err:
        raise ValidationError(f"cannot read qmda.observations_csv: {err}") from None
    values = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        try:
            value = float(line.split(",")[1])
        except (IndexError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ValidationError(f"{path} line {number}: {line!r} is not t,y with a finite y")
        values.append(value)
    return values


def cmd_filter(config: dict, out: Path, digest: str) -> list[Path]:
    from . import qmda

    if config["system.kind"] not in (None, "orbit"):
        raise ValidationError("the filter command runs on a periodic orbit system")
    m = config["system.M"]
    x0 = [0.0] if config["system.x0"] is None else config["system.x0"]
    if len(x0) != 1 or not x0[0].is_integer():
        raise ValidationError("system.x0 of an orbit must be one integer")
    steps = config["qmda.steps"]
    rank = max(1, m - 2) if config["qmda.L"] is None else config["qmda.L"]
    model = qmda.ObservationModel(
        kind=config["qmda.observation.kind"],
        scale=config["qmda.observation.scale"],
        noise_std=config["qmda.noise_std"],
    )
    filter_seed = config["seed"] if config["qmda.seed"] is None else config["qmda.seed"]
    obs_path = config["qmda.observations_csv"]
    observations = None if obs_path is None else _read_observations(obs_path)

    sys_ = PeriodicOrbitSystem(m)
    rows = []
    for mode in (qmda.CLASSICAL, qmda.QUANTUM, qmda.QUANTUM_PROJECTED):
        # only the projected mode reads the rank
        trace = qmda.run_filter(sys_, model, int(x0[0]), steps, mode=mode,
                                rank=rank, seed=filter_seed, observations=observations)
        for step in trace.steps:
            rows.append(
                (step.step, mode, step.evidence, step.consistency, step.estimate_error)
            )
    columns = ["step", "mode", "evidence", "consistency_trace_norm", "estimate_error"]
    write_csv(out / "filter.csv", digest, columns, rows)
    return [out / "filter.csv"]


def cmd_koopman(config: dict, out: Path, digest: str) -> list[Path]:
    from . import fock, rkha, spectral

    sys_ = _rotation_system(config)
    weight = _kernel_weight(config, sys_.d)
    bandwidth = config["kernel.J"]
    if bandwidth is None:
        bandwidth = 64 if sys_.d == 1 else 16
    f = _observable(config, "koopman.observable", sys_.d)
    modes = (2 * max(bandwidth, f.bandwidth) + 1) ** sys_.d
    if modes > MAX_LATTICE_MODES:
        raise ValidationError(
            f"kernel lattice has {modes} modes (J={bandwidth}, observable bandwidth "
            f"{f.bandwidth}, d={sys_.d}); the limit is {MAX_LATTICE_MODES}"
        )
    small_J = 3 if sys_.d == 1 else 1  # the data-driven generator's lattice
    small_modes = (2 * small_J + 1) ** sys_.d
    n_samples = config["koopman.n_samples"]
    # the data-driven estimate does n_samples * modes^2 work, accumulated over
    # sample blocks; the filters' traces meet the same cap in qmda
    if n_samples * small_modes > _MAX_STORED:
        raise ValidationError(
            f"koopman.n_samples {n_samples} times the {small_modes} data-driven modes "
            f"is {n_samples * small_modes} values, more than the cap of {_MAX_STORED}"
        )
    x0 = _point(config, "koopman.x0", sys_.d, 1.0)
    fock_weight = fock.FockWeight(config["fock.sigma_w"], config["fock.p_w"], config["fock.Nmax"])
    sq_params = [
        fock.SecondQuantizationParams(
            m=m, sigma=2.0 * weight.tau, tau=weight.tau, p=weight.p, bandwidth=bandwidth,
            grid_size=config["koopman.grid_size"],
            obs_concentration=config["koopman.obs_concentration"], weight=fock_weight,
        )
        for m in config["koopman.m_values"]
    ]
    tn_params = [
        fock.TensorNetworkParams(n=n, bandwidth=bandwidth) for n in config["koopman.n_values"]
    ]
    lat = rkha.TruncatedLattice(sys_.d, bandwidth)
    gen = spectral.analytic_generator(sys_, lat)
    state = VonMisesDensity(x0, np.full(sys_.d, config["koopman.state_kappa"]))

    rows = []
    for t in config["koopman.t_grid"]:
        exact = koopman_exact(f, sys_, t).evaluate(x0).real
        residual = spectral.smoothing_identity_residual(weight, gen, _restrict(f, lat), t)
        for params in sq_params:
            res = fock.second_quantization_forecast(f, sys_, params, x0, t)
            rows.append(
                (t, f"m{params.m}", res.value, exact, abs(res.value - exact),
                 res.state_tail_norm, residual)
            )
        for params in tn_params:
            tn = fock.tensor_network_expectation(f, state, sys_, params, t)
            rows.append(
                (t, f"n{params.n}", tn.value, exact, abs(tn.value - exact),
                 tn.truncation_bound, residual)
            )

    trajectory = sample_trajectory(sys_, x0, config["koopman.dt"], n_samples)
    small_lat = rkha.TruncatedLattice(sys_.d, small_J)
    data_gen = spectral.data_driven_generator(trajectory, config["koopman.dt"], small_lat)
    reference = spectral.analytic_generator(sys_, small_lat)
    freq_rows = spectral.frequency_table(data_gen, reference)
    paths = [out / "koopman.csv", out / "eigenfrequencies.csv"]
    columns = ["t", "m_or_n", "value", "exact", "abs_error", "truncation_mass", "identity_residual"]
    write_csv(paths[0], digest, columns, rows)
    write_csv(paths[1], digest, ["index", "omega", "abs_error_vs_analytic"], freq_rows)
    return paths


def _restrict(f: FourierObservable, lat) -> FourierObservable:
    """The terms of f inside the rkha.TruncatedLattice lat."""
    kept = {j: c for j, c in f.coeffs.items() if j in lat}
    return FourierObservable(kept or {(0,) * lat.d: 0.0}, d=lat.d)


def cmd_qcirc(config: dict, out: Path, digest: str) -> list[Path]:
    from . import qcirc

    sys_ = _rotation_system(config)
    weight = _kernel_weight(config, sys_.d)
    q_values, t_grid = config["qcirc.q"], config["qcirc.t_grid"]
    if not q_values or not t_grid:
        raise ValidationError("qcirc.q and qcirc.t_grid must not be empty")
    # QubitEncoding rejects sizes over the statevector limit before anything is allocated
    encodings = [qcirc.QubitEncoding(d=sys_.d, q=q) for q in q_values]
    x0 = _point(config, "qcirc.x0", sys_.d, 1.0)
    f = _observable(config, "qcirc.observable", sys_.d)

    rows = []
    for enc in encodings:
        for t in t_grid:
            value = qcirc.circuit_expectation(enc, weight, sys_, f, x0, t)
            exact = koopman_exact(f, sys_, t).evaluate(x0).real
            rows.append((enc.q, t, value, exact, abs(value - exact)))

    enc = qcirc.QubitEncoding(d=sys_.d, q=max(q_values))
    coeffs = qcirc.walsh_coefficients(qcirc.frequency_vector(enc, sys_))
    prep = qcirc.feature_state(enc, weight, x0)
    circuit = qcirc.export_circuit(coeffs, enc, t_grid[-1], prep=prep)
    write_csv(out / "qcirc.csv", digest, ["q", "t", "value", "exact", "abs_error"], rows)
    (out / "circuit.txt").write_text(circuit, encoding="utf-8")
    return [out / "qcirc.csv", out / "circuit.txt"]


# Each command computes all its outputs before it writes the first one.
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
        config, digest = load_config(args.config)
        if args.seed is not None:
            config["seed"] = _value("seed", args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # an overflow or 0/0 on the way surfaces as a non-finite CSV value
        # and exit 3, so numpy's own RuntimeWarning lines would only repeat it
        with np.errstate(all="ignore"):
            paths = COMMANDS[args.command](config, out, digest)
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DegeneracyError, OverflowError) as err:
        print(f"numerical degeneracy: {err}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
