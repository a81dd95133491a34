"""Output checks: package oracles, byte identity within a run, and reference outputs.

Every function returns a list of problems; an empty list means the unit
passed.  A unit with any problem counts as failed.
"""

from __future__ import annotations

import json
import math
import re

# Reference outputs are compared token by token: text must match exactly and
# each number must agree within REF_ATOL + REF_RTOL * |reference|.  That is
# roundoff headroom for a different BLAS build or summation order, far below
# any change a real defect would make.
REF_RTOL = 1e-9
REF_ATOL = 1e-12

# criterion 1 of the acceptance suite: the quantum filter tracks the
# classical one to within this trace-norm distance.
QUANTUM_CONSISTENCY_TOL = 1e-12
# The benchmark's own cos(x0 + t alpha) against the CSV's exact column.
EXACT_TOL = 1e-12
# Data-driven eigenfrequencies of the first three harmonics stay within this
# of the analytic ones for 20000 samples at dt = 0.01 (observed: <= 2e-3).
FREQUENCY_TOL = 5e-2

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def parse_csv(text: str):
    """(comment line, column names, rows of str) of a qkoopman CSV."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# schema_version="):
        raise ValueError("missing qkoopman CSV header")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("ragged CSV row")
    return lines[0], columns, rows


def _floats(rows, columns, name):
    index = columns.index(name)
    return [float(row[index]) for row in rows]


def _finite(rows, columns, skip=()):
    problems = []
    for name in columns:
        if name in skip:
            continue
        for value in _floats(rows, columns, name):
            if not math.isfinite(value):
                problems.append(f"non-finite {name}: {value}")
                break
    return problems


def _exact_column(rows, columns, x0, alpha, label):
    """The exact column is cos(x0 + t alpha) for the default cos observable."""
    problems = []
    t_col = _floats(rows, columns, "t")
    for t, exact, value, abs_error in zip(
        t_col,
        _floats(rows, columns, "exact"),
        _floats(rows, columns, "value"),
        _floats(rows, columns, "abs_error"),
    ):
        truth = math.cos(x0 + t * alpha)
        if abs(exact - truth) > EXACT_TOL:
            problems.append(f"{label}: exact {exact!r} != cos(x0 + t alpha) {truth!r} at t={t}")
        if abs(abs_error - abs(value - exact)) > 1e-15 * max(1.0, abs(value)):
            problems.append(f"{label}: abs_error inconsistent at t={t}")
    return problems


def check_filter(config: dict, outputs: dict) -> list[str]:
    _, columns, rows = parse_csv(outputs["filter.csv"])
    steps = config["qmda"]["steps"]
    problems = _finite(rows, columns, skip=("mode",))
    if len(rows) != 3 * steps:
        problems.append(f"filter.csv has {len(rows)} rows, expected {3 * steps}")
    modes = columns.index("mode")
    consistency = columns.index("consistency_trace_norm")
    for row in rows:
        if row[modes] == "quantum" and not float(row[consistency]) <= QUANTUM_CONSISTENCY_TOL:
            problems.append(f"quantum consistency {row[consistency]} above 1e-12 at step {row[0]}")
    return problems


def check_koopman(config: dict, outputs: dict) -> list[str]:
    block = config["koopman"]
    _, columns, rows = parse_csv(outputs["koopman.csv"])
    problems = _finite(rows, columns, skip=("m_or_n",))
    expected = len(block["t_grid"]) * (len(block["m_values"]) + len(block["n_values"]))
    if len(rows) != expected:
        problems.append(f"koopman.csv has {len(rows)} rows, expected {expected}")
    problems += _exact_column(rows, columns, block["x0"][0], config["system"]["alpha"][0], "koopman")
    _, freq_columns, freq_rows = parse_csv(outputs["eigenfrequencies.csv"])
    problems += _finite(freq_rows, freq_columns)
    if len(freq_rows) != 7:
        problems.append(f"eigenfrequencies.csv has {len(freq_rows)} rows, expected 7")
    worst = max(_floats(freq_rows, freq_columns, "abs_error_vs_analytic"), default=math.inf)
    if not worst <= FREQUENCY_TOL:
        problems.append(f"data-driven eigenfrequency error {worst} above {FREQUENCY_TOL}")
    return problems


def check_qcirc(config: dict, outputs: dict) -> list[str]:
    block = config["qcirc"]
    _, columns, rows = parse_csv(outputs["qcirc.csv"])
    problems = _finite(rows, columns)
    expected = len(block["q"]) * len(block["t_grid"])
    if len(rows) != expected:
        problems.append(f"qcirc.csv has {len(rows)} rows, expected {expected}")
    problems += _exact_column(rows, columns, block["x0"][0], config["system"]["alpha"][0], "qcirc")
    if not outputs["circuit.txt"].startswith("# diagonal phase circuit"):
        problems.append("circuit.txt lacks its header")
    return problems


def check_library(config: dict, outputs: dict) -> list[str]:
    problems = []
    for name, value in outputs.items():
        values = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"non-finite library output {name}")
    if outputs.get("tensor_power.unit_value") != 1.0:
        problems.append(
            f"unit observable gave {outputs.get('tensor_power.unit_value')!r}, not exactly 1.0"
        )
    if not outputs.get("kernel_gram.hermitian_residual", math.inf) <= 1e-12:
        problems.append("kernel Gram matrix is not Hermitian")
    if not outputs.get("kernel_gram.diagonal_spread", math.inf) <= 1e-12:
        problems.append("kernel Gram diagonal is not the constant k(x, x)")
    if outputs.get("multiplication_operator.hermitian_residual") != 0.0:
        problems.append("multiplication operator of a real multiplier is not Hermitian")
    return problems


CHECKS = {
    "filter-orbit": check_filter,
    "koopman-forecast": check_koopman,
    "qcirc-sweep": check_qcirc,
    "library-inproc": check_library,
}


def check_oracles(workload: str, config: dict, outputs: dict) -> list[str]:
    try:
        return CHECKS[workload](config, outputs)
    except (KeyError, ValueError, IndexError) as err:
        return [f"malformed outputs: {type(err).__name__}: {err}"]


def _compare_text(name: str, got: str, ref: str) -> list[str]:
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if len(got_lines) != len(ref_lines):
        return [f"{name}: {len(got_lines)} lines, reference has {len(ref_lines)}"]
    for lineno, (a, b) in enumerate(zip(got_lines, ref_lines), start=1):
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
            return [f"{name}:{lineno}: text differs from the reference"]
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            fx, fy = float(x), float(y)
            if fx != fy and not abs(fx - fy) <= REF_ATOL + REF_RTOL * abs(fy):
                return [f"{name}:{lineno}: {x} differs from reference {y}"]
    return []


def check_reference(outputs: dict, reference: dict) -> list[str]:
    """Compare a unit's outputs (file texts or numbers) with recorded ones."""
    problems = []
    if sorted(outputs) != sorted(reference):
        return [f"outputs {sorted(outputs)} differ from reference {sorted(reference)}"]
    for name, ref in reference.items():
        got = outputs[name]
        if isinstance(ref, str):
            problems += _compare_text(name, got, ref)
        else:
            problems += _compare_text(name, json.dumps(got), json.dumps(ref))
    return problems
