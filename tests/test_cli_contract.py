"""The CLI's exit-code contract over every input.

0 means every CSV value is finite, 2 a bad config, a bad observation file
or a size over a cap, 3 a numerical degeneracy.  No input may end in a
traceback, and exit 2 writes no CSV.
"""

import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qkoopman import cli, dynamics, fock, qmda, rkha, spectral

ROOT = Path(__file__).resolve().parents[1]


def run(command, config_text, out, obs_text=None):
    """(exit code, stderr) of one in-process run; config_text may name {obs}."""
    out.mkdir(parents=True, exist_ok=True)
    obs = out.parent / "obs.csv"
    if obs_text is not None:
        obs.write_text(obs_text, encoding="utf-8")
    cfg = out.parent / "c.json"
    cfg.write_text(config_text.replace("{obs}", str(obs)), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
    return code, err.getvalue()


def csv_values(out):
    """Every cell of every CSV in out that parses as a number."""
    values = []
    for path in out.glob("*.csv"):
        for line in path.read_text(encoding="utf-8").splitlines()[2:]:
            for cell in line.split(","):
                try:
                    values.append(float(cell))
                except ValueError:
                    pass
    return values


# The defects each of these once showed: a traceback (exit 1), exit 0 with
# NaN in a CSV, a value silently coerced, or exit 2 after writing a CSV.
PROBES = {
    "missing-observations": ("filter", '{"qmda": {"observations_csv": "{obs}.missing"}}', None),
    "observation-row-abc": ("filter", '{"qmda": {"observations_csv": "{obs}"}}', "t,y_0\n0,abc\n"),
    "observation-row-nan": ("filter", '{"qmda": {"observations_csv": "{obs}"}}', "t,y_0\n0,nan\n"),
    "seed-abc": ("rotate", '{"seed": "abc"}', None),
    "J-text": ("koopman", '{"kernel": {"J": "x"}}', None),
    "alpha-text": ("rotate", '{"system": {"alpha": "abc"}}', None),
    "observable-pair-short": (
        "koopman", '{"kernel": {"J": 16}, "koopman": {"observable": {"1": [1]}}}', None),
    "M-huge": ("filter", '{"system": {"kind": "orbit", "M": 100000}}', None),
    "dt-nan": ("rotate", '{"rotate": {"dt": NaN}}', None),
    "t-grid-nan": ("qcirc", '{"qcirc": {"t_grid": [NaN]}}', None),
    "J-fractional": ("koopman", '{"kernel": {"J": 4.7}}', None),
    "orbit-x0-fractional": ("filter", '{"system": {"kind": "orbit", "x0": 2.7}}', None),
    "seed-bool": ("rotate", '{"seed": true}', None),
    "n-samples-0": ("koopman", '{"kernel": {"J": 16}, "koopman": {"n_samples": 0}}', None),
}
# One entry past the list cap: every entry of these keys is a forecast or a
# circuit of its own, and no list length was bounded.
LONG_LISTS = {
    "koopman.t_grid": ("koopman", 0.5),
    "koopman.m_values": ("koopman", 1),
    "koopman.n_values": ("koopman", 1),
    "qcirc.t_grid": ("qcirc", 0.5),
    "qcirc.q": ("qcirc", 2),
}


def long_list_config(key, entries):
    command, item = LONG_LISTS[key]
    section, name = key.split(".")
    return command, json.dumps({section: {name: [item] * entries}})


PROBES.update({
    f"{key}-long": long_list_config(key, cli.MAX_LIST_ENTRIES + 1) + (None,) for key in LONG_LISTS
})


# Accepted inputs whose arithmetic overflows; numpy's RuntimeWarning lines
# once reached stderr ahead of the CLI's own message.
DEGENERATE_PROBES = {
    # sigma = 2 tau overflows to inf (at tau = 1e300 see the test below)
    "koopman-tau-huge": ("koopman", '{"kernel": {"J": 4, "tau": 1e308}}'),
    "qcirc-tau-huge": ("qcirc", '{"kernel": {"tau": 1e300}}'),
    # |t| max|j.alpha| >= 2**52 rad: one ulp of the phase is a whole radian
    "koopman-t-huge": ("koopman", '{"kernel": {"J": 4}, "koopman": {"t_grid": [1e300]}}'),
    "qcirc-t-huge": ("qcirc", '{"qcirc": {"t_grid": [1e300]}}'),
    # the same for a phase j.x at the point: both exited 0 with meaningless rows
    "koopman-x0-huge": ("koopman", '{"kernel": {"J": 4}, "koopman": {"x0": [1e20]}}'),
    "qcirc-x0-huge": ("qcirc", '{"qcirc": {"x0": [1e300]}}'),
    # a step dt alpha past 2**52 rad froze the trajectory and the estimate at 0
    "rotate-dt-huge": ("rotate", '{"rotate": {"dt": 1e300}}'),
    "koopman-dt-huge": ("koopman", '{"kernel": {"J": 4}, "koopman": {"dt": 1e300}}'),
    # 1/(2 dt) overflows: a LinAlgError traceback from eigh (exit 1)
    "koopman-dt-subnormal": ("koopman", '{"kernel": {"J": 4}, "koopman": {"dt": 1e-320}}'),
    # the noise overflows synthetic observations to NaN or infinity, which
    # once exited 2 as if the user had supplied a non-finite observation
    "filter-noise-huge": (
        "filter", '{"system": {"kind": "orbit", "M": 8}, '
        '"qmda": {"steps": 200, "noise_std": 1e308}}'),
    "filter-noise-huge-gaussian": (
        "filter", '{"system": {"kind": "orbit", "M": 8}, '
        '"qmda": {"steps": 200, "noise_std": 1e308, "observation": {"kind": "gaussian"}}}'),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_exits_2_without_output(tmp_path, name):
    command, text, obs_text = PROBES[name]
    code, err = run(command, text, tmp_path / "out", obs_text)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("key", sorted(LONG_LISTS))
def test_long_list_names_key_and_cap(tmp_path, key):
    command, text = long_list_config(key, cli.MAX_LIST_ENTRIES + 1)
    code, err = run(command, text, tmp_path / "out")
    assert code == 2
    assert err == f"error: {key} has 1025 entries, more than the cap of 1024\n"
    path = tmp_path / "c.json"
    path.write_text(long_list_config(key, cli.MAX_LIST_ENTRIES)[1], encoding="utf-8")
    config, _ = cli.load_config(str(path))
    assert len(config[key]) == cli.MAX_LIST_ENTRIES


# Refused by the forecast's parameter sets, which koopman builds before the
# lattice or the generator: J = 1023 with the default grid_size of 256 once
# allocated 288 MiB before it exited 2.
@pytest.mark.parametrize("text", [
    '{"kernel": {"J": 1023}}',
    '{"kernel": {"J": 4}, "fock": {"Nmax": 2}, "koopman": {"m_values": [1, 3]}}',
])
def test_koopman_validates_before_it_computes(tmp_path, monkeypatch, text):
    def refuse(*args, **kwargs):
        raise AssertionError("koopman started computing before it validated")

    monkeypatch.setattr(spectral, "analytic_generator", refuse)
    monkeypatch.setattr(fock, "second_quantization_forecast", refuse)
    code, err = run("koopman", text, tmp_path / "out")
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def torus_config(d, J, koopman):
    """A koopman config on the d-torus with alpha_i the square root of the
    i-th prime and the constant observable, whose bandwidth is 0."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53][:d]
    zero = ",".join(["0"] * d)
    return json.dumps({
        "system": {"kind": "rotation", "alpha": [math.sqrt(q) for q in primes]},
        "kernel": {"d": d, "J": J},
        "koopman": {"observable": {zero: [1.0, 0.0]}, **koopman},
    })


# Sizes whose stored values pass dynamics._MAX_STORED.  Each once ran to
# its allocation: a 1e6 x 3^6 complex design matrix (about 42 GiB), a 3^16-row
# data-driven lattice, or 1e6 filter posteriors of 2048 values in each mode.
# The filter's trace is refused by qmda.run_filter itself, before it draws
# its first observation.
CAP_PROBES = {
    "koopman-design-d6": ("koopman", torus_config(
        6, 1, {"grid_size": 8, "n_samples": 10**6})),
    "koopman-lattice-d16": ("koopman", torus_config(
        16, 0, {"grid_size": 2, "n_values": [], "n_samples": 1})),
    "filter-trace": ("filter", '{"system": {"kind": "orbit", "M": 2048}, '
                               '"qmda": {"steps": 1000000}}'),
}


@pytest.mark.parametrize("name", sorted(CAP_PROBES))
def test_stored_value_cap_exits_2_before_work(tmp_path, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a capped size reached the computation")

    for module, heavy in ((rkha, "TruncatedLattice"), (cli, "sample_trajectory"),
                          (spectral, "data_driven_generator"), (spectral, "analytic_generator"),
                          (fock, "second_quantization_forecast"),
                          (fock, "tensor_network_expectation"), (qmda, "_observe_run")):
        monkeypatch.setattr(module, heavy, refuse)
    command, text = CAP_PROBES[name]
    code, err = run(command, text, tmp_path / "out")
    assert code == 2, err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"cap of {dynamics._MAX_STORED}" in lines[0]
    assert not list((tmp_path / "out").iterdir())


def test_koopman_grid_size_not_capped_by_dimension(tmp_path):
    # grid_size^d = 2048^3 points once exceeded a cap of MAX_LATTICE_MODES^2
    # and exited 2; the forecast now works on d grids of 2048 points
    code, err = run("koopman", torus_config(3, 5, {"grid_size": 2048}), tmp_path / "out")
    assert code == 0, err
    rows = (tmp_path / "out" / "koopman.csv").read_text(encoding="utf-8").splitlines()
    assert any(",m1," in row for row in rows)
    assert all(math.isfinite(v) for v in csv_values(tmp_path / "out"))


def test_koopman_tau_huge_forecasts_the_mean(tmp_path):
    # At tau = 1e300 every weight but lambda(0) underflows.  The grading-m
    # pairing never divides by lambda_tau, so the kernel is the constant mode
    # and each m row is the mean of cos, 0; dividing 0 by sqrt(lambda_tau) = 0
    # once wrote NaN and exited 3.
    code, err = run("koopman", '{"kernel": {"J": 4, "tau": 1e300}}', tmp_path / "out")
    assert code == 0, err
    rows = (tmp_path / "out" / "koopman.csv").read_text(encoding="utf-8").splitlines()[2:]
    values = [float(row.split(",")[2]) for row in rows if row.split(",")[1].startswith("m")]
    assert values and all(abs(v) <= 1e-15 for v in values)


class Reached(Exception):
    pass


# At the cap, not past it: d = 2 (9 data-driven modes) and d = 1 (7) at the
# sample cap, and a filter storing exactly dynamics._MAX_STORED values, which
# qmda.run_filter admits and goes on to draw its observations.
@pytest.mark.parametrize("command,text", [
    ("koopman", torus_config(2, 4, {"n_samples": 10**6})),
    ("koopman", torus_config(1, 4, {"n_samples": 10**6})),
    ("filter", '{"system": {"kind": "orbit", "M": 9}, "qmda": {"steps": 1000000}}'),
])
def test_stored_value_cap_admits_its_bound(tmp_path, monkeypatch, command, text):
    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(rkha, "TruncatedLattice", reached)
    monkeypatch.setattr(qmda, "_observe_run", reached)
    with pytest.raises(Reached):
        run(command, text, tmp_path / "out")


@pytest.mark.parametrize("name", sorted(DEGENERATE_PROBES))
def test_probe_exits_3_with_one_line(tmp_path, name):
    # a process of its own: pytest would record numpy's warnings, not print them
    command, text = DEGENERATE_PROBES[name]
    cfg = tmp_path / "c.json"
    cfg.write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "qkoopman.cli", command, "--config", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 3
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical degeneracy: "), proc.stderr
    assert not list((tmp_path / "out").iterdir())
    if "-t-" in name or "-dt-huge" in name:
        assert "t=" in lines[0]
    if name == "qcirc-t-huge":  # the circuit evolves by -t; the message names t
        assert "t=1e+300" in lines[0], lines[0]
    if "-x0-" in name:
        assert re.search(r"point x=\[1e\+(20|300)\] takes a phase of 2\*\*52 rad", lines[0])
    if "-noise-" in name:
        assert re.search(r"noise_std 1e\+308 .* at step \d+$", lines[0]), lines[0]


def test_phase_check_threshold():
    # max |j.alpha| over |j_i| <= 2 with alpha = (1, -3) is 2 * (1 + 3) = 8 = 2**3;
    # the commands take the rule from the library, where each phase is formed
    freqs = rkha.TruncatedLattice(2, 2).indices @ np.array([1.0, -3.0])
    for t in (0.0, 2.0**49 - 1.0, -(2.0**49 - 1.0)):
        dynamics._phases(t, freqs)
    for t in (2.0**49, -(2.0**49)):
        with pytest.raises(cli.DegeneracyError, match="t="):
            dynamics._phases(t, freqs)


@pytest.mark.parametrize("command,text", [
    ("koopman", '{"kernel": {"J": 4}, "koopman": {"t_grid": [1e6], "n_samples": 200}}'),
    ("qcirc", '{"qcirc": {"t_grid": [1e6], "q": [2, 3]}}'),
])
def test_large_t_with_phase_digits_exits_0(tmp_path, command, text):
    # 1e6 times the largest frequency is far below 2**52 rad
    code, err = run(command, text, tmp_path / "out")
    assert code == 0, err
    values = csv_values(tmp_path / "out")
    assert 1e6 in values and all(math.isfinite(v) for v in values)


def test_tiny_obs_concentration_exits_0(tmp_path):
    # the unscaled Miller run overflowed at kappa = 1e-200 and exited 3
    text = ('{"system": {"kind": "rotation"}, "kernel": {"J": 8}, '
            '"koopman": {"obs_concentration": 1e-200}}')
    code, err = run("koopman", text, tmp_path / "out")
    assert code == 0, err
    values = csv_values(tmp_path / "out")
    assert values and all(math.isfinite(v) for v in values)


def test_frozen_estimate_scores_nonzero_errors(tmp_path):
    # at dt = 1e-300 no step moves the trajectory and every estimate is 0,
    # which once matched the reference frequency 0 and read zero error
    text = '{"system": {"kind": "rotation"}, "kernel": {"J": 4}, "koopman": {"dt": 1e-300}}'
    code, err = run("koopman", text, tmp_path / "out")
    assert code == 0, err
    rows = (tmp_path / "out" / "eigenfrequencies.csv").read_text(encoding="utf-8").splitlines()[2:]
    omega = [float(row.split(",")[1]) for row in rows]
    errors = sorted(float(row.split(",")[2]) for row in rows)
    assert omega == [0.0] * 7
    assert errors == sorted(abs(j * math.sqrt(2.0)) for j in range(-3, 4))


def test_small_bandwidth_has_finite_bounds(tmp_path):
    # at J=4 the tensor-power truncation bound used to read inf in every n row
    code, err = run("koopman", '{"kernel": {"J": 4}}', tmp_path / "out")
    assert code == 0, err
    values = csv_values(tmp_path / "out")
    assert values and all(math.isfinite(v) for v in values)


D2 = {"system": {"kind": "rotation", "alpha": [math.sqrt(2.0), math.sqrt(3.0)]}}
D2_SECTIONS = {
    "koopman": {"koopman": {"t_grid": [0.5], "m_values": [1], "n_values": [1], "n_samples": 50,
                            "observable": {"1,0": [0.5, 0], "-1,0": [0.5, 0]}}},
    "qcirc": {"qcirc": {"q": [2], "t_grid": [0.5],
                        "observable": {"1,0": [0.5, 0], "-1,0": [0.5, 0]}}},
}


@pytest.mark.parametrize("command", sorted(D2_SECTIONS))
def test_kernel_d_defaults_to_the_system_dimension(tmp_path, command):
    # the default kernel.d was 1, so a d=2 config had to spell it out or exit 2
    kernel = {"kernel": {"J": 4}} if command == "koopman" else {}
    text = json.dumps({**D2, **kernel, **D2_SECTIONS[command]})
    code, err = run(command, text, tmp_path / "out")
    assert code == 0, err
    values = csv_values(tmp_path / "out")
    assert values and all(math.isfinite(v) for v in values)
    # an explicit kernel.d that differs from the system's still exits 2
    text = json.dumps({**D2, "kernel": {"d": 1, "J": 4}, **D2_SECTIONS[command]})
    code, err = run(command, text, tmp_path / "bad")
    assert code == 2 and "kernel dimension" in err
    assert not list((tmp_path / "bad").glob("*.csv"))


def test_accepted_keys():
    assert set(cli._FIELDS) == {
        "schema_version", "seed",
        "system.kind", "system.alpha", "system.M", "system.x0",
        "kernel.tau", "kernel.p", "kernel.d", "kernel.J",
        "fock.sigma_w", "fock.p_w", "fock.Nmax",
        "qmda.L", "qmda.observation.kind", "qmda.observation.scale", "qmda.noise_std",
        "qmda.steps", "qmda.seed", "qmda.observations_csv",
        "qcirc.q", "qcirc.t_grid", "qcirc.x0", "qcirc.observable",
        "rotate.dt", "rotate.n",
        "koopman.t_grid", "koopman.m_values", "koopman.n_values", "koopman.x0",
        "koopman.observable", "koopman.grid_size", "koopman.obs_concentration",
        "koopman.state_kappa", "koopman.dt", "koopman.n_samples",
    }


@pytest.mark.parametrize("text", ['{"system.M": 8}', '{"qmda": {"observation.kind": "event"}}',
                                  '{"system": {"M": {"x": 1}}}', '{"qmda": {"observation": 1}}',
                                  "[]"])
def test_misplaced_keys_rejected(tmp_path, text):
    code, _ = run("filter", text, tmp_path / "out")
    assert code == 2


def test_readme_example_loads(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    [example] = re.findall(r"```json\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    path = tmp_path / "c.json"
    path.write_text(example, encoding="utf-8")
    config, digest = cli.load_config(str(path))
    assert config["kernel.J"] == 16 and re.fullmatch(r"[0-9a-f]{16}", digest)


def test_hash_is_over_the_config_as_written(tmp_path):
    # defaults filled in by load_config do not enter the hash, so a config
    # that spells out a default hashes differently from one that omits it
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"rotate": {"n": 3}}', encoding="utf-8")
    b.write_text('{"rotate": {"n": 3, "dt": 0.1}}', encoding="utf-8")
    (config_a, hash_a), (config_b, hash_b) = cli.load_config(str(a)), cli.load_config(str(b))
    assert config_a == config_b and hash_a != hash_b


@pytest.mark.parametrize("text", [
    "{}",
    '{"system": {"kind": "rotation", "alpha": [1.5, -0.25]}, '
    '"koopman": {"observable": {"1": [0.5, 0], "-1": [0.5, 0]}, "m_values": []}}',
    '{"qmda": {"observations_csv": "donn\u00e9es/\u89b3\u6e2c \u2713.csv"}}',
], ids=["empty", "nested", "unicode"])
def test_hash_is_sha256_of_the_canonical_json(tmp_path, text):
    # cli hashes with the interpreter's built-in SHA-256, not hashlib's
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    _, digest = cli.load_config(str(path))
    canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    assert digest == hashlib.sha256(canonical.encode()).hexdigest()[:16]
    if text == "{}":
        assert digest == "44136fa355b3678a"


def test_built_in_sha256_matches_hashlib():
    # lengths either side of the 64-byte block and of its padding boundary
    for size in (0, 1, 55, 56, 63, 64, 65, 1000, 10**5):
        data = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
        assert cli._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


# Property test: configs over the table's keys, each value either junk (wrong
# type, bool, NaN/Infinity, negative or past any cap) or small and valid, so
# that a run takes milliseconds.
JUNK = st.sampled_from([None, True, False, "abc", "", [], {}, [[1]], -1, 0, -0.5, 2.5, 10**7,
                        2**64, 10**400, 1e308, math.nan, math.inf, -math.inf])
SMALL = {
    int: st.integers(0, 6),
    float: st.one_of(st.floats(0.05, 3.0), st.sampled_from([1e-3, 1e3])),
    str: st.just("{obs}"),
}
COMMAND_KEYS = {
    "rotate": ["system.kind", "system.alpha", "system.x0", "rotate.dt", "rotate.n"],
    "filter": ["system.kind", "system.M", "system.x0", "qmda.L", "qmda.observation.kind",
               "qmda.observation.scale", "qmda.noise_std", "qmda.steps", "qmda.seed",
               "qmda.observations_csv"],
    "koopman": ["system.alpha", "kernel.tau", "kernel.p", "kernel.d", "kernel.J", "fock.sigma_w",
                "fock.p_w", "fock.Nmax", "koopman.t_grid", "koopman.m_values",
                "koopman.n_values", "koopman.x0", "koopman.observable", "koopman.grid_size",
                "koopman.obs_concentration", "koopman.state_kappa", "koopman.dt",
                "koopman.n_samples"],
    "qcirc": ["system.alpha", "kernel.tau", "kernel.p", "kernel.d", "qcirc.q", "qcirc.t_grid",
              "qcirc.x0", "qcirc.observable"],
}
# koopman keeps J, the grid and the sample count small when it draws them
SIZES = {"kernel.J": st.integers(1, 8), "koopman.grid_size": st.integers(16, 40),
         "koopman.n_samples": st.integers(50, 400), "system.M": st.integers(1, 10),
         "qmda.L": st.integers(1, 10), "qmda.steps": st.integers(1, 6),
         "rotate.n": st.integers(1, 50), "qcirc.q": st.integers(1, 5)}
OBSERVABLE = st.dictionaries(
    st.sampled_from(["0", "1", "-1", "2", "1,0", "0,1", "a", "1.5", ""]),
    st.one_of(st.lists(st.floats(-1, 1), min_size=2, max_size=2), JUNK), max_size=3)
OBS_ROWS = st.lists(st.sampled_from(["t,y_0", "0,0.3", "1,0.1", "2,-0.2", "3,0.0", "0,abc",
                                     "0", "0,nan", "0,inf", "", "# note"]), max_size=8)


def value_strategy(key):
    kind, *_ = cli._FIELDS[key]
    if isinstance(kind, tuple):
        return st.one_of(st.sampled_from(kind), JUNK)
    if kind is dict:
        return st.one_of(OBSERVABLE, JUNK)
    if isinstance(kind, list):
        element = SIZES.get(key, SMALL[kind[0]])
        return st.one_of(st.lists(st.one_of(element, element, JUNK), max_size=3), element, JUNK)
    return st.one_of(SIZES.get(key, SMALL[kind]), JUNK)


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    keys = draw(st.sets(st.sampled_from(COMMAND_KEYS[command] + ["seed"]), max_size=5))
    config = {}
    if command == "koopman" and "kernel.J" not in keys:
        config["kernel"] = {"J": 4}  # a run at the default J=64 takes four times as long
    if command == "koopman" and "koopman.n_samples" not in keys:
        config.setdefault("koopman", {})["n_samples"] = 200
    for key in sorted(keys):
        *sections, leaf = key.split(".")
        block = config
        for section in sections:
            block = block.setdefault(section, {})
        block[leaf] = draw(value_strategy(key))
    obs_text = "\n".join(draw(OBS_ROWS)) + "\n"
    return command, json.dumps(config), obs_text


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_every_input_follows_the_contract(case):
    command, text, obs_text = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, err = run(command, text, out, obs_text)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 2:
            assert not list(out.glob("*.csv")), err
        if code == 0:
            assert all(math.isfinite(v) for v in csv_values(out))
