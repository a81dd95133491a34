import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qkoopman.cli import _fmt, main, write_csv
from qkoopman.errors import DegeneracyError

ALPHA = 1.4142135623730951


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(args):
    return main([str(a) for a in args])


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema_version=1 config_sha256=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestRotate:
    def test_single_row(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"system": {"kind": "rotation", "alpha": [ALPHA], "x0": [0.5]},
             "rotate": {"dt": 0.5, "n": 1}},
        )
        assert run_cli(["rotate", "--config", cfg, "--out", tmp_path]) == 0
        header, rows = read_rows(tmp_path / "rotate.csv")
        assert header == ["t", "theta_0"]
        assert len(rows) == 1
        assert float(rows[0][1]) == 0.5

    def test_csv_format(self, tmp_path):
        from qkoopman.dynamics import RotationSystem, sample_trajectory

        cfg = write_config(
            tmp_path / "c.json",
            {"system": {"kind": "rotation", "alpha": [1.0, 2.0], "x0": [0.1, 0.2]},
             "rotate": {"dt": 0.5, "n": 3}},
        )
        assert run_cli(["rotate", "--config", cfg, "--out", tmp_path]) == 0
        header, rows = read_rows(tmp_path / "rotate.csv")
        assert header == ["t", "theta_0", "theta_1"] and len(rows) == 3
        traj = sample_trajectory(RotationSystem(np.array([1.0, 2.0])), [0.1, 0.2], 0.5, 3)
        # 17 significant digits round-trip float64 exactly
        assert [[float(v) for v in row] for row in rows] == [
            [k * 0.5, *point] for k, point in enumerate(traj.tolist())]

    def test_invalid_alpha_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"system": {"kind": "rotation", "alpha": [1.0, 0.0]}},
        )
        assert run_cli(["rotate", "--config", cfg, "--out", tmp_path]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"rotatee": {}})
        assert run_cli(["rotate", "--config", cfg, "--out", tmp_path]) == 2

    def test_rational_dependence_warning(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"system": {"kind": "rotation", "alpha": [2.0, 3.0]},
             "rotate": {"dt": 0.5, "n": 2}},
        )
        assert run_cli(["rotate", "--config", cfg, "--out", tmp_path]) == 0
        assert "rational dependence" in capsys.readouterr().err


def per_cell_lines(rows):
    """CSV lines as write_csv once joined them, one generator per row: the oracle."""
    return [",".join(_fmt(v) for v in row) for row in rows]


class TestCsvRows:
    def test_mixed_cells(self, tmp_path):
        rows = [(0, 0.1, np.float64(1 / 3), "m1"),
                (2**70, -0.0, np.float64(-1e-300), "n2"),
                (-7, 1e300, np.float64(5e-324), "")]
        write_csv(tmp_path / "a.csv", "0" * 16, ["a", "b", "c", "d"], rows)
        assert (tmp_path / "a.csv").read_text().splitlines()[2:] == per_cell_lines(rows)

    @pytest.mark.parametrize("bad", [math.nan, np.float64("nan"), -math.inf])
    def test_nonfinite_cell_raises(self, tmp_path, bad):
        with pytest.raises(DegeneracyError):
            write_csv(tmp_path / "a.csv", "0" * 16, ["a", "b"], [(1, 0.5), (2, bad)])
        assert not (tmp_path / "a.csv").exists()

    def test_rotate_rows_match_numpy_rows(self, tmp_path):
        from qkoopman.dynamics import RotationSystem, sample_trajectory

        alpha, x0, dt = [ALPHA, -3e3 * math.pi], [7.0, -0.25], 0.37
        cfg = write_config(
            tmp_path / "c.json",
            {"system": {"kind": "rotation", "alpha": alpha, "x0": x0},
             "rotate": {"dt": dt, "n": 2000}},
        )
        assert run_cli(["rotate", "--config", cfg, "--out", tmp_path]) == 0
        traj = sample_trajectory(RotationSystem(np.array(alpha)), x0, dt, 2000)
        rows = [(k * dt, *point) for k, point in enumerate(traj)]  # numpy float64 cells
        assert (tmp_path / "rotate.csv").read_text().splitlines()[2:] == per_cell_lines(rows)


class TestFilter:
    def base_config(self):
        return {
            "seed": 3,
            "system": {"kind": "orbit", "M": 8, "x0": 0},
            "qmda": {
                "L": 6,
                "steps": 20,
                "observation": {"kind": "vonmises", "scale": 6.0},
                "noise_std": 0.05,
            },
        }

    def test_exact_mode_consistency_column(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.base_config())
        assert run_cli(["filter", "--config", cfg, "--out", tmp_path]) == 0
        header, rows = read_rows(tmp_path / "filter.csv")
        assert header == ["step", "mode", "evidence", "consistency_trace_norm", "estimate_error"]
        quantum = [r for r in rows if r[1] == "quantum"]
        assert len(quantum) == 20
        assert all(float(r[3]) <= 1e-12 for r in quantum)
        projected = [r for r in rows if r[1] == "quantum-projected"]
        assert max(float(r[3]) for r in projected) > 0.0

    def test_uninformative_observations_flat(self, tmp_path):
        payload = self.base_config()
        payload["qmda"]["observation"]["scale"] = 1e-9
        payload["qmda"]["noise_std"] = 0.0
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli(["filter", "--config", cfg, "--out", tmp_path]) == 0
        _, rows = read_rows(tmp_path / "filter.csv")
        classical = [r for r in rows if r[1] == "classical"]
        assert all(abs(float(r[2]) - 1.0) < 1e-6 for r in classical)

    def test_zero_evidence_aborts_with_step(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("t,y_0\n0,0.3\n1,0.3\n", encoding="utf-8")
        payload = self.base_config()
        payload["qmda"]["observation"] = {"kind": "event", "scale": 1e-9}
        payload["qmda"]["observations_csv"] = str(obs)
        payload["qmda"]["steps"] = 2
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli(["filter", "--config", cfg, "--out", tmp_path]) == 3
        assert "step 1" in capsys.readouterr().err


class TestKoopman:
    def base_config(self):
        return {
            "system": {"kind": "rotation", "alpha": [ALPHA]},
            "kernel": {"tau": 0.2, "p": 0.5, "d": 1, "J": 16},
            "koopman": {"t_grid": [0.0, 1.0], "m_values": [1, 2, 3],
                        "n_values": [1], "x0": [1.0]},
        }

    def test_forecast_columns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.base_config())
        assert run_cli(["koopman", "--config", cfg, "--out", tmp_path]) == 0
        header, rows = read_rows(tmp_path / "koopman.csv")
        assert header[:2] == ["t", "m_or_n"]
        # identity residual vanishes for the analytic generator
        assert all(float(r[6]) <= 1e-12 for r in rows)
        # error decreases along the m sweep at every t
        for t in ("0", "1"):
            errs = [float(r[4]) for r in rows if r[0] == t and r[1].startswith("m")]
            assert errs[0] > errs[1] > errs[2]

    def test_huge_fock_weight_finite(self, tmp_path):
        # the Fock tail bound underflows to 0 here, it does not overflow
        payload = self.base_config()
        payload["fock"] = {"sigma_w": 1e300}
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli(["koopman", "--config", cfg, "--out", tmp_path]) == 0
        _, rows = read_rows(tmp_path / "koopman.csv")
        assert rows and all(np.isfinite(float(v)) for r in rows for v in r[2:])

    def test_constant_observable_zero_error(self, tmp_path):
        payload = self.base_config()
        payload["koopman"]["observable"] = {"0": [2.0, 0.0]}
        payload["koopman"]["m_values"] = [1, 2]
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli(["koopman", "--config", cfg, "--out", tmp_path]) == 0
        _, rows = read_rows(tmp_path / "koopman.csv")
        assert all(float(r[4]) <= 1e-12 for r in rows)

    def test_configured_bandwidth_used(self, tmp_path):
        from qkoopman.dynamics import FourierObservable, RotationSystem
        from qkoopman.fock import SecondQuantizationParams, second_quantization_forecast

        payload = self.base_config()
        payload["kernel"]["J"] = 24
        payload["koopman"].update(t_grid=[1.0], n_samples=500)
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli(["koopman", "--config", cfg, "--out", tmp_path]) == 0
        _, rows = read_rows(tmp_path / "koopman.csv")
        cos = FourierObservable({(1,): 0.5, (-1,): 0.5}, d=1)
        for m in (1, 2, 3):
            params = SecondQuantizationParams(m=m, sigma=0.4, tau=0.2, p=0.5, bandwidth=24)
            res = second_quantization_forecast(cos, RotationSystem(np.array([ALPHA])),
                                               params, [1.0], 1.0)
            [row] = [r for r in rows if r[1] == f"m{m}"]
            assert float(row[2]) == res.value

    def test_configured_bandwidth_used_by_tensor_powers(self, tmp_path):
        # the n rows once ran at min(J, 24)
        from qkoopman.dynamics import FourierObservable, RotationSystem, VonMisesDensity
        from qkoopman.fock import TensorNetworkParams, tensor_network_expectation

        payload = self.base_config()
        payload["kernel"]["J"] = 32
        payload["koopman"].update(t_grid=[1.0], m_values=[1], n_values=[1, 2, 3], n_samples=500)
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli(["koopman", "--config", cfg, "--out", tmp_path]) == 0
        _, rows = read_rows(tmp_path / "koopman.csv")
        cos = FourierObservable({(1,): 0.5, (-1,): 0.5}, d=1)
        state = VonMisesDensity(np.array([1.0]), np.array([20.0]))
        for n in (1, 2, 3):
            params = TensorNetworkParams(n=n, bandwidth=32)
            res = tensor_network_expectation(cos, state, RotationSystem(np.array([ALPHA])),
                                             params, 1.0)
            [row] = [r for r in rows if r[1] == f"n{n}"]
            assert (float(row[2]), float(row[5])) == (res.value, res.truncation_bound)

    def test_lattice_size_capped(self, tmp_path, capsys):
        payload = self.base_config()
        payload["system"]["alpha"] = [ALPHA, 3**0.5, 5**0.5]
        payload["kernel"].update(d=3, J=16)
        payload["koopman"].update(x0=[1.0, 1.0, 1.0], observable={"1,0,0": [1.0, 0.0]})
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli(["koopman", "--config", cfg, "--out", tmp_path]) == 2
        assert "35937 modes" in capsys.readouterr().err
        assert not (tmp_path / "koopman.csv").exists()

    def test_eigenfrequency_table(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.base_config())
        assert run_cli(["koopman", "--config", cfg, "--out", tmp_path]) == 0
        header, rows = read_rows(tmp_path / "eigenfrequencies.csv")
        assert header == ["index", "omega", "abs_error_vs_analytic"]
        # finite-difference bias grows like omega^3 dt^2; the base pair is tight
        assert all(float(r[2]) <= 5e-3 for r in rows)
        base = [float(r[2]) for r in rows if abs(abs(float(r[1])) - ALPHA) < 0.1]
        assert base and max(base) <= 1e-3


class TestQcirc:
    def base_config(self):
        return {
            "system": {"kind": "rotation", "alpha": [ALPHA]},
            "kernel": {"tau": 0.2, "p": 0.5, "d": 1},
            "qcirc": {"q": [2, 3, 4], "t_grid": [0.0, 2.0], "x0": [1.0]},
        }

    def test_error_decreases_in_q(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.base_config())
        assert run_cli(["qcirc", "--config", cfg, "--out", tmp_path]) == 0
        _, rows = read_rows(tmp_path / "qcirc.csv")
        for t in ("0", "2"):
            errs = [float(r[4]) for r in rows if r[1] == t]
            assert errs == sorted(errs, reverse=True)

    def test_rotation_line_count(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.base_config())
        assert run_cli(["qcirc", "--config", cfg, "--out", tmp_path]) == 0
        text = (tmp_path / "circuit.txt").read_text()
        rz_lines = [l for l in text.splitlines() if l.startswith("rz(")]
        assert len(rz_lines) == 5  # d(q+1) for the largest q


    @pytest.mark.parametrize(
        "block",
        [
            {"q": []},
            {"t_grid": []},
            {"q": [0]},
            {"q": [30]},
            {"q": [2, 30]},
        ],
        ids=["empty-q", "empty-t", "q0", "q30", "q2-then-q30"],
    )
    def test_rejected_at_once(self, tmp_path, block):
        payload = self.base_config()
        payload["qcirc"].update(block)
        cfg = write_config(tmp_path / "c.json", payload)
        start = time.perf_counter()
        assert run_cli(["qcirc", "--config", cfg, "--out", tmp_path]) == 2
        assert time.perf_counter() - start < 5.0
        assert not any(tmp_path.glob("*.csv"))

    def test_statevector_cap_counts_every_dimension(self, tmp_path):
        payload = self.base_config()
        payload["system"]["alpha"] = [ALPHA, 3**0.5]
        payload["kernel"]["d"] = 2
        payload["qcirc"].update(q=[10], x0=[1.0, 1.0], observable={"1,0": [1.0, 0.0]})
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli(["qcirc", "--config", cfg, "--out", tmp_path]) == 2
        assert not any(tmp_path.glob("*.csv"))


class TestDeterminism:
    def configs(self):
        return {
            "rotate": {"system": {"kind": "rotation", "alpha": [ALPHA], "x0": [0.1]},
                       "rotate": {"dt": 0.3, "n": 20}},
            "filter": {"seed": 11, "system": {"kind": "orbit", "M": 6, "x0": 1},
                       "qmda": {"L": 4, "steps": 10,
                                "observation": {"kind": "vonmises", "scale": 5.0},
                                "noise_std": 0.1}},
            "koopman": {"system": {"kind": "rotation", "alpha": [ALPHA]},
                        "kernel": {"tau": 0.2, "p": 0.5, "d": 1, "J": 8},
                        "koopman": {"t_grid": [0.5], "m_values": [1], "n_values": [1],
                                    "x0": [1.0], "n_samples": 500}},
            "qcirc": {"system": {"kind": "rotation", "alpha": [ALPHA]},
                      "kernel": {"tau": 0.2, "p": 0.5, "d": 1},
                      "qcirc": {"q": [2, 3], "t_grid": [1.0], "x0": [0.4]}},
        }

    @pytest.mark.parametrize("command", ["rotate", "filter", "koopman", "qcirc"])
    def test_byte_identical_reruns(self, tmp_path, command):
        cfg = write_config(tmp_path / "c.json", self.configs()[command])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli([command, "--config", cfg, "--out", out_a, "--seed", 5]) == 0
        assert run_cli([command, "--config", cfg, "--out", out_b, "--seed", 5]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("x0", [[float("nan")], [1.0, 2.0], ["abc"]],
                         ids=["nan", "dimension", "text"])
@pytest.mark.parametrize("command", ["rotate", "koopman", "qcirc"])
def test_bad_point_rejected(tmp_path, command, x0):
    block = "system" if command == "rotate" else command
    payload = {"system": {"kind": "rotation", "alpha": [ALPHA]}}
    payload.setdefault(block, {})["x0"] = x0
    cfg = write_config(tmp_path / "c.json", payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path]) == 2
    assert not any(tmp_path.glob("*.csv"))


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"system": {"kind": "rotation", "alpha": [ALPHA]},
                               "rotate": {"dt": 0.1, "n": 3}}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "qkoopman.cli", "rotate", "--config", str(cfg),
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "rotate.csv").exists()


def test_threads_flag_validated(tmp_path):
    # --threads and fock.modes never did anything and are now rejected outright
    cfg = write_config(tmp_path / "c.json", {"rotate": {"dt": 0.1, "n": 2}})
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["rotate", "--config", cfg, "--out", tmp_path, "--threads", 1])
    assert exit_info.value.code == 2
    cfg = write_config(tmp_path / "m.json", {"rotate": {"dt": 0.1, "n": 2}, "fock": {"modes": 4}})
    assert run_cli(["rotate", "--config", cfg, "--out", tmp_path]) == 2
    assert not (tmp_path / "rotate.csv").exists()


def test_import_loads_no_scipy():
    code = (
        "import sys, qkoopman.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs cli.main(argv[1] as JSON) in a fresh process, no run for an empty
# list, and prints its exit code, the qkoopman modules loaded, and whether
# hashlib, OpenSSL's _hashlib and fractions were loaded beyond what a bare
# `import numpy` loads: NumPy 1.x imports numpy.random eagerly, and with it
# secrets -> hmac -> hashlib, so there the baseline holds OpenSSL already.
FOOTPRINT = """
import json, sys
import numpy

STDLIB = ("hashlib", "_hashlib", "fractions")
baseline = {name for name in STDLIB if name in sys.modules}
from qkoopman import cli

args = json.loads(sys.argv[1])
code = cli.main(args) if args else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "qkoopman"),
                  [name in sys.modules and name not in baseline for name in STDLIB]]))
"""
SHARED = ["qkoopman", "qkoopman.cli", "qkoopman.dynamics", "qkoopman.errors"]
COMMAND_MODULES = {
    "rotate": [],
    "filter": ["qkoopman.qmda"],
    "koopman": ["qkoopman.fock", "qkoopman.rkha", "qkoopman.spectral"],
    "qcirc": ["qkoopman.qcirc", "qkoopman.rkha"],
}


def footprint(args):
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(args)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_only_the_shared_modules():
    _, modules, loaded = footprint([])
    assert modules == SHARED
    assert loaded == [False, False, False]


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(tmp_path, command):
    cfg = write_config(tmp_path / "c.json", TestDeterminism().configs()[command])
    code, modules, (_, openssl, fractions) = footprint(
        [command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert modules == sorted(SHARED + COMMAND_MODULES[command])
    # every config here is d = 1: the rational-dependence scan has no pair,
    # so fractions (and the decimal module it imports) stays unloaded
    assert not fractions
    # the config hash adds no OpenSSL; on NumPy 2 the filter's
    # np.random.default_rng loads numpy.random, and with it hashlib
    if command != "filter":
        assert not openssl


# Refuses every scipy import, as on an install without scipy, then runs the
# jobs given as JSON in argv[1] and prints their exit codes.
WITHOUT_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
from qkoopman import cli

print(json.dumps([cli.main(args) for args in json.loads(sys.argv[1])]))
"""


def test_commands_run_without_scipy(tmp_path):
    jobs = []
    for command, payload in TestDeterminism().configs().items():
        cfg = write_config(tmp_path / f"{command}.json", payload)
        jobs.append([command, "--config", cfg, "--out", str(tmp_path / command)])
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, json.dumps(jobs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [job[0] for job in jobs] == ["rotate", "filter", "koopman", "qcirc"]
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0, 0], proc.stderr
