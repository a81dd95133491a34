"""The four workloads: inputs from a seed, and the end-to-end timed run.

A CLI unit is one ``python -m qkoopman.cli`` process, timed from spawn to
exit with its outputs written.  A library unit is one pass of
``library.run_pass`` inside a worker process that imported the package
once.  Within a run, unit 0 always uses DEFAULT_SEED and is compared with
the outputs recorded in ``bench/reference``; the rest use the run's seed and
must be byte-identical to each other.  Sizes never depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import checks, env

DEFAULT_SEED = 0
CLI_WORKLOADS = ("filter-orbit", "koopman-forecast", "qcirc-sweep")
WORKLOADS = CLI_WORKLOADS + ("library-inproc",)
COMMANDS = {"filter-orbit": "filter", "koopman-forecast": "koopman", "qcirc-sweep": "qcirc"}
OUTPUT_FILES = {
    "filter-orbit": ("filter.csv",),
    "koopman-forecast": ("koopman.csv", "eigenfrequencies.csv"),
    "qcirc-sweep": ("qcirc.csv", "circuit.txt"),
}
ALPHA = math.sqrt(2.0)
ORBIT_M = 128

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
# Units past the reference unit: two, so byte identity is always tested.
MIN_UNITS = 3

IMPORT_CLI = (
    "import sys, time; t = time.perf_counter(); import qkoopman.cli; "
    "print(qkoopman.cli.__file__, time.perf_counter() - t, len(sys.modules))"
)
LIBRARY_MODULES = "qkoopman.dynamics, qkoopman.rkha, qkoopman.qmda, qkoopman.fock, qkoopman.spectral"
IMPORT_LIBRARY = (
    "import sys, time; t = time.perf_counter(); import " + LIBRARY_MODULES + "; "
    "print(qkoopman.__file__, time.perf_counter() - t, len(sys.modules))"
)


def make_config(workload: str, seed: int) -> dict:
    """Inputs of one unit.  The seed picks the initial point and noise seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "filter-orbit":
        return {
            "seed": seed,
            "system": {"kind": "orbit", "M": ORBIT_M, "x0": rng.randrange(ORBIT_M)},
            "qmda": {"L": 64, "steps": 60, "seed": rng.randrange(2**31)},
        }
    if workload == "koopman-forecast":
        return {
            "seed": seed,
            "system": {"kind": "rotation", "alpha": [ALPHA]},
            "kernel": {"d": 1, "J": 16},
            "koopman": {
                "t_grid": [0.5, 1.0, 2.0],
                "m_values": [1, 2, 3],
                "n_values": [1, 2, 3],
                "x0": [rng.uniform(0.0, 2.0 * math.pi)],
                "n_samples": 20000,
            },
        }
    if workload == "qcirc-sweep":
        return {
            "seed": seed,
            "system": {"kind": "rotation", "alpha": [ALPHA]},
            "kernel": {"d": 1},
            "qcirc": {
                "q": [2, 3, 4, 5, 6, 7, 8],
                "t_grid": [0.0, 2.0],
                "x0": [rng.uniform(0.0, 2.0 * math.pi)],
            },
        }
    if workload == "library-inproc":
        return {"seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def load_reference(workload: str) -> dict:
    path = env.BENCH / "reference" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def fits(start: float, walls: list[float], seconds: float, owed: float = 0.0) -> bool:
    """Whether one more unit of the mean length so far, and ``owed`` seconds
    of other work still to come, end within the run."""
    return time.perf_counter() - start + statistics.mean(walls) + owed <= seconds


@dataclass
class Unit:
    seed: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    outputs: dict
    problems: list[str]


def check_unit(workload: str, config: dict, outputs: dict, reference: dict | None) -> list[str]:
    problems = checks.check_oracles(workload, config, outputs)
    if reference is not None:
        problems += checks.check_reference(outputs, reference)
    return problems


def check_identity(units: list[Unit]) -> None:
    """Criterion 15: equal inputs give byte-identical outputs within a run."""
    first = {}
    for unit in units:
        if not unit.outputs:
            continue
        blob = json.dumps(unit.outputs, sort_keys=True)
        if first.setdefault(unit.seed, blob) != blob:
            unit.problems.append(f"outputs differ from the first unit with seed {unit.seed}")


def work_dir(workload: str) -> Path:
    path = env.OUT / "work" / workload
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Probe(NamedTuple):
    spawn_s: float  # spawn to exit
    import_s: float  # measured inside the child
    modules: int  # len(sys.modules) after the import
    problem: str | None


def setup_probe(code: str, work: Path, index: int, deadline: float) -> Probe:
    """Fresh interpreter that imports the program and exits."""
    child = env.run_child([sys.executable, "-c", code], work / f"probe{index}.out",
                          work / f"probe{index}.err", deadline)
    text = (work / f"probe{index}.out").read_text(encoding="utf-8").split()
    if child.returncode != 0 or len(text) != 3:
        return Probe(child.wall_s, math.nan, 0, f"import probe exited {child.returncode}")
    env.check_imported_from_checkout(text[0])
    return Probe(child.wall_s, float(text[1]), int(text[2]), None)


def run_cli_unit(workload: str, config: dict, work: Path, index: int, deadline: float) -> Unit:
    unit_dir = work / f"unit{index}"
    unit_dir.mkdir()
    config_path = unit_dir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = unit_dir / "out"
    argv = [sys.executable, "-m", "qkoopman.cli", COMMANDS[workload],
            "--config", str(config_path), "--out", str(out_dir)]
    child = env.run_child(argv, unit_dir / "stdout", unit_dir / "stderr", deadline)
    outputs, problems = {}, []
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}")
    else:
        try:
            outputs = {name: (out_dir / name).read_text(encoding="utf-8")
                       for name in OUTPUT_FILES[workload]}
        except OSError as err:
            problems.append(f"missing output: {err}")
    shutil.rmtree(unit_dir)
    return Unit(config["seed"], child.wall_s, child.peak_rss_mb, child.cpu_s, outputs, problems)


def _probes_owed(setup: list[Probe], extra: int = 0) -> float:
    """Expected seconds of the set-up probes still to run, plus ``extra`` more."""
    return (SETUP_REPEATS - len(setup) + extra) * statistics.mean(p.spawn_s for p in setup)


def _run_cli(workload: str, seed: int, seconds: float, work: Path, deadline: float):
    # Set-up probes go before the first units rather than in one block, so a
    # slow spell at the start of a run does not set the whole set-up median.
    # The run's seconds cover the probes as well as the units.
    setup, units = [], []
    start = time.perf_counter()
    for index in itertools.count():
        if index >= MIN_UNITS and not fits(start, [u.wall_s for u in units], seconds,
                                           _probes_owed(setup)):
            break
        if index < SETUP_REPEATS:
            setup.append(setup_probe(IMPORT_CLI, work, index, deadline))
        unit_seed = DEFAULT_SEED if index == 0 else seed
        units.append(run_cli_unit(workload, make_config(workload, unit_seed), work, index, deadline))
    setup += [setup_probe(IMPORT_CLI, work, i, deadline) for i in range(len(setup), SETUP_REPEATS)]
    return setup, units


def _run_library(seed: int, seconds: float, work: Path, deadline: float):
    # probes on both sides of the worker, for the reason given in _run_cli
    start = time.perf_counter()
    before = SETUP_REPEATS // 2
    setup = [setup_probe(IMPORT_LIBRARY, work, i, deadline) for i in range(before)]
    # The worker's clock starts after its own import, which costs about one
    # probe; that and the probes after it come out of the run's seconds.
    budget = seconds - (time.perf_counter() - start) - _probes_owed(setup, extra=1)
    argv = [sys.executable, "-m", "qkbench.libworker", "--seed", str(seed),
            "--seconds", str(budget)]
    child = env.run_child(argv, work / "worker.out", work / "worker.err", deadline)
    setup += [setup_probe(IMPORT_LIBRARY, work, i, deadline)
              for i in range(before, SETUP_REPEATS)]
    if child.returncode != 0:
        failed = Unit(seed, child.wall_s, child.peak_rss_mb, child.cpu_s, {},
                      [f"library worker exited {child.returncode}"])
        return setup, [failed]
    report = json.loads((work / "worker.out").read_text(encoding="utf-8").splitlines()[-1])
    env.check_imported_from_checkout(report["module_file"])
    units = [
        Unit(u["seed"], u["wall_s"], child.peak_rss_mb, math.nan, u["outputs"] or {},
             [u["error"]] if u["error"] else [])
        for u in report["units"]
    ]
    return setup, units


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    work = work_dir(workload)
    deadline = env.run_deadline()
    if workload == "library-inproc":
        setup, units = _run_library(seed, seconds, work, deadline)
        # in-process import time is what a library user waits for
        setup_times = [probe.import_s for probe in setup]
    else:
        setup, units = _run_cli(workload, seed, seconds, work, deadline)
        setup_times = [probe.spawn_s for probe in setup]
    reference = load_reference(workload)
    for unit in units:
        if not unit.problems:
            config = make_config(workload, unit.seed)
            ref = reference if unit.seed == DEFAULT_SEED else None
            unit.problems += check_unit(workload, config, unit.outputs, ref)
    check_identity(units)
    setup_problems = [probe.problem for probe in setup if probe.problem]
    shutil.rmtree(work, ignore_errors=True)

    failed = [unit for unit in units if unit.problems]
    return {
        "workload": workload,
        "seed": seed,
        "attempted": len(units),
        "failed": len(failed),
        "problems": setup_problems + [p for unit in failed for p in unit.problems][:20],
        "samples": {
            "setup_s": setup_times,
            "wall_s": [unit.wall_s for unit in units],
            "peak_rss_mb": [unit.peak_rss_mb for unit in units],
        },
        "metrics": {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(u.wall_s for u in units), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(u.peak_rss_mb for u in units), "unit": "MiB"},
        },
        "fail_ratio": len(failed) / len(units),
        "setup_ok": not setup_problems,
    }
