"""Where the program lives, how children are started, and what ran where.

The benchmark builds nothing: it runs the package from ``<root>/src`` of the
checkout it sits in, and refuses to run when that tree is missing, so that an
installed copy elsewhere is never measured by mistake.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"

# One BLAS thread on every side of every comparison: the units are
# single-process by design, and a thread count that follows the host's core
# count would make two machines (or two loads of one machine) incomparable.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every child still running this long after its run started is killed and its
# unit counted as failed, so a hung child cannot keep a run past 180 s.
RUN_LIMIT_S = 150.0


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/qkoopman`` to measure."""


def require_program() -> None:
    if not (SRC / "qkoopman" / "cli.py").is_file():
        raise MissingProgram(f"no qkoopman package under {SRC}")


def pin_environment() -> None:
    """Fix BLAS threads and the import path for this process and its children."""
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    paths = [str(SRC), str(BENCH)]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    # a fixed string-hash seed removes one per-process source of timing variance
    os.environ["PYTHONHASHSEED"] = "0"
    for path in reversed(paths):
        if path not in sys.path:
            sys.path.insert(0, path)


def check_imported_from_checkout(module_file: str) -> None:
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise MissingProgram(f"qkoopman was imported from {module_file}, not {SRC}")


class ChildResult:
    """Exit code, wall time from spawn to exit, and the child's own rusage."""

    def __init__(self, returncode: int, wall_s: float, rusage):
        self.returncode = returncode
        self.wall_s = wall_s
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0  # Linux reports KiB
        self.cpu_s = rusage.ru_utime + rusage.ru_stime


def run_deadline() -> float:
    """The ``time.perf_counter()`` at which a run that starts now kills its children."""
    return time.perf_counter() + RUN_LIMIT_S


def run_child(argv, stdout_path: Path, stderr_path: Path, deadline: float) -> ChildResult:
    """Run one child from the checkout root and time it from spawn to exit.

    ``os.wait4`` returns the rusage of exactly this child, so its peak RSS
    and CPU time are not mixed with any other process.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, rusage)


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def environment_record() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
    }
