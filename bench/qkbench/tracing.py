"""The traced run: per-layer self times and counts, measured from outside.

The layers are the package's modules.  ``patched`` swaps every module
attribute bound to a public function of those modules (including the names
``cli`` and ``fock`` re-bind from other modules) for a timing wrapper, and
``TruncatedLattice.__init__`` for one more, then restores all of them, also
when the unit raises.  ``src/`` is never edited.  Each wrapped call records
one span (name, start, end, parent) in memory; the spans are written out
once the run ends.  Self time is a span's duration minus the time its
direct child spans cover.

The traced unit runs between two untraced ones in this process; its wall
time minus the faster untraced one is reported as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path

from . import env, workloads

LAYERS = ("cli", "dynamics", "rkha", "spectral", "qmda", "fock", "qcirc")
MODE_NAMES = {"classical": "classical", "quantum": "quantum", "quantum-projected": "projected"}


def _occupations(args, result):
    """Occupations kernel_section_fock_image enumerates: C(modes + m - 1, m)."""
    params = args["params"]
    modes = (2 * params.bandwidth + 1) ** args["sys"].d
    return math.comb(modes + params.m - 1, params.m)


# Spans of these functions get a suffix from their arguments, so one function
# reports per mode, per grading or per qubit count.
LABELS = {
    "qmda.run_filter": lambda a: MODE_NAMES[a["mode"]],
    "qmda.run_torus_filter": lambda a: MODE_NAMES[a["mode"]],
    "fock.second_quantization_forecast": lambda a: f"m{a['params'].m}",
    "qcirc.circuit_expectation": lambda a: f"q{a['enc'].q}",
}
# Work counts recorded on a span from its arguments and result.
COUNTS = {
    "qmda.run_filter": lambda a, r: a["steps"],
    "qmda.run_torus_filter": lambda a, r: a["steps"],
    "dynamics.sample_trajectory": lambda a, r: len(r),
    "fock.kernel_section_fock_image": _occupations,
    "cli.write_csv": lambda a, r: Path(a["path"]).stat().st_size,
}


def _self_s(key):
    return lambda agg: agg.get(key, {}).get("self", 0.0)


def _calls(key):
    return lambda agg: agg.get(key, {}).get("calls", 0)


def _count(key):
    return lambda agg: agg.get(key, {}).get("count", 0)


def _step_s(key):
    def metric(agg):
        entry = agg.get(key)
        return entry["total"] / entry["count"] if entry and entry["count"] else 0.0
    return metric


def _max_call_s(key):
    return lambda agg: agg.get(key, {}).get("max", 0.0)


def _layer_self_s(layer):
    return lambda agg: sum((e["self"] for k, e in agg.items() if k.split(".", 1)[0] == layer), 0.0)


# Per-layer metrics derived from the spans, in BENCHMARK.json order.  A
# layer a workload does not reach reads 0.
SPAN_METRICS = {
    "cli.load_config.s": _self_s("cli.load_config"),
    "cli.write_csv.s": _self_s("cli.write_csv"),
    "cli.csv_bytes": _count("cli.write_csv"),
    "dynamics.sample_trajectory.s": _self_s("dynamics.sample_trajectory"),
    "dynamics.sample_trajectory.rows": _count("dynamics.sample_trajectory"),
    "dynamics.koopman_exact.s": _self_s("dynamics.koopman_exact"),
    "dynamics.koopman_exact.calls": _calls("dynamics.koopman_exact"),
    "dynamics.bessel_ratios.s": _self_s("dynamics.bessel_ratios"),
    "dynamics.bessel_ratios.calls": _calls("dynamics.bessel_ratios"),
    "dynamics.bessel_ratios.max_call_s": _max_call_s("dynamics.bessel_ratios"),
    "rkha.TruncatedLattice.s": _self_s("rkha.TruncatedLattice"),
    "rkha.TruncatedLattice.calls": _calls("rkha.TruncatedLattice"),
    "rkha.subconvolutivity_constant.s": _self_s("rkha.subconvolutivity_constant"),
    "rkha.truncated_autoconvolution.s": _self_s("rkha.truncated_autoconvolution"),
    "rkha.kernel_gram.s": _self_s("rkha.kernel_gram"),
    "rkha.kernel_value.s": _self_s("rkha.kernel_value"),
    "rkha.kernel_value.calls": _calls("rkha.kernel_value"),
    "spectral.data_driven_generator.s": _self_s("spectral.data_driven_generator"),
    "spectral.analytic_generator.s": _self_s("spectral.analytic_generator"),
    "spectral.smoothing_identity_residual.s": _self_s("spectral.smoothing_identity_residual"),
    "qmda.run_filter.classical.step_s": _step_s("qmda.run_filter.classical"),
    "qmda.run_filter.quantum.step_s": _step_s("qmda.run_filter.quantum"),
    "qmda.run_filter.projected.step_s": _step_s("qmda.run_filter.projected"),
    "qmda.quantum_analysis.s": _self_s("qmda.quantum_analysis"),
    "qmda.quantum_analysis.calls": _calls("qmda.quantum_analysis"),
    "qmda.effect_sqrt.s": _self_s("qmda.effect_sqrt"),
    "qmda.effect_sqrt.calls": _calls("qmda.effect_sqrt"),
    "qmda.compress.s": _self_s("qmda.compress"),
    "qmda.compress.calls": _calls("qmda.compress"),
    "qmda.trace_norm.s": _self_s("qmda.trace_norm"),
    "qmda.trace_norm.calls": _calls("qmda.trace_norm"),
    "qmda.run_torus_filter.quantum.step_s": _step_s("qmda.run_torus_filter.quantum"),
    "qmda.run_torus_filter.projected.step_s": _step_s("qmda.run_torus_filter.projected"),
    "qmda.multiplication_operator_fourier.s": _self_s("qmda.multiplication_operator_fourier"),
    "fock.second_quantization_forecast.m1.s": _self_s("fock.second_quantization_forecast.m1"),
    "fock.second_quantization_forecast.m2.s": _self_s("fock.second_quantization_forecast.m2"),
    "fock.second_quantization_forecast.m3.s": _self_s("fock.second_quantization_forecast.m3"),
    "fock.kernel_section_fock_image.s": _self_s("fock.kernel_section_fock_image"),
    "fock.kernel_section_fock_image.occupations": _count("fock.kernel_section_fock_image"),
    "fock.evolve_lifted.s": _self_s("fock.evolve_lifted"),
    "fock.fock_inner.s": _self_s("fock.fock_inner"),
    "fock.tensor_network_expectation.s": _self_s("fock.tensor_network_expectation"),
    "fock.tensor_network_expectation.calls": _calls("fock.tensor_network_expectation"),
    "qcirc.circuit_expectation.q6.s": _self_s("qcirc.circuit_expectation.q6"),
    "qcirc.circuit_expectation.q7.s": _self_s("qcirc.circuit_expectation.q7"),
    "qcirc.circuit_expectation.q8.s": _self_s("qcirc.circuit_expectation.q8"),
    "qcirc.projected_observable.s": _self_s("qcirc.projected_observable"),
    "qcirc.projected_observable.calls": _calls("qcirc.projected_observable"),
    "qcirc.evolve_statevector.s": _self_s("qcirc.evolve_statevector"),
    "qcirc.walsh_coefficients.s": _self_s("qcirc.walsh_coefficients"),
    "qcirc.export_circuit.s": _self_s("qcirc.export_circuit"),
}
SPAN_METRICS.update({f"{layer}.self_s": _layer_self_s(layer) for layer in LAYERS})


class Tracer:
    """Spans in flat arrays: name, start, end, parent index, work count."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts = array("q")
        self._stack: list[int] = []

    def wrap(self, key: str, fn):
        label, count = LABELS.get(key), COUNTS.get(key)
        signature = inspect.signature(fn) if label or count else None
        names, starts, ends, parents, counts = (
            self.names, self.starts, self.ends, self.parents, self.counts)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            name = key
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if label is not None:
                    name = f"{key}.{label(bound.arguments)}"
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            counts.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                counts[index] = count(bound.arguments, result)
            return result

        return wrapper

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive total, self time, longest call, count."""
        n = len(self.names)
        covered = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                covered[self.parents[i]] += self.ends[i] - self.starts[i]
        agg: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = agg.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                          "max": 0.0, "count": 0})
            entry["calls"] += 1
            entry["total"] += duration
            entry["self"] += duration - covered[i]
            entry["max"] = max(entry["max"], duration)
            entry["count"] += self.counts[i]
        return agg

    def write(self, path: Path) -> None:
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        spans = [[index[self.names[i]], self.starts[i], self.ends[i], self.parents[i]]
                 for i in range(len(self.names))]
        path.write_text(json.dumps({"names": list(index), "fields": ["name", "start", "end", "parent"],
                                    "spans": spans}), encoding="utf-8")


def traced_functions() -> dict:
    """Every public function defined in a layer module, keyed 'layer.name'."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"qkoopman.{layer}")
        for name, value in vars(module).items():
            if inspect.isfunction(value) and not name.startswith("_") \
                    and value.__module__ == module.__name__:
                found[f"{layer}.{name}"] = value
    return found


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Swap in timing wrappers; restore every swapped attribute on exit."""
    wrappers = {id(fn): (fn, tracer.wrap(key, fn)) for key, fn in traced_functions().items()}
    modules = [module for name, module in list(sys.modules.items())
               if name == "qkoopman" or name.startswith("qkoopman.")]
    from qkoopman import rkha

    saved = []
    try:
        for module in modules:
            for name, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    saved.append((module, name, value))
                    setattr(module, name, pair[1])
        lattice = rkha.TruncatedLattice
        saved.append((lattice, "__init__", lattice.__init__))
        lattice.__init__ = tracer.wrap("rkha.TruncatedLattice", lattice.__init__)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def run_inprocess(workload: str, config: dict, work: Path) -> dict:
    """One unit in this process: ``cli.main(argv)`` or one library pass."""
    if workload == "library-inproc":
        from qkbench import library

        return library.run_pass(config["seed"])
    from qkoopman import cli

    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = work / "out"
    argv = [workloads.COMMANDS[workload], "--config", str(config_path), "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    return {name: (out_dir / name).read_text(encoding="utf-8")
            for name in workloads.OUTPUT_FILES[workload]}


def _timed_unit(workload, config, work, tracer=None):
    start = time.perf_counter()
    try:
        with patched(tracer) if tracer else contextlib.nullcontext():
            outputs, problems = run_inprocess(workload, config, work), []
    except Exception as err:  # a raising unit is a failed unit
        outputs, problems = {}, [f"{type(err).__name__}: {err}"]
    wall = time.perf_counter() - start
    return workloads.Unit(config["seed"], wall, math.nan, math.nan, outputs, problems)


def traced_run(workload: str, seed: int) -> dict:
    work = workloads.work_dir(workload)
    deadline = env.run_deadline()
    bare = [env.run_child([sys.executable, "-c", "pass"], work / "bare.out", work / "bare.err",
                          deadline).wall_s
            for _ in range(3)]
    probe = workloads.setup_probe(workloads.IMPORT_CLI, work, 0, deadline)

    config = workloads.make_config(workload, seed)
    units = []
    cpu_s = 0.0
    if workload in workloads.CLI_WORKLOADS:
        child_unit = workloads.run_cli_unit(workload, config, work, 0, deadline)
        cpu_s = child_unit.cpu_s
        units.append(child_unit)

    import qkoopman.cli  # noqa: F401  (every layer loaded before timing)

    env.check_imported_from_checkout(sys.modules["qkoopman"].__file__)
    # untraced units on both sides of the traced one; the faster of the two
    # sheds first-call warm-up and slow spells from the overhead estimate
    before = _timed_unit(workload, config, work)
    tracer = Tracer()
    traced = _timed_unit(workload, config, work, tracer)
    after = _timed_unit(workload, config, work)
    units += [before, traced, after]
    untraced_wall_s = min(before.wall_s, after.wall_s)

    reference = workloads.load_reference(workload) if seed == workloads.DEFAULT_SEED else None
    for unit in units:
        if not unit.problems:
            unit.problems += workloads.check_unit(workload, config, unit.outputs, reference)
    workloads.check_identity(units)
    tracer.write(env.OUT / f"spans-{workload}.json")
    shutil.rmtree(work, ignore_errors=True)

    agg = tracer.aggregate()
    metrics = {
        "cli.python_startup_s": statistics.median(bare),
        "cli.import_s": probe.import_s,
        "cli.import.modules": probe.modules,
        "cli.cpu_s": cpu_s,
    }
    metrics.update({name: fn(agg) for name, fn in SPAN_METRICS.items()})
    metrics.update({
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall_s,
        "trace.spans": len(tracer.names),
    })
    failed = [unit for unit in units if unit.problems]
    return {
        "workload": workload,
        "seed": seed,
        "attempted": len(units),
        "failed": len(failed),
        "problems": ([probe.problem] if probe.problem else [])
        + [p for unit in failed for p in unit.problems][:20],
        "layer_metrics": metrics,
        "setup_ok": probe.problem is None,
    }
