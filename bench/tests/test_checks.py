import json
import shutil
import subprocess
import sys
import time

import run
from qkbench import checks, env, tracing, workloads


def _reference(workload):
    return workloads.load_reference(workload)


def test_reference_outputs_pass_their_own_checks():
    for workload in workloads.WORKLOADS:
        config = workloads.make_config(workload, workloads.DEFAULT_SEED)
        reference = _reference(workload)
        assert workloads.check_unit(workload, config, reference, reference) == []


def test_oracles_reject_nan_and_inconsistent_filter():
    config = workloads.make_config("filter-orbit", workloads.DEFAULT_SEED)
    text = _reference("filter-orbit")["filter.csv"]
    lines = text.splitlines()
    quantum = next(i for i, line in enumerate(lines) if ",quantum," in line)
    fields = lines[quantum].split(",")
    fields[3] = "1e-6"
    bad_consistency = "\n".join(lines[:quantum] + [",".join(fields)] + lines[quantum + 1:])
    assert checks.check_oracles("filter-orbit", config, {"filter.csv": bad_consistency})
    fields[3] = "nan"
    with_nan = "\n".join(lines[:quantum] + [",".join(fields)] + lines[quantum + 1:])
    assert checks.check_oracles("filter-orbit", config, {"filter.csv": with_nan})


def test_reference_tolerance_is_roundoff():
    ref = {"a.csv": "# h\nx,y\n1,0.5\n"}
    assert checks.check_reference({"a.csv": "# h\nx,y\n1,0.50000000000001\n"}, ref) == []
    assert checks.check_reference({"a.csv": "# h\nx,y\n1,0.5001\n"}, ref)
    assert checks.check_reference({"a.csv": "# h\nx,z\n1,0.5\n"}, ref)


def test_corrupted_reference_is_a_failed_unit(monkeypatch):
    reference = _reference("filter-orbit")
    lines = reference["filter.csv"].splitlines()
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-6))
    lines[5] = ",".join(fields)
    corrupted = {"filter.csv": "\n".join(lines) + "\n"}
    monkeypatch.setattr(workloads, "load_reference", lambda workload: corrupted)
    result = workloads.run_end_to_end("filter-orbit", 5, 0.0)
    assert result["attempted"] == workloads.MIN_UNITS
    # only unit 0 runs the default seed, so only it meets the reference
    assert result["failed"] == 1
    assert any("differs from reference" in p for p in result["problems"])


def test_benchmark_json_names_every_metric():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    names = [m["name"] for m in spec["per_layer"]]
    expected = ["cli.python_startup_s", "cli.import_s", "cli.import.modules", "cli.cpu_s",
                *tracing.SPAN_METRICS,
                "trace.untraced_wall_s", "trace.wall_s", "trace.overhead_s", "trace.spans"]
    assert names == expected
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_exits_2_without_the_program(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qcirc-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "correct" not in proc.stdout


def test_child_past_the_run_deadline_is_killed(tmp_path):
    start = time.perf_counter()
    child = env.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                          tmp_path / "out", tmp_path / "err", deadline=start + 0.5)
    assert child.returncode != 0
    assert time.perf_counter() - start < 10
