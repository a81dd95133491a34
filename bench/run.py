"""qkoopman benchmark: end-to-end timings per workload, or per-layer traces.

    python3 bench/run.py --workload filter-orbit --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the last line of stdout is a JSON
object whose metrics are setup_s, wall_s and peak_rss_mb; with ``--trace 1``
they are the per-layer metrics of ``qkbench.tracing``.  Every run also
writes a result file with the environment record under ``bench/out/``.
Exits 2, printing no result, when the checkout holds no ``src/qkoopman``.
See NOTES.md for why each workload exists and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from qkbench import env, workloads

COUNT_SUFFIXES = (".calls", ".rows", ".occupations", ".modules", ".spans")


def layer_unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name == "cli.csv_bytes":
        return "bytes"
    return "s"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        from qkbench import tracing

        result = tracing.traced_run(workload, seed)
        result["metrics"] = {name: {"value": value, "unit": layer_unit(name)}
                             for name, value in result.pop("layer_metrics").items()}
    else:
        result = workloads.run_end_to_end(workload, seed, seconds)
    result["environment"] = env.environment_record()
    result["seconds"] = seconds
    result["trace"] = int(trace)
    env.OUT.mkdir(parents=True, exist_ok=True)
    path = env.OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def print_table(results) -> None:
    print(f"{'workload':<18} {'setup_s':>16} {'wall_s':>16} {'peak_rss_mb':>18} {'fail_ratio':>16}")
    for r in results:
        cells = []
        for name in ("setup_s", "wall_s", "peak_rss_mb"):
            metric = r["metrics"][name]
            cells.append(f"{metric['value']:.4f} {metric['unit']} n={len(r['samples'][name])}")
        ratio = f"{r['fail_ratio']:.3f} ({r['failed']}/{r['attempted']})"
        print(f"{r['workload']:<18} {cells[0]:>16} {cells[1]:>16} {cells[2]:>18} {ratio:>16}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env.require_program()
        env.pin_environment()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        started = time.perf_counter()
        results = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except env.MissingProgram as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    for r in results:
        for problem in r["problems"]:
            print(f"{r['workload']}: FAILED {problem}", file=sys.stderr)
    if args.trace:
        for r in results:
            for name, metric in r["metrics"].items():
                print(f"{r['workload']:<18} {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    else:
        print_table(results)
    print(f"# {time.perf_counter() - started:.1f} s total", file=sys.stderr)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["failed"] == 0 and r["setup_ok"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
