"""Record the reference outputs of every workload at the default seed.

    python3 bench/record_reference.py

Run this only when a change to the program is meant to change its outputs,
and say so in the change: the benchmark fails any unit whose default-seed
outputs drift from these files beyond roundoff (qkbench.checks).
"""

from __future__ import annotations

import json

from qkbench import env, workloads


def main() -> None:
    env.require_program()
    env.pin_environment()
    from qkbench import library

    for workload in workloads.WORKLOADS:
        config = workloads.make_config(workload, workloads.DEFAULT_SEED)
        if workload == "library-inproc":
            outputs = library.run_pass(config["seed"])
        else:
            unit = workloads.run_cli_unit(workload, config, workloads.work_dir(workload), 0,
                                          env.run_deadline())
            if unit.problems:
                raise SystemExit(f"{workload}: {unit.problems}")
            outputs = unit.outputs
        problems = workloads.check_unit(workload, config, outputs, None)
        if problems:
            raise SystemExit(f"{workload}: {problems}")
        path = env.BENCH / "reference" / f"{workload}.json"
        path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main()
