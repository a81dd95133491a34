"""Worker process of the library-inproc workload.

Imports the package once, then runs ``library.run_pass`` repeatedly: the
first pass with the default seed, the rest with the run's seed, while one
more pass still fits in the given seconds (at least three passes, so two
run-seed passes are always compared byte for byte).  Prints
one JSON line with the per-pass wall times and outputs; the parent checks
them.

    python -m qkbench.libworker --seed 3 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import time
import traceback

MIN_PASSES = 3


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    import qkoopman

    from qkbench import library, workloads

    units = []
    start = time.perf_counter()
    while len(units) < MIN_PASSES or workloads.fits(
            start, [u["wall_s"] for u in units], args.seconds):
        seed = workloads.DEFAULT_SEED if not units else args.seed
        t0 = time.perf_counter()
        try:
            outputs, error = library.run_pass(seed), None
        except Exception:  # a failing pass is a failed unit, not a dead worker
            outputs, error = None, traceback.format_exc(limit=3)
        units.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                      "outputs": outputs, "error": error})
    print(json.dumps({"module_file": qkoopman.__file__, "units": units}))


if __name__ == "__main__":
    main()
