"""Whole-tick benchmark entry point.

    python3 perfbench/run.py --workload hotspot-adaptive --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``). ``--trace 0`` prints every end-to-end metric, ``--trace 1``
every per-layer metric; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. Exits 2,
printing no result, when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where on-disk stores get their per-repeat directories (git-ignored).
TMP_ROOT = ROOT / ".bench_tmp"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import HostProbe

    # The probe's objects are built before the program is imported and
    # frozen out of the cyclic GC, so the program's collections never
    # traverse them.
    probe = HostProbe()
    gc.freeze()
    from perfbench.harness import END_TO_END, PER_LAYER, run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    try:
        result = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), str(TMP_ROOT), probe
        )
    finally:
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    print(
        f"workload {workload.name}: {result['windows_per_repeat']} windows/repeat, "
        f"{result['attempted']} attempted, {result['failed']} failed, "
        f"fingerprints {result['fingerprints']}"
    )
    for name, unit in PER_LAYER if args.trace else END_TO_END:
        if name in result["metrics"]:
            print(f"  {name:36s} {result['metrics'][name]['value']:14.4f} {unit}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
