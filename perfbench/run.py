#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload serve-restart --seed 1 --seconds 40 --trace 0

Run from the repository root. The program is imported from ``src/`` of
the same tree (the serving workloads start ``python -m repro serve``
from it); without it the benchmark exits 2. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The line before it carries
run details (request counts, fault counts, first problems found).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-restart", "fleet-solar")


def _program_path() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import repro

    return os.path.dirname(os.path.dirname(repro.__file__)) == src


def _host_steal_s() -> float:
    """Cumulative steal time of all CPUs (``/proc/stat``), seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("fleet-solar",),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _program_path():
        print(f"no program under {os.path.join(ROOT, 'src')}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.probe:
        import fleet_bench
        return fleet_bench.probe(args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work, exist_ok=True)
    steal_before = _host_steal_s()
    try:
        if args.workload == "fleet-solar":
            import fleet_bench
            result = fleet_bench.run(ROOT, args.seed, args.seconds,
                                     bool(args.trace), out_dir)
        else:
            import serve_bench
            result = serve_bench.run(ROOT, work, args.seed, args.seconds,
                                     bool(args.trace), out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = result.pop("detail")
    # CPU time the hypervisor gave to other guests during the run: the
    # one cause of run-to-run drift the guest can see.
    detail["host_steal_s"] = _host_steal_s() - steal_before
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
