#!/usr/bin/env python3
"""Steadiness evidence: two sets of runs per workload, compared.

    python3 perfbench/steady.py

Runs the command from ``BENCHMARK.json`` (from the repository root) once
per seed on every workload it names, in two sets of ten seeds (1-10 and
1001-1010). For every end-to-end metric, ``setup_s`` included, it prints
each set's median and quartiles, the spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles),
and the shift of the second set's median against the first's, next to
the metric's bound. It also prints each set's share of failed
operations, which must be identical. Raw results are written to
``.perfbench_out/steady.json``; the exit code is 0 only if every figure
holds its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def one_run(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=900)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}: {out.stderr.decode()[-2000:]}")
    lines = out.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    result["wall_s"] = wall
    return result


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(
        values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    record = {}
    verdict = 0
    for name in names:
        sets = []
        for s in range(SETS):
            runs = []
            for k in range(RUNS):
                seed = 1 + s * 1000 + k
                result = one_run(bench, name, seed)
                if not result["correct"]:
                    print(f"{name} seed {seed}: INCORRECT", flush=True)
                    verdict = 1
                runs.append(result)
                print(f"{name} set {s + 1} seed {seed}: wall "
                      f"{result['wall_s']:.1f}s steal "
                      f"{result['detail'].get('host_steal_s', 0):.1f}s "
                      + " ".join(
                          f"{m}={v['value']:.4g}"
                          for m, v in result["metrics"].items()),
                      flush=True)
            sets.append(runs)
        record[name] = sets
        print(f"\n== {name}")
        shares = [{r["failed"] / r["attempted"] for r in runs}
                  for runs in sets]
        print(f"failed share per set: {[sorted(s) for s in shares]}")
        if any(len(s) != 1 for s in shares) or len(
                set().union(*shares)) != 1:
            print("  FAILED SHARE DIFFERS")
            verdict = 1
        print(f"{'metric':16s} {'bound':>6s} " + " ".join(
            f"{'set' + str(s + 1) + ' median [q1, q3] spread':>42s}"
            for s in range(SETS)) + "   shift")
        for metric in metrics:
            mname = metric["name"]
            cols = []
            medians = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = describe(
                    [r["metrics"][mname]["value"] for r in runs])
                medians.append(med)
                flag = "" if spread <= metric["bound"] else " !"
                if flag:
                    verdict = 1
                cols.append(f"{med:12.5g} [{q1:.5g}, {q3:.5g}] "
                            f"{spread:6.3f}{flag:2s}")
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            shift = f"{worse:+.3f}" + (" !" if worse > metric["bound"]
                                       else "")
            if worse > metric["bound"]:
                verdict = 1
            print(f"{mname:16s} {metric['bound']:6.2f} " + " ".join(cols)
                  + f"   {shift}")
        print(flush=True)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("verdict:", "steady" if verdict == 0 else "NOT steady")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
