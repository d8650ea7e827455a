"""The fleet-solar workload: ``run_fleet_raw`` in-process, no socket.

Each operation is one whole ``run_fleet_raw`` call over the seeded
fleet; the timed phase repeats it until the run's seconds are spent.
Set-up (interpreter start, imports, spec build and a 16-device warm-up
run) is timed in fresh child interpreters, :data:`SETUP_REPEATS` times.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time

import checks
import gen
from daemon import peak_rss_mb
from layers import from_spans
from serve_bench import percentile
from tracing import Recorder, instrument

SETUP_REPEATS = 5
#: Fleet devices re-walked on the reference stepper per run.
REFERENCE_DEVICES = 3


def build(seed: int, devices: int = 0):
    """``(spec, run kwargs)`` for the seed; ``devices`` overrides size."""
    from repro.env.spec import EnvSpec
    from repro.fleet import FleetSpec

    recipe = gen.fleet_recipe(seed)
    fields = dict(recipe["spec"])
    if devices:
        fields["devices"] = devices
    return FleetSpec(env=EnvSpec(**recipe["env"]), **fields), recipe["run"]


def prepare(seed: int):
    """Everything before the first timed call: imports, the spec, and a
    small warm-up run that settles lazy imports and caches."""
    from repro.fleet import run_fleet_raw

    small, run_kwargs = build(seed, devices=16)
    run_fleet_raw(small, **dict(run_kwargs, cycles=1))
    return build(seed)


def probe(seed: int) -> int:
    """Child-process set-up: prepare, announce readiness, exit."""
    prepare(seed)
    print("ready", flush=True)
    return 0


def _timed_setup(root: str, seed: int) -> float:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--probe", "fleet-solar", "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("fleet set-up probe failed")
    return elapsed


def _same(a, b) -> bool:
    import numpy as np

    return all(np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
               for f in ("outcome_codes", "tasks_committed", "v_min",
                         "final_time", "energy", "brown_time"))


def run(root: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> dict:
    import numpy as np

    from repro.apps.programs import build_program
    from repro.fleet import run_fleet_raw
    from repro.segalg.backends import backend

    setups = [] if trace else [_timed_setup(root, seed)
                               for _ in range(SETUP_REPEATS)]
    spec, run_kwargs = prepare(seed)
    durations = []
    first = None
    problems = []
    t_start = time.perf_counter()
    while not durations or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        outcomes = run_fleet_raw(spec, **run_kwargs)
        durations.append(time.perf_counter() - t0)
        if first is None:
            first = outcomes
        elif not _same(first, outcomes):
            problems.append("a repeated run_fleet_raw gave other outcomes")
    elapsed = time.perf_counter() - t_start
    rss = peak_rss_mb(os.getpid())

    program = build_program(run_kwargs["app"], cycles=run_kwargs["cycles"])
    problems += checks.fleet_summary_problems(first, len(program.tasks),
                                              spec.v_off)
    params = spec.parameters()
    picks = random.Random(f"fleet/{seed}").sample(range(spec.devices),
                                                  REFERENCE_DEVICES)
    for i in sorted(picks):
        problems += checks.fleet_device_problems(first, params, i, program)

    median_s = statistics.median(durations)
    device_seconds = spec.devices * run_kwargs["horizon"]
    detail = {"calls": len(durations), "durations_s": durations,
              "elapsed_s": elapsed,
              "engine": first.engine, "segalg_backend": backend(),
              "setup_runs_s": setups,
              "reference_devices": sorted(picks), "problems": problems[:5],
              "outcomes": np.bincount(first.outcome_codes,
                                      minlength=4).tolist()}
    if not trace:
        lat = sorted(d * 1e3 for d in durations)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            # Calls per second at the median call: the mean would let
            # one call slowed by the host move the figure.
            "qps": (1.0 / median_s, "1/s"),
            "p50_ms": (percentile(lat, 50), "ms"),
            "p99_ms": (percentile(lat, 99), "ms"),
            "device_s_per_s": (device_seconds / median_s, "device-s/s"),
            "peak_rss_mb": (rss, "MiB"),
        }
    else:
        # Untraced and traced calls alternate twice; the fastest of each
        # kind is the least disturbed by the host, so the overhead
        # compares those two.
        plain_runs, traced_runs = [], []
        for _ in range(2):
            t0 = time.perf_counter()
            run_fleet_raw(spec, **run_kwargs)
            plain_runs.append(time.perf_counter() - t0)
            rec = Recorder()
            with instrument(rec):
                t0 = time.perf_counter()
                traced = rec.wrap("fleet.run", run_fleet_raw)(spec,
                                                              **run_kwargs)
                traced_runs.append(time.perf_counter() - t0)
            if not _same(first, traced):
                problems.append("the traced run_fleet_raw gave other "
                                "outcomes")
        traced_s = traced_runs[-1]
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"fleet-solar-seed{seed}.spans.jsonl"))
        metrics = from_spans(rec.summary())
        metrics["fleet.device_steps"] = (float(traced.device_steps), "count")
        metrics["fleet.device_steps_per_s"] = (traced.device_steps / traced_s,
                                               "1/s")
        fastest = min(plain_runs)
        metrics["bench.trace_overhead_pct"] = (
            (min(traced_runs) - fastest) / fastest * 100.0, "%")
    return {"correct": not problems, "attempted": len(durations),
            "failed": 0, "metrics": metrics, "detail": detail}
