"""The serve-restart workload: a real daemon over loopback TCP.

A heterogeneous fleet queries a daemon that has just restarted on a warm
``--cache`` journal. Set-up is repeated :attr:`ServeRestart.setups` times
and ``setup_s`` is the median; the daemon of the last repeat serves the
timed phase.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import checks
import gen
from daemon import Daemon, call, closed_loop
from layers import from_spans
from tracing import Recorder, instrument

#: Cap on how many timed-phase requests the in-process replay re-serves.
REPLAY_CAP = 12000


def _ensure_ok(result, what: str) -> None:
    bad = [line for line in result.lines if b'"ok":true' not in line]
    if bad:
        raise RuntimeError(f"{what} failed: {bad[0][:200]!r}")


class ServeRestart:
    """Zipf admits over 200 plants x 9 app tasks after a restart on a
    warm journal, with never-seen keys, duty-cycled simulates, reports
    and the four malformed admits in every round."""

    setups = 3
    window = 16
    round_len = gen.RESTART_ROUND

    def __init__(self, seed: int) -> None:
        self.stream = gen.RestartStream(seed)
        self.fill = [gen.body(t) for t in gen.restart_fill(seed)]
        self._bodies: Dict[int, List[bytes]] = {}
        self.warm_journal = None

    def setup(self, root: str, work: str, k: int, keep: bool) -> Daemon:
        journal = os.path.join(work, f"journal-{k}.ndjson")
        first = Daemon(root, work, cache=journal, tag=f"fill-{k}")
        try:
            with first.connect() as sock:
                fill = self.fill
                _ensure_ok(closed_loop([sock], lambda i: (fill[i], False),
                                       16, count=len(fill)), "journal fill")
        finally:
            first.shutdown()
        if keep:
            self.warm_journal = journal + ".warm"
            shutil.copyfile(journal, self.warm_journal)
        return Daemon(root, work, cache=journal, tag=f"restart-{k}")

    def template(self, i: int) -> dict:
        return self.stream.round(i // self.round_len)[i % self.round_len]

    def line_for(self, i: int) -> Tuple[bytes, bool]:
        r, pos = divmod(i, self.round_len)
        bodies = self._bodies.get(r)
        if bodies is None:
            self._bodies.pop(r - 2, None)
            bodies = self._bodies[r] = [gen.body(t)
                                        for t in self.stream.round(r)]
        return bodies[pos], self.stream.round(r)[pos]["_kind"] == "bad"


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1,
                   int(-(-q * len(sorted_values) // 100)) - 1))
    return sorted_values[k]


# -- in-process replay (the traced run's serving path) ---------------------

def _serve_chunk(engine, chunk: List[bytes], rec: Optional[Recorder],
                 batch_no: int) -> None:
    """One daemon batch through the same calls the daemon makes."""
    from repro.serve import protocol

    reqs = []
    for n, line in enumerate(chunk):
        if rec is not None:
            rec.rid = f"b{batch_no}.{n}"
        try:
            reqs.append(protocol.parse_request(protocol.decode_line(line)))
        except protocol.ProtocolError as exc:
            protocol.encode_line(protocol.error_response(None, exc.code,
                                                         str(exc)))
    if rec is not None:
        rec.rid = f"b{batch_no}"
    responses = engine.handle_batch(reqs)
    for resp in responses:
        if rec is not None:
            rec.rid = resp.get("id")
        protocol.encode_line(resp)


def replay(wl, lines: List[bytes], work: str, tag: str,
           rec: Optional[Recorder]) -> float:
    """Serve ``lines`` in-process on an engine built as the daemon builds
    it, on a fresh copy of the warm journal; returns the seconds the
    lines took."""
    from repro import obs
    from repro.serve.cache import PersistentVsafeCache
    from repro.serve.engine import AdmissionEngine
    from repro.serve.server import ServeConfig
    from repro.serve.sessions import SessionStore

    config = ServeConfig()
    path = os.path.join(work, f"replay-{tag}.ndjson")
    shutil.copyfile(wl.warm_journal, path)
    engine = AdmissionEngine(cache=PersistentVsafeCache(path),
                             sessions=SessionStore(config.max_sessions))
    size = config.max_batch
    obs.enable()          # the daemon always runs instrumented
    try:
        with instrument(rec) if rec is not None else nullcontext():
            t0 = time.perf_counter()
            for b in range(0, len(lines), size):
                _serve_chunk(engine, lines[b:b + size], rec, b // size)
            elapsed = time.perf_counter() - t0
    finally:
        obs.disable()
        engine.cache.close()
    return elapsed


# -- the workload run ------------------------------------------------------

def run(root: str, work: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> dict:
    wl = ServeRestart(seed)
    repeats = 1 if trace else wl.setups
    setups = []
    daemon = None
    try:
        for k in range(repeats):
            if daemon is not None:
                daemon.shutdown()
                daemon = None
            t0 = time.perf_counter()
            daemon = wl.setup(root, work, k, keep=trace)
            setups.append(time.perf_counter() - t0)
        socks = [daemon.connect() for _ in range(2)]
        try:
            before = call(socks[0], {"op": "stats", "id": "s0"})
            loop = closed_loop(socks, wl.line_for, wl.window,
                               seconds=seconds, round_len=wl.round_len)
            after = call(socks[0], {"op": "stats", "id": "s1"})
        finally:
            for sock in socks:
                sock.close()
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.shutdown()

    templates = [wl.template(i) for i in range(loop.count)]
    chk = checks.check_stream(templates, loop.lines)
    checks.physics_samples(chk, seed)
    lat = sorted((r - s) * 1e3 for s, r in zip(loop.sent, loop.recv))
    # Simulated device-seconds per second of each answered simulate's
    # latency.
    sim_rates = []
    for i, template in enumerate(templates):
        if template["_kind"] == "sim" and loop.lines[i] is not None:
            resp = json.loads(loop.lines[i])
            if resp.get("ok") is True:
                sim_rates.append(resp["time"]
                                 / (loop.recv[i] - loop.sent[i]))
    detail = {
        "requests": loop.count, "simulates": len(sim_rates),
        "elapsed_s": loop.elapsed, "setup_runs_s": setups,
        "faults": chk.faults, "problems": chk.problems[:5],
        "admit_keys_checked": len(chk.admit_keys),
    }
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "qps": (loop.count / loop.elapsed, "1/s"),
            "p50_ms": (percentile(lat, 50), "ms"),
            "p99_ms": (percentile(lat, 99), "ms"),
            "device_s_per_s": (statistics.median(sim_rates), "device-s/s"),
            "peak_rss_mb": (rss, "MiB"),
        }
    else:
        metrics = layer_metrics(wl, loop, before, after, work, out_dir,
                                f"serve-restart-seed{seed}")
    return {"correct": chk.correct, "attempted": chk.attempted,
            "failed": chk.failed, "metrics": metrics, "detail": detail}


def _delta(before: dict, after: dict, *path: str) -> float:
    a, b = after, before
    for key in path:
        a, b = a.get(key, 0), b.get(key, 0)
    return a - b


def layer_metrics(wl, loop, before: dict, after: dict, work: str,
                  out_dir: str, tag: str) -> dict:
    """Per-layer metrics: daemon ``stats`` deltas over the timed phase,
    then an untraced and a traced in-process replay of the same stream."""
    n = min(loop.count, REPLAY_CAP)
    lines = [b'{"id":%d,' % i + wl.line_for(i)[0] + b"\n" for i in range(n)]
    # Untraced and traced replays alternate twice; the fastest of each
    # kind is the least disturbed by the host, so the overhead compares
    # those two.
    plain, traced = [], []
    for k in range(2):
        plain.append(replay(wl, lines, work, f"plain{k}", None))
        rec = Recorder()
        traced.append(replay(wl, lines, work, f"traced{k}", rec))
    plain_s, traced_s = min(plain), min(traced)
    os.makedirs(out_dir, exist_ok=True)
    rec.write(os.path.join(out_dir, f"{tag}.spans.jsonl"))
    metrics = from_spans(rec.summary(), requests=n)
    batches = _delta(before, after, "batches")
    calls = _delta(before, after, "engine", "kernel_calls")
    metrics.update({
        "serve.inproc_qps": (n / plain_s, "1/s"),
        "serve.batch_size": (loop.count / batches if batches else 0.0,
                             "count"),
        "serve.coalesced": (_delta(before, after, "engine", "coalesced"),
                            "count"),
        "serve.shed": (_delta(before, after, "shed"), "count"),
        "serve.deadline_expired": (_delta(before, after, "deadline_expired"),
                                   "count"),
        "serve.cache.journal_records": (
            after["engine"]["cache"].get("journal_records", 0), "count"),
        "serve.kernel.lanes_per_call": (
            _delta(before, after, "engine", "kernel_lanes") / calls
            if calls else 0.0, "count"),
        "bench.trace_overhead_pct": ((traced_s - plain_s) / plain_s * 100.0,
                                     "%"),
    })
    return metrics
