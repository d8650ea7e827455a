"""Per-layer metrics: names, units, and their computation from spans.

Every workload's traced run reports every metric; a layer the workload
does not touch reads 0. ``*.ms`` and ``*.us`` per-call figures are the
inclusive time of the wrapped call, except ``serve.engine.self_us``,
which is ``handle_batch``'s self time (its cache-tier, characterisation,
estimator and batch-kernel children subtracted).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "serve.protocol.decode_us": "us",
    "serve.protocol.parse_us": "us",
    "serve.protocol.encode_us": "us",
    "serve.engine.self_us": "us",
    "serve.inproc_qps": "1/s",
    "serve.batch_size": "count",
    "serve.coalesced": "count",
    "serve.shed": "count",
    "serve.deadline_expired": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.journal_records": "count",
    "serve.cache.get_us": "us",
    "serve.cache.put_us": "us",
    "power.characterize.calls": "count",
    "power.characterize.ms": "ms",
    "power.characterize.per_plant": "ratio",
    "sched.estimate.calls": "count",
    "sched.estimate.us": "us",
    "sched.program_gates.ms": "ms",
    "fleet.advance_batch.calls": "count",
    "fleet.advance_batch.ms": "ms",
    "serve.kernel.lanes_per_call": "count",
    "fleet.parameters.ms": "ms",
    "fleet.kernel.calls": "count",
    "fleet.kernel.ms": "ms",
    "fleet.kernel.lanes_per_call": "count",
    "fleet.device_steps": "count",
    "fleet.device_steps_per_s": "1/s",
    "env.fleet_columns.ms": "ms",
    "env.base_grid.ms": "ms",
    "segalg.advance_fleet.calls": "count",
    "segalg.advance_fleet.ms": "ms",
    "bench.trace_overhead_pct": "%",
}


def from_spans(summary: Dict[str, dict],
               requests: int = 0) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric derivable from a span summary (0 where the
    layer did no work); the caller adds the rest."""

    def row(name: str) -> dict:
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "info": []})

    def per_request_us(name: str, field: str = "total_s") -> float:
        return row(name)[field] / requests * 1e6 if requests else 0.0

    def per_call_us(name: str) -> float:
        r = row(name)
        return r["total_s"] / r["calls"] * 1e6 if r["calls"] else 0.0

    def total_ms(name: str) -> float:
        return row(name)["total_s"] * 1e3

    def mean_info(name: str) -> float:
        info = row(name)["info"]
        return sum(info) / len(info) if info else 0.0

    plants = row("power.characterize")["info"]
    values = {
        "serve.protocol.decode_us": per_request_us("serve.protocol.decode"),
        "serve.protocol.parse_us": per_request_us("serve.protocol.parse"),
        "serve.protocol.encode_us": per_request_us("serve.protocol.encode"),
        "serve.engine.self_us": per_request_us("serve.engine", "self_s"),
        "serve.cache.hit_ratio": mean_info("serve.cache.get"),
        "serve.cache.get_us": per_call_us("serve.cache.get"),
        "serve.cache.put_us": per_call_us("serve.cache.put"),
        "power.characterize.calls": row("power.characterize")["calls"],
        "power.characterize.ms": total_ms("power.characterize"),
        "power.characterize.per_plant": (len(plants) / len(set(plants))
                                         if plants else 0.0),
        "sched.estimate.calls": row("sched.estimate")["calls"],
        "sched.estimate.us": per_call_us("sched.estimate"),
        "sched.program_gates.ms": total_ms("sched.program_gates"),
        "fleet.advance_batch.calls": row("fleet.advance_batch")["calls"],
        "fleet.advance_batch.ms": total_ms("fleet.advance_batch"),
        "fleet.parameters.ms": total_ms("fleet.parameters"),
        "fleet.kernel.calls": row("fleet.kernel")["calls"],
        "fleet.kernel.ms": total_ms("fleet.kernel"),
        "fleet.kernel.lanes_per_call": mean_info("fleet.kernel"),
        "env.fleet_columns.ms": total_ms("env.fleet_columns"),
        "env.base_grid.ms": total_ms("env.base_grid"),
        "segalg.advance_fleet.calls": row("segalg.advance_fleet")["calls"],
        "segalg.advance_fleet.ms": total_ms("segalg.advance_fleet"),
    }
    out = {name: (0.0, unit) for name, unit in PER_LAYER.items()}
    for name, value in values.items():
        out[name] = (float(value), PER_LAYER[name])
    return out
