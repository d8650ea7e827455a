"""Span tracing from outside the program: wrappers around public entry
points, installed for the traced run only and removed after it.

A span records ``(name, start, end, parent, request id, info)``. Spans
are kept in memory and written once, at the end, as JSON lines. A span's
self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int], object, object]


class Recorder:
    """In-memory span store with a parent stack (single thread)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: Request id stamped on spans opened while it is set.
        self.rid: object = None

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``info(args, kwargs,
        result)`` adds a per-call detail (lane count, hit/miss, plant)."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                detail = info(args, kwargs, result) if info else None
                spans[sid] = (name, t0, t1, parent, self.rid, detail)

        return traced

    # -- analysis -------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span index -> self time (duration minus covered child time)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s is not None and s[3] is not None:
                children.setdefault(s[3], []).append((s[1], s[2]))
        out = {}
        for sid, s in enumerate(self.spans):
            if s is None:
                continue
            covered = 0.0
            end = s[1]
            for a, b in sorted(children.get(sid, ())):
                a = max(a, end)
                if b > a:
                    covered += b - a
                    end = b
            out[sid] = (s[2] - s[1]) - covered
        return out

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, total and self seconds, and the details."""
        selfs = self.self_times()
        out: Dict[str, dict] = {}
        for sid, s in enumerate(self.spans):
            if s is None:
                continue
            row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "info": []})
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += selfs[sid]
            if s[5] is not None:
                row["info"].append(s[5])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                if s is None:
                    continue
                fh.write(json.dumps({
                    "span": sid, "name": s[0], "start": s[1], "end": s[2],
                    "parent": s[3], "request": s[4],
                    "info": s[5] if isinstance(s[5], (int, float, str))
                    else None,
                }) + "\n")


# -- the program's layer boundaries ---------------------------------------

def _lanes(args, kwargs, result):
    active = kwargs.get("active")
    if active is None and len(args) > 4:
        active = args[4]
    if active is not None:
        return int(active.sum())
    return int(args[0].v_term.shape[0])


def _hit(args, kwargs, result):
    return result is not None


def _plant(args, kwargs, result):
    return repr(args[0].config_key())


def _targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, info) for every wrapped entry."""
    from repro.env import correlate
    from repro.fleet import runner, spec
    from repro.power.system import PowerSystem
    from repro.sched import estimators, gating
    from repro.segalg import vector
    from repro.serve import engine, protocol
    from repro.serve.cache import PersistentVsafeCache

    out = [
        (protocol, "decode_line", "serve.protocol.decode", None),
        (protocol, "parse_request", "serve.protocol.parse", None),
        (protocol, "encode_line", "serve.protocol.encode", None),
        (engine.AdmissionEngine, "handle_batch", "serve.engine", None),
        (PersistentVsafeCache, "get", "serve.cache.get", _hit),
        (PersistentVsafeCache, "put", "serve.cache.put", None),
        (PowerSystem, "characterize", "power.characterize", _plant),
        (gating, "program_gates", "sched.program_gates", None),
        (engine, "advance_batch", "fleet.advance_batch", None),
        (engine, "base_grid", "env.base_grid", None),
        (correlate, "base_grid", "env.base_grid", None),
        (spec, "base_grid", "env.base_grid", None),
        (spec, "fleet_columns", "env.fleet_columns", None),
        (spec.FleetSpec, "parameters", "fleet.parameters", None),
        (runner, "advance", "fleet.kernel", _lanes),
        (vector, "advance_fleet", "segalg.advance_fleet", None),
    ]
    for name in dir(estimators):
        cls = getattr(estimators, name)
        if isinstance(cls, type) and "estimate" in vars(cls) \
                and cls.__module__ == estimators.__name__ \
                and not getattr(cls, "_is_protocol", False):
            out.append((cls, "estimate", "sched.estimate", None))
    return out


@contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Install the wrappers for the duration of the block."""
    from repro.fleet import runner

    saved = []
    for owner, attr, name, info in _targets():
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, info))
    # The runner's segalg step is the fleet kernel *and* a segalg call.
    original = runner._segalg_advance
    saved.append((runner, "_segalg_advance", original))
    runner._segalg_advance = rec.wrap(
        "fleet.kernel", rec.wrap("segalg.advance_fleet", original), _lanes)
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
