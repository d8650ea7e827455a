"""A real ``repro serve`` subprocess and a closed-loop pipelined client.

The client is one thread multiplexing at most two loopback TCP
connections. Each connection keeps a fixed number of requests in flight:
a response frees a slot and the next request goes out at once (closed
loop), so the daemon, not the client, sets the pace when the window is
deep enough. Responses are kept as raw lines and parsed after the timed
phase, which keeps the client's per-request work to a ``find``, an
``int`` and two list writes.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

#: Ceiling on how long a daemon may take to announce its port.
START_TIMEOUT_S = 60.0


def _id_of(line: bytes) -> Optional[int]:
    """The integer ``id`` of a canonical response line (None for null)."""
    k = line.find(b'"id":')
    if k < 0:
        return None
    j = k + 5
    end = j
    n = len(line)
    while end < n and line[end] not in b",}":
        end += 1
    token = line[j:end]
    if token == b"null" or token[:1] == b'"':
        return None
    return int(token)


class Daemon:
    """One ``python -m repro serve`` child on an ephemeral loopback port."""

    def __init__(self, root: str, workdir: str, cache: Optional[str] = None,
                 tag: str = "daemon") -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if cache is not None:
            cmd += ["--cache", cache]
        self._log = open(os.path.join(workdir, f"{tag}.log"), "wb")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        self.port = self._read_port()

    def _read_port(self) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=0.5):
                    if self.proc.poll() is not None:
                        break
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                text = line.decode("utf-8", "replace").strip()
                if text.startswith("serving on "):
                    return int(text.rsplit(":", 1)[1])
        finally:
            sel.close()
        self.kill()
        raise RuntimeError("repro serve did not announce a port")

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=120.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM), MiB."""
        return peak_rss_mb(self.proc.pid)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop through the protocol, then wait for exit."""
        if self.proc.poll() is None:
            try:
                with self.connect() as sock:
                    call(sock, {"op": "shutdown", "id": "bye"})
            except OSError:
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def call(sock: socket.socket, obj: dict) -> dict:
    """One blocking request/response (set-up and ``stats`` only)."""
    sock.sendall(json.dumps(obj).encode("utf-8") + b"\n")
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        buf += chunk
    return json.loads(buf)


class LoopResult:
    """Per-request send/receive times and raw response lines, by id."""

    def __init__(self) -> None:
        self.sent: List[float] = []
        self.recv: List[float] = []
        self.lines: List[Optional[bytes]] = []
        self.elapsed = 0.0

    @property
    def count(self) -> int:
        return len(self.sent)


def closed_loop(socks: List[socket.socket],
                line_for: Callable[[int], Tuple[bytes, bool]],
                window: int, *, seconds: Optional[float] = None,
                count: Optional[int] = None,
                round_len: int = 1) -> LoopResult:
    """Drive ``socks`` with ``window`` requests in flight on each.

    ``line_for(i)`` gives request ``i``'s body (everything after
    ``{"id":i,``) and whether it is a malformed request, whose refusal
    may come back without an id (matched to the oldest outstanding
    malformed request of its connection). With ``seconds`` the loop
    stops issuing once the time is up *and* a whole number of rounds of
    ``round_len`` requests has been sent; with ``count`` it sends
    exactly that many.
    """
    res = LoopResult()
    sel = selectors.DefaultSelector()
    bufs: Dict[int, bytes] = {}
    inflight: Dict[int, int] = {}
    bad_pending: Dict[int, deque] = {}
    for sock in socks:
        sock.setblocking(True)
        fd = sock.fileno()
        bufs[fd] = b""
        inflight[fd] = 0
        bad_pending[fd] = deque()
        sel.register(sock, selectors.EVENT_READ)
    sent, recv, lines = res.sent, res.recv, res.lines
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    state = {"next": 0, "outstanding": 0}

    def may_issue(now: float) -> bool:
        nxt = state["next"]
        if count is not None:
            return nxt < count
        return now < deadline or nxt % round_len != 0

    def refill(sock: socket.socket) -> None:
        fd = sock.fileno()
        now = time.perf_counter()
        chunks = []
        while inflight[fd] < window and may_issue(now):
            i = state["next"]
            state["next"] = i + 1
            payload, bad = line_for(i)
            chunks.append(b'{"id":%d,' % i + payload + b"\n")
            if bad:
                bad_pending[fd].append(i)
            inflight[fd] += 1
        if chunks:
            state["outstanding"] += len(chunks)
            now = time.perf_counter()
            sent.extend([now] * len(chunks))
            recv.extend([0.0] * len(chunks))
            lines.extend([None] * len(chunks))
            sock.sendall(b"".join(chunks))

    for sock in socks:
        refill(sock)
    try:
        while state["outstanding"]:
            for key, _ in sel.select(timeout=120.0) or ():
                sock = key.fileobj
                fd = key.fd
                data = sock.recv(1 << 18)
                if not data:
                    raise ConnectionError("daemon closed the connection")
                parts = (bufs[fd] + data).split(b"\n")
                bufs[fd] = parts.pop()
                now = time.perf_counter()
                for line in parts:
                    rid = _id_of(line)
                    pending_bad = bad_pending[fd]
                    if rid is None:
                        rid = pending_bad.popleft()
                    elif pending_bad and rid in pending_bad:
                        pending_bad.remove(rid)
                    recv[rid] = now
                    lines[rid] = line
                inflight[fd] -= len(parts)
                state["outstanding"] -= len(parts)
                refill(sock)
            if time.perf_counter() - start > (seconds or 0) + 150.0:
                raise TimeoutError("closed loop did not drain")
    finally:
        sel.close()
    res.elapsed = time.perf_counter() - start
    return res
