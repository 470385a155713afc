"""Open-loop HTTP load: a seeded Poisson schedule on one ``selectors`` loop.

Requests are sent when they are *due*, whatever the server is doing, over
at most two keep-alive connections (no pipelining: a connection carries
one request at a time).  When every connection is busy, a due request
waits in the client; its latency is still measured from its due time, so
a server stall shows up in every request queued behind it (no
coordinated omission).  The generator's own lateness is recorded apart:
``lag`` is the send time minus the moment the request could first have
gone out (its due time, or when a connection came free if that was
later).  A rate is only trustworthy if that lag stays small.

The client parses nothing but the status line and the ``Content-Length``
and ``Connection`` headers.  The loop uses ``select(2)`` because its
timeout has microsecond resolution; epoll rounds up to milliseconds,
which is longer than the mean gap at 2000 requests per second.
"""

from __future__ import annotations

import bisect
import random
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

#: a request with no complete response after this long counts as failed
RESPONSE_TIMEOUT_S = 10.0
#: keep-alive connections the generator drives (the machine has 2 cores)
CONNECTIONS = 2
#: how far a paced arrival may move from its slot, in intervals
JITTER = 0.25
#: exponent of the Zipf popularity of paths and edit targets
ZIPF_EXPONENT = 1.1


def poisson_schedule(rate: float, duration: float, rng: random.Random) -> List[float]:
    """Due offsets (seconds from start) of a Poisson arrival process."""
    offsets: List[float] = []
    now = rng.expovariate(rate)
    while now < duration:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


def paced_schedule(rate: float, duration: float, rng: random.Random) -> List[float]:
    """Due offsets one interval apart, each moved by up to ``JITTER``
    intervals: an open loop without Poisson bursts, so that at moderate
    load an operation only waits when the system itself has slowed.  The
    number of offsets depends on ``rate`` and ``duration`` alone."""
    interval = 1.0 / rate
    offsets: List[float] = []
    slot = 0
    while (slot + 0.5 + JITTER) * interval < duration:
        offsets.append((slot + 0.5 + rng.uniform(-JITTER, JITTER)) * interval)
        slot += 1
    return offsets


def zipf_sampler(count: int, rng: random.Random) -> Callable[[], int]:
    """A function drawing ranks 0..count-1 with Zipf(ZIPF_EXPONENT) weights."""
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, count + 1):
        total += rank ** -ZIPF_EXPONENT
        cumulative.append(total)

    def draw() -> int:
        return min(bisect.bisect_left(cumulative, rng.random() * total), count - 1)

    return draw


def encode_get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("ascii")


@dataclass
class Result:
    """One scheduled request, filled in as it runs (times are
    ``time.perf_counter`` readings)."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    #: HTTP status, or 0 when the connection failed under the request
    status: int = 0
    length: int = 0

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class RunStats:
    results: List[Result]
    #: per request: send time minus when it could first have been sent
    lags: List[float] = field(default_factory=list)
    reconnects: int = 0
    #: requests still unsent when the last one fell due
    backlog_end: int = 0
    bytes_received: int = 0


class _Conn:
    """One keep-alive connection and the response it is reading."""

    __slots__ = ("sock", "buffer", "index", "free_since", "header_end",
                 "length", "close", "status")

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.index = -1
        self.free_since = now
        self.header_end = -1
        self.length = 0
        self.close = False
        self.status = 0

    def response_complete(self) -> bool:
        """Parse the head once it has arrived; True when the body has too."""
        buffer = self.buffer
        if self.header_end < 0:
            end = buffer.find(b"\r\n\r\n")
            if end < 0:
                return False
            lines = bytes(buffer[:end]).decode("latin-1").split("\r\n")
            self.status = int(lines[0].split(" ", 2)[1])
            self.header_end = end + 4
            self.length = 0
            self.close = False
            for line in lines[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    self.length = int(value)
                elif name == "connection":
                    self.close = value.strip().lower() == "close"
        return len(buffer) >= self.header_end + self.length


def _connect(address: Tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=RESPONSE_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def run_open_loop(
    address: Tuple[str, int],
    offsets: Sequence[float],
    requests: Sequence[bytes],
) -> RunStats:
    """Send ``requests[i]`` at ``offsets[i]`` seconds after the start, over
    ``CONNECTIONS`` connections, and collect one :class:`Result` per request.

    The sockets are blocking; the selector only reports readiness, so a
    ``recv`` returns what has already arrived without waiting.
    """
    start = time.perf_counter()
    results = [Result(due=start + offset) for offset in offsets]
    stats = RunStats(results=results)
    selector = selectors.SelectSelector()
    idle: List[_Conn] = [_Conn(_connect(address), start) for _ in range(CONNECTIONS)]
    busy: List[_Conn] = []
    total = len(results)
    last_due = results[-1].due if results else start
    backlog_counted = False
    next_index = 0

    def finish(conn: _Conn, status: int) -> None:
        now = time.perf_counter()
        result = results[conn.index]
        result.done = now
        result.status = status
        if status:
            result.length = conn.length
        selector.unregister(conn.sock)
        busy.remove(conn)
        if conn.close or not status:
            conn.sock.close()
            conn.sock = _connect(address)
            stats.reconnects += 1
        conn.buffer.clear()
        conn.header_end = -1
        conn.close = False
        conn.index = -1
        conn.free_since = time.perf_counter()
        idle.append(conn)

    try:
        while next_index < total or busy:
            now = time.perf_counter()
            # round-robin over idle connections keeps both warm, so the
            # server's idle timeout never closes one under us
            while next_index < total and idle and results[next_index].due <= now:
                conn = idle.pop(0)
                result = results[next_index]
                conn.index = next_index
                next_index += 1
                result.sent = time.perf_counter()
                stats.lags.append(result.sent - max(result.due, conn.free_since))
                busy.append(conn)
                selector.register(conn.sock, selectors.EVENT_READ, conn)
                try:
                    conn.sock.sendall(requests[conn.index])
                except OSError:
                    finish(conn, 0)
            if not backlog_counted and now >= last_due:
                stats.backlog_end = total - next_index
                backlog_counted = True
            now = time.perf_counter()
            for conn in list(busy):
                if now - results[conn.index].sent > RESPONSE_TIMEOUT_S:
                    finish(conn, 0)
            waits = [results[c.index].sent + RESPONSE_TIMEOUT_S - now for c in busy]
            if next_index < total and idle:
                waits.append(results[next_index].due - now)
            if not waits:
                continue
            for key, _ in selector.select(max(0.0, min(waits))):
                conn = key.data
                try:
                    chunk = conn.sock.recv(262144)
                except OSError:
                    chunk = b""
                if not chunk:
                    finish(conn, 0)
                    continue
                stats.bytes_received += len(chunk)
                conn.buffer += chunk
                if not conn.response_complete():
                    continue
                finish(conn, conn.status)
    finally:
        for conn in idle + busy:
            conn.sock.close()
        selector.close()
    return stats
