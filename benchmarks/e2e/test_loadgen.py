"""Unit tests of the open-loop load generator.

    python3 -m pytest benchmarks/e2e/test_loadgen.py -q
"""

import random
import socketserver
import threading
import time

import loadgen


def test_same_seed_gives_the_same_schedule():
    first = loadgen.poisson_schedule(500.0, 2.0, random.Random(7))
    second = loadgen.poisson_schedule(500.0, 2.0, random.Random(7))
    other = loadgen.poisson_schedule(500.0, 2.0, random.Random(8))
    assert first == second
    assert first != other
    assert all(0.0 < offset < 2.0 for offset in first)
    assert first == sorted(first)
    # about rate x duration arrivals
    assert 800 < len(first) < 1200


def test_zipf_draws_repeat_per_seed_and_favour_low_ranks():
    draw = loadgen.zipf_sampler(100, random.Random(3))
    again = loadgen.zipf_sampler(100, random.Random(3))
    ranks = [draw() for _ in range(5000)]
    assert ranks == [again() for _ in range(5000)]
    assert all(0 <= rank < 100 for rank in ranks)
    assert ranks.count(0) > ranks.count(1) > ranks.count(50)


class _StallingServer(socketserver.ThreadingTCPServer):
    """Answers every GET with ``ok``; the ``stall_at``-th request holds a
    lock every connection needs for ``stall_s``, so the whole server
    stalls once."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, stall_at: int, stall_s: float) -> None:
        super().__init__(("127.0.0.1", 0), _StallingHandler)
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.served = 0
        self.lock = threading.Lock()


class _StallingHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        buffer = b""
        while True:
            while b"\r\n\r\n" not in buffer:
                chunk = self.request.recv(4096)
                if not chunk:
                    return
                buffer += chunk
            _, buffer = buffer.split(b"\r\n\r\n", 1)
            with self.server.lock:
                self.server.served += 1
                if self.server.served == self.server.stall_at:
                    time.sleep(self.server.stall_s)
            self.request.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")


def test_a_stall_shows_in_later_latencies_but_not_in_the_lag():
    server = _StallingServer(stall_at=100, stall_s=0.2)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        offsets = loadgen.poisson_schedule(400.0, 1.0, random.Random(1))
        requests = [loadgen.encode_get("/") for _ in offsets]
        stats = loadgen.run_open_loop(server.server_address, offsets, requests)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    results = stats.results
    assert all(r.status == 200 and r.length == 2 for r in results)
    stall_end = max(r.done for r in results if r.latency > 0.15)
    # about 80 requests fell due during the stall; each waited for it,
    # and its latency, timed from its due time, says so
    behind = [r for r in results if stall_end - 0.2 < r.due < stall_end - 0.05]
    assert len(behind) > 20
    assert all(r.latency > 0.04 for r in behind)
    # the generator itself was never late: the wait was the server's
    assert max(stats.lags) < 0.05
    assert sorted(stats.lags)[int(0.99 * len(stats.lags))] < 0.005
