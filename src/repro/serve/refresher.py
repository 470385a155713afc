"""The background refresher: editor mutations never run on the request
path.

Edits are submitted as callables and queue up for a single daemon
thread, which applies them through
:meth:`~repro.serve.core.ServeCore.apply_edit` -- the delta-driven
selective re-render plus an atomic generation publish.  Each submission
returns an :class:`EditTicket` the caller can wait on; the ticket
records the end-to-end *propagation latency* (submit to publish), which
is the number the refresh-under-load benchmark reports.

Failure semantics come from the resilience layer: a failing edit trips
a :class:`~repro.resilience.retry.CircuitBreaker`; while it is open,
further edits are rejected outright instead of hammering a broken
pipeline, and the previous generation keeps serving as last-known-good
(see :meth:`ServeCore.recover`).  The thread itself never dies on an
edit failure -- and if it is killed outright (the chaos scenario), the
published generation simply keeps serving.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

from ..resilience.retry import CircuitBreaker
from .core import Edit, ServeCore

_STOP = object()


class EditTicket:
    """A handle on one submitted edit."""

    def __init__(self) -> None:
        self.submitted_at = time.perf_counter()
        self.done = threading.Event()
        self.applied = False
        self.error: Optional[str] = None
        #: submit-to-publish latency in seconds (None if not applied)
        self.propagation_s: Optional[float] = None
        self.info: Dict[str, object] = {}

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.done.wait(timeout)


class Refresher(threading.Thread):
    """One daemon thread consuming the edit queue."""

    def __init__(
        self,
        core: ServeCore,
        breaker_threshold: int = 3,
        breaker_reset: float = 5.0,
    ) -> None:
        super().__init__(name="repro-serve-refresher", daemon=True)
        self.core = core
        self.queue: "queue.Queue[object]" = queue.Queue()
        self.breaker = CircuitBreaker(
            "serve.refresher",
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset,
        )
        self.edits_applied = 0
        self.edits_failed = 0
        self.edits_rejected = 0
        self._stats_lock = threading.Lock()
        self._propagation_s: Deque[float] = deque(maxlen=1024)

    # ------------------------------------------------------------ #

    def submit(self, edit: Edit) -> EditTicket:
        ticket = EditTicket()
        self.queue.put((edit, ticket))
        return ticket

    def run(self) -> None:
        while True:
            item = self.queue.get()
            if item is _STOP:
                return
            edit, ticket = item  # type: ignore[misc]
            if not self.breaker.allow():
                with self._stats_lock:
                    self.edits_rejected += 1
                ticket.error = "rejected: refresher circuit breaker open"
                ticket.done.set()
                continue
            try:
                ticket.info = self.core.apply_edit(edit)
            except Exception as error:  # never kill the thread on an edit
                self.breaker.record_failure()
                with self._stats_lock:
                    self.edits_failed += 1
                ticket.error = f"{type(error).__name__}: {error}"
                try:
                    self.core.recover()
                except Exception:  # pragma: no cover - recovery best effort
                    pass
            else:
                self.breaker.record_success()
                ticket.applied = True
                ticket.propagation_s = time.perf_counter() - ticket.submitted_at
                with self._stats_lock:
                    self.edits_applied += 1
                    self._propagation_s.append(ticket.propagation_s)
            ticket.done.set()

    def stop(self, timeout: Optional[float] = 10.0) -> bool:
        """Signal and join; True when the thread exited in time (an
        unclean refresher is folded into ``SiteServer.stop``'s verdict
        and from there into ``repro serve``'s exit status)."""
        self.queue.put(_STOP)
        if self.is_alive():
            self.join(timeout)
        return not self.is_alive()

    # ------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        with self._stats_lock:
            latencies = sorted(self._propagation_s)
            applied = self.edits_applied
            failed = self.edits_failed
            rejected = self.edits_rejected
        summary: Dict[str, object] = {
            "edits_applied": applied,
            "edits_failed": failed,
            "edits_rejected": rejected,
            "queue_depth": self.queue.qsize(),
            "breaker_state": self.breaker.state.value,
        }
        if latencies:
            summary["propagation_ms"] = {
                "mean": round(sum(latencies) / len(latencies) * 1000.0, 4),
                "p95": round(
                    latencies[min(len(latencies) - 1, int(len(latencies) * 0.95))]
                    * 1000.0,
                    4,
                ),
                "max": round(latencies[-1] * 1000.0, 4),
            }
        return summary
