"""The serving engine: worker slots, generation publishing, refresh.

:class:`ServeCore` is the piece between the HTTP layer and the page
machinery.  It owns

* the **backend**: either a warm
  :class:`~repro.core.regen.RegeneratingSite` (static mode, the
  default) whose complete page set becomes each generation, or -- in
  dynamic mode -- nothing but the data graph, with pages rendered at
  click time by per-worker :class:`~repro.core.server.PageServer`
  engines and cached into the current generation;
* one **worker slot** per pool thread, holding that worker's warm
  engine and its private metrics (no cross-thread counter races by
  construction -- counters are merged only at ``stats()`` time);
* the **swap lock** (:class:`~repro.serve.locks.RWLock`): mutations and
  generation publishes happen under the write side, dynamic-mode cache
  misses render under the read side, and cache hits touch no lock at
  all;
* the **last-known-good contract**: a failed refresh never unpublishes
  anything -- the previous generation keeps serving, marked stale, and
  the next successful refresh heals through a full rebuild.

``apply_edit`` is meant to be called from exactly one thread (the
:class:`~repro.serve.refresher.Refresher`); request threads only ever
call ``handle``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.regen import RegeneratingSite
from ..core.schema import SiteSchema
from ..core.server import PageServer, _deadline_page
from ..errors import DeadlineExceeded
from ..graph import Graph
from ..resilience.chaos import maybe_fail
from ..resilience.deadline import current_deadline
from ..resilience.report import record_slow_query
from ..struql.ast import Program, Query
from ..struql.parser import parse
from ..template import TemplateSet
from .cache import Generation, GenerationCache, PageEntry
from .locks import RWLock

#: An editor mutation: receives the backend's mutation surface -- the
#: RegeneratingSite in static mode, the raw data Graph in dynamic mode.
Edit = Callable[[object], object]


@dataclass
class WorkerMetrics:
    """Per-worker request counters (owned by one thread, merged on
    read -- see the thread-safety notes in docs/API.md)."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dynamic_renders: int = 0
    not_found: int = 0
    degraded: int = 0
    deadline_exceeded: int = 0

    def merge(self, other: "WorkerMetrics") -> None:
        for spec in fields(self):
            setattr(
                self, spec.name, getattr(self, spec.name) + getattr(other, spec.name)
            )


class _WorkerSlot:
    """One pool worker's warm state: engine + private metrics.

    The ``inflight_*`` fields are the watchdog's window into the
    worker: the owning thread writes them (path + monotonic start +
    deadline) on request entry and clears the path on exit; the
    watchdog thread only reads.  Torn reads are harmless -- the
    watchdog re-checks on its next scan.
    """

    __slots__ = ("engine", "metrics", "inflight_path", "inflight_since", "inflight_deadline")

    def __init__(self) -> None:
        self.engine: Optional[PageServer] = None
        self.metrics = WorkerMetrics()
        self.inflight_path: Optional[str] = None
        self.inflight_since: float = 0.0
        self.inflight_deadline = None


def _not_found_entry(path: str) -> PageEntry:
    from ..core.server import _not_found_page

    return PageEntry(404, _not_found_page(path).encode("utf-8"), "not-found")


class ServeCore:
    """Everything the HTTP tier needs, minus the sockets."""

    def __init__(
        self,
        program: Union[Program, Query, str],
        data_graph: Graph,
        templates: TemplateSet,
        roots: Optional[Sequence[str]] = None,
        dynamic: bool = False,
        site_name: str = "site",
    ) -> None:
        if isinstance(program, str):
            program = parse(program)
        if isinstance(program, Query):
            program = Program(queries=[program])
        self.program = program
        self.data_graph = data_graph
        self.templates = templates
        self.dynamic_mode = dynamic
        self.site_name = site_name
        self.roots = list(roots) if roots else [
            f"{function}()"
            for function in SiteSchema.from_program(program).root_functions()
        ]
        self.swap_lock = RWLock()
        self.cache = GenerationCache()
        self._gen_counter = 0
        self._slots: Dict[int, _WorkerSlot] = {}
        self._slots_lock = threading.Lock()
        #: (checked_at, verdict) of the last db integrity probe
        self._integrity_cache: Optional[tuple] = None
        #: a failed refresh poisons the warm backend; heal via rebuild
        self._needs_rebuild = False
        self.refreshes_applied = 0
        self.refreshes_failed = 0
        self.rebuilds = 0
        self.regen: Optional[RegeneratingSite] = None
        if not self.dynamic_mode:
            self.regen = RegeneratingSite(
                program,
                data_graph,
                templates,
                self.roots,
                site_name=site_name,
            )
            self.cache.publish(self._generation_from_regen("build"))
        else:
            self.cache.publish(
                Generation(
                    self._next_gen_id(),
                    data_graph.epoch,
                    complete=False,
                    origin="build",
                )
            )

    # ------------------------------------------------------------ #
    # request path (worker threads)

    def handle(self, path: str, worker_id: int = 0):
        """Serve one path; returns ``(PageEntry, Generation)``.

        Static mode is lock-free: one generation read, one dict lookup.
        Dynamic mode renders misses under the read lock so a render can
        never interleave with a mutation.  A render cancelled by the
        request deadline becomes a structured 504 entry (never cached,
        never a traceback) and a slow-query report.
        """
        slot = self._slot(worker_id)
        slot.metrics.requests += 1
        path = path.split("?", 1)[0] or "/"
        if not self.dynamic_mode:
            generation = self.cache.current()
            entry = generation.lookup(path)
            if entry is None:
                slot.metrics.not_found += 1
                return _not_found_entry(path), generation
            slot.metrics.cache_hits += 1
            if generation.stale:
                slot.metrics.degraded += 1
            return entry, generation
        slot.inflight_since = time.monotonic()
        slot.inflight_deadline = current_deadline()
        slot.inflight_path = path
        try:
            with self.swap_lock.read_locked():
                # re-read under the lock: a publish cannot now intervene, so
                # the generation and the graph state agree for this render
                generation = self.cache.current()
                entry = generation.lookup(path)
                if entry is not None:
                    slot.metrics.cache_hits += 1
                    return entry, generation
                slot.metrics.cache_misses += 1
                try:
                    # engine warm-up runs the site's root queries, so it
                    # must be inside the deadline guard too: a worker's
                    # first request on an adversarial site can blow the
                    # budget before the render even starts
                    engine = self._engine(slot)
                    engine.refresh()
                    response = engine.get_response(path)
                except DeadlineExceeded as error:
                    return self._deadline_entry(slot, path, error), generation
                entry = PageEntry(
                    response.status, response.body.encode("utf-8"), response.kind
                )
                slot.metrics.dynamic_renders += 1
                if response.kind != "ok":
                    if response.kind != "not-found":
                        slot.metrics.degraded += 1
                    else:
                        slot.metrics.not_found += 1
                if entry.status == 200 and entry.kind == "ok":
                    if self.cache.current() is generation:
                        generation.fill(path, entry)
                return entry, generation
        finally:
            slot.inflight_path = None

    def _deadline_entry(
        self, slot: "_WorkerSlot", path: str, error: DeadlineExceeded
    ) -> PageEntry:
        """Map a cancelled render to a 504 entry + a slow-query report."""
        slot.metrics.deadline_exceeded += 1
        operator_stats = None
        engine = slot.engine
        if engine is not None:
            ops = getattr(engine.dynamic._engine, "last_operator_stats", None)
            if ops:
                operator_stats = [
                    {
                        "condition": op.condition,
                        "rows_in": op.rows_in,
                        "rows_out": op.rows_out,
                    }
                    for op in ops
                ]
        record_slow_query(
            path,
            error.elapsed,
            error.budget,
            site=error.site,
            operator_stats=operator_stats,
            kind="deadline",
        )
        return PageEntry(
            504, _deadline_page(path, error).encode("utf-8"), "deadline"
        )

    def known_paths(self) -> List[str]:
        """The paths the current generation can serve from cache (in
        dynamic mode this grows as pages are discovered)."""
        paths = self.cache.current().paths()
        if self.dynamic_mode and not paths:
            # cold dynamic cache: expose the root paths so traffic has
            # somewhere to start
            with self._slots_lock:
                for slot in self._slots.values():
                    if slot.engine is not None:
                        return slot.engine.known_paths()
            return ["/"]
        return paths

    # ------------------------------------------------------------ #
    # refresh path (the refresher thread only)

    def apply_edit(self, edit: Edit) -> Dict[str, object]:
        """Apply one editor mutation off the request path and publish
        the next generation.  Raises on failure; the caller is expected
        to call :meth:`recover` (the previous generation stays current
        and keeps serving either way)."""
        with self.swap_lock.write_locked():
            maybe_fail("serve.refresh.apply")
            if not self.dynamic_mode:
                assert self.regen is not None
                rebuilt = False
                if self._needs_rebuild:
                    self.regen.rebuild()
                    self._needs_rebuild = False
                    self.rebuilds += 1
                    rebuilt = True
                edit(self.regen)
                maybe_fail("serve.refresh.publish")
                generation = self._generation_from_regen(
                    "rebuild" if rebuilt else "refresh"
                )
                self.cache.publish(generation)
                self.refreshes_applied += 1
                report = self.regen.last_report
                return {
                    "generation": generation.gen_id,
                    "epoch": generation.epoch,
                    "coarse": report.coarse or rebuilt,
                    "pages_rerendered": report.pages_rerendered,
                    "pages_added": report.pages_added,
                    "pages_retained": report.pages_retained,
                    "fragments_rendered": report.fragments_rendered,
                }
            edit(self.data_graph)
            maybe_fail("serve.refresh.publish")
            generation = Generation(
                self._next_gen_id(),
                self.data_graph.epoch,
                complete=False,
                origin="refresh",
            )
            self.cache.publish(generation)
            self.refreshes_applied += 1
            return {"generation": generation.gen_id, "epoch": generation.epoch}

    def recover(self) -> None:
        """After a failed :meth:`apply_edit`: keep serving, honestly.

        Static mode: the current (pre-edit) generation is still
        internally consistent -- mark it stale (last-known-good) and
        schedule a full rebuild for the next successful edit, because
        the warm regenerator may hold a half-applied mutation.

        Dynamic mode: the data graph itself may be half-mutated, so the
        old incomplete generation must not keep lazily rendering against
        it -- publish a fresh (empty, stale-marked) generation pinned to
        the graph's current state.
        """
        with self.swap_lock.write_locked():
            self.refreshes_failed += 1
            if not self.dynamic_mode:
                self._needs_rebuild = True
                self.cache.current().stale = True
                return
            generation = Generation(
                self._next_gen_id(),
                self.data_graph.epoch,
                complete=False,
                origin="recovery",
            )
            generation.stale = True
            self.cache.publish(generation)

    # ------------------------------------------------------------ #

    def _next_gen_id(self) -> int:
        self._gen_counter += 1
        return self._gen_counter

    def _generation_from_regen(self, origin: str) -> Generation:
        assert self.regen is not None
        return Generation.from_static_pages(
            self._next_gen_id(),
            self.data_graph.epoch,
            self.regen.pages,
            origin=origin,
            previous=self.cache.current() if self.cache.published else None,
        )

    def _slot(self, worker_id: int) -> _WorkerSlot:
        slot = self._slots.get(worker_id)
        if slot is None:
            with self._slots_lock:
                slot = self._slots.setdefault(worker_id, _WorkerSlot())
        return slot

    def _engine(self, slot: _WorkerSlot) -> PageServer:
        if slot.engine is None:
            slot.engine = PageServer(self.program, self.data_graph, self.templates)
        return slot.engine

    # ------------------------------------------------------------ #

    def worker_metrics(self) -> WorkerMetrics:
        """All workers' counters merged into one snapshot."""
        merged = WorkerMetrics()
        with self._slots_lock:
            slots = list(self._slots.values())
        for slot in slots:
            merged.merge(slot.metrics)
        return merged

    def stats(self) -> Dict[str, object]:
        merged = self.worker_metrics()
        out: Dict[str, object] = {
            "mode": "dynamic" if self.dynamic_mode else "static",
            "workers_seen": len(self._slots),
            "requests": merged.requests,
            "cache_hits": merged.cache_hits,
            "cache_misses": merged.cache_misses,
            "dynamic_renders": merged.dynamic_renders,
            "not_found": merged.not_found,
            "degraded": merged.degraded,
            "deadline_exceeded": merged.deadline_exceeded,
            "refreshes_applied": self.refreshes_applied,
            "refreshes_failed": self.refreshes_failed,
            "rebuilds": self.rebuilds,
            "generations": self.cache.stats(),
        }
        if self.dynamic_mode:
            click = None
            with self._slots_lock:
                engines = [s.engine for s in self._slots.values() if s.engine]
            if engines:
                from ..core.incremental import ClickMetrics

                click = ClickMetrics()
                for engine in engines:
                    click.merge(engine.dynamic.metrics)
            if click is not None:
                out["click_metrics"] = {
                    "expansions": click.expansions,
                    "queries_evaluated": click.queries_evaluated,
                    "cache_hits": click.cache_hits,
                    "degraded_serves": click.degraded_serves,
                    "error_pages": click.error_pages,
                    "deadline_exceeded": click.deadline_exceeded,
                }
        store = self.sql_store()
        if store is not None:
            out["sql_interrupts"] = store.interrupts
        return out

    # ------------------------------------------------------------ #
    # health surface

    def sql_store(self):
        """The backing :class:`~repro.repository.sql.SqlStore` when the
        data graph is SQL-backed, else ``None`` (the watchdog and the
        readiness probe use this to interrupt / integrity-check it)."""
        return getattr(self.data_graph, "_store", None)

    def db_integrity(self, max_age_s: float = 30.0) -> bool:
        """Cached ``PRAGMA quick_check`` verdict for the readiness probe.

        Memory-backed graphs are always sound.  The check is re-run at
        most every ``max_age_s`` seconds so ``/readyz`` polling stays
        cheap.
        """
        store = self.sql_store()
        if store is None:
            return True
        now = time.monotonic()
        cached = self._integrity_cache
        if cached is not None and now - cached[0] < max_age_s:
            return cached[1]
        verdict = not store.integrity_check()
        self._integrity_cache = (now, verdict)
        return verdict

    def inflight(self) -> List[Dict[str, object]]:
        """The watchdog's view: one record per worker with a request
        currently in flight (dynamic renders only -- static lookups are
        too fast to observe)."""
        now = time.monotonic()
        with self._slots_lock:
            slots = list(self._slots.items())
        out: List[Dict[str, object]] = []
        for worker_id, slot in slots:
            path = slot.inflight_path
            if path is None:
                continue
            deadline = slot.inflight_deadline
            out.append(
                {
                    "worker": worker_id,
                    "path": path,
                    "since": slot.inflight_since,
                    "elapsed_s": now - slot.inflight_since,
                    "budget_s": deadline.budget if deadline is not None else None,
                }
            )
        return out
