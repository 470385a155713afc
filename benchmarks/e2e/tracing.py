"""Spans around the public entry points of each pipeline layer.

Used only by traced runs (``--trace 1``).  :func:`install` replaces the
public callables of each layer -- in the benchmark's own processes, never
in ``src/`` -- with shims that time each call.  A span
is ``[name, start, end, parent, trace id]``; the parent comes from a
thread-local stack and the trace id names one benchmark operation (a
cold build, a server set-up, one read request or one edit).  Shims record
nothing on a thread with no operation in progress, so traced and untraced
operations can alternate inside one run; comparing the two gives the
tracing overhead.

A layer's *self* time is the duration of its spans minus the part covered
by their child spans; self times of all spans of one operation add up to
the operation's wall time minus whatever ran outside every layer span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: span name -> per-layer metric that sums its self time
SELF_METRIC = {
    "wrappers.wrap": "wrappers.wrap_s",
    "mediator.staging": "mediator.staging_s",
    "mediator.materialize": "mediator.materialize_self_s",
    "repository.nav": "repository.nav_s",
    "repository.write": "repository.write_s",
    "repository.snapshot": "repository.snapshot_s",
    "struql.evaluate": "struql.evaluate_s",
    "struql.bindings": "struql.evaluate_s",
    "template.generate": "template.generate_s",
    "core.maintain": "core.maintain_s",
    "core.regen": "core.rerender_s",
    "serve.handle": "serve.handle_s",
    "serve.apply_edit": "serve.apply_edit_s",
    "serve.publish": "serve.publish_s",
}

#: spans whose individual durations are kept for percentiles
DISTRIBUTIONS = ("serve.request", "serve.handle", "serve.apply_edit")

#: public SqlGraph reads and writes timed as the repository layer
SQL_NAVIGATION = (
    "out_edges", "labels_of", "targets", "attribute", "in_edges",
    "edges_with_label", "sources_of_value", "reachable", "has_node", "nodes",
    "edges", "labels", "label_atoms", "atoms", "label_cardinality",
    "label_value_cardinality", "collection", "has_collection", "in_collection",
    "collection_names", "collections_of", "collection_cardinality",
    "resolve_nodes", "resolve_atoms", "copy", "stats",
)
SQL_WRITES = (
    "add_node", "skolem", "add_edge", "remove_edge", "remove_node",
    "create_collection", "add_to_collection", "remove_from_collection", "merge",
)

#: struql.Metrics fields reported per operation
STRUQL_COUNTERS = (
    "bindings_produced", "edges_examined", "plan_cache_hits", "plan_cache_misses",
    "path_memo_hits", "path_memo_misses", "hash_join_probes", "dedup_hits",
    "sql_pushdowns", "sql_fallbacks", "sql_rows_fetched",
)


def empty_summary() -> Dict[str, object]:
    """The summary of an operation kind with no traced operations."""
    return {
        "ops": 0, "self_s": Counter(), "calls": Counter(), "counters": Counter(),
        "durations": defaultdict(list), "samples": defaultdict(list), "coverage": [],
    }


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        #: trace id -> counters recorded during that operation
        self.counters: Dict[str, Counter] = defaultdict(Counter)
        #: trace id -> named durations recorded during that operation
        self.samples: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        #: every struql Metrics object an engine used while traced, with
        #: its counts when first seen
        self._metrics: Dict[int, Tuple[object, Dict[str, int]]] = {}
        self._metrics_lock = threading.Lock()
        self.queue_depth_peak = 0

    # ------------------------------------------------------------ #
    # operations and spans

    def current(self) -> Optional[str]:
        return getattr(self._local, "trace_id", None)

    @contextmanager
    def operation(self, trace_id: str, name: str, metrics: bool = False) -> Iterator[None]:
        """Trace one benchmark operation on this thread under a root span."""
        self._local.trace_id = trace_id
        self._local.stack = []
        before = self.struql_totals() if metrics else None
        record = self.enter(name)
        try:
            yield
        finally:
            self.exit(record)
            if before is not None:
                after = self.struql_totals()
                for key in STRUQL_COUNTERS:
                    self.counters[trace_id]["struql." + key] += after[key] - before[key]
            self._local.trace_id = None

    def enter(self, name: str) -> list:
        stack = self._local.stack
        record = [name, 0.0, 0.0, stack[-1] if stack else None, self._local.trace_id]
        self.spans.append(record)
        stack.append(record)
        record[1] = time.perf_counter()
        return record

    def exit(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._local.stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        trace_id = self.current()
        if trace_id is not None:
            self.counters[trace_id][key] += value

    def sample(self, trace_id: str, key: str, value: float) -> None:
        self.samples[trace_id][key].append(value)

    # ------------------------------------------------------------ #
    # struql counters (read from the engines' public Metrics objects)

    def register_metrics(self, metrics: object) -> None:
        """Count ``metrics`` from now on.  What it counted before it was
        first seen (say, the server's initial build, made by an engine an
        edit reuses) is its baseline and belongs to no operation."""
        with self._metrics_lock:
            if id(metrics) not in self._metrics:
                baseline = {key: getattr(metrics, key) for key in STRUQL_COUNTERS}
                self._metrics[id(metrics)] = (metrics, baseline)

    def struql_totals(self) -> Counter:
        """Counts of every registered Metrics object since its registration."""
        with self._metrics_lock:
            seen = list(self._metrics.values())
        totals: Counter = Counter()
        for metrics, baseline in seen:
            for key in STRUQL_COUNTERS:
                totals[key] += getattr(metrics, key) - baseline[key]
        return totals

    # ------------------------------------------------------------ #
    # shims

    def shim(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        eager: bool = False,
    ) -> Callable:
        """``fn`` timed as span ``name`` whenever its thread is tracing.

        ``eager`` drains a generator inside the span (otherwise the span
        would time only the generator's creation)."""
        local = self._local

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if getattr(local, "trace_id", None) is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            record = self.enter(name)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = iter(list(result))
            finally:
                self.exit(record)
            if after is not None:
                after(args, result)
            return result

        return timed

    def wrap(self, owner: object, attribute: str, name: str, **options) -> None:
        setattr(owner, attribute, self.shim(getattr(owner, attribute), name, **options))

    # ------------------------------------------------------------ #
    # output

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per operation kind (the trace id up to ``:``): operation count,
        self seconds per metric, call counts, counters, kept durations,
        and, for operations under a ``bench.*`` root, trace coverage."""
        spans = [s for s in self.spans if s[2] > 0.0]
        covered: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span[3] is not None:
                covered[id(span[3])] += span[2] - span[1]
        kinds: Dict[str, Dict[str, object]] = defaultdict(empty_summary)
        operations: Dict[str, set] = defaultdict(set)

        def kind_of(trace_id: str) -> Dict[str, object]:
            kind = trace_id.split(":", 1)[0]
            operations[kind].add(trace_id)
            return kinds[kind]

        for span in spans:
            name, start, end, parent, trace_id = span
            entry = kind_of(trace_id)
            duration = end - start
            self_time = duration - covered.get(id(span), 0.0)
            entry["calls"][name] += 1
            metric = SELF_METRIC.get(name)
            if metric is not None:
                entry["self_s"][metric] += self_time
            if name in DISTRIBUTIONS:
                entry["durations"][name].append(duration)
            if parent is None and name.startswith("bench.") and duration > 0:
                entry["coverage"].append(1.0 - self_time / duration)
        for trace_id, counters in self.counters.items():
            kind_of(trace_id)["counters"].update(counters)
        for trace_id, samples in self.samples.items():
            entry = kind_of(trace_id)
            for key, values in samples.items():
                entry["samples"][key].extend(values)
        for kind, entry in kinds.items():
            entry["ops"] = len(operations[kind])
        return kinds

    def write_spans(self, path: str) -> None:
        """All completed spans as JSON rows ``[name, start, end, parent
        row or -1, trace id]``."""
        spans = [s for s in self.spans if s[2] > 0.0]
        index = {id(span): row for row, span in enumerate(spans)}
        rows = [
            [s[0], s[1], s[2], index.get(id(s[3]), -1), s[4]] for s in spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": rows}, handle)


def install(tracer: Tracer) -> None:
    """Put timing shims on every layer's public entry points."""
    import repro
    import repro.core.site
    import repro.mediator.mediator
    import repro.struql
    import repro.struql.eval
    from repro.core.maintenance import SiteMaintainer
    from repro.core.regen import RegeneratingSite
    from repro.mediator import Mediator
    from repro.repository.sql import SqlGraph, SqlRepository
    from repro.serve.cache import Generation
    from repro.serve.core import ServeCore
    from repro.serve.http import PooledHTTPServer, ServeHandler
    from repro.struql.eval import QueryEngine
    from repro.template.generator import HtmlGenerator
    from repro.wrappers.base import Wrapper

    def wrapped_records(args, graph) -> None:
        tracer.count(
            "wrappers.records",
            sum(len(graph.collection(name)) for name in graph.collection_names()),
        )

    tracer.wrap(Wrapper, "wrap", "wrappers.wrap", after=wrapped_records)
    tracer.wrap(Mediator, "staging_graph", "mediator.staging")
    tracer.wrap(
        Mediator, "materialize", "mediator.materialize",
        after=lambda args, _: tracer.count(
            "mediator.mappings_run", args[0].last_report.mappings_run
        ),
    )
    for name in SQL_NAVIGATION:
        tracer.wrap(
            SqlGraph, name, "repository.nav",
            eager=inspect.isgeneratorfunction(getattr(SqlGraph, name)),
        )
    for name in SQL_WRITES:
        tracer.wrap(SqlGraph, name, "repository.write")
    tracer.wrap(SqlRepository, "export_ddl", "repository.snapshot")

    evaluate = tracer.shim(repro.struql.eval.evaluate, "struql.evaluate")
    for module in (repro, repro.struql, repro.struql.eval, repro.core.site,
                   repro.mediator.mediator):
        module.evaluate = evaluate
    tracer.wrap(
        QueryEngine, "bindings", "struql.bindings",
        before=lambda args: tracer.register_metrics(args[0].metrics),
    )

    def generated(args, site) -> None:
        tracer.count("template.pages", len(site.pages))
        tracer.count(
            "template.bytes_out", sum(len(html.encode("utf-8")) for html in site.pages.values())
        )

    tracer.wrap(HtmlGenerator, "generate", "template.generate", after=generated)

    def regenerated(args, _) -> None:
        report = args[0].last_report
        maintenance = report.maintenance
        tracer.count("core.pages_rerendered", report.pages_rerendered)
        tracer.count("core.pages_added", report.pages_added)
        tracer.count("core.pages_retained", report.pages_retained)
        tracer.count("core.coarse_edits", int(report.coarse))
        tracer.count("core.queries_recomputed", maintenance.queries_recomputed)
        tracer.count("core.queries_seeded", maintenance.queries_seeded)
        tracer.count("core.queries_skipped", maintenance.queries_skipped)
        tracer.count("core.full_rebuilds", maintenance.full_rebuilds)

    for name in ("add_edge", "add_object"):
        tracer.wrap(SiteMaintainer, name, "core.maintain")
        tracer.wrap(RegeneratingSite, name, "core.regen", after=regenerated)

    tracer.wrap(ServeCore, "handle", "serve.handle")
    Generation.from_static_pages = staticmethod(
        tracer.shim(Generation.from_static_pages, "serve.publish")
    )

    # the two roots of server-side operations: a read request (traced
    # when the client marked it) and an edit (traced when the editor did)
    do_get = ServeHandler.do_GET
    requests = itertools.count()

    def traced_get(handler) -> None:
        if "trace=1" not in handler.path:
            return do_get(handler)
        with tracer.operation(f"read:{next(requests)}", "serve.request"):
            return do_get(handler)

    ServeHandler.do_GET = traced_get

    apply_edit = ServeCore.apply_edit

    def traced_apply(core, edit):
        if not getattr(edit, "traced", False):
            return apply_edit(core, edit)
        trace_id = f"edit:{edit.edit_id}"
        tracer.sample(trace_id, "serve.edit_wait_s", time.perf_counter() - edit.due)
        with tracer.operation(trace_id, "serve.apply_edit", metrics=True):
            return apply_edit(core, edit)

    ServeCore.apply_edit = traced_apply

    process_request = PooledHTTPServer.process_request

    def admitted(server, request, client_address) -> None:
        process_request(server, request, client_address)
        depth = server.health()["queue_depth"]
        tracer.queue_depth_peak = max(tracer.queue_depth_peak, depth)

    PooledHTTPServer.process_request = admitted
