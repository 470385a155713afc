"""Concurrent-hammer regression tests for shared hot-path state.

The serving tier (repro.serve) runs N worker threads against state the
rest of the codebase was free to treat as single-threaded.  These tests
pin down the pieces the audit made safe:

* the :class:`~repro.struql.plancache.PlanCache` LRU (plans, NFAs, and
  the PR-5 path-reachability memo) under concurrent mixed traffic;
* the epoch-stamped statistics provider
  (:func:`~repro.repository.indexes.graph_statistics`): concurrent
  readers of an unchanged graph trigger exactly one refresh;
* engine/server counters, which are per-worker by construction and
  aggregated with ``merge()`` -- never incremented across threads;
* the process-wide cyclic-collector pause
  (:func:`~repro.graph.collection_paused`) that builds run under.
"""

import gc
import os
import sys
import threading
import time

from repro.graph import Graph, collection_paused
from repro.repository.indexes import IndexStatistics, graph_statistics
from repro.resilience.retry import BreakerState, CircuitBreaker, ManualClock
from repro.serve import AdmissionControl, Generation, PageEntry
from repro.serve.core import WorkerMetrics
from repro.serve.locks import RWLock
from repro.struql import Metrics, parse, QueryEngine
from repro.struql.plancache import PlanCache
from repro.core.incremental import ClickMetrics
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph


def _hammer(worker, threads=8, rounds=50):
    """Run ``worker(thread_index, round_index)`` from many threads;
    re-raise the first failure."""
    errors = []
    barrier = threading.Barrier(threads)

    def _loop(index):
        try:
            barrier.wait(timeout=10)
            for round_index in range(rounds):
                worker(index, round_index)
        except Exception as error:  # pragma: no cover - only on regression
            errors.append(error)

    pool = [threading.Thread(target=_loop, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


class TestStatisticsProvider:
    def test_unchanged_graph_refreshes_once(self, monkeypatch):
        graph = bibliography_graph(10, seed=1)
        graph._stats_cache = None
        taken = []
        snapshot = IndexStatistics.snapshot

        def counting_snapshot(of):
            taken.append(of)
            return snapshot(of)

        monkeypatch.setattr(IndexStatistics, "snapshot", counting_snapshot)
        results = {}

        def worker(index, round_index):
            results[(index, round_index)] = graph_statistics(graph)

        _hammer(worker, threads=8, rounds=30)
        assert taken == [graph]  # one refresh, every thread reused it
        snapshots = set(map(id, results.values()))
        assert len(snapshots) == 1

    def test_concurrent_readers_during_mutations_see_consistent_epochs(self):
        graph = bibliography_graph(10, seed=2)
        stop = threading.Event()

        def mutate():
            node = graph.collection("Publications")[0]
            for index in range(40):
                graph.add_edge(node, "note", f"n{index}")
            stop.set()

        mutator = threading.Thread(target=mutate)
        failures = []

        def reader():
            while not stop.is_set():
                stats = graph_statistics(graph)
                # a snapshot must describe a real epoch of this graph
                if stats.epoch > graph.epoch or stats.graph_key != graph.token:
                    failures.append(stats.epoch)

        readers = [threading.Thread(target=reader) for _ in range(6)]
        for thread in readers:
            thread.start()
        mutator.start()
        mutator.join()
        for thread in readers:
            thread.join()
        assert not failures
        assert graph_statistics(graph).epoch == graph.epoch


class TestPlanCacheConcurrency:
    def test_mixed_hammer_is_consistent(self):
        cache = PlanCache(max_entries=64, max_path_entries=64)
        program = parse(HOMEPAGE_QUERY)
        conditions = tuple(program.queries[0].where)

        def worker(index, round_index):
            key = PlanCache.plan_key(conditions, frozenset(), (1, round_index % 7))
            if cache.get_plan(key) is None:
                cache.put_plan(key, conditions, list(conditions))
            assert cache.get_plan(key) is not None

        _hammer(worker, threads=8, rounds=100)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 100 * 2
        assert stats["plans"] <= 64

    def test_shared_engines_agree_under_concurrency(self):
        """Per-thread engines over one graph and one shared cache produce
        identical binding counts."""
        graph = bibliography_graph(8, seed=3)
        program = parse(HOMEPAGE_QUERY)
        conditions = program.queries[0].where
        cache = PlanCache()
        expected = len(QueryEngine(graph, plan_cache=cache).bindings(conditions))
        counts = set()
        lock = threading.Lock()

        def worker(index, round_index):
            engine = QueryEngine(graph, plan_cache=cache)
            rows = engine.bindings(conditions)
            with lock:
                counts.add(len(rows))

        _hammer(worker, threads=6, rounds=5)
        assert counts == {expected}


class TestPerWorkerCounters:
    def test_metrics_merge_sums_every_field(self):
        left, right = Metrics(), Metrics()
        left.conditions_evaluated = 3
        left.plan_cache_hits = 1
        right.conditions_evaluated = 4
        right.path_memo_hits = 2
        left.merge(right)
        assert left.conditions_evaluated == 7
        assert left.plan_cache_hits == 1
        assert left.path_memo_hits == 2

    def test_click_metrics_merge(self):
        left, right = ClickMetrics(), ClickMetrics()
        left.expansions = 2
        right.expansions = 5
        right.degraded_serves = 1
        left.merge(right)
        assert left.expansions == 7
        assert left.degraded_serves == 1

    def test_worker_metrics_merge(self):
        left, right = WorkerMetrics(), WorkerMetrics()
        left.requests = 10
        right.requests = 5
        right.not_found = 2
        left.merge(right)
        assert left.requests == 15
        assert left.not_found == 2


class TestServeSharedState:
    def test_generation_fill_race_single_winner(self):
        generation = Generation(1, 0, complete=False)
        entry = PageEntry(200, b"payload")

        def worker(index, round_index):
            generation.fill("/contested", entry)

        _hammer(worker, threads=8, rounds=10)
        assert generation.fills == 1
        assert generation.fill_races == 8 * 10 - 1

    def test_admission_counters_balance(self):
        admission = AdmissionControl(limit=4)

        def worker(index, round_index):
            if admission.try_acquire():
                admission.release()

        _hammer(worker, threads=8, rounds=200)
        stats = admission.stats()
        assert stats["in_flight"] == 0
        assert stats["peak"] <= 4
        assert stats["admitted"] + stats["shed"] == 8 * 200

    def test_rwlock_excludes_writers_from_readers(self):
        lock = RWLock()
        state = {"value": 0, "torn": 0}

        def worker(index, round_index):
            if index == 0:
                with lock.write_locked():
                    state["value"] += 1
                    state["value"] += 1
            else:
                with lock.read_locked():
                    if state["value"] % 2 != 0:
                        state["torn"] += 1

        _hammer(worker, threads=6, rounds=200)
        assert state["torn"] == 0
        assert state["value"] == 2 * 200


class TestCircuitBreakerConcurrency:
    """The breaker is shared by every serving thread; its transitions
    must hold up under contention."""

    def test_half_open_admits_exactly_one_probe(self):
        """When the reset timeout elapses and 8 threads race into
        ``allow()``, exactly one is admitted as the half-open probe;
        the rest stay rejected until the probe reports back."""
        clock = ManualClock()
        breaker = CircuitBreaker(
            "hammer", failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(5.0)  # breaker is now eligible for one probe

        admitted = []
        barrier = threading.Barrier(8)

        def _race(index):
            barrier.wait(timeout=10)
            if breaker.allow():
                admitted.append(index)

        pool = [threading.Thread(target=_race, args=(i,)) for i in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(admitted) == 1
        assert breaker.state is BreakerState.HALF_OPEN
        # probe still in flight: nobody else gets in
        assert not breaker.allow()
        # probe succeeds: circuit closes, traffic flows again
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_next_window_reprobes(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            "hammer", failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()  # the probe
        breaker.record_failure()  # probe fails: re-open
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # a fresh probe next window

    def test_counters_consistent_under_hammer(self):
        """Mixed allow/success/failure traffic from 8 threads must keep
        the lifetime counters coherent (no lost increments) and leave
        the breaker in a valid state."""
        breaker = CircuitBreaker("hammer", failure_threshold=3, reset_timeout=0.0)

        def worker(index, round_index):
            if breaker.allow():
                if (index + round_index) % 3 == 0:
                    breaker.record_failure()
                else:
                    breaker.record_success()

        _hammer(worker, threads=8, rounds=200)
        snapshot = breaker.snapshot()
        assert snapshot["state"] in ("closed", "open", "half-open")
        assert snapshot["total_failures"] <= 8 * 200
        assert snapshot["times_opened"] <= snapshot["total_failures"]


class TestCollectorPause:
    def test_concurrent_nested_pauses_restore_the_collector(self):
        """Builds on many threads at once: while any thread is inside a
        pause the collector is off, and once every thread has left, it is
        back to its setting at the start.  A lost update of the shared
        nesting depth breaks one or the other."""
        threads = max(8, 4 * (os.cpu_count() or 1))
        started_enabled = gc.isenabled()
        stop_at = time.monotonic() + 0.5
        violations = []
        barrier = threading.Barrier(threads)

        def worker(index):
            barrier.wait(timeout=10)
            rounds = 0
            while time.monotonic() < stop_at:
                rounds += 1
                try:
                    with collection_paused():
                        time.sleep(0)  # let other threads enter and leave
                        if gc.isenabled():
                            violations.append((index, "outer"))
                        with collection_paused():
                            time.sleep(0)
                            if gc.isenabled():
                                violations.append((index, "inner"))
                            if (index + rounds) % 5 == 0:
                                raise LookupError(index)
                        [[] for _ in range(50)]  # container allocations
                        if gc.isenabled():
                            violations.append((index, "after inner"))
                except LookupError:
                    pass

        original_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(original_interval)
        assert violations == []
        assert gc.isenabled() == started_enabled
