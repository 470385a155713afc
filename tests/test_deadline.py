"""Deadline propagation, cooperative cancellation, and SQL crash recovery.

The load-bearing properties of the robustness PR:

* a request-scoped :class:`Deadline` threads from HTTP admission through
  every evaluation layer (block operators, path search, template
  expansion, SQL pushdown) and cancels cooperatively -- a structured
  :class:`DeadlineExceeded`, never a hung worker or a traceback;
* an adversarial query (cyclic ``(link)*`` star path over a graph grown,
  after a calibration run, to cost about ten budgets) against ``repro serve`` returns a structured 504
  within 2x the configured deadline while concurrent well-behaved
  requests keep serving -- for both memory and sqlite backends;
* keep-alive connections are bounded by an idle timeout and a
  max-requests cap, so no worker is pinned by an idle client;
* ``/healthz`` and ``/readyz`` answer liveness and readiness;
* a chaos fault at any ``sql.*`` fault site leaves the SQLite
  repository loadable, or auto-recovered from its DDL snapshots on the
  next open (bit-flip corruption included);
* every cancellation and recovery is counted: ``deadline_exceeded``,
  ``watchdog_flags``, ``sql_interrupts``, ``integrity_recoveries``,
  and the slow-query ledger the ResilienceReport folds in.
"""

import http.client
import math
import threading
import time

import pytest

from repro.core import PageServer
from repro.errors import DeadlineExceeded, StrudelError
from repro.graph import Graph, Oid, string
from repro.repository import SqlRepository, ddl
from repro.repository.sql import SqlGraph
from repro.resilience import (
    Deadline,
    ResilienceReport,
    check_deadline,
    current_deadline,
    deadline_scope,
    install_deadline,
    record_slow_query,
    reset_slow_queries,
    slow_queries,
)
from repro.resilience.chaos import ChaosFault, FaultPlan, flip_bit, installed
from repro.resilience.report import reset_recovery_events
from repro.serve import ServeCore, SiteServer, Watchdog
from repro.struql import RecordingView, evaluate, parse
from repro.template import Renderer, generate_site, parse_template
from repro.template import eval as template_eval
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph, homepage_templates


@pytest.fixture(autouse=True)
def _clean_ledgers():
    reset_slow_queries()
    yield
    reset_slow_queries()
    reset_recovery_events()
    install_deadline(None)


# ------------------------------------------------------------------ #
# the Deadline primitive


class TestDeadline:
    def test_rejects_bad_budget_and_stride(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)
        with pytest.raises(ValueError):
            Deadline(1.0, stride=3)  # not a power of two

    def test_elapsed_remaining_expired(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        assert deadline.remaining() <= 60.0
        assert deadline.elapsed() < 1.0
        tiny = Deadline(0.000001)
        time.sleep(0.002)
        assert tiny.expired()
        assert tiny.remaining() <= 0.0

    def test_check_raises_structured_error(self):
        deadline = Deadline(0.000001)
        time.sleep(0.002)
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check("unit.site")
        assert info.value.site == "unit.site"
        assert info.value.budget == 0.000001
        assert info.value.elapsed >= info.value.budget
        assert isinstance(info.value, StrudelError)

    def test_tick_only_reads_clock_on_stride(self):
        deadline = Deadline(0.000001, stride=8)
        time.sleep(0.002)
        for _ in range(7):  # ticks 1..7: no clock read, no raise
            deadline.tick("unit.site")
        with pytest.raises(DeadlineExceeded):
            deadline.tick("unit.site")  # tick 8 checks

    def test_scope_installs_and_restores(self):
        assert current_deadline() is None
        outer = Deadline(60.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            inner = Deadline(30.0)
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_check_deadline_helper(self):
        check_deadline("anywhere")  # no ambient deadline: no-op
        expired = Deadline(0.000001)
        time.sleep(0.002)
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceeded):
                check_deadline("anywhere")

    def test_scope_is_thread_local(self):
        seen = {}
        with deadline_scope(Deadline(60.0)):

            def probe():
                seen["other"] = current_deadline()

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other"] is None


# ------------------------------------------------------------------ #
# cancellation inside the evaluation layers


def _cyclic_graph(n, k):
    """A dense cyclic 'link' graph: every node reaches every node, so a
    ``(link)*`` star path from all sources costs O(n^2 * k)."""
    graph = Graph("cyclic")
    oids = [graph.add_node(hint=f"n{i}") for i in range(n)]
    for i, oid in enumerate(oids):
        graph.add_to_collection("Entries", oid)
        for j in range(1, k + 1):
            graph.add_edge(oid, "link", oids[(i + j * 7) % n])
    return graph


class TestEngineCancellation:
    def test_star_path_cancelled_within_bound(self):
        graph = _cyclic_graph(400, 8)
        program = parse('where x -> ( "link" )* -> y collect Out(x)')
        started = time.monotonic()
        with deadline_scope(Deadline(0.2)):
            with pytest.raises(DeadlineExceeded) as info:
                evaluate(program, graph)
        elapsed = time.monotonic() - started
        assert elapsed < 0.4  # 2x the budget
        assert info.value.site  # names where it was caught

    def test_normal_query_unaffected_by_far_deadline(self):
        graph = bibliography_graph(10, seed=3)
        program = parse(HOMEPAGE_QUERY)
        plain = evaluate(program, graph)
        with deadline_scope(Deadline(3600.0)):
            under = evaluate(program, graph)
        assert under.stats() == plain.stats()

    def test_template_render_ticks(self):
        """Template expansion checks the ambient deadline too."""
        from repro.template import generate_site

        graph = bibliography_graph(20, seed=5)
        site = evaluate(parse(HOMEPAGE_QUERY), graph)
        expired = Deadline(0.000001, stride=1)  # check the clock every tick
        time.sleep(0.002)
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceeded) as info:
                generate_site(site, homepage_templates(), ["RootPage()"])
        assert info.value.site == "template.render"

    def test_expired_deadline_stops_an_sfor_mid_loop(self):
        graph = Graph()
        page = graph.add_node(Oid("List()"))
        items = []
        for index in range(200):
            item = graph.add_node(Oid(f"Item({index})"))
            graph.add_edge(item, "title", string(f"item {index}"))
            graph.add_edge(page, "item", item)
            items.append(item)
        template = parse_template(
            "<ul><SFOR i IN item><li><SFMT @i.title></li></SFOR></ul>"
        )
        view = RecordingView(graph)
        ticks = iter(range(10**6))
        # a clock that advances one second per read: with stride 1 the
        # 50-second budget runs out on the 50th node
        deadline = Deadline(50.0, stride=1, clock=lambda: float(next(ticks)))
        with deadline_scope(deadline), view.recording() as reads:
            with pytest.raises(DeadlineExceeded) as info:
                Renderer(view).render(template, page)
        assert info.value.site == "template.render"
        visited = reads & set(items)
        assert 0 < len(visited) < len(items)

    def test_a_cancelled_page_render_caches_nothing(self, monkeypatch):
        """A render cancelled by its deadline (which the serving tier
        answers with 504) leaves no partial page or fragment behind: the
        next request for the path renders the static page's bytes."""
        data = bibliography_graph(20, seed=5)
        program = parse(HOMEPAGE_QUERY)
        server = PageServer(program, data, homepage_templates())
        static = generate_site(
            evaluate(program, data), homepage_templates(), ["RootPage()"]
        )
        path = next(p for p in server.links_of("/") if "Category" in p)
        ticks = iter(range(10**6))
        # cancel only rendering, after a few dozen nodes: the page's
        # click-time queries run to completion
        expiring = Deadline(40.0, stride=1, clock=lambda: float(next(ticks)))
        monkeypatch.setattr(template_eval, "current_deadline", lambda: expiring)
        with pytest.raises(DeadlineExceeded) as info:
            server.get_response(path)
        assert info.value.site == "template.render"
        monkeypatch.undo()
        response = server.get_response(path)
        assert response.status == 200
        served = response.body.replace('href="/"', 'href="index.html"').replace(
            'href="/', 'href="'
        )
        assert served == static.pages[path.lstrip("/")]


class TestSqlCancellation:
    def test_pushdown_query_interrupted(self):
        """A runaway SQL statement is aborted via the progress handler
        and surfaces as DeadlineExceeded, counted as an interrupt."""
        repository = SqlRepository()  # in-memory SQLite
        repository.store("g", _cyclic_graph(50, 3))
        store = repository.store_backend
        # a recursive CTE that explodes combinatorially
        runaway = """
        WITH RECURSIVE walk(n, depth) AS (
            SELECT 1, 0
            UNION ALL
            SELECT (walk.n * 7 + e.id) % 1000000, walk.depth + 1
            FROM walk, edges AS e WHERE walk.depth < 6
        ) SELECT COUNT(*) FROM walk
        """
        started = time.monotonic()
        with deadline_scope(Deadline(0.2)):
            with pytest.raises(DeadlineExceeded) as info:
                store.query_named(runaway, {})
        assert time.monotonic() - started < 0.4
        assert info.value.site == "sql.pushdown"
        assert store.interrupts == 1

    def test_pushdown_without_deadline_runs_free(self):
        repository = SqlRepository()
        repository.store("g", _cyclic_graph(10, 2))
        store = repository.store_backend
        rows = store.query_named("SELECT COUNT(*) FROM edges", {})
        assert rows[0][0] > 0
        assert store.interrupts == 0


# ------------------------------------------------------------------ #
# the serving tier: 504s, health, keep-alive, watchdog


ADVERSARIAL_QUERY = """
create RootPage(), SlowPage()
link RootPage() -> "Slow" -> SlowPage()
where Entries(x), x -> ( "link" )* -> t
create HitPage(t)
link SlowPage() -> "Hit" -> HitPage(t),
     HitPage(t) -> "name" -> t
collect Hits(HitPage(t))
"""


def _adversarial_templates():
    from repro.template import TemplateSet

    templates = TemplateSet()
    templates.add("rootpage", "<html><body><h1>Root</h1></body></html>\n")
    templates.add(
        "slowpage", "<html><body><h1>Hits</h1><SFMT Hit COUNT></body></html>\n"
    )
    templates.add("hitpage", "<html><body><SFMT name></body></html>\n")
    templates.for_object("RootPage()", "rootpage")
    templates.for_object("SlowPage()", "slowpage")
    templates.for_collection("Hits", "hitpage")
    return templates


def _over_budget_size(budget, margin=10.0, probe=100, k=6):
    """The cyclic-graph size whose ``/SlowPage.html`` render costs about
    ``margin`` times ``budget`` on the machine running the test.

    Every node reaches every node, so the render's cost grows with the
    square of the node count: time the render at ``probe`` nodes (best
    of two) and scale the size up from there.
    """
    timings = []
    for _ in range(2):
        server = PageServer(
            ADVERSARIAL_QUERY, _cyclic_graph(probe, k), _adversarial_templates()
        )
        started = time.perf_counter()
        server.get("/SlowPage.html")
        timings.append(time.perf_counter() - started)
    return math.ceil(probe * math.sqrt(margin * budget / min(timings)))


def _grow_cyclic(graph, first, size, k=6):
    """Grow a ``_cyclic_graph`` to at least ``size`` nodes and keep every
    node reaching every node: the new nodes form a second cycle of the
    same shape, bridged both ways to ``first``, the old graph's node."""
    count = max(size - graph.node_count, 1)
    if count % 7 == 0:
        count += 1  # steps of 7 cover every node only if 7 does not divide it
    oids = [graph.add_node(hint=f"m{i}") for i in range(count)]
    for i, oid in enumerate(oids):
        graph.add_to_collection("Entries", oid)
        for j in range(1, k + 1):
            graph.add_edge(oid, "link", oids[(i + j * 7) % count])
    graph.add_edge(first, "link", oids[0])
    graph.add_edge(oids[0], "link", first)


def _get(server, path, timeout=60):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestServe504:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_adversarial_query_times_out_while_healthy_traffic_serves(
        self, backend, tmp_path
    ):
        budget = 0.4
        source = graph = _cyclic_graph(300, 6)
        first = graph.collection("Entries")[0]
        if backend == "sqlite":
            repository = SqlRepository(str(tmp_path))
            repository.store("adv", source)
            graph = repository.fetch("adv")
        core = ServeCore(
            ADVERSARIAL_QUERY, graph, _adversarial_templates(), dynamic=True
        )
        server = SiteServer(core, workers=2, deadline_budget=budget).start()
        try:
            # warm the healthy page into the shared generation cache with
            # deadlines off; this also fills the path-reachability memo
            server.httpd.deadline_budget = None
            status, _, _ = _get(server, "/")
            assert status == 200
            server.httpd.deadline_budget = budget
            # grow the graph until the adversarial render costs about ten
            # budgets on this machine (at a fixed size a fast run can
            # finish inside the budget); the edit also bumps the graph
            # epoch, so the render must recompute from scratch -- but "/"
            # keeps serving from the generation cache.  A stored graph is
            # read-only: the grown source becomes its next generation,
            # served by the same object
            epoch = graph.epoch
            _grow_cyclic(source, first, _over_budget_size(budget))
            if backend == "sqlite":
                repository.store("adv", source)
                assert repository.fetch("adv") is graph
            assert graph.epoch > epoch
            assert graph.node_count == source.node_count

            healthy = []

            def well_behaved():
                for _ in range(25):
                    healthy.append(_get(server, "/")[0])

            thread = threading.Thread(target=well_behaved)
            thread.start()
            started = time.monotonic()
            status, headers, body = _get(server, "/SlowPage.html")
            elapsed = time.monotonic() - started
            thread.join()

            assert status == 504
            assert elapsed < 2 * budget
            assert b"Traceback" not in body
            assert b"504" in body or b"timed out" in body
            assert healthy and set(healthy) == {200}

            stats = server.stats()
            assert stats["core"]["deadline_exceeded"] >= 1
            if backend == "sqlite":
                assert "sql_interrupts" in stats["core"]
            reports = slow_queries()
            assert any(
                r["path"] == "/SlowPage.html" and r["kind"] == "deadline"
                for r in reports
            )
        finally:
            assert server.stop()

    def test_504_entry_never_cached(self, tmp_path):
        """A cancelled render must not poison the generation cache: the
        page stays renderable once the deadline pressure is gone."""
        # sized like the test above: at a fixed size a fast run can
        # finish inside the budget and never exercise the cancelled path
        size = _over_budget_size(0.05, margin=4.0, k=4)
        if size % 7 == 0:
            size += 1  # steps of 7 keep every node reachable only then
        graph = _cyclic_graph(size, 4)
        core = ServeCore(
            ADVERSARIAL_QUERY, graph, _adversarial_templates(), dynamic=True
        )
        server = SiteServer(core, workers=1, deadline_budget=0.05).start()
        try:
            status, _, _ = _get(server, "/SlowPage.html")
            assert status == 504
            server.httpd.deadline_budget = None
            status, _, body = _get(server, "/SlowPage.html")
            assert status == 200
            assert b"Hits" in body
        finally:
            assert server.stop()


class TestKeepAlive:
    @pytest.fixture()
    def server(self, request):
        core = ServeCore(
            parse(HOMEPAGE_QUERY),
            bibliography_graph(8, seed=9),
            homepage_templates(),
        )
        server = SiteServer(
            core,
            workers=1,
            idle_timeout=0.3,
            max_requests_per_connection=3,
        ).start()
        yield server
        assert server.stop()

    def test_idle_connection_released_within_idle_timeout(self, server):
        """An idle keep-alive client must not pin the single worker for
        the full request timeout: after idle_timeout the worker is free
        to serve other connections."""
        idle = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            idle.request("GET", "/")
            idle.getresponse().read()  # keep-alive: connection stays open
            time.sleep(0.5)  # exceed idle_timeout; server closes our slot
            started = time.monotonic()
            status, _, _ = _get(server, "/", timeout=5)
            assert status == 200
            assert time.monotonic() - started < 2.0
        finally:
            idle.close()

    def test_max_requests_per_connection_cap(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for index in range(3):
                connection.request("GET", "/")
                response = connection.getresponse()
                response.read()
                header = (response.getheader("Connection") or "").lower()
                if index < 2:
                    assert header != "close", f"closed early at request {index + 1}"
                else:
                    assert header == "close"  # capped: server asks to close
        finally:
            connection.close()


class TestHealthEndpoints:
    @pytest.fixture()
    def server(self):
        core = ServeCore(
            parse(HOMEPAGE_QUERY),
            bibliography_graph(8, seed=11),
            homepage_templates(),
        )
        server = SiteServer(core, workers=2).start()
        yield server
        assert server.stop()

    def test_healthz(self, server):
        import json

        status, _, body = _get(server, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["workers_alive"] == 2

    def test_readyz_ready_then_draining(self, server):
        import json

        status, _, body = _get(server, "/readyz")
        assert status == 200
        payload = json.loads(body)
        assert payload["ready"] is True
        assert payload["checks"]["db_integrity"] is True
        server.httpd.draining = False  # ensure a clean baseline
        try:
            server.httpd.draining = True
            # draining sheds new connections with 503 before readyz runs,
            # which is itself a correct "not ready" answer
            status, _, _ = _get(server, "/readyz")
            assert status == 503
        finally:
            server.httpd.draining = False

    def test_readyz_unready_on_stale_generation(self, server):
        server.core.cache.current().stale = True
        try:
            status, _, body = _get(server, "/readyz")
            assert status == 503
            assert b'"generation_fresh": false' in body
        finally:
            server.core.cache.current().stale = False


class _StubCore:
    """A minimal inflight()/sql_store() surface for watchdog units."""

    def __init__(self, records, store=None):
        self.records = records
        self._sql = store

    def inflight(self):
        return self.records

    def sql_store(self):
        return self._sql


class _StubStore:
    def __init__(self):
        self.interrupted = 0

    def interrupt(self):
        self.interrupted += 1


class TestWatchdog:
    def test_flags_stuck_request_once(self):
        record = {
            "worker": 0,
            "path": "/stuck.html",
            "since": 100.0,
            "elapsed_s": 9.0,
            "budget_s": 1.0,
        }
        watchdog = Watchdog(_StubCore([record]), stuck_factor=2.0)
        assert watchdog.scan() == 1
        assert watchdog.scan() == 0  # same request: no re-flag
        assert watchdog.flags == 1
        reports = [r for r in slow_queries() if r["kind"] == "watchdog"]
        assert len(reports) == 1
        assert reports[0]["path"] == "/stuck.html"

    def test_within_budget_not_flagged(self):
        record = {
            "worker": 0,
            "path": "/fine.html",
            "since": 100.0,
            "elapsed_s": 1.5,
            "budget_s": 1.0,
        }
        watchdog = Watchdog(_StubCore([record]), stuck_factor=2.0)
        assert watchdog.scan() == 0

    def test_uses_default_budget_when_request_has_none(self):
        record = {
            "worker": 1,
            "path": "/nodl.html",
            "since": 50.0,
            "elapsed_s": 30.0,
            "budget_s": None,
        }
        watchdog = Watchdog(_StubCore([record]), stuck_factor=2.0, default_budget=10.0)
        assert watchdog.scan() == 1

    def test_interrupts_sql_backed_core(self):
        store = _StubStore()
        record = {
            "worker": 0,
            "path": "/stuck.html",
            "since": 100.0,
            "elapsed_s": 9.0,
            "budget_s": 1.0,
        }
        watchdog = Watchdog(_StubCore([record], store), stuck_factor=2.0)
        watchdog.scan()
        assert store.interrupted == 1
        assert watchdog.sql_interrupts_sent == 1

    def test_finished_requests_forgotten(self):
        record = {
            "worker": 0,
            "path": "/stuck.html",
            "since": 100.0,
            "elapsed_s": 9.0,
            "budget_s": 1.0,
        }
        core = _StubCore([record])
        watchdog = Watchdog(core, stuck_factor=2.0)
        watchdog.scan()
        core.records = []  # request finished
        watchdog.scan()
        assert watchdog._flagged == set()

    def test_stats_and_served_through_http(self):
        core = ServeCore(
            parse(HOMEPAGE_QUERY),
            bibliography_graph(6, seed=13),
            homepage_templates(),
        )
        server = SiteServer(core, workers=1).start()
        try:
            import json

            stats = json.loads(_get(server, "/_stats")[2])
            assert "watchdog" in stats
            assert stats["watchdog"]["watchdog_flags"] == 0
        finally:
            assert server.stop()


# ------------------------------------------------------------------ #
# SQL crash recovery


def _small_graph():
    graph = Graph("small")
    a = graph.add_node(hint="a")
    b = graph.add_node(hint="b")
    graph.add_edge(a, "to", b)
    graph.add_edge(a, "name", "alpha")
    graph.add_to_collection("Pool", a)
    return graph


class TestSqlChaosRecovery:
    def test_commit_fault_rolls_back_not_leaks(self, tmp_path):
        repository = SqlRepository(str(tmp_path))
        with installed(FaultPlan().fail_at("sql.commit", 1)):
            with pytest.raises(ChaosFault):
                repository.store("g", _small_graph())
        # the transaction must not be leaked open: the next store works
        repository.store("g", _small_graph())
        assert repository.fetch("g").node_count == 2

    @pytest.mark.parametrize("site", ["sql.commit", "sql.fsync", "sql.snapshot"])
    def test_kill_at_fault_site_leaves_repository_loadable(self, site, tmp_path):
        """Simulated crash at every sql fault point: drop the repository
        object mid-store, then reopen the directory cold.  The reopened
        repository is either consistent or auto-recovered -- never a
        pile of exceptions."""
        directory = str(tmp_path / site.replace(".", "-"))
        repository = SqlRepository(directory)
        repository.store("stable", _small_graph())
        with installed(FaultPlan().fail_at(site, 1)):
            try:
                repository.store("victim", _small_graph())
            except ChaosFault:
                pass  # the "crash"
        del repository  # kill the process's handle
        reopened = SqlRepository(directory)
        assert "stable" in reopened
        graph = reopened.fetch("stable")
        assert graph.node_count == 2
        assert list(graph.collection("Pool"))
        # integrity holds after the crash
        assert reopened.store_backend.integrity_check() == []

    def test_bit_flip_corruption_recovers_from_snapshot(self, tmp_path):
        directory = str(tmp_path)
        repository = SqlRepository(directory)
        source = _small_graph()
        repository.store("g", source)
        db_path = repository.store_backend.path
        # close cleanly so the WAL checkpoints -- otherwise SQLite's own
        # WAL replay silently repairs the damage on the next open
        repository.store_backend.close()
        del repository
        flip_bit(db_path, offset=0)  # destroy the SQLite header
        flip_bit(db_path, offset=1)
        reset_recovery_events()
        reopened = SqlRepository(directory)
        assert reopened.integrity_recoveries == 1
        assert "g" in reopened
        restored = reopened.fetch("g")
        assert restored.node_count == 2
        assert list(restored.collection("Pool"))
        # nothing changes a stored graph after its snapshot, so recovery
        # gives back the last stored generation exactly, out-edge order
        # included (``_small_graph`` writes a ``ref`` edge before an atom)
        assert ddl.dumps(restored.copy()) == ddl.dumps(source)
        assert sorted(map(repr, restored.edges())) == sorted(
            map(repr, source.edges())
        )
        report = ResilienceReport().record_recoveries()
        assert any(
            "sql-repository" in event.get("subject", "")
            or "corrupt" in event.get("detail", "").lower()
            or "restored" in event.get("detail", "").lower()
            for event in report.recovery_events
        )

    def test_page_corruption_detected_by_quick_check(self, tmp_path):
        """Damage inside page data (not the header) is caught by the
        integrity check on open and recovered the same way."""
        directory = str(tmp_path)
        repository = SqlRepository(directory)
        repository.store("g", _cyclic_graph(40, 3))
        db_path = repository.store_backend.path
        repository.store_backend.close()  # checkpoint the WAL first
        del repository
        # several deterministic flips somewhere in page data
        for seed in range(6):
            flip_bit(db_path, seed=seed)
        reopened = SqlRepository(directory)
        if reopened.integrity_recoveries:
            assert reopened.fetch("g").node_count == 40
        else:
            # flips landed in dead space: database still sound
            assert reopened.store_backend.integrity_check() == []
            assert reopened.fetch("g").node_count == 40

    def test_snapshot_written_and_checksummed(self, tmp_path):
        import os

        repository = SqlRepository(str(tmp_path))
        repository.store("g", _small_graph())
        snapshot = os.path.join(str(tmp_path), "g.ddl")
        assert os.path.exists(snapshot)
        with open(snapshot) as handle:
            payload = handle.read()
        declared, body = ddl.split_checksum(payload)
        assert ddl.checksum(body) == declared


# ------------------------------------------------------------------ #
# counters and reporting


class TestCountersAndReport:
    def test_slow_query_ledger_capped_and_reset(self):
        for index in range(300):
            record_slow_query(f"/p{index}.html", 1.0, 0.5)
        assert len(slow_queries()) == 256
        reset_slow_queries()
        assert slow_queries() == []

    def test_report_folds_slow_queries(self):
        record_slow_query(
            "/slow.html", 2.5, 0.5, site="block.path", kind="deadline"
        )
        report = ResilienceReport().record_slow_queries()
        assert report.slow_queries
        text = "\n".join(report.summary_lines())
        assert "slow queries: 1" in text
        assert "/slow.html" in text
        payload = report.as_dict()
        assert payload["slow_queries"][0]["path"] == "/slow.html"

    def test_cli_stats_resilience_includes_slow_queries(self, tmp_path, capsys):
        from repro import cli

        record_slow_query("/cli.html", 3.0, 1.0, kind="watchdog")
        graph_file = tmp_path / "g.ddl"
        graph_file.write_text(ddl.dumps(_small_graph()))
        assert cli.main(["stats", str(graph_file), "--resilience"]) == 0
        out = capsys.readouterr().out
        assert "slow queries: 1" in out
        assert "/cli.html" in out
