"""Tests for the HTTP serving tier (repro.serve).

The load-bearing properties:

* pages served over HTTP are byte-identical to the statically
  generated site, including under concurrent load;
* a mid-load refresh never produces a torn mix -- every response
  labeled with generation G matches snapshot G exactly;
* degradation is surfaced as HTTP semantics (404 / 500 / 503 /
  200-with-degraded-header), never tracebacks or sentinels;
* shutdown is graceful: admitted requests complete.
"""

import http.client
import json
import threading
import time

import pytest

from repro import cli
from repro.core.regen import RegeneratingSite
from repro.graph import Oid
from repro.repository import ddl
from repro.resilience.chaos import ChaosFault, FaultPlan, install, uninstall
from repro.serve import (
    AdmissionControl,
    Generation,
    GenerationCache,
    PageEntry,
    Refresher,
    ServeCore,
    SiteServer,
)
from repro.struql import evaluate, parse
from repro.template import generate_site
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph, homepage_templates


@pytest.fixture(scope="module")
def setup():
    data = bibliography_graph(12, seed=70)
    program = parse(HOMEPAGE_QUERY)
    return data, program


@pytest.fixture(autouse=True)
def _no_leftover_chaos():
    yield
    uninstall()


def _copy_graph(graph):
    return ddl.loads(ddl.dumps(graph), "copy")


def _fresh_core(setup, **kwargs):
    data, program = setup
    return ServeCore(program, _copy_graph(data), homepage_templates(), **kwargs)


def _get(server, path, method="GET"):
    """One request; returns (status, headers, body bytes)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def _static_reference(pages):
    """filename->html map as the server publishes it: /<name>, / for index."""
    reference = {}
    for filename, html in pages.items():
        body = html.encode("utf-8")
        reference["/" + filename] = body
        if filename == "index.html":
            reference["/"] = body
    return reference


# ------------------------------------------------------------------ #
# units: cache, admission


class TestGenerationCache:
    def test_current_before_publish_raises(self):
        with pytest.raises(RuntimeError):
            GenerationCache().current()

    def test_publish_swaps_atomically(self):
        cache = GenerationCache()
        first = Generation(1, 0)
        second = Generation(2, 1)
        assert cache.publish(first) is None
        assert cache.publish(second) is first
        assert cache.current() is second
        assert cache.stats()["published"] == 2

    def test_fill_is_idempotent(self):
        generation = Generation(1, 0, complete=False)
        entry = PageEntry(200, b"hello")
        generation.fill("/a", entry)
        generation.fill("/a", PageEntry(200, b"hello"))
        assert generation.lookup("/a") is entry
        assert generation.fills == 1
        assert generation.fill_races == 1

    def test_static_pages_mapping(self):
        generation = Generation.from_static_pages(
            1, 0, {"index.html": "<p>root</p>", "a.html": "<p>a</p>"}
        )
        assert generation.lookup("/").body == b"<p>root</p>"
        assert generation.lookup("/index.html").body == b"<p>root</p>"
        assert generation.lookup("/a.html").body == b"<p>a</p>"
        assert generation.lookup("/missing.html") is None

    def test_publish_reencodes_only_rerendered_pages(self, setup):
        core = _fresh_core(setup)
        before = core.cache.current()
        result = core.apply_edit(_late_author_edit)
        after = core.cache.current()
        rerendered = result["pages_rerendered"] + result["pages_added"]
        assert 0 < rerendered < len(core.regen.pages)
        # the edited presentation and abstract; every other fragment is reused
        assert result["fragments_rendered"] == 2
        shared = [
            path for path in after.paths() if after.lookup(path) is before.lookup(path)
        ]
        # "/" shares index.html's entry, which a presentation edit keeps
        assert len(shared) == len(after.paths()) - rerendered
        full = Generation.from_static_pages(0, 0, core.regen.pages)
        assert after.paths() == full.paths()
        for path in full.paths():
            assert after.lookup(path) == full.lookup(path), path


class TestAdmissionControl:
    def test_sheds_over_limit(self):
        admission = AdmissionControl(limit=2)
        assert admission.try_acquire() and admission.try_acquire()
        assert not admission.try_acquire()
        admission.release()
        assert admission.try_acquire()
        stats = admission.stats()
        assert stats["shed"] == 1
        assert stats["peak"] == 2

    def test_unlimited(self):
        admission = AdmissionControl(limit=None)
        assert all(admission.try_acquire() for _ in range(100))
        assert admission.stats()["shed"] == 0


# ------------------------------------------------------------------ #
# the HTTP tier


class TestHTTPServing:
    @pytest.fixture(scope="class")
    def server(self, setup):
        core = _fresh_core(setup)
        server = SiteServer(core, workers=2).start()
        yield server
        server.stop()

    def test_root_served(self, server):
        status, headers, body = _get(server, "/")
        assert status == 200
        assert b"<html>" in body
        assert headers["X-Strudel-Generation"] == "1"
        assert "X-Strudel-Degraded" not in headers

    def test_unknown_path_is_real_404(self, server):
        status, _, body = _get(server, "/no-such-page.html")
        assert status == 404
        assert b"404" in body and b"Traceback" not in body

    def test_stats_endpoint(self, server):
        status, _, body = _get(server, "/_stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["core"]["mode"] == "static"
        assert stats["core"]["generations"]["current_generation"] == 1
        assert "refresher" in stats

    def test_health_and_paths(self, server):
        assert json.loads(_get(server, "/_health")[2]) == {"ok": True}
        paths = json.loads(_get(server, "/_paths")[2])
        assert "/" in paths and len(paths) > 5

    def test_json_bodies_carry_no_oids(self, server):
        """``/_stats`` and ``/_paths`` are encoded with ``default=str``,
        which never sees a tuple subclass: an oid in a payload would come
        out as a one-element list.  Pin both bodies: paths are strings,
        and ``/_stats`` has a fixed key set whose leaves are scalars."""
        paths = json.loads(_get(server, "/_paths")[2])
        assert paths == server.core.known_paths()
        assert paths == sorted(paths)
        assert all(type(path) is str and path.startswith("/") for path in paths)

        stats = json.loads(_get(server, "/_stats")[2])
        assert set(stats) == {
            "uptime_s", "workers", "queue_depth", "draining",
            "deadline_budget_s", "admission", "core", "refresher", "watchdog",
        }
        assert set(stats["core"]) == {
            "mode", "workers_seen", "requests", "cache_hits", "cache_misses",
            "dynamic_renders", "not_found", "degraded", "deadline_exceeded",
            "refreshes_applied", "refreshes_failed", "rebuilds", "generations",
        }

        def leaves(value):
            if isinstance(value, dict):
                for item in value.values():
                    yield from leaves(item)
            else:
                yield value

        for leaf in leaves(stats):
            assert leaf is None or type(leaf) in (str, int, float, bool), leaf

    def test_served_bytes_match_static_build(self, setup, server):
        data, program = setup
        static = generate_site(
            evaluate(program, data), homepage_templates(), ["RootPage()"]
        )
        reference = _static_reference(static.pages)
        for path, expected in reference.items():
            status, _, body = _get(server, path)
            assert status == 200
            assert body == expected, path

    def test_concurrent_byte_identity(self, setup, server):
        """Many threads, keep-alive connections: every response equals
        the static build byte for byte."""
        data, program = setup
        static = generate_site(
            evaluate(program, data), homepage_templates(), ["RootPage()"]
        )
        reference = _static_reference(static.pages)
        paths = sorted(reference)
        failures = []

        def _client(offset):
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                for index in range(len(paths) * 2):
                    path = paths[(offset + index) % len(paths)]
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                    if response.status != 200 or body != reference[path]:
                        failures.append((path, response.status))
            finally:
                connection.close()

        threads = [threading.Thread(target=_client, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


class TestRefreshUnderLoad:
    def test_no_torn_generations(self, setup):
        """Responses observed while edits publish mid-load always match
        the snapshot their generation header names -- never a mix."""
        data, program = setup
        core = _fresh_core(setup)
        server = SiteServer(core, workers=4).start()
        try:
            edits = [
                (
                    "pub-smoke-a",
                    [("title", "Torn Test A"), ("year", 1997),
                     ("author", "Serge Abiteboul"), ("category", "web")],
                ),
                (
                    "pub-smoke-b",
                    [("title", "Torn Test B"), ("year", 1996),
                     ("author", "Dan Suciu"), ("category", "languages")],
                ),
            ]
            # reference snapshots: an independent warm regenerator fed
            # the same edit sequence; generation N is after N-1 edits
            reference_site = RegeneratingSite(
                program, _copy_graph(data), homepage_templates(), ["RootPage()"]
            )
            references = {1: _static_reference(dict(reference_site.pages))}
            for index, (oid_name, attributes) in enumerate(edits):
                reference_site.add_object(
                    "Publications", attributes, oid=Oid(oid_name)
                )
                references[index + 2] = _static_reference(
                    dict(reference_site.pages)
                )

            observed = []
            observed_lock = threading.Lock()
            stop = threading.Event()

            def _client(worker):
                paths = sorted(references[1])
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=10
                )
                try:
                    index = worker
                    while not stop.is_set():
                        path = paths[index % len(paths)]
                        index += 1
                        connection.request("GET", path)
                        response = connection.getresponse()
                        body = response.read()
                        generation = int(
                            response.getheader("X-Strudel-Generation")
                        )
                        with observed_lock:
                            observed.append((path, generation, body))
                finally:
                    connection.close()

            threads = [
                threading.Thread(target=_client, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            seen_generations = set()
            for oid_name, attributes in edits:
                time.sleep(0.15)
                ticket = server.submit_edit(
                    lambda regen, o=oid_name, a=attributes: regen.add_object(
                        "Publications", a, oid=Oid(o)
                    )
                )
                assert ticket.wait(10) and ticket.applied, ticket.error
                seen_generations.add(ticket.info["generation"])
            time.sleep(0.15)
            stop.set()
            for thread in threads:
                thread.join()

            assert seen_generations == {2, 3}
            torn = [
                (path, generation)
                for path, generation, body in observed
                if references[generation].get(path) != body
            ]
            assert not torn
            # the load actually spanned the swaps
            assert {generation for _, generation, _ in observed} >= {1, 3}
        finally:
            server.stop()

    def test_refresh_failure_keeps_last_known_good(self, setup):
        core = _fresh_core(setup)
        server = SiteServer(core, workers=2).start()
        try:
            before = _get(server, "/")[2]
            install(FaultPlan().fail_at("serve.refresh.apply", 1))
            ticket = server.submit_edit(
                lambda regen: regen.add_object(
                    "Publications", [("title", "Lost"), ("year", 1991),
                                     ("author", "Nobody")]
                )
            )
            assert ticket.wait(10)
            assert not ticket.applied
            uninstall()
            status, headers, body = _get(server, "/")
            assert status == 200
            assert body == before  # last-known-good bytes
            assert headers["X-Strudel-Degraded"] == "stale-generation"
            # the next successful edit heals through a full rebuild
            ticket = server.submit_edit(
                lambda regen: regen.add_object(
                    "Publications",
                    [("title", "Heal"), ("year", 1992),
                     ("author", "Peter Buneman"), ("category", "web")],
                )
            )
            assert ticket.wait(10) and ticket.applied
            assert ticket.info["coarse"]
            status, headers, _ = _get(server, "/")
            assert status == 200
            assert "X-Strudel-Degraded" not in headers
            assert core.rebuilds == 1
        finally:
            server.stop()

    def test_breaker_opens_after_repeated_failures(self, setup):
        core = _fresh_core(setup)
        refresher = Refresher(core, breaker_threshold=2, breaker_reset=60.0)
        refresher.start()
        try:
            install(FaultPlan().fail_always("serve.refresh.apply"))
            noop = lambda regen: None  # noqa: E731
            for _ in range(2):
                ticket = refresher.submit(noop)
                assert ticket.wait(10) and not ticket.applied
            ticket = refresher.submit(noop)
            assert ticket.wait(10)
            assert not ticket.applied
            assert "breaker" in ticket.error
            stats = refresher.stats()
            assert stats["breaker_state"] == "open"
            assert stats["edits_rejected"] == 1
        finally:
            uninstall()
            refresher.stop()


class TestOverloadAndShutdown:
    def test_sheds_with_503_when_draining(self, setup):
        core = _fresh_core(setup)
        server = SiteServer(core, workers=2).start()
        try:
            server.httpd.draining = True
            status, headers, body = _get(server, "/")
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert b"503" in body
        finally:
            server.httpd.draining = False
            server.stop()

    def test_admission_limit_sheds_under_burst(self, setup):
        core = _fresh_core(setup)
        server = SiteServer(core, workers=1, admission_limit=1).start()
        try:
            results = []
            results_lock = threading.Lock()

            def _client():
                status, _, _ = _get(server, "/")
                with results_lock:
                    results.append(status)

            threads = [threading.Thread(target=_client) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert set(results) <= {200, 503}
            assert 200 in results  # some requests served
        finally:
            server.stop()

    def test_graceful_stop_completes_admitted_requests(self, setup):
        core = _fresh_core(setup)
        server = SiteServer(core, workers=2).start()
        errors = []
        done = []

        def _client(index):
            try:
                for _ in range(10):
                    status, _, body = _get(server, "/")
                    if status == 200 and not body:
                        errors.append("empty body")
                done.append(index)
            except (ConnectionError, http.client.HTTPException, OSError):
                done.append(index)  # refused after shutdown: fine

        threads = [threading.Thread(target=_client, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        assert server.stop(timeout=10)
        for thread in threads:
            thread.join()
        assert not errors
        assert len(done) == 4

    def test_stop_is_idempotent(self, setup):
        core = _fresh_core(setup)
        server = SiteServer(core, workers=1).start()
        assert server.stop()
        assert server.stop()


class TestDynamicMode:
    def test_dynamic_pages_match_static_build(self, setup):
        data, program = setup
        core = _fresh_core(setup, dynamic=True)
        server = SiteServer(core, workers=3).start()
        try:
            static = generate_site(
                evaluate(program, data), homepage_templates(), ["RootPage()"]
            )
            status, _, root = _get(server, "/")
            assert status == 200
            normalized = (
                root.decode("utf-8")
                .replace('href="/"', 'href="index.html"')
                .replace('href="/', 'href="')
            )
            assert normalized == static.pages["index.html"]
            # misses fill the generation: the second hit is cached
            before = core.worker_metrics().cache_hits
            _get(server, "/")
            assert core.worker_metrics().cache_hits == before + 1
        finally:
            server.stop()

    def test_dynamic_404(self, setup):
        core = _fresh_core(setup, dynamic=True)
        server = SiteServer(core, workers=1).start()
        try:
            status, _, _ = _get(server, "/nope.html")
            assert status == 404
        finally:
            server.stop()


class TestServeCLI:
    def test_serve_and_stats_cli(self, setup, tmp_path, capsys):
        import socket

        data, _ = setup
        (tmp_path / "data.ddl").write_text(ddl.dumps(data))
        (tmp_path / "site.struql").write_text(HOMEPAGE_QUERY)
        templates = tmp_path / "templates"
        templates.mkdir()
        names = {
            "rootpage": "RootPage__",
            "abstractspage": "AbstractsPage__",
            "yearpage": "YearPages",
            "categorypage": "CategoryPages",
            "paperpresentation": "Presentations",
            "abstractpage": "AbstractPages",
        }
        source = homepage_templates()
        for internal, out in names.items():
            (templates / f"{out}.tmpl").write_text(
                source.get(internal).source_text
            )
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        exit_codes = []

        def _run():
            exit_codes.append(
                cli.main(
                    [
                        "serve",
                        "--data", str(tmp_path / "data.ddl"),
                        "--query", str(tmp_path / "site.struql"),
                        "--templates", str(templates),
                        "--port", str(port),
                        "--workers", "2",
                        "--duration", "2.5",
                    ]
                )
            )

        thread = threading.Thread(target=_run)
        thread.start()
        try:
            deadline = time.monotonic() + 10
            status = None
            while time.monotonic() < deadline:
                try:
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=5
                    )
                    connection.request("GET", "/")
                    status = connection.getresponse().status
                    connection.close()
                    break
                except OSError:
                    time.sleep(0.1)
            assert status == 200
            assert cli.main(["stats", "--serve", f"http://127.0.0.1:{port}"]) == 0
            out = capsys.readouterr().out
            assert "current_generation: 1" in out
            assert "workers: 2" in out
        finally:
            thread.join(timeout=15)
        assert exit_codes == [0]


# ------------------------------------------------------------------ #
# an edit whose maintenance pass raised after mutating the data


def _late_author_edit(regen):
    pub = regen.maintainer.data_graph.collection("Publications")[0]
    regen.add_edge(pub, "author", "Late Author")


def _crash_next_maintenance_pass(monkeypatch):
    from repro.core.maintenance import SiteMaintainer

    original = SiteMaintainer._maintain

    def crash_once(self, *args, **kwargs):
        monkeypatch.setattr(SiteMaintainer, "_maintain", original)
        raise RuntimeError("maintenance pass died")

    monkeypatch.setattr(SiteMaintainer, "_maintain", crash_once)


def _fresh_pages(program, data, roots):
    return generate_site(evaluate(program, data), homepage_templates(), roots).pages


class TestFailedMaintenancePass:
    def test_regen_rebuild_rederives_the_site_graph(self, monkeypatch):
        program = parse(HOMEPAGE_QUERY)
        regen = RegeneratingSite(
            program, bibliography_graph(6, seed=3), homepage_templates(), ["RootPage()"]
        )
        _crash_next_maintenance_pass(monkeypatch)
        with pytest.raises(RuntimeError):
            _late_author_edit(regen)
        regen.rebuild()
        data = regen.maintainer.data_graph
        assert regen.pages == _fresh_pages(program, data, ["RootPage()"])
        pub = data.collection("Publications")[1]
        regen.add_edge(pub, "author", "Later Author")
        assert regen.pages == _fresh_pages(program, data, ["RootPage()"])

    def test_recover_then_next_edit_publishes_a_fresh_build(self, setup, monkeypatch):
        core = _fresh_core(setup)
        _crash_next_maintenance_pass(monkeypatch)
        with pytest.raises(RuntimeError):
            core.apply_edit(_late_author_edit)
        core.recover()
        core.apply_edit(
            lambda regen: regen.add_edge(
                regen.maintainer.data_graph.collection("Publications")[1],
                "author", "Later Author",
            )
        )
        assert core.rebuilds == 1
        _, program = setup
        expected = _static_reference(_fresh_pages(program, core.data_graph, core.roots))
        generation = core.cache.current()
        assert sorted(generation.paths()) == sorted(expected)
        for path, body in expected.items():
            assert generation.lookup(path).body == body, path
