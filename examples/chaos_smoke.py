#!/usr/bin/env python3
"""Chaos smoke run: drive the full pipeline through injected failures.

The scenario mirrors the resilience acceptance test, as a standalone
driver CI can run and archive:

1. three sources feed the mediator -- one source hard-fails at every
   wrap attempt, and ~10% of the bibliography is malformed;
2. the mediator retries the dead source, trips its circuit breaker,
   quarantines the bad records, and builds a *partial* warehouse;
3. the warehouse persists crash-safely and reloads from disk;
4. the page server serves every derivable page, then -- with the query
   engine failing -- serves the homepage from last-known-good bytes;
5. the HTTP tier takes a refresher crash mid-edit: the last-known-good
   generation keeps serving (200 + degraded header), and the next
   successful edit heals through a full rebuild;
6. the SQLite repository is crashed at every ``sql.*`` fault site and
   bit-flipped on disk; every reopen must come back loadable or
   auto-recovered from its checksummed DDL snapshots;
7. an adversarial cyclic-star query is served under a small deadline:
   the server answers a structured 504 within 2x the budget while
   well-behaved requests keep serving;
8. the resilience report, the serve-tier stats, the slow-query and
   recovery ledgers, and the fault plan's injection log are written as
   JSON artifacts.

Run:  REPRO_CHAOS_SEED=1337 python examples/chaos_smoke.py \
          [output-dir] [--backend memory|sqlite]

``--backend sqlite`` runs the serve scenarios against a SQLite-backed
data graph (exercising progress-handler cancellation and interrupt
counters); the default is the in-memory graph.

Exits non-zero if any degradation guarantee is violated.
"""

import json
import os
import sys
import tempfile
import threading
import time

from repro.mediator import Mediator
from repro.repository import Repository, ddl
from repro.resilience import (
    FaultPlan,
    ManualClock,
    ResiliencePolicy,
    ResilienceReport,
    RetryPolicy,
    chaos,
)
from repro.core import PageServer
from repro.struql import parse
from repro.workloads.bibliography import (
    HOMEPAGE_QUERY,
    generate_entries,
    homepage_templates,
)
from repro.wrappers import BibtexWrapper, RelationalWrapper, StructuredFileWrapper, Table

BAD_ENTRY = "@article{badentry, title = , year}\n"


def build_mediator(repository: Repository, policy: ResiliencePolicy) -> Mediator:
    mediator = Mediator(repository=repository, policy=policy)
    mediator.add_source(
        "pubs",
        BibtexWrapper(generate_entries(10, seed=3) + BAD_ENTRY, source_name="pubs"),
    )
    mediator.add_source(
        "people",
        RelationalWrapper(
            [Table("People", ["id", "name"], [["a", "Ann"], ["b", "Bob"]])],
            key_columns={"People": "id"},
            source_name="people",
        ),
    )
    mediator.add_source(
        "projects",
        StructuredFileWrapper(
            "%collection Projects\nname: strudel\n", source_name="projects"
        ),
    )
    for name in ("pubs", "people", "projects"):
        mediator.import_source(name)
    return mediator


def serve_scenario(seed: int, output_dir: str, failures: list) -> None:
    """Refresher crash under the HTTP tier: the published generation
    keeps serving as last-known-good, and the next good edit heals."""
    import http.client

    from repro.serve import ServeCore, SiteServer
    from repro.workloads.bibliography import bibliography_graph

    def fetch(server, path):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    core = ServeCore(
        parse(HOMEPAGE_QUERY), bibliography_graph(10, seed=5), homepage_templates()
    )
    server = SiteServer(core, workers=2).start()
    try:
        status, _, baseline = fetch(server, "/")
        if status != 200:
            failures.append("serve: homepage did not serve before the fault")
        with chaos.installed(
            FaultPlan(seed=seed).fail_at("serve.refresh.apply", 1)
        ):
            ticket = server.submit_edit(
                lambda regen: regen.add_object(
                    "Publications",
                    [("title", "Crashed Edit"), ("year", 1995),
                     ("author", "Chaos Editor")],
                )
            )
            ticket.wait(30)
        if ticket.applied:
            failures.append("serve: faulted edit reported success")
        status, headers, body = fetch(server, "/")
        if status != 200 or body != baseline:
            failures.append("serve: last-known-good generation not served")
        if headers.get("X-Strudel-Degraded") != "stale-generation":
            failures.append("serve: degradation not surfaced in headers")
        healing = server.submit_edit(
            lambda regen: regen.add_object(
                "Publications",
                [("title", "Healing Edit"), ("year", 1996),
                 ("author", "Chaos Editor"), ("category", "web")],
            )
        )
        healing.wait(30)
        if not healing.applied or not healing.info.get("coarse"):
            failures.append("serve: healing edit did not rebuild")
        status, headers, body = fetch(server, "/")
        if status != 200 or "X-Strudel-Degraded" in headers:
            failures.append("serve: site still degraded after healing edit")
        if b"1996" not in body:
            failures.append("serve: healed generation is missing the edit")
        stats = server.stats()
        if stats["core"]["refreshes_failed"] != 1:
            failures.append("serve: refresh failure not counted")
        with open(
            os.path.join(output_dir, "serve-stats.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(stats, handle, indent=2, sort_keys=True, default=str)
    finally:
        server.stop()


def sql_scenario(seed: int, output_dir: str, failures: list) -> None:
    """Crash the SQLite repository at every ``sql.*`` fault site, then
    corrupt it on disk; every cold reopen must be loadable or
    auto-recovered from the DDL snapshots."""
    from repro.repository import SqlRepository
    from repro.resilience import recovery_events, reset_recovery_events
    from repro.resilience.chaos import ChaosFault, flip_bit
    from repro.workloads.bibliography import bibliography_graph

    reset_recovery_events()
    results = []
    with tempfile.TemporaryDirectory() as root:
        for site in ("sql.commit", "sql.fsync", "sql.snapshot"):
            directory = os.path.join(root, site.replace(".", "-"))
            repository = SqlRepository(directory)
            repository.store("stable", bibliography_graph(6, seed=seed % 97))
            crashed = False
            with chaos.installed(FaultPlan(seed=seed).fail_at(site, 1)):
                try:
                    repository.store(
                        "victim", bibliography_graph(4, seed=(seed + 1) % 97)
                    )
                except ChaosFault:
                    crashed = True
            del repository  # the "kill"
            reopened = SqlRepository(directory)
            loadable = (
                "stable" in reopened
                and reopened.fetch("stable").node_count > 0
                and reopened.store_backend.integrity_check() == []
            )
            if not crashed:
                failures.append(f"sql: fault at {site} did not fire")
            if not loadable:
                failures.append(f"sql: repository unusable after crash at {site}")
            results.append(
                {"site": site, "crashed": crashed, "loadable": loadable,
                 "recoveries": reopened.integrity_recoveries}
            )

        # media corruption: destroy the header, reopen, auto-recover
        directory = os.path.join(root, "bitflip")
        repository = SqlRepository(directory)
        repository.store("stable", bibliography_graph(6, seed=seed % 97))
        db_path = repository.store_backend.path
        repository.store_backend.close()  # checkpoint the WAL
        del repository
        flip_bit(db_path, offset=0)
        flip_bit(db_path, offset=1)
        reopened = SqlRepository(directory)
        restored = (
            reopened.integrity_recoveries == 1
            and "stable" in reopened
            and reopened.fetch("stable").node_count > 0
        )
        if not restored:
            failures.append("sql: bit-flipped repository did not auto-recover")
        results.append(
            {"site": "flip_bit(header)", "crashed": True, "loadable": restored,
             "recoveries": reopened.integrity_recoveries}
        )

    with open(
        os.path.join(output_dir, "sql-recovery.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {"scenarios": results, "recovery_events": recovery_events()},
            handle, indent=2, sort_keys=True,
        )


ADVERSARIAL_QUERY = """
create RootPage(), SlowPage()
link RootPage() -> "Slow" -> SlowPage()
where Entries(x), x -> ( "link" )* -> t
create HitPage(t)
link SlowPage() -> "Hit" -> HitPage(t),
     HitPage(t) -> "name" -> t
collect Hits(HitPage(t))
"""


def deadline_scenario(output_dir: str, failures: list, backend: str) -> None:
    """An adversarial cyclic-star query must come back as a structured
    504 within 2x the deadline while healthy requests keep serving."""
    import http.client

    from repro.graph import Graph
    from repro.resilience import reset_slow_queries, slow_queries
    from repro.serve import ServeCore, SiteServer
    from repro.template import TemplateSet

    def fetch(server, path):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    graph = Graph("cyclic")
    oids = [graph.add_node(hint=f"n{i}") for i in range(300)]
    for i, oid in enumerate(oids):
        graph.add_to_collection("Entries", oid)
        for j in range(1, 7):
            graph.add_edge(oid, "link", oids[(i + j * 7) % 300])

    templates = TemplateSet()
    templates.add("rootpage", "<html><body><h1>Root</h1></body></html>\n")
    templates.add(
        "slowpage", "<html><body><h1>Hits</h1><SFMT Hit COUNT></body></html>\n"
    )
    templates.add("hitpage", "<html><body><SFMT name></body></html>\n")
    templates.for_object("RootPage()", "rootpage")
    templates.for_object("SlowPage()", "slowpage")
    templates.for_collection("Hits", "hitpage")

    budget = 0.4
    source = graph
    reset_slow_queries()
    sql_directory = tempfile.TemporaryDirectory()
    try:
        if backend == "sqlite":
            from repro.repository import SqlRepository

            repository = SqlRepository(sql_directory.name)
            repository.store("adv", source)
            graph = repository.fetch("adv")
        core = ServeCore(ADVERSARIAL_QUERY, graph, templates, dynamic=True)
        server = SiteServer(core, workers=2, deadline_budget=budget).start()
        try:
            # warm the healthy page (and the engines) with deadlines off,
            # then force the adversarial render to recompute from scratch
            server.httpd.deadline_budget = None
            status, _ = fetch(server, "/")
            if status != 200:
                failures.append("deadline: homepage failed during warm-up")
            server.httpd.deadline_budget = budget
            source.add_node(hint="epoch-bump")
            if backend == "sqlite":
                # a stored graph is read-only: the edited source becomes
                # its next generation, served by the same object
                repository.store("adv", source)

            healthy = []

            def well_behaved():
                for _ in range(20):
                    healthy.append(fetch(server, "/")[0])

            thread = threading.Thread(target=well_behaved)
            thread.start()
            started = time.monotonic()
            status, body = fetch(server, "/SlowPage.html")
            elapsed = time.monotonic() - started
            thread.join()

            if status != 504:
                failures.append(f"deadline: adversarial page returned {status}")
            if elapsed >= 2 * budget:
                failures.append(
                    f"deadline: 504 took {elapsed:.2f}s (> 2x {budget}s budget)"
                )
            if b"Traceback" in body:
                failures.append("deadline: 504 body leaked a traceback")
            if set(healthy) != {200}:
                failures.append("deadline: healthy traffic disturbed")
            stats = server.stats()
            if stats["core"]["deadline_exceeded"] < 1:
                failures.append("deadline: cancellation not counted")
            with open(
                os.path.join(output_dir, "slow-queries.json"), "w", encoding="utf-8"
            ) as handle:
                json.dump(
                    {"backend": backend, "budget_s": budget,
                     "elapsed_s": round(elapsed, 3), "status": status,
                     "slow_queries": slow_queries(),
                     "watchdog": stats.get("watchdog"),
                     "sql_interrupts": stats["core"].get("sql_interrupts")},
                    handle, indent=2, sort_keys=True,
                )
        finally:
            if not server.stop():
                failures.append("deadline: server did not drain cleanly")
    finally:
        sql_directory.cleanup()


def main(output_dir: str = "chaos-out", *extra: str) -> int:
    backend = "memory"
    arguments = list(extra)
    if "--backend" in arguments:
        index = arguments.index("--backend")
        backend = arguments[index + 1]
    if backend not in ("memory", "sqlite"):
        print(f"chaos smoke: unknown backend {backend!r}", file=sys.stderr)
        return 2
    os.makedirs(output_dir, exist_ok=True)
    clock = ManualClock()
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, clock=clock),
        breaker_threshold=1,
        min_sources=1,
        clock=clock,
    )
    plan = FaultPlan.from_env(default_seed=1337).fail_always("wrapper.structured.wrap")
    failures = []

    with tempfile.TemporaryDirectory() as store_dir:
        repository = Repository(store_dir)
        mediator = build_mediator(repository, policy)
        with chaos.installed(plan):
            warehouse = mediator.ingest("data")
        report = mediator.last_report

        if not report.partial:
            failures.append("warehouse was not marked partial")
        if "projects" not in report.failed_sources:
            failures.append("dead source was not recorded as failed")
        if report.quarantine.get("pubs", {}).get("quarantined") != 1:
            failures.append("malformed record was not quarantined")
        if mediator.breaker_states()["projects"]["state"] != "open":
            failures.append("circuit breaker did not open")

        # the degraded generation persisted crash-safely and reloads clean
        reloaded = Repository(store_dir).fetch("data")
        if ddl.dumps(reloaded) != ddl.dumps(warehouse):
            failures.append("persisted warehouse does not round-trip")

        # every derivable page still serves
        server = PageServer(parse(HOMEPAGE_QUERY), warehouse, homepage_templates())
        homepage = server.get("/")
        for path in list(server.known_paths()):
            server.get(path)
        if server.degradations:
            failures.append("healthy serve unexpectedly degraded")

        # with the engine failing, the homepage degrades to stale bytes
        server.invalidate()
        with chaos.installed(FaultPlan(seed=plan.seed).fail_always("engine.bindings")):
            degraded = server.get("/")
        if degraded != homepage:
            failures.append("stale homepage differs from last-known-good bytes")
        if not server.degradations or server.degradations[-1]["kind"] != "stale":
            failures.append("stale serve was not recorded")

        resilience = (
            ResilienceReport()
            .record_mediation(mediator)
            .record_server(server)
            .record_recoveries()
        )
        resilience.save(os.path.join(output_dir, "resilience.json"))
        with open(
            os.path.join(output_dir, "fault-plan.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(plan.report(), handle, indent=2, sort_keys=True)

    serve_scenario(plan.seed, output_dir, failures)
    sql_scenario(plan.seed, output_dir, failures)
    deadline_scenario(output_dir, failures, backend)

    print(f"chaos seed: {plan.seed} (backend: {backend})")
    for line in resilience.summary_lines():
        print(f"  {line}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos smoke: all degradation guarantees held")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
