"""Resilience and chaos tests: quarantine, retry/breakers, crash-safe
persistence, last-known-good serving, and the fault-injection harness.

The acceptance scenario at the bottom drives the whole pipeline with one
source hard-failing and ~10% of another source's records malformed, and
checks the site still builds, serves, and reports its degradation."""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.core import PageServer
from repro.core.stats import measure_site
from repro.errors import (
    MediatorError,
    QuarantineExceeded,
    RepositoryCorruptionError,
    RepositoryError,
    WrapperError,
)
from repro.graph import Graph, Oid, string
from repro.mediator import MediationReport, Mediator
from repro.mediator.mediator import PROVENANCE_OID
from repro.repository import Repository, ddl
from repro.resilience import (
    BreakerState,
    ChaosFault,
    CircuitBreaker,
    FaultPlan,
    ManualClock,
    QuarantineReport,
    ResiliencePolicy,
    ResilienceReport,
    RetryPolicy,
    WrapPolicy,
    chaos,
    recovery_events,
    reset_recovery_events,
)
from repro.struql import parse
from repro.workloads.bibliography import (
    HOMEPAGE_QUERY,
    bibliography_graph,
    generate_entries,
    homepage_templates,
)
from repro.wrappers import (
    BibtexWrapper,
    ForeignKey,
    RelationalWrapper,
    StructuredFileWrapper,
    Table,
    XmlWrapper,
)


@pytest.fixture(autouse=True)
def _clean_global_state():
    reset_recovery_events()
    chaos.uninstall()
    yield
    reset_recovery_events()
    chaos.uninstall()


def _good_entry(i):
    return (
        f"@article{{p{i},\n"
        f"  title = {{Paper {i}}},\n"
        f"  year = {{199{i % 10}}},\n"
        f"  author = {{Author {i}}}\n"
        f"}}\n"
    )


def _bad_entry(i):
    # balanced braces, so exactly this entry fails (bad field value)
    return f"@article{{bad{i}, title = , year}}\n"


def _item_graph(tag, items=2):
    graph = Graph("data")
    graph.create_collection("Items")
    for i in range(items):
        oid = graph.add_node(Oid(f"item:{tag}:{i}"))
        graph.add_edge(oid, "label", string(f"value {tag} {i}"))
        graph.add_to_collection("Items", oid)
    return graph


def _manual_policy(max_attempts=2, threshold=3, min_sources=1):
    clock = ManualClock()
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=max_attempts, clock=clock),
        breaker_threshold=threshold,
        min_sources=min_sources,
        clock=clock,
    )


# ------------------------------------------------------------------ #
# policies and quarantine reports


def test_wrap_policy_modes():
    assert not WrapPolicy().quarantine
    assert not WrapPolicy.strict().quarantine
    tolerant = WrapPolicy.tolerant()
    assert tolerant.quarantine and tolerant.max_errors is None
    assert WrapPolicy.tolerant(max_errors=3).max_errors == 3


def test_wrap_policy_clips_snippets():
    policy = WrapPolicy.tolerant()
    long = "x" * 500
    clipped = policy.clip(long)
    assert len(clipped) <= policy.snippet_length + 3
    assert clipped.startswith("x")


def test_quarantine_report_accumulates():
    report = QuarantineReport(source="s")
    assert report.ok and report.count == 0
    report.add("row 1", ValueError("boom"), snippet="a,b")
    assert not report.ok and report.count == 1
    as_dict = report.as_dict()
    assert as_dict["source"] == "s"
    assert as_dict["quarantined"] == 1
    assert as_dict["records"][0]["error"] == "ValueError: boom"
    assert as_dict["records"][0]["locator"] == "row 1"


# ------------------------------------------------------------------ #
# wrapper quarantine, per source kind


def test_bibtex_strict_raises_with_context():
    wrapper = BibtexWrapper(_good_entry(1) + _bad_entry(0), source_name="pubs.bib")
    with pytest.raises(WrapperError) as excinfo:
        wrapper.wrap()
    assert "pubs.bib" in str(excinfo.value)


def test_bibtex_tolerant_quarantines_bad_entries():
    text = _good_entry(1) + _bad_entry(0) + _good_entry(2) + _bad_entry(1) + _good_entry(3)
    wrapper = BibtexWrapper(text, source_name="pubs")
    graph = wrapper.wrap(WrapPolicy.tolerant())
    assert len(graph.collection("Publications")) == 3
    assert wrapper.last_quarantine.count == 2
    assert wrapper.last_quarantine.admitted == 3
    assert all(r.source == "pubs" for r in wrapper.last_quarantine.records)


def test_quarantine_budget_exceeded():
    text = _bad_entry(0) + _bad_entry(1)
    wrapper = BibtexWrapper(text, source_name="pubs")
    with pytest.raises(QuarantineExceeded) as excinfo:
        wrapper.wrap(WrapPolicy.tolerant(max_errors=1))
    assert excinfo.value.count == 2
    assert excinfo.value.budget == 1


def test_csv_tolerant_quarantines_ragged_rows():
    table = Table("T", ["a", "b"], [["1", "2"], ["only"], ["3", "4", "5"]])
    wrapper = RelationalWrapper([table], source_name="rel")
    graph = wrapper.wrap(WrapPolicy.tolerant())
    assert len(graph.collection("T")) == 1
    assert wrapper.last_quarantine.count == 2
    locators = [r.locator for r in wrapper.last_quarantine.records]
    assert any("row 2" in loc for loc in locators)


def test_csv_strict_ragged_row_raises():
    table = Table("T", ["a", "b"], [["1"]])
    with pytest.raises(WrapperError) as excinfo:
        RelationalWrapper([table], source_name="rel").wrap()
    assert excinfo.value.locator == "T row 1"
    assert excinfo.value.source_name == "rel"


def test_csv_dangling_foreign_key_quarantines_referencing_row():
    people = Table("People", ["id", "name"], [["a", "Ann"], ["b", "Bob"]])
    papers = Table(
        "Papers",
        ["id", "title", "author"],
        [["p1", "One", "a"], ["p2", "Two", "zz"]],
    )
    wrapper = RelationalWrapper(
        [people, papers],
        key_columns={"People": "id", "Papers": "id"},
        foreign_keys={"Papers": [ForeignKey("author", "People", "id")]},
        source_name="rel",
    )
    with pytest.raises(WrapperError):
        wrapper.wrap()
    graph = wrapper.wrap(WrapPolicy.tolerant())
    assert len(graph.collection("People")) == 2
    assert len(graph.collection("Papers")) == 1
    assert wrapper.last_quarantine.count == 1
    assert "Papers" in wrapper.last_quarantine.records[0].locator


def test_dangling_foreign_key_keeps_the_node_an_admitted_row_shares():
    """Rows with one key share one node: dropping the second row for its
    foreign key must not take the first row's node with it."""
    people = Table("People", ["id", "name"], [["a", "Ann"]])
    papers = Table(
        "Papers",
        ["id", "title", "author"],
        [["p1", "One", "a"], ["p1", "One again", "zz"]],
    )
    wrapper = RelationalWrapper(
        [people, papers],
        key_columns={"People": "id", "Papers": "id"},
        foreign_keys={"Papers": [ForeignKey("author", "People", "id")]},
    )
    graph = wrapper.wrap(WrapPolicy.tolerant())
    report = wrapper.last_quarantine
    assert graph.collection("Papers") == [Oid("Papers:p1")]
    assert list(graph.out_edges(Oid("Papers:p1"))) == [
        ("id", string("p1")), ("title", string("One")), ("author", Oid("People:a")),
    ]
    # one People row and one Papers row admitted, each a member
    assert report.admitted == 2 == sum(
        len(graph.collection(name)) for name in graph.collection_names()
    )
    assert [record.locator for record in report.records] == ["Papers row 2"]


def test_foreign_key_to_a_dropped_row_drops_the_referencing_row():
    """A key is there only if a row with it is admitted: a row whose
    target row was dropped for its own foreign key goes too."""
    teams = Table("Teams", ["id", "lead"], [["t1", "nobody"]])
    people = Table("People", ["id", "team"], [["a", "t1"], ["b", ""]])
    wrapper = RelationalWrapper(
        [people, teams],
        key_columns={"People": "id", "Teams": "id"},
        foreign_keys={
            "People": [ForeignKey("team", "Teams", "id")],
            "Teams": [ForeignKey("lead", "People", "id")],
        },
    )
    graph = wrapper.wrap(WrapPolicy.tolerant())
    assert graph.collection("People") == [Oid("People:b")]
    assert graph.collection("Teams") == []
    assert not graph.has_node(Oid("Teams:t1"))
    assert wrapper.last_quarantine.admitted == 1
    assert [r.locator for r in wrapper.last_quarantine.records] == [
        "Teams row 1", "People row 1",
    ]


def test_structured_tolerant_discards_only_bad_record():
    text = (
        "%collection Projects\n"
        "%id name\n"
        "name: strudel\n"
        "lead: mary\n"
        "\n"
        "name: broken\n"
        "this line has no separator\n"
        "status: active\n"
        "\n"
        "name: tioga\n"
        "lead: anne\n"
    )
    wrapper = StructuredFileWrapper(text, source_name="projects")
    with pytest.raises(WrapperError):
        wrapper.wrap()
    graph = wrapper.wrap(WrapPolicy.tolerant())
    members = {oid.name for oid in graph.collection("Projects")}
    assert members == {"Projects:strudel", "Projects:tioga"}
    assert wrapper.last_quarantine.count == 1


def test_xml_tolerant_falls_back_to_whole_source_quarantine():
    wrapper = XmlWrapper("<root><unclosed></root>", source_name="feed.xml")
    graph = wrapper.wrap(WrapPolicy.tolerant())
    assert graph.node_count == 0
    assert wrapper.last_quarantine.count == 1
    assert "line" in wrapper.last_quarantine.records[0].locator


def test_wrapper_error_carries_context():
    error = WrapperError(
        "bad value", source_name="people.csv", locator="row 3", cause=ValueError("x")
    )
    assert error.base_message == "bad value"
    assert str(error) == "people.csv: row 3: bad value"
    assert error.source_name == "people.csv"
    assert error.locator == "row 3"


# ------------------------------------------------------------------ #
# retry and circuit breakers


def test_retry_delays_are_deterministic():
    assert RetryPolicy(seed=9).delays() == RetryPolicy(seed=9).delays()
    exact = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0)
    assert exact.delays() == [1.0, 2.0, 4.0]


def test_retry_call_retries_then_succeeds():
    clock = ManualClock()
    policy = RetryPolicy(
        max_attempts=4, base_delay=1.0, jitter=0.0, clock=clock
    )
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise OSError("down")
        return "ok"

    seen = []
    result = policy.call(
        flaky, retry_on=(OSError,), on_retry=lambda a, e, d: seen.append((a, d))
    )
    assert result == "ok"
    assert len(calls) == 3
    assert clock.sleeps == [1.0, 2.0]
    assert seen == [(1, 1.0), (2, 2.0)]


def test_retry_exhaustion_reraises_last_error():
    clock = ManualClock()
    policy = RetryPolicy(max_attempts=2, base_delay=0.1, jitter=0.0, clock=clock)
    with pytest.raises(OSError):
        policy.call(lambda: (_ for _ in ()).throw(OSError("gone")), retry_on=(OSError,))
    assert clock.sleeps == [0.1]


def test_retry_does_not_catch_unlisted_errors():
    calls = []

    def wrong():
        calls.append(1)
        raise ValueError("not retryable")

    with pytest.raises(ValueError):
        RetryPolicy(clock=ManualClock()).call(wrong, retry_on=(OSError,))
    assert len(calls) == 1


def test_circuit_breaker_state_machine():
    clock = ManualClock()
    breaker = CircuitBreaker("src", failure_threshold=2, reset_timeout=30.0, clock=clock)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()
    clock.advance(30.0)
    assert breaker.allow()  # half-open probe
    assert breaker.state is BreakerState.HALF_OPEN
    breaker.record_failure()  # probe fails: re-open
    assert breaker.state is BreakerState.OPEN
    clock.advance(30.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    snapshot = breaker.snapshot()
    assert snapshot["name"] == "src"
    assert snapshot["state"] == "closed"
    assert snapshot["total_failures"] == 3
    assert snapshot["times_opened"] == 2


# ------------------------------------------------------------------ #
# the fault-injection harness


def test_fault_plan_fail_at_fires_on_nth_hit():
    plan = FaultPlan().fail_at("store.write.*", 2)
    plan.check("store.write.data.tmp")  # hit 1: no fault
    with pytest.raises(ChaosFault) as excinfo:
        plan.check("store.write.data.tmp")
    assert excinfo.value.hit == 2
    plan.check("store.write.data.tmp")  # hit 3: no fault
    assert plan.injected == [("store.write.data.tmp", 2)]


def test_fault_plan_fail_always_and_report():
    plan = FaultPlan(seed=5).fail_always("wrapper.*")
    with pytest.raises(ChaosFault):
        plan.check("wrapper.bibtex.wrap")
    plan_report = plan.report()
    assert plan_report["seed"] == 5
    assert plan_report["sites_reached"] == {"wrapper.bibtex.wrap": 1}
    assert plan_report["faults_injected"] == [{"site": "wrapper.bibtex.wrap", "hit": 1}]


def test_fault_plan_probability_is_seed_deterministic():
    def outcomes(seed):
        plan = FaultPlan(seed=seed).fail_with_probability("site", 0.5)
        out = []
        for _ in range(32):
            try:
                plan.check("site")
                out.append(False)
            except ChaosFault:
                out.append(True)
        return out

    assert outcomes(3) == outcomes(3)
    assert any(outcomes(3)) and not all(outcomes(3))


def test_installed_context_manager_restores_previous_plan():
    assert chaos.active() is None
    chaos.maybe_fail("anything")  # no-op without a plan
    outer = FaultPlan()
    with chaos.installed(outer):
        inner = FaultPlan().fail_always("x")
        with chaos.installed(inner):
            assert chaos.active() is inner
            with pytest.raises(ChaosFault):
                chaos.maybe_fail("x")
        assert chaos.active() is outer
    assert chaos.active() is None


def test_fault_plan_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS_SEED", "99")
    assert FaultPlan.from_env().seed == 99
    monkeypatch.setenv("REPRO_CHAOS_SEED", "junk")
    assert FaultPlan.from_env(default_seed=7).seed == 7
    monkeypatch.delenv("REPRO_CHAOS_SEED")
    assert FaultPlan.from_env(default_seed=11).seed == 11


def test_chaos_fault_is_not_a_strudel_error():
    from repro.errors import StrudelError

    assert not issubclass(ChaosFault, StrudelError)


# ------------------------------------------------------------------ #
# mediator degradation


def _three_source_mediator(repository=None, policy=None):
    mediator = Mediator(repository=repository, policy=policy)
    mediator.add_source(
        "pubs", BibtexWrapper(_good_entry(1) + _good_entry(2), source_name="pubs")
    )
    mediator.add_source(
        "people",
        RelationalWrapper(
            [Table("People", ["id", "name"], [["a", "Ann"]])],
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


def test_mediator_builds_partial_warehouse_when_one_source_dies():
    policy = _manual_policy(max_attempts=2)
    mediator = _three_source_mediator(policy=policy)
    plan = FaultPlan().fail_always("wrapper.structured.wrap")
    with chaos.installed(plan):
        warehouse = mediator.ingest("data")
    report = mediator.last_report
    assert report.partial and not report.stale
    assert list(report.failed_sources) == ["projects"]
    assert "ChaosFault" in report.failed_sources["projects"]
    assert report.retries["projects"] == 1  # retried once before giving up
    # survivors made it into the warehouse
    assert len(warehouse.collection("Publications")) == 2
    assert len(warehouse.collection("People")) == 1
    assert not warehouse.has_collection("Projects")
    # provenance records exactly what is present and missing
    edges = list(warehouse.out_edges(Oid(PROVENANCE_OID)))
    by_label = {}
    for label, target in edges:
        by_label.setdefault(label, []).append(target.value)
    assert by_label["partial"] == [True]
    assert set(by_label["missingSource"]) == {"projects"}
    assert set(by_label["source"]) == {"pubs", "people"}


def test_mediator_quarantine_flows_into_report_and_provenance():
    policy = _manual_policy()
    mediator = Mediator(policy=policy)
    mediator.add_source(
        "pubs",
        BibtexWrapper(_good_entry(1) + _bad_entry(0), source_name="pubs"),
    )
    mediator.import_source("pubs")
    warehouse = mediator.ingest("data")
    report = mediator.last_report
    assert report.partial
    assert report.quarantine["pubs"]["quarantined"] == 1
    assert report.quarantine["pubs"]["admitted"] == 1
    edges = dict(warehouse.out_edges(Oid(PROVENANCE_OID)))
    assert edges["quarantined"].value == 1


def test_mediator_open_breaker_skips_source():
    policy = _manual_policy(max_attempts=1, threshold=1)
    mediator = _three_source_mediator(policy=policy)
    plan = FaultPlan().fail_always("wrapper.structured.wrap")
    with chaos.installed(plan):
        mediator.ingest("data")
        assert mediator.breaker_states()["projects"]["state"] == "open"
        mediator.ingest("data")
    report = mediator.last_report
    assert report.skipped_sources == ["projects"]
    assert "projects" not in report.failed_sources


def test_mediator_serves_stale_warehouse_below_min_sources(tmp_path):
    policy = _manual_policy(max_attempts=1)
    repository = Repository(str(tmp_path))
    mediator = _three_source_mediator(repository=repository, policy=policy)
    good = mediator.ingest("data")
    with chaos.installed(FaultPlan().fail_always("wrapper.*")):
        stale = mediator.ingest("data")
    report = mediator.last_report
    assert report.stale and report.partial
    assert ddl.dumps(stale) == ddl.dumps(good)
    events = recovery_events()
    assert any(e["subject"] == "mediator" for e in events)


def test_mediator_raises_without_stale_fallback():
    policy = _manual_policy(max_attempts=1)
    mediator = _three_source_mediator(policy=policy)
    with chaos.installed(FaultPlan().fail_always("wrapper.*")):
        with pytest.raises(MediatorError):
            mediator.ingest("data")


def test_strict_mediation_still_raises():
    mediator = _three_source_mediator()
    with chaos.installed(FaultPlan().fail_always("wrapper.structured.wrap")):
        with pytest.raises(ChaosFault):
            mediator.materialize("data")


# ------------------------------------------------------------------ #
# crash-safe repository persistence

_STORE_SITES = [
    "store.backup.data.tmp",
    "store.backup.data.flush",
    "store.backup.data.rename",
    "store.write.data.tmp",
    "store.write.data.flush",
    "store.write.data.rename",
]


@pytest.mark.parametrize("site", _STORE_SITES)
def test_store_fault_preserves_previous_generation(tmp_path, site):
    directory = str(tmp_path)
    old = _item_graph("old")
    Repository(directory).store("data", old)
    new = _item_graph("new")
    with chaos.installed(FaultPlan().fail_always(site)):
        with pytest.raises(ChaosFault):
            Repository(directory).store("data", new)
    loaded = Repository(directory).fetch("data")
    assert ddl.dumps(loaded) == ddl.dumps(old)


def test_store_recovers_after_fault(tmp_path):
    directory = str(tmp_path)
    Repository(directory).store("data", _item_graph("old"))
    new = _item_graph("new")
    with chaos.installed(FaultPlan().fail_always("store.write.data.rename")):
        with pytest.raises(ChaosFault):
            Repository(directory).store("data", new)
    Repository(directory).store("data", new)  # retry without the fault
    assert ddl.dumps(Repository(directory).fetch("data")) == ddl.dumps(new)


def test_corrupt_primary_recovers_from_backup(tmp_path):
    directory = str(tmp_path)
    old, new = _item_graph("old"), _item_graph("new")
    repo = Repository(directory)
    repo.store("data", old)
    repo.store("data", new)  # backup now holds the old generation
    path = os.path.join(directory, "data.ddl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# repro-checksum: sha256=deadbeef\ngarbage that will not parse\n")
    loaded = Repository(directory).fetch("data")
    assert ddl.dumps(loaded) == ddl.dumps(old)
    events = recovery_events()
    assert any(e["subject"] == "repository" for e in events)


def test_corruption_without_backup_surfaces(tmp_path):
    directory = str(tmp_path)
    Repository(directory).store("data", _item_graph("only"))
    path = os.path.join(directory, "data.ddl")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[:-10])  # truncate: checksum no longer matches
    with pytest.raises(RepositoryCorruptionError):
        Repository(directory).fetch("data")


def test_checksum_roundtrip():
    text = "collection Items\n"
    stamped = ddl.with_checksum(text)
    declared, body = ddl.split_checksum(stamped)
    assert declared == ddl.checksum(text)
    assert body == text
    assert ddl.split_checksum(text) == (None, text)


def test_backup_survives_delete_and_contains(tmp_path):
    directory = str(tmp_path)
    repo = Repository(directory)
    repo.store("data", _item_graph("one"))
    repo.store("data", _item_graph("two"))
    assert "data" in Repository(directory)
    repo.delete("data")
    assert "data" not in Repository(directory)
    with pytest.raises(RepositoryError):
        Repository(directory).fetch("data")


# ------------------------------------------------------------------ #
# last-known-good serving


def _homepage_server():
    data = bibliography_graph(12, seed=70)
    return PageServer(parse(HOMEPAGE_QUERY), data, homepage_templates())


def test_server_serves_stale_page_on_engine_fault():
    server = _homepage_server()
    warm = server.get("/")
    server.invalidate()
    with chaos.installed(FaultPlan().fail_always("engine.bindings")):
        degraded = server.get("/")
    assert degraded == warm
    assert server.degradations[-1]["kind"] == "stale"
    assert "ChaosFault" in server.degradations[-1]["error"]
    assert server.dynamic.metrics.degraded_serves == 1
    # once the fault clears, the page renders fresh again
    server.invalidate()
    assert server.get("/") == warm


def test_server_serves_error_page_when_no_last_known_good():
    server = _homepage_server()
    with chaos.installed(FaultPlan().fail_always("engine.bindings")):
        html = server.get("/")
    assert "temporarily unavailable" in html.lower()
    assert "Traceback" not in html
    assert server.degradations[-1]["kind"] == "error-page"
    assert server.dynamic.metrics.error_pages == 1


def test_server_error_page_escapes_detail():
    server = _homepage_server()
    with chaos.installed(FaultPlan().fail_always("engine.bindings")):
        html = server.get("/")
    # the injected-fault detail is shown, but as escaped text only
    assert "injected fault" in html
    assert "<script" not in html


def test_server_strict_mode_reraises():
    server = _homepage_server()
    with chaos.installed(FaultPlan().fail_always("engine.bindings")):
        with pytest.raises(ChaosFault):
            server.get("/", strict=True)
    assert server.degradations == []


def test_server_unknown_path_still_raises():
    server = _homepage_server()
    with pytest.raises(KeyError):
        server.get("/no-such-page.html")


# ------------------------------------------------------------------ #
# the resilience ledger


def test_resilience_report_aggregates_and_roundtrips(tmp_path):
    policy = _manual_policy(max_attempts=1, threshold=1)
    mediator = _three_source_mediator(policy=policy)
    server = _homepage_server()
    server.invalidate()
    with chaos.installed(
        FaultPlan().fail_always("wrapper.structured.wrap").fail_always("engine.bindings")
    ):
        mediator.ingest("data")
        server.get("/")  # error page (no prior good render)
    report = (
        ResilienceReport()
        .record_mediation(mediator)
        .record_server(server)
        .record_recoveries()
    )
    assert report.partial
    assert report.open_breakers == ["projects"]
    assert report.failed_sources and "projects" in report.failed_sources
    assert len(report.degradations) == 1
    lines = "\n".join(report.summary_lines())
    assert "partial: true" in lines
    assert "projects" in lines
    path = str(tmp_path / "resilience.json")
    report.save(path)
    loaded = ResilienceReport.load(path)
    assert loaded.as_dict() == report.as_dict()


def test_measure_site_folds_in_mediation_report():
    mediation = MediationReport(
        quarantine={"pubs": {"quarantined": 2, "admitted": 5}},
        failed_sources={"x": "boom"},
        skipped_sources=["y"],
    )
    stats = measure_site("site", parse(HOMEPAGE_QUERY), mediation=mediation)
    assert stats.quarantined_records == 2
    assert stats.missing_sources == 2


# ------------------------------------------------------------------ #
# CLI hardening


def test_cli_ingest_clean_source_exits_zero(tmp_path, capsys):
    bib = tmp_path / "pubs.bib"
    bib.write_text(_good_entry(1) + _good_entry(2), encoding="utf-8")
    out = tmp_path / "data.ddl"
    code = main(["ingest", "--source", f"pubs=bibtex:{bib}", "-o", str(out)])
    assert code == 0
    assert out.exists()
    err = capsys.readouterr().err
    assert "partial: false" in err


def test_cli_ingest_partial_exits_one_and_writes_report(tmp_path):
    bib = tmp_path / "pubs.bib"
    bib.write_text(_good_entry(1) + _bad_entry(0), encoding="utf-8")
    out = tmp_path / "data.ddl"
    rep = tmp_path / "resilience.json"
    code = main(
        [
            "ingest",
            "--source",
            f"pubs=bibtex:{bib}",
            "-o",
            str(out),
            "--report",
            str(rep),
        ]
    )
    assert code == 1
    assert out.exists()
    data = json.loads(rep.read_text(encoding="utf-8"))
    assert data["partial"] is True
    assert data["quarantine"]["pubs"]["quarantined"] == 1


def test_cli_ingest_blown_budget_exits_two_without_traceback(tmp_path, capsys):
    bib = tmp_path / "pubs.bib"
    bib.write_text(_bad_entry(0) + _bad_entry(1), encoding="utf-8")
    out = tmp_path / "data.ddl"
    code = main(
        [
            "ingest",
            "--source",
            f"pubs=bibtex:{bib}",
            "-o",
            str(out),
            "--max-errors",
            "0",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert "Traceback" not in err


def test_cli_ingest_bad_source_spec_exits_two(capsys):
    assert main(["ingest", "--source", "nonsense", "-o", "x.ddl"]) == 2
    err = capsys.readouterr().err
    assert "NAME=KIND:PATH" in err
    assert "Traceback" not in err


def test_cli_ingest_missing_file_exits_two(tmp_path, capsys):
    code = main(
        [
            "ingest",
            "--source",
            f"pubs=bibtex:{tmp_path / 'missing.bib'}",
            "-o",
            str(tmp_path / "out.ddl"),
        ]
    )
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_stats_resilience_prints_saved_report(tmp_path, capsys):
    bib = tmp_path / "pubs.bib"
    bib.write_text(_good_entry(1) + _bad_entry(0), encoding="utf-8")
    out = tmp_path / "data.ddl"
    rep = tmp_path / "resilience.json"
    main(
        [
            "ingest",
            "--source",
            f"pubs=bibtex:{bib}",
            "-o",
            str(out),
            "--report",
            str(rep),
        ]
    )
    capsys.readouterr()
    code = main(["stats", str(out), "--resilience", str(rep)])
    assert code == 0
    output = capsys.readouterr().out
    assert "resilience:" in output
    assert "quarantined records: 1" in output


# ------------------------------------------------------------------ #
# property tests: corrupted corpora and crash points

_suppress = [HealthCheck.function_scoped_fixture]


@given(st.lists(st.booleans(), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None, suppress_health_check=_suppress)
def test_corrupted_bibtex_corpus_admits_exactly_wellformed(flags):
    text = "".join(
        _good_entry(i) if ok else _bad_entry(i) for i, ok in enumerate(flags)
    )
    wrapper = BibtexWrapper(text, source_name="fuzz")
    graph = wrapper.wrap(WrapPolicy.tolerant())  # must never raise
    good = sum(flags)
    assert len(graph.collection("Publications")) == good
    assert wrapper.last_quarantine.count == len(flags) - good
    assert wrapper.last_quarantine.admitted == good


@given(st.lists(st.integers(1, 4), min_size=0, max_size=15))
@settings(max_examples=40, deadline=None, suppress_health_check=_suppress)
def test_ragged_csv_corpus_admits_exactly_wellformed(widths):
    rows = [[f"v{i}_{j}" for j in range(w)] for i, w in enumerate(widths)]
    table = Table("T", ["a", "b"], rows)
    wrapper = RelationalWrapper([table], source_name="fuzz")
    graph = wrapper.wrap(WrapPolicy.tolerant())  # must never raise
    good = sum(1 for w in widths if w == 2)
    assert len(graph.collection("T")) == good
    assert wrapper.last_quarantine.count == len(widths) - good


@given(st.sampled_from(_STORE_SITES), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=25, deadline=None, suppress_health_check=_suppress)
def test_store_killed_at_any_fault_point_stays_loadable(site, old_items, new_items):
    with tempfile.TemporaryDirectory() as directory:
        old = _item_graph("old", items=old_items)
        Repository(directory).store("data", old)
        new = _item_graph("new", items=new_items)
        with chaos.installed(FaultPlan().fail_always(site)):
            with pytest.raises(ChaosFault):
                Repository(directory).store("data", new)
        loaded = Repository(directory).fetch("data")
        assert ddl.dumps(loaded) == ddl.dumps(old)
        # and a clean retry completes the interrupted generation switch
        Repository(directory).store("data", new)
        assert ddl.dumps(Repository(directory).fetch("data")) == ddl.dumps(new)


# ------------------------------------------------------------------ #
# acceptance: end-to-end chaos


def test_chaos_acceptance_end_to_end(tmp_path):
    # ~10% of the bibliography is malformed, and the structured source
    # hard-fails at every wrap attempt
    text = generate_entries(10, seed=3) + _bad_entry(0)
    clock = ManualClock()
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, clock=clock),
        breaker_threshold=1,
        min_sources=1,
        clock=clock,
    )
    repository = Repository(str(tmp_path))
    mediator = Mediator(repository=repository, policy=policy)
    mediator.add_source("pubs", BibtexWrapper(text, source_name="pubs"))
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

    plan = FaultPlan.from_env(default_seed=1337).fail_always("wrapper.structured.wrap")
    with chaos.installed(plan):
        warehouse = mediator.ingest("data")

    # the warehouse was built from the survivors, marked partial
    report = mediator.last_report
    assert report.partial and not report.stale
    assert list(report.failed_sources) == ["projects"]
    assert report.quarantine["pubs"]["quarantined"] == 1
    assert report.quarantine["pubs"]["admitted"] == 10
    assert len(warehouse.collection("Publications")) == 10
    assert len(warehouse.collection("People")) == 2
    edges = list(warehouse.out_edges(Oid(PROVENANCE_OID)))
    assert ("partial", True) in [(l, t.value) for l, t in edges]

    # the degraded generation persisted crash-safely and reloads clean
    reloaded = Repository(str(tmp_path)).fetch("data")
    assert ddl.dumps(reloaded) == ddl.dumps(warehouse)

    # the breaker for the dead source opened (threshold 1)
    assert mediator.breaker_states()["projects"]["state"] == "open"

    # every derivable page of the site still builds and serves
    server = PageServer(parse(HOMEPAGE_QUERY), warehouse, homepage_templates())
    homepage = server.get("/")
    assert "<html>" in homepage
    for path in list(server.known_paths()):
        assert server.get(path)
    assert server.degradations == []

    # and the ledger reports exactly what degraded
    resilience = (
        ResilienceReport()
        .record_mediation(mediator)
        .record_server(server)
        .record_recoveries()
    )
    assert resilience.quarantined_records == 1
    assert resilience.open_breakers == ["projects"]
    assert resilience.partial
    summary = "\n".join(resilience.summary_lines())
    assert "quarantined records: 1" in summary
    assert "failed sources: 1" in summary
