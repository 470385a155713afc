"""The query-engine fast path: epochs, incremental statistics, plan and
NFA caches, warm-engine reuse, and parallel page generation.

The contracts under test:

* every structural mutation bumps :attr:`Graph.epoch`; no-op mutations
  (duplicate edges, re-added nodes) do not;
* :meth:`IndexStatistics.snapshot` (incremental counters), and so
  :func:`graph_statistics`, agrees exactly with the O(edges) recount of
  ``tests/reference_stats.py`` under arbitrary mutation sequences -- the
  property that makes the fast path safe;
* a warm engine produces the same bindings and site graphs as a cold
  per-query engine, before and after mutations (plan-cache invalidation
  by epoch);
* parallel page generation is byte-identical to serial generation;
* construction writes nothing twice: each ``add_edge`` and
  ``add_to_collection`` call adds something, and it reads the result's
  node and edge counts per ``construct`` call, not per row, with equal
  counters for an in-memory and a SQLite data graph.
"""

import gc
import string as stringmod

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Atom, AtomType, DeltaLog, Graph, Oid, string
from repro.graph.delta import (
    COLLECTION_CREATE,
    EDGE_ADD,
    EDGE_REMOVE,
    MEMBER_ADD,
    MEMBER_REMOVE,
    NODE_ADD,
    NODE_REMOVE,
)
from repro.repository import IndexStatistics, Repository, ddl, graph_statistics
from repro.struql import (
    Metrics,
    PlanCache,
    QueryEngine,
    clear_plan_cache,
    evaluate,
    explain,
    global_plan_cache,
    parse_query,
)
from repro.template import generate_site
from repro.workloads import NEWS_SITE_QUERY, news_graph, news_templates

from .reference_stats import recount_statistics

# ---------------------------------------------------------------------- #
# epoch semantics


def test_epoch_bumps_on_structural_changes():
    graph = Graph()
    assert graph.epoch == 0
    a = graph.add_node()
    b = graph.add_node()
    after_nodes = graph.epoch
    assert after_nodes == 2

    graph.add_edge(a, "l", b)
    assert graph.epoch == after_nodes + 1
    graph.add_edge(a, "l", string("v"))
    assert graph.epoch == after_nodes + 2

    graph.create_collection("C")
    graph.add_to_collection("C", a)
    after_collection = graph.epoch
    assert after_collection == after_nodes + 4

    graph.remove_from_collection("C", a)
    graph.remove_edge(a, "l", b)
    graph.remove_node(b)
    assert graph.epoch > after_collection


def test_epoch_unchanged_by_noop_mutations():
    graph = Graph()
    a = graph.add_node()
    b = graph.add_node()
    graph.add_edge(a, "l", b)
    graph.add_to_collection("C", a)
    before = graph.epoch

    graph.add_node(a)  # re-add existing node
    graph.add_edge(a, "l", b)  # duplicate edge (set semantics)
    graph.create_collection("C")  # already exists
    graph.add_to_collection("C", a)  # already a member
    assert graph.epoch == before


def test_graph_statistics_cached_until_mutation():
    graph = Graph()
    a = graph.add_node()
    graph.add_edge(a, "l", string("v"))

    first = graph_statistics(graph)
    assert graph_statistics(graph) is first  # unchanged graph: same snapshot
    assert first.epoch == graph.epoch
    assert first.fingerprint() == (graph.token, graph.epoch)

    graph.add_edge(a, "l", string("w"))
    second = graph_statistics(graph)
    assert second is not first
    assert second.epoch == graph.epoch
    assert second == recount_statistics(graph)


# ---------------------------------------------------------------------- #
# incremental statistics == full rescan (property)

_atoms = st.one_of(
    st.text(alphabet=stringmod.ascii_letters, max_size=6).map(
        lambda s: Atom(AtomType.STRING, s)
    ),
    st.integers(-50, 50).map(lambda i: Atom(AtomType.INTEGER, i)),
)

_LABELS = ["a", "b", "c"]


@st.composite
def mutation_scripts(draw):
    """A sequence of graph mutations encoded as data."""
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["node", "edge_node", "edge_atom", "remove_edge",
                     "remove_node", "collect"]
                ),
                st.integers(0, 7),
                st.integers(0, 7),
                st.sampled_from(_LABELS),
                _atoms,
            ),
            max_size=40,
        )
    )
    return steps


def _apply(graph, nodes, step):
    op, i, j, label, atom = step
    if op == "node" or not nodes:
        nodes.append(graph.add_node())
        return
    source = nodes[i % len(nodes)]
    if not graph.has_node(source):
        return
    if op == "edge_node":
        target = nodes[j % len(nodes)]
        if graph.has_node(target):
            graph.add_edge(source, label, target)
    elif op == "edge_atom":
        graph.add_edge(source, label, atom)
    elif op == "remove_edge":
        targets = graph.targets(source, label)
        if targets:
            graph.remove_edge(source, label, targets[j % len(targets)])
    elif op == "remove_node":
        graph.remove_node(source)
    elif op == "collect":
        graph.add_to_collection("C", source)


@given(mutation_scripts())
@settings(max_examples=80, deadline=None)
def test_incremental_statistics_match_full_rescan(script):
    graph = Graph()
    nodes = []
    for step in script:
        _apply(graph, nodes, step)
        assert IndexStatistics.snapshot(graph) == recount_statistics(graph)


# ---------------------------------------------------------------------- #
# warm engine == cold engine (property), plan-cache invalidation

_QUERY_TEXTS = [
    'where C(x), x -> "a" -> y create Probe()',
    "where C(x), x -> l -> v create Probe()",
    'where C(x), not(x -> "b" -> y) create Probe()',
]


def _cold_bindings(graph, conditions):
    engine = QueryEngine(
        graph,
        stats=recount_statistics(graph),
        plan_cache=PlanCache(),
    )
    return engine.bindings(conditions)


@given(mutation_scripts())
@settings(max_examples=40, deadline=None)
def test_warm_engine_matches_cold_engine_across_mutations(script):
    queries = [parse_query(text) for text in _QUERY_TEXTS]
    graph = Graph()
    nodes = []
    warm = QueryEngine(graph, plan_cache=PlanCache())
    # interleave mutations with evaluations: caches must never go stale
    chunk = max(1, len(script) // 3)
    for start in range(0, len(script) + 1, chunk):
        for step in script[start:start + chunk]:
            _apply(graph, nodes, step)
        for query in queries:
            assert warm.bindings(query.where) == _cold_bindings(graph, query.where)


def test_plan_cache_hits_and_epoch_invalidation():
    graph = Graph()
    a = graph.add_node()
    graph.add_to_collection("C", a)
    graph.add_edge(a, "a", string("v"))
    query = parse_query(_QUERY_TEXTS[0])

    cache = PlanCache()
    engine = QueryEngine(graph, plan_cache=cache)
    engine.bindings(query.where)
    assert engine.metrics.plan_cache_misses == 1
    assert engine.metrics.plan_cache_hits == 0
    assert engine.metrics.stats_snapshots == 1

    engine.bindings(query.where)
    assert engine.metrics.plan_cache_hits == 1
    assert engine.metrics.plan_cache_misses == 1
    assert engine.metrics.stats_snapshots == 1  # same epoch: no new snapshot

    graph.add_edge(a, "a", string("w"))  # mutation invalidates by epoch
    engine.bindings(query.where)
    assert engine.metrics.plan_cache_misses == 2
    assert engine.metrics.stats_snapshots == 2

    stats = cache.stats()
    assert stats["plans"] == 2  # one per fingerprint
    assert stats["nfas"] == 0  # no path conditions in this query


def test_plan_cache_lru_eviction():
    cache = PlanCache(max_entries=2)
    queries = [parse_query(text) for text in _QUERY_TEXTS]
    keys = [
        PlanCache.plan_key(q.where, frozenset(), (1, 0)) for q in queries
    ]
    for query, key in zip(queries, keys):
        cache.put_plan(key, query.where, list(query.where))
    assert cache.get_plan(keys[0]) is None  # evicted
    assert cache.get_plan(keys[1]) is not None
    assert cache.get_plan(keys[2]) is not None


def test_global_plan_cache_shared_and_clearable():
    clear_plan_cache()
    graph = Graph()
    a = graph.add_node()
    graph.add_to_collection("C", a)
    graph.add_edge(a, "a", string("v"))
    query = parse_query(_QUERY_TEXTS[0])

    first = QueryEngine(graph)
    second = QueryEngine(graph)
    assert first.plan_cache is global_plan_cache()
    first.bindings(query.where)
    second.bindings(query.where)  # same conditions, same epoch: a hit
    assert second.metrics.plan_cache_hits == 1
    clear_plan_cache()
    assert global_plan_cache().stats()["plans"] == 0


def _one_pub_graph(value):
    """Six mutations: Pubs(x), x -> "a" -> y, y -> "b" -> value."""
    graph = Graph()
    x = graph.add_node()
    y = graph.add_node()
    graph.add_edge(x, "a", y)
    graph.add_edge(y, "b", string(value))
    graph.add_to_collection("Pubs", x)
    return graph


def test_freed_graph_never_answers_for_a_new_graph():
    """Caches key graphs by token, not ``id()``: CPython hands a freed
    graph's id to the next graph, and equal epochs would then serve the
    old graph's path answers."""
    program = parse_query(
        'where Pubs(x), x -> "a"."b" -> v create P(x) link P(x) -> "v" -> v'
    )
    cache = PlanCache()
    for index in range(100):
        gc.collect()
        value = string(f"v{index}")
        graph = _one_pub_graph(f"v{index}")
        site = evaluate(program, graph, engine=QueryEngine(graph, plan_cache=cache))
        assert [t for _, label, t in site.edges() if label == "v"] == [value]
        del graph, site
        gc.collect()
        graph = _one_pub_graph(f"v{index}")
        rows = QueryEngine(graph, plan_cache=cache).bindings(program.where)
        assert [row["v"] for row in rows] == [value]


# ---------------------------------------------------------------------- #
# warm evaluate() and site-graph equality


def test_evaluate_with_reused_engine_matches_cold():
    from repro.struql import parse

    data = news_graph(15, seed=5)
    # plans are keyed by condition identity: parse once, evaluate many
    program = parse(NEWS_SITE_QUERY)
    engine = QueryEngine(data, plan_cache=PlanCache())
    cold = evaluate(NEWS_SITE_QUERY, data)
    warm_first = evaluate(program, data, engine=engine)
    metrics = Metrics()
    warm_second = evaluate(program, data, engine=engine, metrics=metrics)
    assert ddl.dumps(warm_first) == ddl.dumps(cold)
    assert ddl.dumps(warm_second) == ddl.dumps(cold)
    assert metrics.plan_cache_misses == 0  # steady state: fully cached
    assert metrics.plan_cache_hits > 0
    assert metrics.stats_snapshots <= 1  # statistics come from the epoch cache


def test_evaluate_reused_engine_sees_mutations():
    data = news_graph(8, seed=6)
    engine = QueryEngine(data, plan_cache=PlanCache())
    evaluate(NEWS_SITE_QUERY, data, engine=engine)

    # mutate: new article joins the Articles collection
    article = data.add_node()
    data.add_edge(article, "headline", string("Breaking"))
    data.add_edge(article, "category", string("world"))
    data.add_to_collection("Articles", article)

    warm = evaluate(NEWS_SITE_QUERY, data, engine=engine)
    cold = evaluate(NEWS_SITE_QUERY, data)
    assert ddl.dumps(warm) == ddl.dumps(cold)


# ---------------------------------------------------------------------- #
# repository and explain fast paths


def test_repository_statistics_served_from_epoch_cache():
    repo = Repository()
    graph = Graph()
    a = graph.add_node()
    graph.add_edge(a, "l", string("v"))
    repo.store("g", graph)

    first = repo.statistics("g")
    assert repo.statistics("g") is first

    graph.add_edge(a, "m", string("w"))
    second = repo.statistics("g")
    assert second is not first
    assert "m" in second.label_cardinality


def test_cli_stats_reports_cache_counters(tmp_path, capsys):
    from repro.cli import main

    graph = news_graph(5, seed=9)
    path = tmp_path / "g.ddl"
    path.write_text(ddl.dumps(graph), encoding="utf-8")
    code = main([
        "stats", str(path),
        "--query", 'where Articles(a), a -> "category" -> c create Probe()',
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "epoch:" in out
    assert "cold: plan_cache_hits=0" in out
    assert "warm: plan_cache_hits=1" in out
    assert "plan cache:" in out
    assert "delta log:" in out


def test_explain_uses_shared_statistics_snapshot():
    graph = Graph()
    a = graph.add_node()
    graph.add_to_collection("People", a)
    graph.add_edge(a, "name", string("ada"))
    snapshot = graph_statistics(graph)
    text = explain('where People(p), p -> "name" -> n create Probe()', graph)
    assert "collection scan People" in text
    assert graph_statistics(graph) is snapshot  # explain did not rebuild


# ---------------------------------------------------------------------- #
# delta-driven incremental maintenance (PR: warm cost scales with the edit)

import re as _re

from repro.core import (
    BrowseSession,
    DynamicSite,
    NodeInstance,
    PageServer,
    RegeneratingSite,
)


def test_delta_log_records_mutations():
    graph = Graph()
    a = graph.add_node()
    epoch = graph.epoch
    b = graph.add_node()
    graph.add_edge(a, "l", b)
    graph.add_to_collection("C", a)
    delta = graph.delta_since(epoch)
    assert delta is not None and not delta.empty
    assert (a, "l", b) in delta.edges_added
    assert b in delta.nodes_added
    assert ("C", a) in delta.members_added
    assert "C" in delta.collections_created
    assert a in delta.touched_oids()
    # the same-epoch delta is empty, never None
    now = graph.delta_since(graph.epoch)
    assert now is not None and now.empty


def test_delta_log_truncation_returns_none():
    graph = Graph()
    a = graph.add_node()
    base = graph.epoch
    for index in range(5000):  # exceed the bounded log's window
        graph.add_edge(a, "l", string(f"v{index}"))
    assert graph.delta_since(base) is None  # honest: coarse fallback
    recent = graph.epoch
    graph.add_edge(a, "l", string("tail"))
    tail = graph.delta_since(recent)
    assert tail is not None and tail.size() == 1


def test_delta_log_since_matches_forward_scan():
    """`DeltaLog.since` walks back from the newest record; it must give
    what a forward scan of every record ever logged gives, and ``None``
    exactly when an evicted record is newer than the asked epoch."""
    log = DeltaLog(maxlen=8)
    history = []  # (epoch, GraphDelta field, entry) for every record
    a, b = Oid("a"), Oid("b")

    def record(epoch, kind, field, *args):
        log.record((epoch, kind) + args + (None,) * (3 - len(args)))
        entry = args if len(args) > 1 else args[0]
        history.append((epoch, field, entry))

    fields = ("edges_added", "edges_removed", "nodes_added", "nodes_removed",
              "members_added", "members_removed", "collections_created")
    for epoch in range(1, 25):
        record(epoch, EDGE_ADD, "edges_added", a, "l", string(f"v{epoch}"))
        if epoch % 3 == 0:  # several records share one epoch
            record(epoch, COLLECTION_CREATE, "collections_created", "C")
            record(epoch, MEMBER_ADD, "members_added", "C", b)
        if epoch % 4 == 0:
            record(epoch, EDGE_REMOVE, "edges_removed", a, "l", string("v1"))
            record(epoch, NODE_ADD, "nodes_added", b)
        if epoch % 5 == 0:
            record(epoch, MEMBER_REMOVE, "members_removed", "C", b)
            record(epoch, NODE_REMOVE, "nodes_removed", b)
        evicted = history[:len(history) - len(log)]
        floor = evicted[-1][0] if evicted else 0
        for asked in range(epoch + 1):
            delta = log.since(asked, epoch)
            if asked < floor:
                assert delta is None
                continue
            assert delta is not None
            assert delta.empty == (asked == epoch)
            for field in fields:
                expected = [e for at, f, e in history if at > asked and f == field]
                assert getattr(delta, field) == expected
    assert evicted  # the script did run past the ring


@given(mutation_scripts())
@settings(max_examples=60, deadline=None)
def test_statistics_advance_matches_full_rescan(script):
    """As the graph advances through arbitrary mutations, the shared
    provider's statistics agree exactly with a full O(edges) recount and
    are cached until the next mutation."""
    graph = Graph()
    nodes = []
    for step in script:
        _apply(graph, nodes, step)
        stats = graph_statistics(graph)
        assert stats == recount_statistics(graph)
        assert graph_statistics(graph) is stats


def test_dynamic_site_refresh_is_selective():
    data = news_graph(10, seed=11)
    site = DynamicSite(NEWS_SITE_QUERY, data, cache=True)
    for root in site.roots():
        site.expand(root)
    articles = site.instances_of("ArticlePage")
    for instance in articles:
        site.expand(instance)

    unchanged = site.refresh()
    assert not unchanged.coarse and unchanged.dropped == 0

    target = sorted(data.collection("Articles"), key=lambda o: o.name)[0]
    data.add_edge(target, "headline", string("Edited"))
    result = site.refresh()
    assert not result.coarse
    assert result.dropped > 0 and result.retained > 0
    assert site.metrics.fine_invalidations > 0
    assert site.metrics.entries_retained > 0

    # after the refresh every expansion equals a cold site's
    fresh = DynamicSite(NEWS_SITE_QUERY, data, cache=True)
    for instance in articles:
        assert site.expand(instance) == fresh.expand(instance)


def test_lookahead_skips_fully_cached_prefetch():
    data = news_graph(8, seed=12)
    site = DynamicSite(NEWS_SITE_QUERY, data, cache=True)
    session = BrowseSession(site, lookahead=True)
    front = NodeInstance("FrontPage", ())
    session.visit(front)  # prefetches the front page's successors
    before = site.metrics.lookahead_skipped
    session.visit(front)  # the same successors are now fully cached
    assert site.metrics.lookahead_skipped > before


def _crawl_paths(server):
    queue, visited = ["/"], set()
    while queue:
        path = queue.pop(0)
        if path in visited:
            continue
        visited.add(path)
        for href in _re.findall(r'href="([^"]+)"', server.get(path)):
            if href.startswith("/") and href not in visited:
                queue.append(href)
    return sorted(visited)


def test_page_server_refresh_serves_fresh_bytes():
    data = news_graph(12, seed=13)
    server = PageServer(NEWS_SITE_QUERY, data, news_templates())
    _crawl_paths(server)

    target = sorted(data.collection("Articles"), key=lambda o: o.name)[0]
    data.add_edge(target, "headline", string("Edited headline"))
    result = server.refresh()
    assert not result.coarse
    assert server.pages_invalidated > 0 and server.pages_retained > 0

    fresh = PageServer(NEWS_SITE_QUERY, data, news_templates())
    for path in _crawl_paths(fresh):
        assert server.get(path) == fresh.get(path), path


REGEN_QUERY = """
create Home()
where C(x)
create Page(x)
link Home() -> "Item" -> Page(x),
     Page(x) -> "origin" -> x
collect Pages(Page(x))
{
  where x -> l -> v
  link Page(x) -> l -> v
}
{
  where D(x)
  link Home() -> "Featured" -> Page(x)
}
"""


def _regen_templates():
    from repro.template import TemplateSet

    templates = TemplateSet()
    templates.add("home", "<html><body><h1>Home</h1><SFMT Item UL>"
                          "<SIF Featured><SFMT Featured UL></SIF></body></html>")
    templates.add("page", "<html><body><SFMT a UL><SFMT b UL><SFMT c UL>"
                          "</body></html>")
    templates.for_object("Home()", "home")
    templates.for_collection("Pages", "page")
    return templates


def _apply_regen(regen, nodes, step):
    """Drive one mutation-script step through RegeneratingSite's
    maintainer-mediated entry points."""
    op, i, j, label, atom = step
    data = regen.maintainer.data_graph
    if op == "node" or not nodes:
        nodes.append(regen.add_object("C", [(label, atom)]))
        return
    source = nodes[i % len(nodes)]
    if not data.has_node(source):
        return
    if op == "edge_node":
        target = nodes[j % len(nodes)]
        if data.has_node(target):
            regen.add_edge(source, label, target)
    elif op == "edge_atom":
        regen.add_edge(source, label, atom)
    elif op == "remove_edge":
        targets = data.targets(source, label)
        if targets:
            regen.remove_edge(source, label, targets[j % len(targets)])
    elif op == "remove_node":
        regen.remove_object(source)
    elif op == "collect":
        regen.add_to_collection("D", source)


@given(mutation_scripts())
@settings(max_examples=20, deadline=None)
def test_selective_regeneration_matches_full_rebuild(script):
    """The static pipeline's correctness contract: after every mutation,
    the selectively regenerated pages are byte-identical to building the
    site from scratch over the current data graph."""
    from repro.struql import parse

    data = Graph()
    data.create_collection("C")
    data.create_collection("D")
    program = parse(REGEN_QUERY)
    regen = RegeneratingSite(program, data, _regen_templates(), ["Home()"])
    nodes = []
    for step in script:
        _apply_regen(regen, nodes, step)
        fresh_graph = evaluate(program, data)
        fresh = generate_site(fresh_graph, _regen_templates(), ["Home()"])
        assert regen.pages == fresh.pages


def test_selective_regeneration_takes_the_fine_path():
    """Adding an author to one publication re-renders exactly the pages
    that show it -- its year and category pages (which embed its
    presentation), the abstracts page and its own abstract page -- keeps
    every other page, and matches a fresh build byte for byte."""
    from repro.core import SiteBuilder, SiteDefinition
    from repro.workloads import HOMEPAGE_QUERY, bibliography_graph, homepage_templates

    data = bibliography_graph(20, seed=8)
    regen = RegeneratingSite(HOMEPAGE_QUERY, data, homepage_templates(), ["RootPage()"])
    pub = sorted(data.collection("Publications"), key=lambda o: o.name)[3]
    regen.add_edge(pub, "author", string("A. New Author"))

    report = regen.last_report
    showing_pub = (
        len(data.targets(pub, "year")) + len(data.targets(pub, "category")) + 2
    )
    assert not report.coarse
    assert report.pages_rerendered == showing_pub
    assert report.pages_added == 0
    assert report.pages_retained == len(regen.pages) - showing_pub > 0

    builder = SiteBuilder(data)
    builder.define(
        SiteDefinition("home", HOMEPAGE_QUERY, homepage_templates(), roots=["RootPage()"])
    )
    assert regen.pages == builder.build("home").generated.pages


def test_coarse_reset_evaluates_each_function_once():
    """Re-registering the known pages after a coarse invalidation builds
    one oid -> instance map per Skolem function: at most one
    ``instances_of`` call per schema function, however many pages the
    server knows."""
    from collections import Counter

    server = PageServer(NEWS_SITE_QUERY, news_graph(30, seed=14), news_templates())
    paths = _crawl_paths(server)
    before = {path: server.get(path) for path in paths}
    calls = Counter()
    evaluate_instances = server.dynamic.instances_of

    def counting(function):
        calls[function] += 1
        return evaluate_instances(function)

    engine = server.dynamic._engine
    hits = engine.metrics.plan_cache_hits
    server.dynamic.instances_of = counting
    server.invalidate()
    assert calls and set(calls) <= set(server.dynamic.schema.functions)
    assert max(calls.values()) == 1
    assert {path: server.get(path) for path in paths} == before
    # the warm engine survives invalidation: re-served pages hit its plans
    assert server.dynamic._engine is engine and engine.metrics.plan_cache_hits > hits


# ---------------------------------------------------------------------- #
# construction: no redundant writes, counts read per call

from collections import Counter

from repro.repository import SqlRepository
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph


class CountingGraph(Graph):
    """A result graph that counts the writes construction makes and the
    node and edge counts it reads."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def add_edge(self, source, label, target):
        self.calls["add_edge"] += 1
        return super().add_edge(source, label, target)

    def add_to_collection(self, name, oid):
        self.calls["add_to_collection"] += 1
        return super().add_to_collection(name, oid)

    def skolem(self, function, *args):
        self.calls["skolem"] += 1
        return super().skolem(function, *args)

    @property
    def node_count(self):
        self.calls["node_count"] += 1
        return super().node_count

    @property
    def edge_count(self):
        self.calls["edge_count"] += 1
        return super().edge_count


def _construct_fig3(n, into):
    metrics = Metrics()
    evaluate(HOMEPAGE_QUERY, bibliography_graph(n, seed=3), into=into, metrics=metrics)
    return metrics


@pytest.mark.parametrize("n", [50, 400])
def test_construction_makes_no_redundant_writes(n):
    """Each clause runs once per distinct binding of its own variables
    and each Skolem term resolves once per ``construct`` call: every
    ``add_edge`` adds an edge, every ``add_to_collection`` adds a
    member, and a Skolem term is applied at most once per block that
    mentions it (Fig. 3 mentions each in at most two).  Row at a time,
    50 publications give 2,399 / 1,152 / 5,952 calls."""
    site = CountingGraph()
    metrics = _construct_fig3(n, site)
    members = sum(len(site.collection(name)) for name in site.collection_names())
    assert site.calls["add_edge"] == metrics.edges_created
    assert site.calls["add_to_collection"] == members
    assert site.calls["skolem"] <= 2 * len(site.skolems)


def test_construction_count_reads_do_not_grow_with_rows():
    """Node and edge counts are read at the start and end of each
    ``construct`` call, not around every application."""
    reads = []
    for n in (50, 400):
        site = CountingGraph()
        _construct_fig3(n, site)
        reads.append((site.calls["node_count"], site.calls["edge_count"]))
    assert reads[0] == reads[1]


def test_construction_counters_agree_on_memory_and_sql_sources():
    """``nodes_created``/``edges_created`` count Skolem nodes and link
    edges, not the closures imported with a data-graph node, whether the
    data graph is in memory or a stored SQLite generation (what the org
    site build evaluates)."""
    data = bibliography_graph(15, seed=9)
    program = HOMEPAGE_QUERY + """
    where Publications(x)
    create Entry(x)
    link Entry(x) -> "entry" -> x
    collect Entries(x)
    """
    repository = SqlRepository()
    repository.store("data", data)
    counters = []
    for source in (data, repository.fetch("data")):
        metrics = Metrics()
        site = evaluate(program, source, into=Graph(), metrics=metrics)
        assert site.node_count > metrics.nodes_created  # imports happened
        counters.append((metrics.nodes_created, metrics.edges_created))
    assert counters[0] == counters[1]
