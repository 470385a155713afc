"""SQLite backend: repository behavior and SQL-pushdown equivalence.

The load-bearing property is *replay equivalence*: for any graph, the
pushdown engine over the edge-triple schema must return the same
binding relation -- same rows, same order -- as the in-memory engine
and the row-at-a-time reference evaluator (``tests/reference_eval.py``),
because site definitions, incremental maintenance, and the constraint
checker all assume deterministic bindings regardless of backend.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeadlineExceeded, RepositoryError
from repro.graph import Graph, Oid, integer, real, string, url
from repro.mediator import Mediator
from repro.repository import (
    Repository,
    SqlRepository,
    ddl,
    graph_statistics,
    open_repository,
)
from repro.repository.sql import SqlGraph, SqlStore
from repro.resilience.deadline import Deadline, deadline_scope
from repro.serve import Refresher, ServeCore
from repro.struql import (
    QueryEngine,
    SqlQueryEngine,
    clear_plan_cache,
    evaluate,
    explain_pushdown,
    make_engine,
    order_conditions,
    parse,
    parse_query,
)
from repro.struql.builtins import register_object_predicate
from repro.workloads import (
    HOMEPAGE_QUERY,
    bibliography_graph,
    build_mediator,
    homepage_templates,
    news_graph,
)
from repro.wrappers import DdlWrapper

from .reference_eval import reference_bindings


class PushdownSqlEngine(SqlQueryEngine):
    """The SQL engine with pushdown forced on, whatever the cost."""

    pushdown_cutoff = 0.0


class InMemorySqlEngine(SqlQueryEngine):
    """The SQL engine with pushdown off: every query falls back."""

    pushdown_cutoff = float("inf")


def _bindings(graph, text, factory=make_engine):
    clear_plan_cache()
    engine = factory(graph)
    return engine.bindings(parse_query(text).where), engine


# --------------------------------------------------------------------- #
# replay equivalence (hypothesis)

#: atoms drawn from a pool engineered to collide under coercion:
#: 1995 vs "1995", 10 vs 10.0 vs "10", 2.0 vs "2.0"
_ATOMS = st.sampled_from(
    [
        integer(1995),
        string("1995"),
        integer(10),
        real(10.0),
        string("10"),
        real(2.0),
        string("2.0"),
        string("web"),
        real(-3.25),
        url("http://example.org/a"),
    ]
)

_LABELS = st.sampled_from(["a", "b", "c"])


@st.composite
def _graphs(draw):
    g = Graph("h")
    count = draw(st.integers(min_value=2, max_value=6))
    nodes = [g.add_node(hint=f"n{i}") for i in range(count)]
    for index in draw(st.lists(st.integers(0, count - 1), max_size=6)):
        g.add_to_collection("Pool", nodes[index])
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, count - 1),
                _LABELS,
                st.one_of(st.integers(0, count - 1), _ATOMS),
            ),
            max_size=16,
        )
    )
    for src, label, target in edges:
        if isinstance(target, int):
            target = nodes[target]
        g.add_edge(nodes[src], label, target)
    return g


#: membership, edge joins, coercing comparisons, label variables,
#: alternation, star paths, negation, and predicate pushdown
_BATTERY = [
    "where Pool(P)",
    'where Pool(P), P -> "a" -> X',
    'where Pool(P), P -> "a" -> X, X = 10',
    'where Pool(P), P -> "a" -> X, X = "1995"',
    'where Pool(P), P -> "a" -> X, X != 2.0',
    'where Pool(P), P -> "a" -> X, X >= 2',
    "where P -> L -> V",
    'where Pool(P), P -> ("a"|"b") -> X',
    'where Pool(P), P -> "a"* -> Q, Pool(Q)',
    'where Pool(P), not(P -> "b" -> X)',
    'where Pool(P), P -> "a" -> X, isInteger(X)',
    'where Pool(P), P -> "a" -> X, isNumber(X)',
    "where Pool(P), P -> L -> V, isAtom(V)",
    'where Pool(P), Q = P, Q -> "b" -> Y',
    'where X -> "c" -> N',
    'where X -> "a" -> X',
    'where X -> "a"."a"* -> X',
    'where Pool(X), X -> "b" -> X',
]


@given(_graphs())
@settings(max_examples=30, deadline=None)
def test_replay_equivalence(mem):
    repository = SqlRepository()  # in-memory SQLite
    repository.store("h", mem)
    sql = repository.fetch("h")
    # The bulk import reproduces every order of the source graph, so the
    # interleaved original itself is the baseline.
    baseline = mem
    pushdowns = 0
    for text in _BATTERY:
        conditions = parse_query(text).where
        clear_plan_cache()
        want = QueryEngine(baseline).bindings(conditions)
        plan = order_conditions(
            conditions, frozenset(), graph_statistics(baseline)
        )
        assert reference_bindings(baseline, plan) == want, text
        clear_plan_cache()
        engine = PushdownSqlEngine(sql)
        got = engine.bindings(conditions)
        assert got == want, text  # rows AND order
        pushdowns += engine.metrics.sql_pushdowns
    assert pushdowns > 0  # the battery must actually exercise pushdown


# --------------------------------------------------------------------- #
# store is order-exact to its source graph

#: node ops pick from a small index space, so removals and re-adds of
#: the same node, edge or member occur often; edge adds are drawn most
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["node", "edge_node", "edge_atom", "edge_atom", "edge_atom",
             "remove_edge", "remove_node", "collect", "uncollect"]
        ),
        st.integers(0, 5),
        st.integers(0, 5),
        _LABELS,
        _ATOMS,
    ),
    min_size=8,
    max_size=30,
)


def _mutate(graph, nodes, step):
    op, i, j, label, atom = step
    if op == "node" or len(nodes) < 2:
        nodes.append(graph.add_node(hint="n"))
        return
    source = nodes[i % len(nodes)]
    if not graph.has_node(source):
        graph.add_node(source)  # a removed node comes back at the end
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
        graph.add_to_collection(f"C{j % 2}", source)
    elif op == "uncollect" and graph.in_collection(f"C{j % 2}", source):
        graph.remove_from_collection(f"C{j % 2}", source)


def _orders(graph):
    """Every iteration order the graph API exposes."""
    labels = list(graph.labels())
    atoms = list(graph.atoms())
    nodes = list(graph.nodes())
    return {
        "nodes": nodes,
        "edges": list(graph.edges()),
        "labels": labels,
        "atoms": atoms,
        "edges_with_label": {l: list(graph.edges_with_label(l)) for l in labels},
        "in_edges": [list(graph.in_edges(t)) for t in nodes + atoms],
        "label_atoms": {l: list(graph.label_atoms(l)) for l in labels},
        "collections": [(c, graph.collection(c)) for c in graph.collection_names()],
        "stats": graph.stats(),
        # a stored graph reads a BFS level per statement and keeps the
        # out-edge lists it read: out_edges after reachable uses them
        "reachable": [
            (graph.reachable(n), graph.reachable(n, via={"a", "b"}),
             graph.reachable(n, include_atoms=True))
            for n in nodes
        ],
        "out_edges": [list(graph.out_edges(n)) for n in nodes],
    }


@given(_STEPS, _STEPS)
@settings(max_examples=60, deadline=None)
def test_store_reproduces_every_order_of_the_source(first, second):
    repository = SqlRepository()
    repository.store("other", _corner_graph())  # nonzero id bases
    mem = Graph("h")
    nodes = []
    fetched = None
    try:
        for script in (first, second):
            for step in script:
                _mutate(mem, nodes, step)
            repository.store("h", mem)
            if fetched is not None:
                assert repository.fetch("h") is fetched
            fetched = repository.fetch("h")
            assert _orders(fetched) == _orders(mem)
    finally:
        repository.store_backend.close()


def test_store_keeps_label_extent_order_of_the_source():
    g = Graph("g")
    a, b = g.add_node(Oid("a")), g.add_node(Oid("b"))
    g.add_edge(b, "t", string("one"))
    g.add_edge(a, "t", string("two"))
    repository = SqlRepository()
    repository.store("g", g)
    program = parse(
        'where x -> "t" -> v create P(x) link P(x) -> "v" -> v collect Ps(P(x))'
    )
    want = ddl.dumps(evaluate(program, g))
    assert ddl.dumps(evaluate(program, repository.fetch("g"))) == want
    assert '"P(b)", "P(a)"' in want


def _counting_store_calls(monkeypatch):
    """Count every statement a SqlStore runs (``scalar`` goes through
    ``query``)."""
    calls = [0]
    for name in ("execute", "executemany", "query", "query_named"):
        original = getattr(SqlStore, name)

        def counted(self, *args, _original=original, **kwargs):
            calls[0] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SqlStore, name, counted)
    return calls


def test_materialize_store_calls_do_not_grow_with_the_warehouse(monkeypatch):
    calls = _counting_store_calls(monkeypatch)
    counts = {}
    for people in (20, 80):
        mediator = build_mediator(people=people, seed=0)
        mediator.repository = SqlRepository()
        calls[0] = 0
        graph = mediator.materialize("data")
        epoch_before = graph.epoch
        assert mediator.materialize("data") is graph  # replaces a generation
        counts[people] = calls[0]
        assert isinstance(graph, SqlGraph) and graph.edge_count > 0
        assert graph.delta_since(epoch_before) is None
        assert graph.delta_since(graph.epoch).empty
    assert counts[20] == counts[80]


def _chain_graph(depth, width):
    """A root whose closure is ``depth`` levels of ``width`` nodes each,
    every node pointing at every node of the next level."""
    graph = Graph("chain")
    root = graph.add_node(Oid("root"))
    level = [root]
    for d in range(depth):
        following = [graph.add_node(Oid(f"n{d}.{i}")) for i in range(width)]
        for node in level:
            graph.add_edge(node, "note", string(f"{node.name}"))
            for child in following:
                graph.add_edge(node, "next", child)
        level = following
    return graph, root


def test_import_reads_one_statement_per_bfs_level(monkeypatch):
    """Importing a stored node's closure into a site graph issues one
    statement per BFS level, whatever the level's width: the copy loop
    reads nothing again."""
    program = parse('where R(x) create P() link P() -> "root" -> x')
    calls = _counting_store_calls(monkeypatch)
    counts = {}
    for depth, width in ((1, 3), (4, 3), (4, 30)):
        mem, root = _chain_graph(depth, width)
        mem.add_to_collection("R", root)
        repository = SqlRepository()
        repository.store("g", mem)
        stored = repository.fetch("g")
        want = ddl.dumps(evaluate(program, mem))
        calls[0] = 0
        assert ddl.dumps(evaluate(program, stored)) == want
        counts[depth, width] = calls[0]
        repository.store_backend.close()
    assert counts[4, 3] == counts[4, 30] == counts[1, 3] + 3


def test_has_node_on_decoded_nodes_reads_no_statement(monkeypatch):
    """A node the result decoder returned is known to exist: asking for
    it again issues no ``SELECT`` on ``nodes``."""
    mem, _ = _chain_graph(2, 10)
    repository = SqlRepository()
    repository.store("g", mem)
    stored = repository.fetch("g")
    ids = [
        node_id for (node_id,) in
        stored._q("SELECT id FROM nodes WHERE graph=?", (stored._graph_id,))
    ]
    calls = _counting_store_calls(monkeypatch)
    decoded = stored.resolve_nodes(ids)
    assert len(decoded) == 21
    calls[0] = 0
    assert all(stored.has_node(oid) for oid in decoded.values())
    assert calls[0] == 0
    repository.store_backend.close()


# --------------------------------------------------------------------- #
# directed corners the strategy cannot reach deterministically


def _corner_graph():
    g = Graph("c")
    a = g.add_node(hint="a")
    b = g.add_node(hint="b")
    c = g.add_node(hint="c")
    for node in (a, b, c):
        g.add_to_collection("Pool", node)
    g.add_edge(a, "ref", b)
    g.add_edge(b, "ref", c)
    g.add_edge(c, "ref", a)  # cycle for the star path
    g.add_edge(a, "year", integer(1995))
    g.add_edge(b, "year", string("1995"))
    g.add_edge(c, "year", real(1995.0))
    g.add_edge(a, "tag", string("keep"))
    return g


@pytest.fixture
def corner_pair():
    mem = _corner_graph()
    repository = SqlRepository()
    repository.store("c", mem)
    return mem, repository.fetch("c")


@pytest.mark.parametrize(
    "text",
    [
        'where Pool(P), P -> "ref"* -> Q, Q -> "year" -> 1995',
        'where Pool(P), P -> ("ref"."ref") -> Q',
        'where Pool(P), not(P -> "tag" -> T)',
        'where Pool(P), P -> "year" -> Y, Pool(Q), Q -> "year" -> Y, P != Q',
    ],
    ids=["star-cycle", "concat", "negation", "coercing-self-join"],
)
def test_regular_path_and_negation_corners(corner_pair, text):
    mem, sql = corner_pair
    want, _ = _bindings(mem, text)
    got, _ = _bindings(sql, text, PushdownSqlEngine)
    assert got == want


@pytest.mark.parametrize(
    "text", ['where X -> "n" -> X', 'where X -> "n"."n"* -> X'], ids=["edge", "path"]
)
def test_repeated_variable_takes_one_value(text):
    """Over a graph whose only edge is a -n-> b, no X is both ends."""
    mem = Graph("r")
    a, b = mem.add_node(hint="a"), mem.add_node(hint="b")
    mem.add_edge(a, "n", b)
    repository = SqlRepository()
    repository.store("r", mem)
    assert _bindings(mem, text)[0] == []
    got, _ = _bindings(repository.fetch("r"), text, PushdownSqlEngine)
    assert got == []


def test_pushdown_actually_happens(corner_pair):
    _, sql = corner_pair
    _, engine = _bindings(sql, 'where Pool(P), P -> "year" -> Y', PushdownSqlEngine)
    assert engine.metrics.sql_pushdowns == 1
    assert engine.metrics.sql_pushed_conditions == 2
    assert engine.metrics.sql_fallbacks == 0
    assert "SQL[2 pushed]" in str(engine.last_operator_stats[0])


def test_a_path_runs_in_memory_after_the_pushed_prefix():
    """Above the cost cutoff the membership and edge prefix is one
    SELECT, and the star path is its own in-memory operator."""
    mem = news_graph(200, seed=0)
    repository = SqlRepository()
    repository.store("n", mem)
    text = 'where Articles(a), a -> "related" -> b, a -> ("related")* -> b'
    want, _ = _bindings(mem, text)
    got, engine = _bindings(repository.fetch("n"), text)
    assert got == want
    assert [op.condition for op in engine.last_operator_stats] == [
        "SQL[2 pushed]",
        'a -> "related"* -> b',
    ]


def test_fallback_reasons(corner_pair):
    _, sql = corner_pair
    text = 'where Pool(P), P -> "year" -> Y'
    _, engine = _bindings(sql, text, InMemorySqlEngine)
    assert engine.metrics.sql_pushdowns == 0
    assert engine.metrics.sql_fallbacks == 1
    assert engine.last_pushdown.fallback_reason == "below cost cutoff"
    assert explain_pushdown(engine) == "no pushdown (below cost cutoff)"


def test_residue_after_pushdown_checks_deadline(corner_pair, monkeypatch):
    """A deadline that expires while the pushed SELECT runs stops the
    in-memory residue before its next operator."""
    _, sql = corner_pair
    # a custom predicate has no SQL form: it and the comparison after
    # it run in memory, after the pushed-down prefix
    unregister = register_object_predicate("isAnyYear", lambda value: True)
    clock = [0.0]
    query_named = sql._store.query_named

    def slow_select(*args):
        rows = query_named(*args)
        clock[0] = 2.0  # the budget runs out during the SELECT
        return rows

    monkeypatch.setattr(sql._store, "query_named", slow_select)
    engine = PushdownSqlEngine(sql)
    conditions = parse_query(
        'where Pool(P), P -> "year" -> Y, isAnyYear(Y), Y != 2000'
    ).where
    try:
        clear_plan_cache()
        with deadline_scope(Deadline(1.0, clock=lambda: clock[0])):
            with pytest.raises(DeadlineExceeded) as caught:
                engine.bindings(conditions)
    finally:
        unregister()
    assert caught.value.site == "engine.block"
    assert engine.metrics.sql_pushdowns == 1
    assert engine.last_pushdown.pushed == 2


def test_warm_plan_cache_hits(corner_pair):
    _, sql = corner_pair
    conditions = parse_query('where Pool(P), P -> "year" -> Y').where
    engine = PushdownSqlEngine(sql)
    first = engine.bindings(conditions)
    assert engine.bindings(conditions) == first
    assert engine.plan_cache.stats()["sql_hits"] >= 1


def test_make_engine_dispatch(corner_pair):
    mem, sql = corner_pair
    assert isinstance(make_engine(sql), SqlQueryEngine)
    engine = make_engine(mem)
    assert isinstance(engine, QueryEngine)
    assert not isinstance(engine, SqlQueryEngine)


# --------------------------------------------------------------------- #
# repository interface


def test_roundtrip_and_reopen(tmp_path):
    mem = _corner_graph()
    SqlRepository(str(tmp_path)).store("c", mem)
    reopened = SqlRepository(str(tmp_path))
    assert "c" in reopened
    sql = reopened.fetch("c")
    assert isinstance(sql, SqlGraph)
    assert sql.stats() == mem.stats()
    assert list(sql.collection("Pool")) == list(mem.collection("Pool"))
    oid = mem.collection("Pool")[0]
    assert list(sql.out_edges(oid)) == list(mem.out_edges(oid))
    assert reopened.catalog()["c"]["nodes"] == mem.node_count
    assert reopened.file_size() > 0
    assert reopened.index_row_counts()["edges"] == mem.edge_count


def test_rebuild_rolls_back_on_error(tmp_path):
    repository = SqlRepository(str(tmp_path))
    repository.store("c", _corner_graph())
    with pytest.raises(RuntimeError):
        with repository.rebuild("c") as fresh:
            fresh.add_node(hint="doomed")
            raise RuntimeError("abort the rebuild")
    assert repository.fetch("c").stats() == _corner_graph().stats()


def test_export_ddl(tmp_path):
    repository = SqlRepository(str(tmp_path / "db"))
    mem = _corner_graph()
    repository.store("c", mem)
    out = tmp_path / "c.ddl"
    repository.export_ddl("c", str(out))
    parsed = ddl.loads(out.read_text())
    assert parsed.stats() == mem.stats()


def test_open_repository_backend_selection(tmp_path):
    assert isinstance(open_repository(str(tmp_path), "sqlite"), SqlRepository)
    assert isinstance(open_repository(str(tmp_path), "ddl"), Repository)
    with pytest.raises(RepositoryError):
        open_repository(str(tmp_path), "oracle")


# --------------------------------------------------------------------- #
# a stored generation is read-only: copy, edit, store the next one


def _writes(graph):
    """Each ``Graph`` write, with arguments that would change ``graph``."""
    a, b, _ = graph.collection("Pool")
    return {
        "add_node": (Oid("fresh"),),
        "skolem": ("F", a),
        "add_edge": (a, "new", string("v")),
        "remove_edge": (a, "ref", b),
        "remove_node": (a,),
        "create_collection": ("Fresh",),
        "add_to_collection": ("Fresh", a),
        "remove_from_collection": ("Pool", a),
        "merge": (_corner_graph(),),
    }


def test_every_write_to_a_stored_generation_raises_and_changes_nothing():
    repository = SqlRepository()
    repository.store("c", _corner_graph())
    sql = repository.fetch("c")

    def state():
        return sql.epoch, sql.stats(), ddl.dumps(sql.copy())

    before = state()
    for name, args in _writes(sql).items():
        with pytest.raises(RepositoryError):
            getattr(sql, name)(*args)
        assert state() == before, name
    with pytest.raises(RepositoryError):
        repository.store("c", sql)  # would truncate its own source
    assert state() == before


def test_serve_edit_on_a_stored_graph_fails_and_changes_nothing():
    repository = SqlRepository()
    repository.store("data", bibliography_graph(6, seed=3))
    graph = repository.fetch("data")
    before = ddl.dumps(graph.copy())
    core = ServeCore(
        parse(HOMEPAGE_QUERY), graph, homepage_templates(), dynamic=True
    )
    refresher = Refresher(core)
    refresher.start()
    try:
        ticket = refresher.submit(lambda data: data.add_node(hint="edit"))
        assert ticket.wait(30)
    finally:
        assert refresher.stop()
    assert not ticket.applied and ticket.error.startswith("RepositoryError")
    assert (core.refreshes_applied, core.refreshes_failed) == (0, 1)
    assert ddl.dumps(graph.copy()) == before


def test_copy_edit_store_gives_the_edited_orders():
    repository = SqlRepository()
    repository.store("c", _corner_graph())
    sql = repository.fetch("c")
    edited = sql.copy()
    a, b, c = edited.collection("Pool")
    edited.remove_edge(a, "ref", b)
    edited.add_edge(c, "tag", string("new"))
    edited.remove_from_collection("Pool", b)
    edited.add_to_collection("Pool", edited.add_node(hint="d"))
    epoch = sql.epoch
    repository.store("c", edited)
    assert repository.fetch("c") is sql and sql.epoch > epoch
    assert sql.delta_since(epoch) is None and sql.delta_since(sql.epoch).empty
    assert _orders(sql) == _orders(edited)
    assert _orders(sql) != _orders(_corner_graph())


# --------------------------------------------------------------------- #
# mediator and CLI ride on either backend

_SOURCE = """
collection People
object mff { name: "Mary" login: "mff" }
object suciu { name: "Dan" login: "suciu" }
member People: mff, suciu
"""


def test_mediator_materializes_into_sqlite():
    results = {}
    for key, repository in (("ddl", Repository()), ("sqlite", SqlRepository())):
        mediator = Mediator(repository=repository)
        mediator.add_source("a", DdlWrapper(_SOURCE))
        mediator.import_collection("a", "People")
        warehouse = mediator.materialize()
        results[key] = {
            "stats": warehouse.stats(),
            "people": sorted(str(o) for o in warehouse.collection("People")),
        }
    assert results["sqlite"] == results["ddl"]


BIBTEX = """
@article{p1, title = {Alpha}, author = {Mary}, year = 1998}
@article{p2, title = {Beta}, author = {Dan}, year = 1997}
"""


@pytest.fixture
def data_file(tmp_path):
    from repro.cli import main

    bib = tmp_path / "pubs.bib"
    bib.write_text(BIBTEX)
    data = tmp_path / "data.ddl"
    assert main(["wrap", "bibtex", str(bib), "-o", str(data)]) == 0
    return data


def test_cli_stats_sqlite_backend(data_file, capsys):
    from repro.cli import main

    query = 'where Publications(p), p -> "year" -> y'
    code = main(
        ["stats", str(data_file), "--backend", "sqlite", "--query", query]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "backend: sqlite" in out
    assert "db file size:" in out
    assert "index rows:" in out
    assert "sql:" in out


def test_cli_bindings_backend_parity(data_file, capsys):
    from repro.cli import main

    query = 'where Publications(p), p -> "author" -> a'
    assert main(["bindings", "--data", str(data_file), query]) == 0
    memory_out = capsys.readouterr().out
    code = main(
        ["bindings", "--data", str(data_file), "--backend", "sqlite", query]
    )
    assert code == 0
    sqlite_out = capsys.readouterr().out
    assert sqlite_out == memory_out
