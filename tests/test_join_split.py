"""A top-level block's last join, expanded once per distinct join value.

``QueryEngine.bindings(query)`` hands construction a subsequence of the
block's binding relation when ``_join_split`` splits its plan before
the last operator: every clause and nested block must still see the
same distinct bindings in the same order, so the result graph is the
one the row-at-a-time reference (``tests/reference_eval.py``) builds
from the full relation.

The property draws two-hop blocks ``C(p), p -> "r" -> b, b -> l -> v``
over graphs where several ``p`` share one ``b``, some ``b`` have no
out-edges, and atom targets are shared.  Its clause sets are drawn from
a pool: some only read ``{p, b}`` or ``{b, l, v}`` subsets (the block
splits), some read ``{p, l}`` or all four variables (it must not).  It
compares the engine with the reference in memory and after a
``SqlRepository`` round trip, planner on and off, pushdown forced on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Graph, Oid, integer, string
from repro.repository import SqlRepository, ddl, graph_statistics
from repro.struql import order_conditions, parse
from repro.struql.eval import Metrics, QueryEngine, evaluate
from repro.workloads import build_mediator

from .reference_eval import WrittenOrderEngine, reference_evaluate
from .test_sql_backend import PushdownSqlEngine

WHERE = 'where C(p), p -> "r" -> b, b -> l -> v'

#: (section, clause, variables read): the pool the clause sets come from
CLAUSES = [
    ("create", "F(b)", {"b"}),
    ("create", "G(p)", {"p"}),
    ("collect", "Fs(F(b))", {"b"}),
    ("collect", "Gs(G(p))", {"p"}),
    ("link", 'G(p) -> "R" -> F(b)', {"p", "b"}),
    ("link", "F(b) -> l -> v", {"b", "l", "v"}),
    ("link", 'F(b) -> "val" -> v', {"b", "v"}),
    ("link", 'H(l, v) -> "of" -> F(b)', {"b", "l", "v"}),
    ("create", "L(l)", {"l"}),
    # these read P and S together: the block must not split
    ("link", 'G(p) -> "L" -> L(l)', {"p", "l"}),
    ("link", "Q(p, b) -> l -> v", {"p", "b", "l", "v"}),
]

#: nested blocks and the parent variables they read
NESTED = [
    ('{ where b -> "x" -> w link F(b) -> "X" -> w }', {"b"}),
    ('{ where p -> "r" -> w link G(p) -> "RR" -> w }', {"p"}),
    ('{ where p -> "s" -> w link G(p) -> "SL" -> L(l) }', {"p", "l"}),
]

PREFIX, TAIL = {"p", "b"}, {"b", "l", "v"}

_ATOMS = [string("one"), integer(2), string("2"), string("three")]


@st.composite
def two_hop_graphs(draw):
    graph = Graph("two-hop")
    owners = [graph.add_node(Oid(f"p{i}")) for i in range(draw(st.integers(1, 4)))]
    shared = [graph.add_node(Oid(f"b{i}")) for i in range(draw(st.integers(1, 4)))]
    data = [graph.add_node(Oid(f"d{i}")) for i in range(2)]
    graph.add_edge(data[0], "next", data[1])
    graph.add_edge(data[1], "note", string("leaf"))
    for owner in owners:
        if draw(st.booleans()) or owner is owners[0]:
            graph.add_to_collection("C", owner)
    for i, j in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10)):
        graph.add_edge(owners[i % len(owners)], "r", shared[j % len(shared)])
    for i, j in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3)):
        graph.add_edge(owners[i % len(owners)], "s", shared[j % len(shared)])
    targets = st.one_of(
        st.sampled_from(_ATOMS),
        st.sampled_from(data),
        st.integers(0, 3).map(lambda j: shared[j % len(shared)]),
    )
    for i, label, target in draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(["x", "y", "r"]), targets),
            max_size=12,
        )
    ):
        # the last b never gets out-edges when there are two or more
        if len(shared) == 1 or i % len(shared) != len(shared) - 1:
            graph.add_edge(shared[i % len(shared)], label, target)
    return graph


@st.composite
def two_hop_blocks(draw):
    """Program text and whether the written-order plan splits."""
    clauses = draw(
        st.lists(st.sampled_from(CLAUSES), min_size=1, max_size=5, unique_by=lambda c: c[1])
    )
    nested = draw(st.lists(st.sampled_from(NESTED), max_size=2, unique_by=lambda n: n[0]))
    sections = []
    for section in ("create", "link", "collect"):
        chosen = [text for kind, text, _ in clauses if kind == section]
        if chosen:
            sections.append(f"{section} " + ", ".join(chosen))
    text = "\n".join([WHERE, *sections, *(block for block, _ in nested)])
    reads = [names for _, _, names in clauses] + [names for _, names in nested]
    splits = all(names <= PREFIX or names <= TAIL for names in reads)
    return text, splits


class WrittenOrderSqlEngine(PushdownSqlEngine):
    """The SQL engine with its planner off: the prefix still pushes down."""

    def _plan(self, conditions, bound):
        return list(conditions)


def _observed(graph):
    """Every order construction can show in a result graph."""
    nodes = list(graph.nodes())
    atoms = list(graph.atoms())
    delta = graph.delta_since(0)
    return {
        "dump": ddl.dumps(graph),
        "out_edges": [list(graph.out_edges(node)) for node in nodes],
        "edges_with_label": {l: list(graph.edges_with_label(l)) for l in graph.labels()},
        "in_edges": [list(graph.in_edges(target)) for target in nodes + atoms],
        "collections": [(name, graph.collection(name)) for name in graph.collection_names()],
        "delta": {slot: getattr(delta, slot) for slot in type(delta).__slots__},
    }


def _engines(mem, sql):
    """(engine, graph it reads, reference plan) for each way to run."""
    mem_stats, sql_stats = graph_statistics(mem), graph_statistics(sql)
    written = lambda conditions, bound: conditions  # noqa: E731
    return [
        (QueryEngine(mem), mem,
         lambda conditions, bound: order_conditions(conditions, bound, mem_stats)),
        (WrittenOrderEngine(mem), mem, written),
        (PushdownSqlEngine(sql), sql,
         lambda conditions, bound: order_conditions(conditions, bound, sql_stats)),
        (WrittenOrderSqlEngine(sql), sql, written),
    ]


@given(two_hop_graphs(), two_hop_blocks())
@settings(max_examples=120, deadline=None)
def test_split_block_builds_the_reference_graph(mem, block):
    text, splits = block
    program = parse(text)
    repository = SqlRepository()
    try:
        repository.store("g", mem)
        sql = repository.fetch("g")
        for engine, source, plan in _engines(mem, sql):
            metrics = Metrics()
            got = evaluate(program, source, metrics=metrics, engine=engine)
            expected, reference_metrics = reference_evaluate(program, mem, plan=plan)
            context = (text, type(engine).__name__)
            assert _observed(got) == _observed(expected), context
            assert (metrics.nodes_created, metrics.edges_created) == (
                reference_metrics.nodes_created, reference_metrics.edges_created
            ), context
            if isinstance(engine, (WrittenOrderEngine, WrittenOrderSqlEngine)):
                assert (engine.last_split is not None) == splits, context
    finally:
        repository.store_backend.close()


# ---------------------------------------------------------------------- #
# the org site's publication block

ORG_PUBLICATIONS = """
where People(p), p -> "publication" -> b, b -> l -> v
create PubPage(b)
link PubPage(b) -> l -> v,
     PersonPage(p) -> "Publication" -> PubPage(b)
collect PubPages(PubPage(b))
"""


@pytest.fixture(scope="module")
def org_data():
    return build_mediator(people=60, seed=0).materialize("data")


def test_org_publication_block_hands_construction_fewer_rows(org_data):
    query = parse(ORG_PUBLICATIONS).queries[0]
    engine = QueryEngine(org_data)
    full = engine.bindings(query.where)
    rows = engine.bindings(query)
    split = engine.last_split
    assert split is not None and split.join == ("b",)
    assert split.rows == len(rows) < len(full)
    assert split.prefix_rows == len({(row["p"], row["b"]) for row in full})
    assert split.join_values == len({row["b"] for row in full})
    assert split.suffix_rows == len({(row["b"], row["l"], row["v"]) for row in full})
    # every consumer sees the full relation's distinct keys, in order
    for names in (("b",), ("p", "b"), ("b", "l", "v")):
        assert list(dict.fromkeys(tuple(r[n] for n in names) for r in rows)) == list(
            dict.fromkeys(tuple(r[n] for n in names) for r in full)
        )
    assert ddl.dumps(evaluate(parse(ORG_PUBLICATIONS), org_data)) == ddl.dumps(
        reference_evaluate(
            parse(ORG_PUBLICATIONS), org_data,
            plan=lambda conditions, bound: order_conditions(
                conditions, bound, graph_statistics(org_data)
            ),
        )[0]
    )


def test_a_clause_on_p_and_l_turns_the_split_off(org_data):
    text = ORG_PUBLICATIONS.replace(
        "link ", 'link PersonPage(p) -> "Has" -> L(l),\n     '
    )
    query = parse(text).queries[0]
    assert query.link[0].variables() == {"p", "l"}
    engine = QueryEngine(org_data)
    assert engine.bindings(query) == engine.bindings(query.where)
    assert engine.last_split is None
