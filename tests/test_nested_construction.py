"""Construction applies each clause once per distinct binding of its
own variables, and nested blocks run once per distinct binding of the
variables they use.

Paper section 2.2 constructs once per row of the binding relation: every
row applies the block's create, link and collect clauses, and a nested
block's where-clause extends the parent's relation.  The engine does
less and must build the same graph:

* a nested block gets only the distinct projections of its parent's
  rows onto the variables it (and its descendants) mention;
* within a block, a clause runs once per distinct binding of its own
  variables (rows in order), and each Skolem term is resolved once per
  ``construct`` call; a skipped application would have been a no-op.

The contracts under test:

* ``evaluate()`` builds exactly the graph of the row-at-a-time driver
  ``reference_evaluate`` (full parent rows, every clause of every row,
  no skipping and no memo): same ``ddl.dumps``, node order, out-edge
  order per node, collection member order, and
  ``nodes_created``/``edges_created`` -- with the planner on and off, on
  random graphs, for the Fig. 3 query and for shapes where projection
  or clause-level dedup is easy to get wrong (duplicate rows, a
  where-only variable, an arc-variable label and an equal STRING atom
  as Skolem arguments, imported data-graph nodes);
* an existing-node link source raises ``ImmutableNodeError`` at the
  same point, with the same partial graph, as the reference;
* every construction error (an unbound Skolem argument or link target,
  a collected variable or link source that is not a node, an existing
  link source, an arc variable not bound to a label) has the
  reference's class and message;
* ``_project`` returns the dicts, in the order, of the obvious
  frozenset-keyed projection, for rows of mixed shapes;
* ``bindings_produced`` counts distinct rows only: for Fig. 3, the
  top-level rows plus the distinct ``(x, y)`` and ``(x, c)`` rows.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ImmutableNodeError, StrudelError
from repro.graph import Graph, Oid, integer, string
from repro.repository import ddl, graph_statistics
from repro.struql import order_conditions, parse, query_bindings
from repro.struql.eval import Metrics, QueryEngine, _Constructor, _project, evaluate
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph

from .reference_eval import RowConstructor, WrittenOrderEngine, reference_evaluate
from .test_perf_caches import _apply, mutation_scripts

#: the random graphs' vocabulary: collection ``C``, "year" as "a",
#: "category" as "b"
RANDOM_VOCABULARY = [("Publications(x)", "C(x)"), ('"year"', '"a"'), ('"category"', '"b"')]


def _translate(text, vocabulary):
    for old, new in vocabulary:
        text = text.replace(old, new)
    return text


FIG3_RANDOM = _translate(HOMEPAGE_QUERY, RANDOM_VOCABULARY)

#: a child whose link uses the parent's arc variable and target
CHILD_USES_ARC = """
where C(x), x -> l -> v
create P(x)
{
  where x -> "a" -> y
  create Q(y)
  link Q(y) -> l -> v, P(x) -> "q" -> Q(y)
  collect Qs(Q(y))
}
"""

#: a grandchild reading grandparent variables (l, v) the child never mentions
GRANDCHILD_USES_GRANDPARENT = """
where C(x), x -> l -> v
create P(x)
{
  where x -> "a" -> y
  create Q(y)
  link P(x) -> "q" -> Q(y)
  {
    where x -> "b" -> z
    create R(z)
    link R(z) -> l -> v, Q(y) -> "r" -> R(z)
    collect Rs(R(z))
  }
}
"""

#: children with an empty where-clause; the second reads only ``v``,
#: whose values recur in parent rows far apart, so its rows' order is
#: the first occurrences' order
CHILD_WITHOUT_WHERE = """
where C(x), x -> l -> v
create P(x)
link P(x) -> l -> v
{
  create Q(x)
  link P(x) -> "q" -> Q(x), Q(x) -> "of" -> x
  collect Qs(Q(x))
}
{
  create V(v)
  link V(v) -> "value" -> v
  collect Vs(V(v))
}
"""

#: a negation in a child over a parent variable the child uses nowhere else
CHILD_NEGATES_PARENT_VAR = """
where C(x), x -> l -> v
create P(x)
{
  where x -> "a" -> y, not(x -> "b" -> v)
  create Q(y)
  link Q(y) -> "p" -> P(x)
  collect Qs(Q(y))
}
"""

#: ``y`` is bound by the where-clause only, so no clause's variables
#: cover a whole row: rows that differ in ``y`` alone repeat every clause
WHERE_ONLY_VARIABLE = """
where C(x), x -> "a" -> y, x -> l -> v
create P(x)
link P(x) -> l -> v, P(x) -> "p" -> P(x)
collect Ps(P(x))
{
  create V(v)
  link V(v) -> "of" -> P(x)
}
"""

#: a data-graph node as link target and as collected node, the same
#: ``x`` in many ``(x, l, v)`` rows: each is imported with its closure
IMPORTS_DATA_NODES = """
where C(x), x -> l -> v
create P(x)
link P(x) -> "item" -> x, P(x) -> l -> v
collect Items(x), Ps(P(x))
"""

#: one Skolem function at arities 0 to 3, with constant arguments and a
#: constant target: the 1-argument terms ``K("c")`` and ``K(v)`` share a
#: memo, and ``K(v)`` for a STRING atom ``"c"`` is the node ``K("c")``
SKOLEM_ARITIES = """
where C(x), x -> l -> v
create K(), K(x), K(x, l), K(v, "c", x), K("c"), K(v)
link K() -> "one" -> K(x), K(x) -> "pair" -> K(x, l),
     K(x, l) -> "triple" -> K(v, "c", x), K("c") -> "const" -> K(v),
     K(v) -> "value" -> v, K(x) -> "flag" -> "yes"
collect Ks(K("c")), Ks(K(v)), Ks(K())
"""

QUERIES = [
    FIG3_RANDOM,
    CHILD_USES_ARC,
    GRANDCHILD_USES_GRANDPARENT,
    CHILD_WITHOUT_WHERE,
    CHILD_NEGATES_PARENT_VAR,
    WHERE_ONLY_VARIABLE,
    IMPORTS_DATA_NODES,
    SKOLEM_ARITIES,
]


def _layout(graph):
    """Everything construction order can show: nodes in order, each
    node's out-edges in order, each collection's members in order."""
    nodes = [(node, list(graph.out_edges(node))) for node in graph.nodes()]
    collections = [(name, graph.collection(name)) for name in graph.collection_names()]
    return nodes, collections


def _plan(graph, planned):
    """The condition order the planned or written-order engine runs."""
    if not planned:
        return lambda conditions, bound: conditions
    stats = graph_statistics(graph)
    return lambda conditions, bound: order_conditions(conditions, bound, stats)


def assert_matches_reference(program, graph):
    for planned in (True, False):
        metrics = Metrics()
        engine = QueryEngine(graph) if planned else WrittenOrderEngine(graph)
        got = evaluate(program, graph, metrics=metrics, engine=engine)
        expected, reference_metrics = reference_evaluate(
            program, graph, plan=_plan(graph, planned)
        )
        assert _layout(got) == _layout(expected), (str(program.queries[-1]), planned)
        assert_same_construction(got, metrics, expected, reference_metrics)


def assert_same_construction(got, metrics, expected, reference_metrics):
    assert ddl.dumps(got) == ddl.dumps(expected)
    assert (metrics.nodes_created, metrics.edges_created) == (
        reference_metrics.nodes_created, reference_metrics.edges_created
    )


def _script_graph(script):
    graph = Graph()
    nodes = []
    for step in script:
        _apply(graph, nodes, step)
    return graph


@given(mutation_scripts())
@settings(max_examples=40, deadline=None)
def test_construction_matches_row_at_a_time_reference(script):
    graph = _script_graph(script)
    for text in QUERIES:
        assert_matches_reference(parse(text), graph)


def test_construction_matches_reference_on_bibliography():
    """Every shape over the homepage data, where each publication has
    a year and most have a category."""
    graph = bibliography_graph(30, seed=21)
    back = [(new, old) for old, new in RANDOM_VOCABULARY]
    for text in QUERIES:
        assert_matches_reference(parse(_translate(text, back)), graph)


def test_fig3_bindings_count_distinct_block_rows():
    """Each nested block is evaluated once per distinct ``x``, not once
    per ``(x, l, v)`` row of its parent."""
    graph = bibliography_graph(30, seed=21)
    metrics = Metrics()
    evaluate(parse(HOMEPAGE_QUERY), graph, metrics=metrics)
    top = query_bindings("where Publications(x), x -> l -> v", graph)
    years = query_bindings('where Publications(x), x -> "year" -> y', graph)
    categories = query_bindings('where Publications(x), x -> "category" -> c', graph)
    assert years and categories
    assert metrics.bindings_produced == len(top) + len(years) + len(categories)


def _reference_rows(text, graph):
    """The top-level rows of ``text`` in the reference's order."""
    return WrittenOrderEngine(graph).bindings(parse(text).queries[0].where)


DUPLICATED_ROWS = """
where Publications(x), x -> l -> v
create P(x)
link P(x) -> l -> v, Root() -> "p" -> P(x)
collect Ps(P(x))
"""


@pytest.mark.parametrize("shape", ["appended", "adjacent"])
def test_construct_given_duplicate_rows_matches_reference(shape):
    """``construct()`` callers pass distinct rows, so the clauses whose
    variables cover a whole row keep no seen set; a duplicate row only
    re-applies no-ops."""
    graph = bibliography_graph(12, seed=5)
    rows = _reference_rows(DUPLICATED_ROWS, graph)
    doubled = rows + rows if shape == "appended" else [r for r in rows for _ in (0, 1)]
    got, metrics = Graph(), Metrics()
    _Constructor(got, metrics, graph).construct(parse(DUPLICATED_ROWS).queries[0], doubled)
    assert_same_construction(got, metrics, *reference_evaluate(parse(DUPLICATED_ROWS), graph))


def test_where_only_variable_matches_reference():
    graph = bibliography_graph(30, seed=21)
    text = _translate(WHERE_ONLY_VARIABLE, [("C(x)", "Publications(x)"), ('"a"', '"author"')])
    rows = _reference_rows(text, graph)
    distinct_xlv = {(row["x"], row["l"], row["v"]) for row in rows}
    assert len(distinct_xlv) < len(rows)  # some rows differ only in y
    assert_matches_reference(parse(text), graph)


def test_label_and_equal_string_atom_share_one_skolem_node():
    """``K(l)`` with the label ``"year"`` and ``K(v)`` with the STRING atom
    ``"year"`` are different memo keys but one registry oid: the node is
    created (and counted) once."""
    graph = Graph()
    first, second = graph.add_node(Oid("p1")), graph.add_node(Oid("p2"))
    graph.add_edge(first, "year", 1998)
    graph.add_edge(first, "tag", string("year"))
    graph.add_edge(second, "tag", string("year"))
    graph.add_edge(second, "year", string("year"))
    for node in (first, second):
        graph.add_to_collection("C", node)
    text = """
    where C(x), x -> l -> v
    create K(l), K(v)
    link K(l) -> "value" -> v, K(v) -> "label" -> l, K(v) -> "from" -> K(l)
    collect Ks(K(l)), Ks(K(v))
    """
    assert_matches_reference(parse(text), graph)
    site = evaluate(text, graph)
    assert site.skolem("K", string("year")) in site.collection("Ks")
    assert len(site.collection("Ks")) == 3  # K("year"), K(1998), K("tag")


def test_imported_data_nodes_are_not_counted():
    graph = bibliography_graph(20, seed=2)
    back = [(new, old) for old, new in RANDOM_VOCABULARY]
    text = _translate(IMPORTS_DATA_NODES, back)
    metrics = Metrics()
    site = evaluate(text, graph, metrics=metrics)
    publications = graph.collection("Publications")
    assert site.collection("Items") == publications
    assert metrics.nodes_created == len(publications)
    assert site.node_count > metrics.nodes_created
    assert_matches_reference(parse(text), graph)


def test_existing_node_link_source_raises_like_the_reference():
    """The first application of a key raises exactly where the
    row-at-a-time reference does, leaving the same partial graph."""
    graph = bibliography_graph(8, seed=1)
    text = """
    where Publications(x), x -> l -> v
    create P(x)
    link P(x) -> l -> v, x -> "shown" -> P(x)
    """
    query = parse(text).queries[0]
    rows = _reference_rows(text, graph)
    got, expected = Graph(), Graph()
    with pytest.raises(ImmutableNodeError):
        _Constructor(got, Metrics(), graph).construct(query, rows)
    reference = RowConstructor(expected, Metrics(), graph)
    with pytest.raises(ImmutableNodeError):
        for row in rows:
            reference.construct_row(query, row)
    assert ddl.dumps(got) == ddl.dumps(expected)
    assert got.node_count == 1  # P(x) of the first row only
    with pytest.raises(ImmutableNodeError):
        evaluate(text, graph)


#: one query per construction error, each over ``_error_graph``: ``z``
#: occurs only inside a negation, so no row binds it; ``v`` is an atom
#: and ``n`` a data node
CONSTRUCTION_ERRORS = {
    "unbound Skolem argument": """
        where C(x) create P(x)
        { where not(x -> "missing" -> z) create Q(z) }
    """,
    "collected atom": 'where C(x), x -> "v" -> v collect Vs(v)',
    "atom link source": 'where C(x), x -> "v" -> v create P(x) link v -> "a" -> P(x)',
    "existing link source": 'where C(x) create P(x) link x -> "a" -> P(x)',
    "arc variable bound to a node": 'where C(x), x -> "n" -> n create P(x) link P(x) -> n -> x',
    "unbound link target": """
        where C(x), not(x -> "missing" -> z) create P(x) link P(x) -> "a" -> z
    """,
}


def _error_graph():
    graph = Graph()
    item, other = graph.add_node(Oid("item")), graph.add_node(Oid("other"))
    graph.add_edge(item, "v", string("s"))
    graph.add_edge(item, "n", other)
    graph.add_to_collection("C", item)
    return graph


@pytest.mark.parametrize("text", CONSTRUCTION_ERRORS.values(), ids=list(CONSTRUCTION_ERRORS))
def test_construction_errors_match_the_reference(text):
    graph = _error_graph()
    with pytest.raises(StrudelError) as got:
        evaluate(text, graph)
    with pytest.raises(StrudelError) as expected:
        reference_evaluate(parse(text), graph)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def _frozenset_project(rows, names):
    """The obvious projection: each row restricted to ``names``, the
    first occurrence of each distinct restriction kept, in row order."""
    distinct = {}
    for row in rows:
        projected = {name: value for name, value in row.items() if name in names}
        distinct.setdefault(frozenset(projected.items()), projected)
    return list(distinct.values())


#: tuple-subclass values (oids and atoms) and a plain label
_VALUES = st.sampled_from(
    [Oid("a"), Oid("b"), string("a"), string("b"), integer(1), "a"]
)
_ROWS = st.lists(
    st.lists(st.sampled_from("xylv"), unique=True).flatmap(
        lambda names: st.fixed_dictionaries({name: _VALUES for name in names})
    ),
    max_size=12,
)


@given(_ROWS, st.frozensets(st.sampled_from("xylvw")))
@settings(max_examples=300, deadline=None)
def test_project_matches_the_frozenset_projection(rows, names):
    got = _project(rows, names)
    expected = _frozenset_project(rows, names)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in expected]
