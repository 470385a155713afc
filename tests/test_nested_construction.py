"""Nested blocks construct once per distinct binding of the variables
they use.

Paper section 2.2 gives a nested block set semantics: its where-clause
extends the parent's binding relation and the block constructs once per
extended row.  The engine hands each nested block only the distinct
projections of its parent's rows onto the variables the block (and its
descendants) mention.  The contracts under test:

* ``evaluate()`` builds exactly the graph of the row-at-a-time driver
  ``reference_evaluate`` (full parent rows, one ``_construct_row`` per
  row): same node order, out-edge order per node, collection member
  order, and ``nodes_created``/``edges_created`` -- with the planner on
  and off, on random graphs, for the Fig. 3 query and for nested-block
  shapes where projection is easy to get wrong;
* ``bindings_produced`` counts distinct rows only: for Fig. 3, the
  top-level rows plus the distinct ``(x, y)`` and ``(x, c)`` rows.
"""

from hypothesis import given, settings

from repro.graph import Graph
from repro.repository import graph_statistics
from repro.struql import order_conditions, parse, query_bindings
from repro.struql.eval import Metrics, evaluate
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph

from .reference_eval import reference_evaluate
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

QUERIES = [
    FIG3_RANDOM,
    CHILD_USES_ARC,
    GRANDCHILD_USES_GRANDPARENT,
    CHILD_WITHOUT_WHERE,
    CHILD_NEGATES_PARENT_VAR,
]


def _layout(graph):
    """Everything construction order can show: nodes in order, each
    node's out-edges in order, each collection's members in order."""
    nodes = [(node, list(graph.out_edges(node))) for node in graph.nodes()]
    collections = [(name, graph.collection(name)) for name in graph.collection_names()]
    return nodes, collections


def _plan(graph, optimize):
    """The condition order ``evaluate(optimize=...)`` runs."""
    if not optimize:
        return lambda conditions, bound: conditions
    stats = graph_statistics(graph)
    return lambda conditions, bound: order_conditions(conditions, bound, stats)


def assert_matches_reference(program, graph):
    for optimize in (True, False):
        metrics = Metrics()
        got = evaluate(program, graph, optimize=optimize, metrics=metrics)
        expected, reference_metrics = reference_evaluate(
            program, graph, plan=_plan(graph, optimize)
        )
        assert _layout(got) == _layout(expected), (str(program.queries[-1]), optimize)
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
