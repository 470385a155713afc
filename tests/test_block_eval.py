"""Set-at-a-time (block) execution of STRUQL where-clauses.

The contracts under test:

* the block operators return *exactly* the binding relation of the
  row-at-a-time reference evaluator (``tests/reference_eval.py``) run
  over the engine's plan -- same rows, same order -- for arbitrary
  graphs and a query suite covering collections, edges, arc variables,
  regular paths, negation, and comparisons (hypothesis property), and
  for the E4 homepage binding passes; with the optimizer on and off;
  and, as a set, the rows of the reference's full-scan mode (the E5
  naive baseline);
* the footprint recorded by the engine is sound: any delta that changes
  a query's bindings must make ``DependencyIndex.affected`` report the
  query;
* edge cases where batching is easy to get wrong: zero-length path
  matches, cycles under ``Star``, negation and paths over partially
  bound frontiers seeded through ``initial``;
* the path-reachability memo serves warm evaluations
  (``path_memo_hits``) and is invalidated by graph mutation;
* ``NFA.reversed()`` (structural reversal) is equivalent to compiling
  the reversed expression;
* ``_Frame.unique_dicts`` deduplicates in first-occurrence order at
  10k-row scale;
* a warm engine re-plans nothing and reproduces the cold rows;
* ``explain(..., counts=True)`` renders per-operator row counts.
"""

import pytest
from hypothesis import given, settings

from repro.graph import Graph, integer, real, string
from repro.repository import IndexStatistics, graph_statistics
from repro.struql import (
    COARSE,
    DependencyIndex,
    Footprint,
    PlanCache,
    QueryEngine,
    compile_path,
    explain,
    order_conditions,
    parse_query,
)
from repro.struql.ast import Alternation, Concat, LabelIs, Star, any_path
from repro.struql.eval import _Frame
from repro.workloads import bibliography_graph

from .reference_eval import WrittenOrderEngine, reference_bindings
from .reference_constraints import reverse_expr, sources_to
from .test_perf_caches import _apply, mutation_scripts

# ---------------------------------------------------------------------- #
# block == row-at-a-time reference (property)

_BLOCK_QUERY_TEXTS = [
    'where C(x), x -> "a" -> y create Probe()',
    "where C(x), x -> l -> v create Probe()",
    'where C(x), not(x -> "b" -> y) create Probe()',
    "where C(x), x -> * -> v create Probe()",
    'where C(x), x -> "a"* -> v create Probe()',
    'where C(x), C(y), x -> "a" -> z, y -> "b" -> z create Probe()',
    'where C(x), x -> "a" -> v, v = "f" create Probe()',
    'where x -> "a" -> y, y -> ("a"|"b") -> z create Probe()',
    'where x -> "a" -> y, C(y) create Probe()',
    'where x -> ("a"|"b")* -> 3 create Probe()',
    'where x -> "a" -> x create Probe()',
    'where C(x), x -> "a"."b"* -> x create Probe()',
    "where x -> l -> l create Probe()",
]


#: (planned, naive): the engine with its planner on and off (the
#: written-order engine), each checked against the reference over the
#: same plan or, when naive, its full-scan mode
MODES = [(True, False), (False, False), (True, True), (False, True)]
MODE_IDS = ["planned", "written", "planned-naive", "written-naive"]


def all_modes():
    return [dict(planned=p, naive=n) for p, n in MODES]


def _bindings(graph, conditions, initial=None, planned=True, stats=None):
    engine_class = QueryEngine if planned else WrittenOrderEngine
    engine = engine_class(graph, stats=stats, plan_cache=PlanCache())
    return engine.bindings(conditions, initial=initial)


def _reference(graph, conditions, initial=None, planned=True, stats=None,
               use_indexes=True):
    """The reference relation over the plan the engine runs."""
    ordered = list(conditions)
    if planned:
        bound = frozenset(name for row in initial or [] for name in row)
        stats = stats if stats is not None else graph_statistics(graph)
        ordered = order_conditions(conditions, bound, stats)
    return reference_bindings(graph, ordered, initial, use_indexes)


def assert_matches_reference(graph, conditions, initial=None, naive=False, **modes):
    """Strict list equality with the reference; with ``naive``, set
    equality with the reference's full-scan mode, whose scans enumerate
    in another order.  Returns the engine's rows."""
    got = _bindings(graph, conditions, initial, **modes)
    expected = _reference(graph, conditions, initial, use_indexes=not naive, **modes)
    if naive:
        assert len(got) == len(expected) and set(map(_row_key, got)) == set(
            map(_row_key, expected)
        ), (", ".join(map(str, conditions)), modes)
    else:
        assert got == expected, (", ".join(map(str, conditions)), modes)
    return got


def _row_key(row):
    return frozenset(row.items())


def _script_graph(script):
    graph = Graph()
    nodes = []
    for step in script:
        _apply(graph, nodes, step)
    return graph


@given(mutation_scripts())
@settings(max_examples=40, deadline=None)
def test_block_bindings_match_row_bindings(script):
    """Strict list equality: same rows in the same order, on arbitrary
    graphs, for every query shape the engine supports, with the
    planner's order and with the written order."""
    graph = _script_graph(script)
    for text in _BLOCK_QUERY_TEXTS:
        for planned in (True, False):
            assert_matches_reference(graph, parse_query(text).where, planned=planned)


@given(mutation_scripts())
@settings(max_examples=30, deadline=None)
def test_block_matches_row_in_naive_mode(script):
    """The indexed operators return the full-scan reference's rows."""
    graph = _script_graph(script)
    for text in _BLOCK_QUERY_TEXTS:
        for planned in (True, False):
            assert_matches_reference(
                graph, parse_query(text).where, planned=planned, naive=True
            )


#: binding passes of the E4 homepage workload (Fig. 3 root block and
#: nested blocks) plus a reachability query -- the shapes set-at-a-time
#: execution targets: wide frontiers, shared join keys, batched paths
BLOCKS_SUITE = [
    ("attribute copy", "where Publications(x), x -> l -> v"),
    ("year join", 'where Publications(x), x -> "year" -> y'),
    ("category join", 'where Publications(x), x -> "category" -> c'),
    ("same-year join",
     'where Publications(x), x -> "year" -> y, '
     'Publications(z), z -> "year" -> y'),
    ("same-category join",
     'where Publications(x), x -> "category" -> c, '
     'Publications(z), z -> "category" -> c'),
    ("selective same-year join",
     'where Publications(x), x -> "year" -> y, y = "1995", '
     'Publications(z), z -> "year" -> y'),
    ("co-author join",
     'where Publications(x), x -> "author" -> a, '
     'Publications(z), z -> "author" -> a'),
    ("path reachability", "where Publications(x), x -> * -> v"),
]


@pytest.fixture(scope="module")
def homepage_graph():
    return bibliography_graph(30, seed=21)


@pytest.mark.parametrize("planned, naive", MODES, ids=MODE_IDS)
@pytest.mark.parametrize(
    "text", [text for _, text in BLOCKS_SUITE], ids=[n for n, _ in BLOCKS_SUITE]
)
def test_homepage_suite_matches_reference(homepage_graph, text, planned, naive):
    conditions = parse_query(text + " create Probe()").where
    rows = assert_matches_reference(
        homepage_graph, conditions, planned=planned, naive=naive
    )
    assert rows


# ---------------------------------------------------------------------- #
# footprint soundness: DependencyIndex.affected covers every read

_FOOTPRINT_QUERY_TEXTS = [
    'where C(x), x -> "a" -> y create Probe()',
    'where C(x), x -> "a"* -> v create Probe()',
    'where C(x), not(x -> "b" -> y) create Probe()',
]


@given(mutation_scripts())
@settings(max_examples=30, deadline=None)
def test_block_footprint_sound_under_deltas(script):
    """If a mutation changes a query's bindings, the footprint recorded
    by the *previous* block-mode evaluation, kept in a dependency index,
    must make the index report the query affected."""
    queries = [parse_query(text) for text in _FOOTPRINT_QUERY_TEXTS]
    graph = Graph()
    nodes = []
    engine = QueryEngine(graph, plan_cache=PlanCache())
    index = DependencyIndex()
    rows = {}

    def evaluate_all():
        for key, query in enumerate(queries):
            footprint = Footprint()
            with engine.record_into(footprint):
                rows[key] = engine.bindings(query.where)
            index.add(key, footprint)

    evaluate_all()
    epoch = graph.epoch
    for step in script:
        _apply(graph, nodes, step)
        stale = index.affected(graph, epoch)
        assert stale is not COARSE  # short scripts never truncate
        before = dict(rows)
        evaluate_all()
        for key, query in enumerate(queries):
            if rows[key] != before[key]:
                assert key in stale, str(query)
        epoch = graph.epoch


# ---------------------------------------------------------------------- #
# edge cases

@pytest.fixture
def cycle_graph():
    """a -n-> b -n-> a, both in C; a -a-> "leaf"."""
    graph = Graph()
    a, b = graph.add_node(), graph.add_node()
    graph.add_edge(a, "n", b)
    graph.add_edge(b, "n", a)
    graph.add_edge(a, "a", string("leaf"))
    graph.add_to_collection("C", a)
    graph.add_to_collection("C", b)
    return graph, a, b


def test_star_includes_zero_length_match(cycle_graph):
    graph, a, b = cycle_graph
    query = parse_query("where C(x), x -> * -> v create Probe()")
    for modes in all_modes():
        rows = assert_matches_reference(graph, query.where, **modes)
        # "including p itself": every collection member reaches itself
        assert {"x": a, "v": a} in rows
        assert {"x": b, "v": b} in rows


def test_star_terminates_on_cycles(cycle_graph):
    graph, a, b = cycle_graph
    query = parse_query('where C(x), x -> "n"* -> v create Probe()')
    for modes in all_modes():
        rows = assert_matches_reference(graph, query.where, **modes)
        assert {"x": a, "v": b} in rows and {"x": b, "v": a} in rows


def test_fully_bound_path_pairs(cycle_graph):
    """Both endpoints bound: the block operators verdict-check pairs."""
    graph, a, b = cycle_graph
    for text in ('where C(x), C(v), x -> "n" -> v create Probe()',
                 'where C(x), C(v), x -> "n"* -> v create Probe()'):
        query = parse_query(text)
        for modes in all_modes():
            rows = assert_matches_reference(graph, query.where, **modes)
            assert {"x": a, "v": b} in rows


def test_negation_over_partially_bound_frontier(cycle_graph):
    """Seeded rows where the negation variable is pre-bound: the block
    negation must evaluate per distinct projection, not per row."""
    graph, a, b = cycle_graph
    query = parse_query('where not(x -> "a" -> y) create Probe()')
    initial = [{"x": a}, {"x": b}, {"x": a}]
    for modes in all_modes():
        rows = assert_matches_reference(graph, query.where, initial, **modes)
        assert rows == [{"x": b}]  # a has an "a"-edge, b does not
    # y pre-bound in some rows only: one seeded evaluation per pattern
    initial = [{"x": a, "y": string("leaf")}, {"x": a, "y": string("other")}, {"x": b}]
    for modes in all_modes():
        rows = assert_matches_reference(graph, query.where, initial, **modes)
        assert rows == [{"x": a, "y": string("other")}, {"x": b}]


def test_path_over_partially_bound_frontier(cycle_graph):
    """Mixed frontier: some rows bind only the source, some bind both
    endpoints, some only the target -- each row classifies into a
    different seed group."""
    graph, a, b = cycle_graph
    query = parse_query('where x -> "n"* -> v create Probe()')
    initial = [{"x": a}, {"x": b, "v": a}, {"v": b}]
    for modes in all_modes():
        assert_matches_reference(graph, query.where, initial, **modes)


def test_coercing_path_target_keeps_first_probe_order():
    """A source-unbound path to a constant probes each coercion spelling
    in turn; a source reached again by a later spelling keeps its first
    position."""
    graph = Graph()
    a, b = graph.add_node(), graph.add_node()
    graph.add_edge(a, "y", integer(1995))
    graph.add_edge(b, "y", real(1995.0))
    graph.add_edge(a, "z", string("1995"))
    query = parse_query('where x -> ("y"|"z") -> 1995 create Probe()')
    for modes in all_modes():
        rows = assert_matches_reference(graph, query.where, **modes)
        assert rows == [{"x": a}, {"x": b}]


# ---------------------------------------------------------------------- #
# hash-join probing and the path memo

def _fanin_graph(members=20):
    """Many collection members sharing one hub: rows collapse to a
    handful of distinct keys, so block mode probes far fewer times."""
    graph = Graph()
    hub = graph.add_node(hint="hub")
    for index in range(members):
        node = graph.add_node(hint=f"m{index}")
        graph.add_edge(node, "to", hub)
        graph.add_edge(node, "kind", string(f"k{index % 2}"))
        graph.add_to_collection("C", node)
    graph.add_edge(hub, "name", string("hub"))
    return graph


def test_block_mode_counts_dedup_and_probes():
    graph = _fanin_graph()
    query = parse_query('where C(x), x -> "to" -> h, h -> "name" -> n create Probe()')
    # written order pinned: the name-probe runs over 20 rows that all
    # bind h to the same hub, so 19 of its probes dedup away
    engine = WrittenOrderEngine(graph, plan_cache=PlanCache())
    rows = engine.bindings(query.where)
    assert len(rows) == 20
    assert engine.metrics.dedup_hits == 19
    assert engine.metrics.hash_join_probes > 0
    assert len(engine.last_operator_stats) == 3  # one per condition
    name_op = engine.last_operator_stats[2]
    assert name_op.rows_in == 20 and name_op.probes == 1
    assert name_op.dedup_hits == 19
    total_in = engine.last_operator_stats[0].rows_in
    assert total_in == 1  # the pipeline starts from the empty row


def test_path_memo_serves_warm_runs_and_invalidates():
    graph = _fanin_graph()
    query = parse_query("where C(x), x -> * -> v create Probe()")
    cache = PlanCache()
    engine = QueryEngine(graph, plan_cache=cache)

    cold = engine.bindings(query.where)
    assert engine.metrics.path_memo_misses > 0
    hits_after_cold = engine.metrics.path_memo_hits

    warm = engine.bindings(query.where)
    assert warm == cold
    assert engine.metrics.path_memo_hits > hits_after_cold  # memo reuse
    assert cache.stats()["path_entries"] > 0

    # mutation bumps the epoch: the memo must not serve stale sets
    extra = graph.add_node(hint="new")
    graph.add_edge(sorted(graph.collection("C"), key=lambda o: o.name)[0],
                   "to", extra)
    fresh = engine.bindings(query.where)
    assert fresh != cold
    assert fresh == _reference(graph, query.where)


def test_path_memo_shared_across_queries_with_same_nfa():
    """Two queries sharing a compiled NFA (identical conditions resolve
    to the same cached NFA object) reuse each other's reachability."""
    graph = _fanin_graph(members=6)
    query = parse_query("where C(x), x -> * -> v create Probe()")
    cache = PlanCache()
    first = QueryEngine(graph, plan_cache=cache)
    second = QueryEngine(graph, plan_cache=cache)
    first.bindings(query.where)
    second.bindings(query.where)
    assert second.metrics.path_memo_hits > 0


# ---------------------------------------------------------------------- #
# structural NFA reversal

_REVERSAL_EXPRS = [
    LabelIs("x"),
    Concat((LabelIs("x"), LabelIs("y"))),
    Alternation((LabelIs("x"), Concat((LabelIs("y"), LabelIs("x"))))),
    Star(Concat((LabelIs("x"), LabelIs("y")))),
    any_path(),
]


@pytest.mark.parametrize("expr", _REVERSAL_EXPRS, ids=repr)
def test_nfa_reversed_matches_reverse_expr(expr):
    graph = Graph()
    a, b, c, d = (graph.add_node() for _ in range(4))
    graph.add_edge(a, "x", b)
    graph.add_edge(b, "y", d)
    graph.add_edge(a, "y", c)
    graph.add_edge(c, "x", d)
    structural = compile_path(expr).reversed()
    recompiled = compile_path(reverse_expr(expr))
    for target in (a, b, c, d):
        assert sources_to(graph, structural, target) == \
            sources_to(graph, recompiled, target)


def test_nfa_reversed_is_cached():
    nfa = compile_path(Concat((LabelIs("x"), LabelIs("y"))))
    assert nfa.reversed() is nfa.reversed()


# ---------------------------------------------------------------------- #
# unique_dicts at scale

def test_unique_dicts_dedupes_first_occurrence_order_at_10k_rows():
    frame = _Frame(["x", "y"])
    rows = [(index % 100, (index * 7) % 100) for index in range(10_000)]
    result = frame.unique_dicts(rows)
    # reference: classic seen-set loop
    seen, expected = set(), []
    for row in rows:
        if row not in seen:
            seen.add(row)
            expected.append(frame.to_dict(row))
    assert result == expected
    assert len(result) == len({tuple(sorted(d.items())) for d in result})


# ---------------------------------------------------------------------- #
# warm engines and explain counts

def test_warm_engine_hits_plan_cache():
    """Over an unchanged graph the second evaluation is a plan-cache hit
    and reproduces the cold rows in the same order."""
    graph = _fanin_graph()
    query = parse_query('where C(x), x -> "to" -> h create Probe()')
    engine = QueryEngine(graph, plan_cache=PlanCache())
    cold = engine.bindings(query.where)
    assert engine.bindings(query.where) == cold
    assert engine.metrics.plan_cache_hits == 1
    assert engine.metrics.plan_cache_misses == 1


def test_explain_counts_renders_operator_rows():
    graph = _fanin_graph(members=5)
    text = 'where C(x), x -> "to" -> h, h -> "name" -> n create Probe()'
    plan = explain(text, graph, counts=True)
    assert "rows in" in plan and "rows out" in plan
    assert "collection scan C" in plan
    # the collection scan emits one row per member
    scan_line = next(line for line in plan.splitlines() if "collection scan" in line)
    assert " 5 " in scan_line


def test_explain_counts_requires_graph():
    with pytest.raises(ValueError):
        explain('where C(x) create Probe()', counts=True)


def test_stats_snapshot_direction_choice_is_consistent():
    """Fully-bound pairs answered under either direction choice agree
    with the reference (the optimizer picks by cardinality estimates)."""
    graph = _fanin_graph()
    stats = IndexStatistics.snapshot(graph)
    query = parse_query('where C(x), C(y), x -> "to"* -> y create Probe()')
    assert_matches_reference(graph, query.where, stats=stats)


def test_arc_variable_block_matches_row():
    graph = _fanin_graph(members=4)
    query = parse_query("where C(x), x -> l -> v create Probe()")
    for modes in all_modes():
        assert_matches_reference(graph, query.where, **modes)


def test_oid_bound_arc_variable_yields_nothing():
    """An arc variable bound to an Oid never labels an edge: the row
    drops out."""
    graph = Graph()
    a = graph.add_node()
    b = graph.add_node()
    graph.add_edge(a, "n", b)
    query = parse_query("where x -> l -> v create Probe()")
    initial = [{"x": a, "l": a}]
    for modes in all_modes():
        assert assert_matches_reference(graph, query.where, initial, **modes) == []


@pytest.mark.parametrize(
    "text",
    ['where x -> "n" -> x create Probe()', 'where x -> "n"."n"* -> x create Probe()'],
    ids=["edge", "path"],
)
def test_repeated_variable_takes_one_value(text):
    """Over a graph whose only edge is a -n-> b, no x is both ends."""
    graph = Graph()
    a, b = graph.add_node(), graph.add_node()
    graph.add_edge(a, "n", b)
    for modes in all_modes():
        assert assert_matches_reference(graph, parse_query(text).where, **modes) == []


def test_repeated_variable_matches_loops(cycle_graph):
    graph, a, b = cycle_graph
    graph.add_edge(b, "n", b)
    graph.add_edge(a, "a", string("a"))
    for text, expected in [
        ('where x -> "n" -> x create Probe()', [{"x": b}]),
        ('where x -> "n"."n"* -> x create Probe()', [{"x": a}, {"x": b}]),
        ('where C(x), x -> "n" -> x create Probe()', [{"x": b}]),
        ("where x -> x -> y create Probe()", []),
        ("where x -> l -> l create Probe()", [{"x": a, "l": "a"}]),
    ]:
        for modes in all_modes():
            rows = assert_matches_reference(graph, parse_query(text).where, **modes)
            assert rows == expected, (text, modes)
