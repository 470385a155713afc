"""Unit tests for incremental site maintenance (repro.core.maintenance).

The contract under test everywhere: after any sequence of updates, the
maintained site graph equals a fresh evaluation over the current data.
"""

import pytest

from repro.core import SiteMaintainer
from repro.graph import Graph, Oid, integer, string
from repro.repository import ddl
from repro.struql import evaluate, parse
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph

FLAT_QUERY = """
create Root()
where Items(x), x -> "name" -> n
create Page(x)
link Page(x) -> "name" -> n, Root() -> "Item" -> Page(x)
collect Pages(Page(x))
"""

PATH_QUERY = """
where Items(x), x -> * -> y, Items(y)
create Pair(x, y)
link Pair(x, y) -> "from" -> x
collect Pairs(Pair(x, y))
"""

NEG_QUERY = """
where Items(x), not(x -> "hidden" -> h)
create Page(x)
collect Visible(Page(x))
"""


def _canon(graph):
    return (
        sorted(
            (s.name, l, t.name if isinstance(t, Oid) else repr(t))
            for s, l, t in graph.edges()
        ),
        sorted(o.name for o in graph.nodes()),
        {c: sorted(o.name for o in graph.collection(c))
         for c in graph.collection_names()},
    )


def _assert_consistent(maintainer):
    fresh = evaluate(parse_cached(maintainer), maintainer.data_graph)
    assert _canon(maintainer.site_graph) == _canon(fresh)


def parse_cached(maintainer):
    return maintainer.program


@pytest.fixture
def flat():
    data = Graph()
    for index in range(3):
        oid = data.add_node()
        data.add_edge(oid, "name", string(f"item{index}"))
        data.add_to_collection("Items", oid)
    return SiteMaintainer(FLAT_QUERY, data)


class TestSeeding:
    def test_add_object_seeds(self, flat):
        flat.add_object("Items", [("name", string("new"))])
        assert flat.last_report.queries_seeded == 1
        assert flat.last_report.queries_skipped == 1  # the create-Root query
        assert flat.last_report.full_rebuilds == 0
        _assert_consistent(flat)

    def test_add_edge_seeds(self, flat):
        member = flat.data_graph.collection("Items")[0]
        flat.add_edge(member, "name", string("alias"))
        assert flat.last_report.queries_seeded == 1
        _assert_consistent(flat)

    def test_irrelevant_edge_skipped(self, flat):
        member = flat.data_graph.collection("Items")[0]
        flat.add_edge(member, "unrelated", string("x"))
        assert flat.last_report.queries_seeded == 0
        assert flat.last_report.queries_recomputed == 0
        _assert_consistent(flat)

    def test_membership_addition(self, flat):
        loose = flat.data_graph.add_node()
        flat.data_graph.add_edge(loose, "name", string("loose"))
        flat.add_to_collection("Items", loose)
        assert flat.last_report.queries_seeded == 1
        _assert_consistent(flat)

    def test_seeding_adds_only_the_delta(self, flat):
        before_edges = flat.site_graph.edge_count
        flat.add_object("Items", [("name", string("delta"))])
        # one Page node, name + Item edges, one collect: small delta
        assert flat.last_report.nodes_added == 1
        assert 0 < flat.last_report.edges_added <= 3
        assert flat.site_graph.edge_count == before_edges + flat.last_report.edges_added

    def test_nested_block_match_seeds(self):
        data = bibliography_graph(6, seed=90)
        maintainer = SiteMaintainer(HOMEPAGE_QUERY, data)
        pub = data.collection("Publications")[0]
        maintainer.add_edge(pub, "year", integer(1888))
        assert maintainer.last_report.queries_seeded == 1
        assert maintainer.last_report.queries_recomputed == 0
        assert maintainer.last_report.full_rebuilds == 0
        _assert_consistent(maintainer)
        assert maintainer.site_graph.has_node(Oid("YearPage(1888)"))

    def test_insert_cost_is_independent_of_site_size(self):
        """A seeded Fig. 3 insert touches only the new publication's
        rows, however many publications the site already has."""

        def insert_cost(publications):
            maintainer = SiteMaintainer(
                HOMEPAGE_QUERY, bibliography_graph(publications, seed=3)
            )
            metrics = maintainer._engine.metrics
            before = (metrics.bindings_produced, metrics.edges_examined)
            maintainer.add_object(
                "Publications",
                [("title", string("New")), ("author", string("Ann")),
                 ("year", integer(1999)), ("category", string("Databases"))],
            )
            assert maintainer.last_report.queries_seeded == 1
            return (metrics.bindings_produced - before[0],
                    metrics.edges_examined - before[1])

        assert insert_cost(50) == insert_cost(400)

    @pytest.mark.parametrize(
        "query, label, target",
        [
            ("x -> L -> L", "name", string("name")),
            ("x -> L -> L", "1998", integer(1998)),
            ('x -> L -> "1998"', "year", integer(1998)),
            ("x -> L -> x", "self", None),
            ('x -> L -> v, Tags(t), t -> "name" -> L', "topic", string("v")),
        ],
        ids=[
            "string", "coerced-integer", "coerced-constant-target",
            "self-loop", "shared-arc-variable",
        ],
    )
    def test_repeated_arc_variable_joins_like_the_engine(self, query, label, target):
        """A condition's delta rows bind and compare like the engine's
        own rows: ``x -> L -> L`` binds the label and the target to one
        value under coercing equality, a constant target matches by
        coercion, ``x -> L -> x`` only on a loop, and an arc variable
        shared with another condition joins on the label."""
        data = Graph()
        item = data.add_node()
        data.add_edge(item, "title", string("other"))
        data.add_to_collection("Items", item)
        tag = data.add_node()
        data.add_edge(tag, "name", string("topic"))
        data.add_to_collection("Tags", tag)
        maintainer = SiteMaintainer(
            f'where Items(x), {query} create Echo(x) link Echo(x) -> "label" -> L',
            data,
        )
        maintainer.add_edge(item, label, item if target is None else target)
        assert maintainer.last_report.queries_seeded == 1
        assert maintainer.last_report.nodes_added == 1
        fresh = evaluate(maintainer.program, maintainer.data_graph)
        assert ddl.dumps(maintainer.site_graph) == ddl.dumps(fresh)

    @pytest.mark.parametrize("items", [1, 50])
    def test_constant_target_matches_by_value_not_by_plan(self, items):
        """``"1.0"`` and ``"1"`` are two strings that compare unequal,
        whether the plan scans an item's ``v`` edges (one item) or probes
        the value index for the constant (fifty items); the maintained
        site agrees with both builds."""
        data = Graph()
        for index in range(items):
            item = data.add_node()
            data.add_edge(item, "name", string(f"item{index}"))
            data.add_to_collection("Items", item)
        first = data.collection("Items")[0]
        maintainer = SiteMaintainer(
            'where Items(x), x -> "v" -> "1.0" create P(x)', data
        )
        maintainer.add_edge(first, "v", string("1"))
        fresh = evaluate(maintainer.program, maintainer.data_graph)
        assert fresh.node_count == 0
        assert ddl.dumps(maintainer.site_graph) == ddl.dumps(fresh)


class TestRecomputeFallbacks:
    def test_path_query_recomputes(self):
        data = Graph()
        a, b = data.add_node(), data.add_node()
        data.add_edge(a, "to", b)
        data.add_to_collection("Items", a)
        data.add_to_collection("Items", b)
        maintainer = SiteMaintainer(PATH_QUERY, data)
        c = data.add_node()
        data.add_to_collection("Items", c)
        maintainer.add_edge(b, "to", c)
        assert maintainer.last_report.queries_recomputed == 1
        _assert_consistent(maintainer)


class TestFullRebuild:
    def test_negation_rebuilds(self):
        data = Graph()
        oid = data.add_node()
        data.add_edge(oid, "name", string("x"))
        data.add_to_collection("Items", oid)
        maintainer = SiteMaintainer(NEG_QUERY, data)
        assert maintainer.site_graph.collection_cardinality("Visible") == 1
        maintainer.add_edge(oid, "hidden", string("yes"))
        assert maintainer.last_report.full_rebuilds == 1
        # the page really disappeared -- additive maintenance could not do this
        assert maintainer.site_graph.collection_cardinality("Visible") == 0
        _assert_consistent(maintainer)

    def test_edge_deletion_rebuilds(self, flat):
        member = flat.data_graph.collection("Items")[0]
        target = flat.data_graph.attribute(member, "name")
        flat.remove_edge(member, "name", target)
        assert flat.last_report.full_rebuilds == 1
        _assert_consistent(flat)

    def test_object_deletion_rebuilds(self, flat):
        member = flat.data_graph.collection("Items")[0]
        flat.remove_object(member)
        assert flat.last_report.full_rebuilds == 1
        _assert_consistent(flat)


class TestSequences:
    def test_mixed_update_sequence_stays_consistent(self):
        data = bibliography_graph(8, seed=91)
        maintainer = SiteMaintainer(HOMEPAGE_QUERY, data)
        maintainer.add_object(
            "Publications",
            [("title", string("Fresh")), ("year", integer(1998)),
             ("category", string("web")), ("author", string("Ada"))],
        )
        _assert_consistent(maintainer)
        pub = maintainer.data_graph.collection("Publications")[1]
        maintainer.add_edge(pub, "category", string("systems"))
        _assert_consistent(maintainer)
        maintainer.add_edge(pub, "author", string("Grace"))
        _assert_consistent(maintainer)
        maintainer.remove_edge(pub, "author", string("Grace"))
        _assert_consistent(maintainer)


class TestUnseenDataChanges:
    """Data changes no maintenance pass saw are folded into the next one."""

    def test_direct_mutation_folded_into_next_pass(self, flat):
        member = flat.data_graph.collection("Items")[0]
        flat.data_graph.add_edge(member, "name", string("direct"))
        flat.add_object("Items", [("name", string("maintained"))])
        assert flat.last_report.full_rebuilds == 0
        assert flat.last_report.queries_seeded == 1
        _assert_consistent(flat)

    def test_direct_removal_rebuilds(self, flat):
        member = flat.data_graph.collection("Items")[0]
        flat.data_graph.remove_edge(member, "name", string("item0"))
        flat.add_object("Items", [("name", string("maintained"))])
        assert flat.last_report.full_rebuilds == 1
        _assert_consistent(flat)

    def test_truncated_delta_log_rebuilds(self, flat):
        member = flat.data_graph.collection("Items")[0]
        for index in range(4200):
            flat.data_graph.add_edge(member, "name", string(f"bulk{index}"))
        flat.add_edge(member, "name", string("maintained"))
        assert flat.last_report.full_rebuilds == 1
        _assert_consistent(flat)

    def test_pass_that_raised_is_caught_up(self, flat, monkeypatch):
        member = flat.data_graph.collection("Items")[0]
        original = SiteMaintainer._maintain

        def crash_once(self, *args, **kwargs):
            monkeypatch.setattr(SiteMaintainer, "_maintain", original)
            raise RuntimeError("maintenance pass died")

        monkeypatch.setattr(SiteMaintainer, "_maintain", crash_once)
        with pytest.raises(RuntimeError):
            flat.add_edge(member, "name", string("lost"))
        flat.add_edge(member, "name", string("next"))
        assert flat.last_report.full_rebuilds == 0
        _assert_consistent(flat)

    def test_direct_node_addition_reaches_path_queries(self):
        """A node added straight to the data graph is a new zero-length
        path: the next maintained edit, even one that adds no edge,
        brings the path query's pairs up to date."""
        data = Graph()
        a, b = data.add_node(), data.add_node()
        data.add_edge(a, "to", b)
        maintainer = SiteMaintainer(
            'where x -> "to"* -> y create Pair(x, y) collect Pairs(Pair(x, y))',
            data,
        )
        data.add_node()
        maintainer.add_to_collection("Tagged", a)
        fresh = evaluate(maintainer.program, maintainer.data_graph)
        assert maintainer.site_graph.collection_cardinality("Pairs") == 4
        assert ddl.dumps(maintainer.site_graph) == ddl.dumps(fresh)

    def test_edit_larger_than_the_delta_log_rebuilds(self, flat):
        flat.add_object(
            "Items", [("name", string(f"n{index}")) for index in range(4200)]
        )
        assert flat.last_report.full_rebuilds == 1
        _assert_consistent(flat)
