"""Unit tests for STRUQL evaluation: query stage and construction stage."""

import pytest

from repro.errors import ImmutableNodeError, StruqlEvaluationError
from repro.graph import Atom, AtomType, Graph, Oid, integer, string
from repro.struql import (
    Metrics, QueryEngine, evaluate, parse, parse_query, query_bindings,
)

from .reference_eval import WrittenOrderEngine, reference_bindings


class TestWhereStage:
    def test_collection_generates(self, pub_graph):
        rows = query_bindings("where Publications(x) create P(x)", pub_graph)
        assert len(rows) == 3

    def test_edge_with_constant_label(self, pub_graph):
        rows = query_bindings('where Publications(x), x -> "year" -> y', pub_graph)
        assert len(rows) == 3
        assert all(isinstance(r["y"], Atom) for r in rows)

    def test_value_selection_with_coercion(self, pub_graph):
        # years are INTEGER atoms; the query writes a string literal
        rows = query_bindings(
            'where Publications(x), x -> "year" -> y, y = "1998"', pub_graph
        )
        assert len(rows) == 2

    def test_numeric_comparison(self, pub_graph):
        rows = query_bindings(
            'where Publications(x), x -> "year" -> y, y < 1998', pub_graph
        )
        assert len(rows) == 1

    def test_arc_variable_binds_label(self, pub_graph):
        rows = query_bindings("where Publications(x), x -> l -> v", pub_graph)
        labels = {r["l"] for r in rows}
        assert "title" in labels and "year" in labels
        assert all(isinstance(r["l"], str) for r in rows)

    def test_irregular_attributes_carry_over(self, pub_graph):
        rows = query_bindings('where Publications(x), x -> "journal" -> j', pub_graph)
        assert len(rows) == 1  # only the Strudel entry has a journal

    def test_negation_filters(self, pub_graph):
        rows = query_bindings(
            'where Publications(x), not(x -> "journal" -> j)', pub_graph
        )
        assert len(rows) == 2

    def test_negation_with_shared_variable(self, pub_graph):
        rows = query_bindings(
            'where Publications(x), x -> "year" -> y, not(y = "1998")', pub_graph
        )
        assert len(rows) == 1

    def test_bindings_are_a_set(self, pub_graph):
        # two authors on one pub produce one row after projection to x, y
        rows = query_bindings(
            'where Publications(x), x -> "author" -> a, x -> "year" -> y',
            pub_graph,
        )
        projected = {(str(r["x"]), str(r["y"])) for r in rows}
        assert len(rows) > len(projected)  # a is part of the row
        rows_xy = query_bindings('where Publications(x), x -> "year" -> y', pub_graph)
        assert len(rows_xy) == 3

    def test_equality_join_between_objects(self):
        graph = Graph()
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "name", string("n"))
        graph.add_edge(b, "owner", string("n"))
        graph.add_to_collection("A", a)
        graph.add_to_collection("B", b)
        rows = query_bindings(
            'where A(x), B(y), x -> "name" -> n, y -> "owner" -> n', graph
        )
        assert len(rows) == 1

    def test_path_condition_star(self, chain_graph):
        graph, (a, b, c) = chain_graph
        rows = query_bindings("where Roots(p), p -> * -> q", graph)
        reached = {r["q"] for r in rows}
        assert {a, b, c} <= reached

    def test_path_condition_reverse_direction(self, chain_graph):
        graph, (a, b, c) = chain_graph
        rows = query_bindings('where Roots(p), q -> "next"."next" -> r, Roots(q)', graph)
        assert len(rows) == 1

    def test_empty_where_yields_single_row(self, pub_graph):
        engine = QueryEngine(pub_graph)
        assert engine.bindings([]) == [{}]

    def test_unknown_collection_empty(self, pub_graph):
        assert query_bindings("where Nope(x)", pub_graph) == []

    def test_predicate_on_unbound_raises_in_naive_mode(self, pub_graph):
        from repro.struql import parse_query

        query = parse_query("where isImageFile(q), Publications(q)")
        engine = WrittenOrderEngine(pub_graph)
        with pytest.raises(StruqlEvaluationError):
            engine.bindings(query.where)

    def test_optimizer_reorders_same_query(self, pub_graph):
        from repro.struql import parse_query

        query = parse_query("where isImageFile(q), Publications(q)")
        engine = QueryEngine(pub_graph)
        assert engine.bindings(query.where) == []

    def test_metrics_counted(self, pub_graph):
        engine = QueryEngine(pub_graph)
        engine.bindings(parse('where Publications(x), x -> "year" -> y').queries[0].where)
        assert engine.metrics.conditions_evaluated == 2
        assert engine.metrics.bindings_produced >= 3


class TestNaiveVsOptimized:
    QUERIES = [
        'where Publications(x), x -> "year" -> y, y = "1998"',
        "where Publications(x), x -> l -> v",
        'where Publications(x), x -> "author" -> a, x -> "year" -> y, y < 1998',
        'where Publications(x), not(x -> "journal" -> j)',
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_same_bindings(self, pub_graph, query):
        def canon(rows):
            return sorted(
                tuple(sorted((k, str(v)) for k, v in row.items())) for row in rows
            )

        optimized = query_bindings(query, pub_graph)
        naive = reference_bindings(pub_graph, parse_query(query).where, use_indexes=False)
        assert canon(optimized) == canon(naive)


class TestConstruction:
    def test_create_produces_skolem_nodes(self, pub_graph):
        result = evaluate("where Publications(x) create P(x)", pub_graph)
        assert result.node_count == 3
        assert all(oid.name.startswith("P(") for oid in result.nodes())

    def test_skolem_identity_within_query(self, pub_graph):
        result = evaluate(
            'where Publications(x), x -> "author" -> a create P(x)', pub_graph
        )
        assert result.node_count == 3  # one P(x) per pub despite author rows

    def test_link_copies_attributes(self, pub_graph):
        result = evaluate(
            "where Publications(x), x -> l -> v create P(x) link P(x) -> l -> v",
            pub_graph,
        )
        assert result.edge_count == pub_graph.edge_count

    def test_collect(self, pub_graph):
        result = evaluate(
            "where Publications(x) create P(x) collect Out(P(x))", pub_graph
        )
        assert result.collection_cardinality("Out") == 3

    def test_zero_arg_skolem_single_node(self, pub_graph):
        result = evaluate(
            'where Publications(x) create Root(), P(x) link Root() -> "p" -> P(x)',
            pub_graph,
        )
        roots = [o for o in result.nodes() if o.name == "Root()"]
        assert len(roots) == 1
        assert len(result.targets(roots[0], "p")) == 3

    def test_constant_link_target(self, pub_graph):
        result = evaluate(
            'where Publications(x) create P(x) link P(x) -> "kind" -> "paper"',
            pub_graph,
        )
        member = next(iter(result.nodes()))
        assert str(result.attribute(member, "kind")) == "paper"

    def test_skolem_over_label_value(self, pub_graph):
        result = evaluate(
            "where Publications(x), x -> l -> v create L(l)", pub_graph
        )
        names = {o.name for o in result.nodes()}
        assert "L('title')" in names

    def test_link_from_existing_node_rejected(self, pub_graph):
        with pytest.raises(ImmutableNodeError):
            evaluate(
                'where Publications(x) link x -> "extra" -> "v"',
                pub_graph,
            )

    def test_link_to_data_node_imports_subgraph(self, pub_graph):
        result = evaluate(
            'where Publications(x) create Root() link Root() -> "pub" -> x',
            pub_graph,
        )
        member = pub_graph.collection("Publications")[0]
        assert result.has_node(member)
        assert result.attribute(member, "title") is not None  # deep import

    def test_collect_data_node(self, pub_graph):
        result = evaluate("where Publications(x) collect Kept(x)", pub_graph)
        assert result.collection_cardinality("Kept") == 3

    def test_source_graph_unchanged(self, pub_graph):
        before = pub_graph.stats()
        evaluate(
            "where Publications(x), x -> l -> v create P(x) link P(x) -> l -> v",
            pub_graph,
        )
        assert pub_graph.stats() == before

    def test_metrics_construction_counts(self, pub_graph):
        metrics = Metrics()
        evaluate(
            "where Publications(x) create P(x) collect Out(P(x))",
            pub_graph,
            metrics=metrics,
        )
        assert metrics.nodes_created == 3


class TestNestedBlocks:
    def test_block_extends_outer_bindings(self, pub_graph):
        result = evaluate(
            """
            where Publications(x) create P(x)
            { where x -> "year" -> y create Y(y) link Y(y) -> "p" -> P(x) }
            """,
            pub_graph,
        )
        years = [o for o in result.nodes() if o.name.startswith("Y(")]
        assert len(years) == 2  # 1998 and 1995

    def test_block_can_reference_outer_skolems(self, pub_graph):
        result = evaluate(
            """
            create Root()
            where Publications(x) create P(x)
            { where x -> "year" -> y link Root() -> "year" -> P(x) }
            """,
            pub_graph,
        )
        root = Oid("Root()")
        assert len(result.targets(root, "year")) == 3

    def test_textonly_copy(self, chain_graph):
        graph, (a, b, c) = chain_graph
        result = evaluate(
            """
            where Roots(p), p -> * -> q, q -> l -> q', not(isImageFile(q'))
            create New(p), New(q), New(q')
            link New(q) -> l -> New(q')
            collect TextOnlyRoot(New(p))
            """,
            graph,
        )
        assert result.collection_cardinality("TextOnlyRoot") == 1
        # the image edge is gone; the chain structure is copied
        assert "figure" not in result.labels()
        assert "next" in result.labels()


class TestComposition:
    def test_programs_share_skolems(self, pub_graph):
        result = evaluate(
            """
            where Publications(x) create P(x)
            where Publications(x), x -> "title" -> t link P(x) -> "title" -> t
            """,
            pub_graph,
        )
        assert result.node_count == 3
        assert result.label_cardinality("title") == 3

    def test_into_existing_graph(self, pub_graph):
        first = evaluate("where Publications(x) create P(x)", pub_graph)
        evaluate(
            'where Publications(x), x -> "title" -> t link P(x) -> "t" -> t',
            pub_graph,
            into=first,
        )
        assert first.label_cardinality("t") == 3

    def test_self_composition_navbar(self, pub_graph):
        """The suciu example: query the site graph and extend it."""
        site = evaluate(
            "where Publications(x) create Page(x) collect Pages(Page(x))",
            pub_graph,
        )
        evaluate(
            """
            create NavBar()
            where Pages(p)
            link NavBar() -> "entry" -> p
            """,
            site,
            into=site,
        )
        nav = Oid("NavBar()")
        assert len(site.targets(nav, "entry")) == 3

    def test_composition_respects_immutability_of_data_nodes(self, pub_graph):
        site = evaluate("where Publications(x) collect Kept(x)", pub_graph)
        with pytest.raises(ImmutableNodeError):
            evaluate(
                'where Kept(x) link x -> "extra" -> "v"', site, into=site
            )
