"""Edge-case tests across modules: coercing reverse-index lookups,
seeded evaluation, file-based wrapper constructors, and template-set
cloning in version derivation."""

import pytest

from repro.graph import AtomType, Graph, Oid, integer, string, url
from repro.struql import QueryEngine, evaluate, parse_query, query_bindings
from repro.template import TemplateSet
from repro.wrappers import (
    BibtexWrapper,
    DdlWrapper,
    StructuredFileWrapper,
    Table,
)

from .reference_eval import reference_bindings


class TestReverseIndexCoercion:
    """When the optimizer binds the target first (y = const) and then
    evaluates the edge with only the target bound, the exact-match value
    index must be probed with every coercion spelling."""

    def _graph(self):
        graph = Graph()
        a, b, c = graph.add_node(), graph.add_node(), graph.add_node()
        graph.add_edge(a, "year", integer(1998))       # INTEGER
        graph.add_edge(b, "year", string("1998"))      # STRING spelling
        graph.add_edge(c, "year", integer(1997))
        graph.add_to_collection("Items", a)
        graph.add_to_collection("Items", b)
        graph.add_to_collection("Items", c)
        return graph

    def test_string_constant_finds_integer_values(self):
        graph = self._graph()
        rows = query_bindings('where x -> "year" -> y, y = "1998"', graph)
        assert len(rows) == 2  # both the INTEGER and STRING spellings

    def test_integer_constant_finds_string_values(self):
        graph = self._graph()
        rows = query_bindings('where x -> "year" -> y, y = 1998', graph)
        assert len(rows) == 2

    def test_indexed_path_agrees_with_scan(self):
        graph = self._graph()
        text = 'where x -> "year" -> y, y = "1998"'
        fast = query_bindings(text, graph)
        slow = reference_bindings(graph, parse_query(text).where, use_indexes=False)
        assert len(fast) == len(slow)

    def test_url_string_equivalence(self):
        graph = Graph()
        a = graph.add_node()
        graph.add_edge(a, "home", url("http://x.org"))
        rows = query_bindings('where p -> "home" -> h, h = "http://x.org"', graph)
        assert len(rows) == 1


class TestSeededEvaluation:
    """QueryEngine.bindings with non-trivial initial bindings (the
    incremental evaluator's main entry pattern)."""

    def test_seed_restricts_results(self, pub_graph):
        query = parse_query('where Publications(x), x -> "year" -> y')
        member = pub_graph.collection("Publications")[0]
        engine = QueryEngine(pub_graph)
        rows = engine.bindings(query.where, initial=[{"x": member}])
        assert all(row["x"] == member for row in rows)
        assert len(rows) == 1

    def test_multiple_seeds(self, pub_graph):
        query = parse_query('where Publications(x), x -> "year" -> y')
        members = pub_graph.collection("Publications")[:2]
        engine = QueryEngine(pub_graph)
        rows = engine.bindings(
            query.where, initial=[{"x": m} for m in members]
        )
        assert {row["x"] for row in rows} == set(members)

    def test_seed_with_unsatisfiable_binding(self, pub_graph):
        query = parse_query('where Publications(x), x -> "journal" -> j')
        # seed with a pub that has no journal
        no_journal = pub_graph.collection("Publications")[1]
        engine = QueryEngine(pub_graph)
        assert engine.bindings(query.where, initial=[{"x": no_journal}]) == []

    def test_seed_variable_not_in_conditions_is_kept(self, pub_graph):
        query = parse_query("where Publications(x)")
        engine = QueryEngine(pub_graph)
        rows = engine.bindings(query.where, initial=[{"extra": string("v")}])
        assert all("extra" in row for row in rows)


class TestFileConstructors:
    def test_bibtex_from_file(self, tmp_path):
        path = tmp_path / "x.bib"
        path.write_text("@article{k, title={T}, year=1998}")
        graph = BibtexWrapper.from_file(str(path)).wrap()
        assert graph.has_node(Oid("k"))

    def test_structured_from_file(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("%collection R\n\nname: one\n")
        graph = StructuredFileWrapper.from_file(str(path)).wrap()
        assert graph.collection_cardinality("R") == 1

    def test_ddl_from_file(self, tmp_path):
        path = tmp_path / "d.ddl"
        path.write_text('object a { name: "x" }')
        graph = DdlWrapper.from_file(str(path)).wrap()
        assert graph.has_node(Oid("a"))

    def test_table_from_csv_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        table = Table.from_csv_file(str(path))
        assert table.name == "t" and len(table.rows) == 1

    def test_template_add_file(self, tmp_path):
        path = tmp_path / "root.tmpl"
        path.write_text("<h1><SFMT title></h1>")
        templates = TemplateSet()
        template = templates.add_file(str(path))
        assert template.name == "root"
        assert templates.get("root") is not None


class TestVersionTemplateCloning:
    def test_clone_keeps_selection_rules(self):
        from repro.core import SiteDefinition, derive_version

        templates = TemplateSet()
        templates.add("a", "<p>a</p>")
        templates.add("b", "<p>b</p>")
        templates.for_object("Root()", "a")
        templates.for_collection("Things", "b")
        templates.set_default("a")
        base = SiteDefinition("base", "create Root()", templates)
        derived = derive_version(base, "derived", template_overrides={"b": "<p>B2</p>"})
        graph = Graph()
        root = graph.add_node(Oid("Root()"))
        thing = graph.add_node(Oid("t"))
        graph.add_to_collection("Things", thing)
        assert derived.templates.resolve(graph, root).name == "a"
        assert derived.templates.resolve(graph, thing).name == "b"
        assert derived.templates.get("b").source_text == "<p>B2</p>"
        # base untouched
        assert base.templates.get("b").source_text == "<p>b</p>"


class TestSelfLoopAndOddGraphs:
    def test_self_loop_edge(self):
        graph = Graph()
        a = graph.add_node()
        graph.add_edge(a, "self", a)
        graph.add_to_collection("C", a)
        rows = query_bindings('where C(x), x -> "self" -> x', graph)
        assert len(rows) == 1

    def test_self_loop_in_path(self):
        graph = Graph()
        a = graph.add_node()
        graph.add_edge(a, "self", a)
        graph.add_to_collection("C", a)
        rows = query_bindings('where C(x), x -> "self"."self"."self" -> y', graph)
        assert len(rows) == 1 and rows[0]["y"] == a

    def test_parallel_edges_different_labels(self):
        graph = Graph()
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "x", b)
        graph.add_edge(a, "y", b)
        graph.add_to_collection("C", a)
        rows = query_bindings("where C(s), s -> l -> t", graph)
        assert {row["l"] for row in rows} == {"x", "y"}

    def test_construction_with_self_loop(self):
        graph = Graph()
        a = graph.add_node()
        graph.add_edge(a, "self", a)
        graph.add_to_collection("C", a)
        result = evaluate(
            'where C(x), x -> "self" -> x create P(x) link P(x) -> "loop" -> P(x)',
            graph,
        )
        node = next(iter(result.nodes()))
        assert result.attribute(node, "loop") == node
