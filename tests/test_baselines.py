"""Unit tests for the Fig. 8 baselines and the relational-model encoding."""

import pytest

from benchmarks.baselines import (
    dbtemplate_spec_lines,
    family_graph,
    graph_model,
    maximal_schema,
    procedural_source,
    procedural_spec_lines,
    run_dbtemplate,
    run_procedural,
    run_strudel,
    static_html_lines,
    strudel_query,
    strudel_spec_lines,
)
from repro.graph import Graph, integer, string
from repro.struql import parse
from repro.workloads import bibliography_graph


@pytest.fixture
def irregular_pubs():
    """Two publications: one with every attribute (two authors), one
    with a title only."""
    graph = Graph()
    full = graph.add_node()
    graph.add_edge(full, "title", string("t1"))
    graph.add_edge(full, "year", integer(1998))
    graph.add_edge(full, "author", string("a"))
    graph.add_edge(full, "author", string("b"))
    partial = graph.add_node()
    graph.add_edge(partial, "title", string("t2"))
    graph.add_to_collection("Pubs", full)
    graph.add_to_collection("Pubs", partial)
    return graph


class TestFamilyEquivalence:
    @pytest.mark.parametrize("features", [1, 3])
    def test_all_technologies_emit_same_page_set(self, features):
        graph = family_graph(20, features=features, seed=0)
        strudel_pages = run_strudel(graph, features)
        procedural_pages = run_procedural(graph, features)
        dbtemplate_pages = run_dbtemplate(graph, features)
        assert sorted(procedural_pages) == sorted(dbtemplate_pages)
        # Strudel names pages from Skolem terms; compare counts + roots
        assert len(strudel_pages) == len(procedural_pages)
        assert "index.html" in strudel_pages

    def test_item_pages_have_content_everywhere(self):
        graph = family_graph(5, features=1, seed=1)
        for pages in (run_strudel(graph, 1), run_procedural(graph, 1),
                      run_dbtemplate(graph, 1)):
            item_pages = [p for name, p in pages.items() if "tem" in name.lower()]
            assert any("Item 0" in p for p in item_pages)

    def test_family_query_parses(self):
        for features in (0, 1, 5):
            program = parse(strudel_query(features))
            assert program.link_clause_count() == 1 + 3 * features


class TestSpecSizes:
    def test_spec_sizes_grow_with_complexity(self):
        for spec in (strudel_spec_lines, procedural_spec_lines, dbtemplate_spec_lines):
            assert spec(8) > spec(1)

    def test_strudel_scales_best_at_high_complexity(self):
        """The Fig. 8 claim: at complex structure, declarative wins."""
        features = 16
        strudel = strudel_spec_lines(features)
        assert strudel < procedural_spec_lines(features)

    def test_static_html_scales_with_data(self):
        small = run_strudel(family_graph(5, features=2, seed=0), 2)
        large = run_strudel(family_graph(50, features=2, seed=0), 2)
        assert static_html_lines(large) > static_html_lines(small) * 4

    def test_declarative_spec_independent_of_data_size(self):
        # Strudel's spec size depends only on structure, never on N
        assert strudel_spec_lines(4) == strudel_spec_lines(4)
        small_pages = run_strudel(family_graph(5, features=4, seed=0), 4)
        large_pages = run_strudel(family_graph(50, features=4, seed=0), 4)
        assert len(large_pages) > len(small_pages)

    def test_procedural_source_is_valid_python(self):
        compile(procedural_source(4), "<family>", "exec")


class TestRelationalModel:
    def test_null_fraction_reflects_irregularity(self):
        irregular = bibliography_graph(80, seed=0, month_rate=0.2, abstract_rate=0.3)
        regular = bibliography_graph(
            80, seed=0, month_rate=0.0, abstract_rate=1.0,
            postscript_rate=1.0, url_rate=1.0, category_rate=1.0,
        )
        irregular_report = maximal_schema(irregular, "Publications")
        regular_report = maximal_schema(regular, "Publications")
        assert irregular_report.null_fraction > regular_report.null_fraction

    def test_overflow_tables_for_multivalued(self):
        graph = bibliography_graph(30, seed=0)
        report = maximal_schema(graph, "Publications")
        assert "author" in report.overflow_tables

    def test_migrations_counted(self):
        graph = bibliography_graph(50, seed=0)
        report = maximal_schema(graph, "Publications")
        assert report.schema_migrations > 0
        assert report.initial_columns + report.schema_migrations == len(report.columns)

    def test_graph_model_has_no_overhead(self):
        graph = bibliography_graph(30, seed=0)
        report = graph_model(graph, "Publications")
        assert report.schema_migrations == 0
        assert report.objects == 30
        assert report.edges > 0

    def test_cells_accounting(self):
        graph = bibliography_graph(40, seed=1)
        report = maximal_schema(graph, "Publications")
        assert report.null_cells + report.filled_cells == report.total_cells

    def test_as_row_shapes(self):
        graph = bibliography_graph(10, seed=1)
        assert "null %" in maximal_schema(graph, "Publications").as_row()
        assert "migrations" in graph_model(graph, "Publications").as_row()

    def test_empty_collection(self):
        graph = bibliography_graph(10, seed=1)
        report = maximal_schema(graph, "Nothing")
        assert report.rows == 0 and report.null_fraction == 0.0

    def test_rows_and_columns(self, irregular_pubs):
        report = maximal_schema(irregular_pubs, "Pubs")
        assert report.rows == 2
        assert report.columns == ["title", "year", "author"]

    def test_null_fraction_counts_missing_cells(self, irregular_pubs):
        # 2 objects x 3 columns = 6 cells; filled: title(2) + year(1) + author(1)
        report = maximal_schema(irregular_pubs, "Pubs")
        assert report.null_fraction == pytest.approx(1 - 4 / 6)

    def test_multivalued_column_gets_an_overflow_table(self, irregular_pubs):
        report = maximal_schema(irregular_pubs, "Pubs")
        assert report.overflow_tables == {"author": 2}

    def test_regular_collection_has_zero_nulls(self):
        graph = Graph()
        for index in range(3):
            oid = graph.add_node()
            graph.add_edge(oid, "name", string(f"n{index}"))
            graph.add_to_collection("C", oid)
        assert maximal_schema(graph, "C").null_fraction == 0.0

    def test_type_conflicts(self):
        graph = Graph()
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "addr", string("street"))
        graph.add_edge(b, "addr", graph.add_node())
        graph.add_to_collection("C", a)
        graph.add_to_collection("C", b)
        assert maximal_schema(graph, "C").type_conflicts == ["addr"]
