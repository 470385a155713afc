"""Unit tests for the synthetic workload generators (repro.workloads)."""

from benchmarks.baselines import maximal_schema
from repro.wrappers import BibtexWrapper, RelationalWrapper, StructuredFileWrapper
from repro.workloads import (
    article_pages,
    bibliography_graph,
    build_mediator,
    departments_table,
    generate_entries,
    news_graph,
    news_graph_from_pages,
    personnel_table,
    projects_text,
)


class TestBibliography:
    def test_deterministic(self):
        assert generate_entries(10, seed=3) == generate_entries(10, seed=3)

    def test_different_seeds_differ(self):
        assert generate_entries(10, seed=1) != generate_entries(10, seed=2)

    def test_count(self):
        graph = bibliography_graph(25, seed=0)
        assert graph.collection_cardinality("Publications") == 25

    def test_irregularity_present(self):
        graph = bibliography_graph(60, seed=0)
        pubs = maximal_schema(graph, "Publications")
        assert "month" in pubs.columns and any(
            "month" not in graph.labels_of(member)
            for member in graph.collection("Publications")
        )
        assert 0.0 < pubs.null_fraction < 0.8

    def test_journal_vs_booktitle_disjoint(self):
        graph = bibliography_graph(40, seed=2)
        for member in graph.collection("Publications"):
            has_journal = graph.attribute(member, "journal") is not None
            has_booktitle = graph.attribute(member, "booktitle") is not None
            assert has_journal != has_booktitle

    def test_rates_respected_at_extremes(self):
        graph = bibliography_graph(
            20, seed=0, month_rate=0.0, abstract_rate=1.0
        )
        for member in graph.collection("Publications"):
            assert graph.attribute(member, "month") is None
            assert graph.attribute(member, "abstract") is not None


class TestOrgSite:
    def test_personnel_scale(self):
        table = personnel_table(50, seed=0)
        assert len(table.rows) == 50
        assert len(set(row[0] for row in table.rows)) == 50  # unique logins

    def test_departments_reference_people(self):
        people = personnel_table(50, seed=0)
        departments = departments_table(people, seed=0)
        logins = {row[0] for row in people.rows}
        assert all(row[2] in logins for row in departments.rows)

    def test_projects_irregular(self):
        people = personnel_table(60, seed=1)
        graph = StructuredFileWrapper(projects_text(people, count=20, seed=1)).wrap()
        synopses = sum(
            1 for p in graph.collection("Projects")
            if graph.attribute(p, "synopsis") is not None
        )
        assert 0 < synopses < 20  # some but not all

    def test_mediator_materializes_five_sources(self):
        mediator = build_mediator(people=30, seed=0)
        warehouse = mediator.materialize()
        assert len(mediator.last_report.source_sizes) == 5
        assert warehouse.collection_cardinality("People") == 30
        assert warehouse.collection_cardinality("Departments") >= 2
        assert warehouse.collection_cardinality("Publications") >= 10

    def test_mediated_joins_resolve(self):
        warehouse = build_mediator(people=30, seed=0).materialize()
        person = warehouse.collection("People")[0]
        department = warehouse.attribute(person, "department")
        assert department is not None
        assert warehouse.attribute(department, "name") is not None


class TestNews:
    def test_article_pages_deterministic(self):
        assert article_pages(30, seed=5) == article_pages(30, seed=5)

    def test_page_count_includes_category_indexes(self):
        pages = article_pages(30, seed=5)
        assert len(pages) == 30 + 6  # six category index pages

    def test_direct_graph_scale(self):
        graph = news_graph(50, seed=0)
        assert graph.collection_cardinality("Articles") == 50

    def test_wrapped_graph_matches_article_count(self):
        graph = news_graph_from_pages(30, seed=5)
        assert graph.collection_cardinality("Articles") == 30

    def test_articles_have_related_links(self):
        graph = news_graph(30, seed=0)
        member = graph.collection("Articles")[0]
        assert graph.targets(member, "related")
