"""Unit tests for the site audit (repro.analysis.audit) and the template
COUNT directive added alongside it."""

import pytest

from repro.analysis import audit, render_text
from repro.core import SiteBuilder, SiteDefinition
from repro.graph import Graph, Oid, string
from repro.template import Renderer, TemplateSet, parse_template
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph, homepage_templates


@pytest.fixture
def healthy():
    data = bibliography_graph(8, seed=100)
    builder = SiteBuilder(data)
    builder.define(
        SiteDefinition(
            "home", HOMEPAGE_QUERY, homepage_templates(), roots=["RootPage()"],
            constraints=[
                'forall X (YearPages(X) => exists Y (RootPage(Y) and Y -> "YearPage" -> X))'
            ],
        )
    )
    return builder.build("home")


class TestAudit:
    def test_healthy_site_is_ok(self, healthy):
        report = audit(healthy)
        assert report.diagnostics == [], render_text(report)
        assert render_text(report) == "0 error(s), 0 warning(s), 0 note(s)"

    def test_unreachable_page_detected(self):
        data = Graph()
        item = data.add_node(Oid("i1"))
        data.add_edge(item, "name", string("x"))
        data.add_to_collection("Items", item)
        templates = TemplateSet()
        templates.add("root", "<h1>No links here</h1>")
        templates.add("page", "<SFMT name>")
        templates.for_object("Root()", "root")
        templates.for_collection("Pages", "page")
        builder = SiteBuilder(data)
        builder.define(
            SiteDefinition(
                "orphaned",
                # Page(x) is created and collected but never linked
                "create Root() where Items(x) create Page(x) collect Pages(Page(x))",
                templates,
                roots=["Root()"],
            )
        )
        report = audit(builder.build("orphaned"))
        assert report.codes() == ["AUD002"]
        assert [d.subject for d in report.by_code("AUD002")] == ["Page(i1)"]

    def test_empty_page_detected(self):
        data = Graph()
        item = data.add_node(Oid("i1"))
        data.add_edge(item, "name", string("x"))
        data.add_to_collection("Items", item)
        templates = TemplateSet()
        # typo: the attribute is "name", the template says "title"
        templates.add("root", "<h1><SFMT Item></h1>")
        templates.add("page", "<p><SFMT title></p>")
        templates.for_object("Root()", "root")
        templates.for_collection("Pages", "page")
        builder = SiteBuilder(data)
        builder.define(
            SiteDefinition(
                "typo",
                'create Root() where Items(x) create Page(x) '
                'link Root() -> "Item" -> Page(x) collect Pages(Page(x))',
                templates,
                roots=["Root()"],
            )
        )
        report = audit(builder.build("typo"))
        assert report.codes() == ["AUD003"]
        assert len(report.by_code("AUD003")) == 1

    #: fails when some publication has no category page above it
    CATEGORIZED = (
        "forall X (PaperPresentation(X) => "
        "exists Y (CategoryPage(Y) and Y -> * -> X))"
    )

    def _uncategorized(self):
        data = bibliography_graph(8, seed=101, category_rate=0.3)
        builder = SiteBuilder(data)
        builder.define(
            SiteDefinition(
                "home", HOMEPAGE_QUERY, homepage_templates(),
                roots=["RootPage()"], constraints=[self.CATEGORIZED],
            )
        )
        return builder.build("home")

    def test_failed_constraint_reported(self):
        report = audit(self._uncategorized())
        assert report.codes() == ["AUD004"]
        assert [d.subject for d in report.by_code("AUD004")] == [self.CATEGORIZED]

    def test_audit_checks_constraints_when_build_skipped_them(self):
        built = self._uncategorized()
        built.constraint_results = {}
        report = audit(built)  # recomputed from the definition
        assert [d.subject for d in report.by_code("AUD004")] == [self.CATEGORIZED]


class TestCountDirective:
    def _page(self):
        graph = Graph()
        page = graph.add_node(Oid("P()"))
        for name in ("a", "b", "c"):
            graph.add_edge(page, "author", string(name))
        return graph, page

    def test_count_renders_cardinality(self):
        graph, page = self._page()
        out = Renderer(graph).render(parse_template("<SFMT author COUNT>"), page)
        assert out == "3"

    def test_count_of_missing_is_zero(self):
        graph, page = self._page()
        out = Renderer(graph).render(parse_template("<SFMT nothing COUNT>"), page)
        assert out == "0"

    def test_count_in_context(self):
        graph, page = self._page()
        template = parse_template("<SFMT author COUNT> authors: <SFMT author ENUM>")
        out = Renderer(graph).render(template, page)
        assert out == "3 authors: a, b, c"
