"""Unit tests for EXPLAIN (repro.struql.explain) and the template checks
(repro.analysis.template_checks)."""

import pytest

from repro.analysis import DiagnosticReport, check_templates
from repro.core import SiteSchema
from repro.struql import make_engine, parse
from repro.struql.explain import explain
from repro.template import TemplateSet
from repro.workloads import (
    HOMEPAGE_QUERY,
    NEWS_SITE_QUERY,
    bibliography_graph,
    build_mediator,
    homepage_templates,
    news_templates,
)


def _report(templates, schema):
    """The template checks' findings as one report."""
    return DiagnosticReport(check_templates(templates, schema))


@pytest.fixture(scope="module")
def graph():
    return bibliography_graph(30, seed=0)


class TestExplain:
    def test_selection_pushdown_visible(self, graph):
        plan = explain(
            'where Publications(x), x -> "year" -> y, y = "1998"', graph
        )
        lines = plan.splitlines()
        assert lines[0].startswith("plan for:")
        assert "bind y" in plan
        assert plan.index("bind y") < plan.index("membership check")

    def test_reverse_probe_access_path(self, graph):
        plan = explain('where x -> "year" -> y, y = "1998"', graph)
        assert 'reverse value-index probe "year"' in plan

    def test_collection_scan_shown(self, graph):
        plan = explain("where Publications(x), x -> l -> v", graph)
        assert "collection scan Publications" in plan
        assert "forward adjacency" in plan

    def test_negation_shown_as_antijoin(self, graph):
        plan = explain(
            "where Publications(x), not(isImageFile(x))", graph
        )
        assert "anti-join" in plan

    def test_path_access_paths(self, graph):
        plan = explain("where Publications(x), x -> * -> y", graph)
        assert "path expansion" in plan

    def test_works_without_statistics(self):
        plan = explain('where C(x), x -> "a" -> y')
        assert "collection scan C" in plan

    def test_accepts_query_object(self, graph):
        program = parse('where Publications(x), x -> "year" -> y create P(x)')
        plan = explain(program.queries[0], graph)
        assert "plan for: query Q1" in plan

    def test_program_explains_every_block(self, graph):
        plan = explain(HOMEPAGE_QUERY, graph, counts=True)
        sections = {
            section.splitlines()[0]: section.splitlines()[2:]
            for section in plan.strip().split("\n\n")
        }
        assert list(sections) == [
            "plan for: query Q1",
            "plan for: query Q2",
            "plan for: query Q3, nested in Q2 (bound: x)",
            "plan for: query Q4, nested in Q2 (bound: x)",
        ]
        assert sections["plan for: query Q1"] == []  # no where clause
        assert "collection scan Publications" in sections["plan for: query Q2"][0]
        # a nested block starts from its parent's distinct x values
        (year_step,) = sections["plan for: query Q3, nested in Q2 (bound: x)"]
        publications = len(graph.collection("Publications"))
        assert year_step.split()[3] == str(publications)
        assert 'forward adjacency x -> "year"' in year_step

    def test_single_block_program_keeps_its_text_header(self, graph):
        text = 'where Publications(x), x -> "year" -> y create P(x)'
        assert explain(text, graph).splitlines()[0] == f"plan for: {text}"

    def test_split_block_names_its_split_and_counts_its_rows(self):
        data = build_mediator(people=60, seed=0).materialize("data")
        text = (
            'where People(p), p -> "publication" -> b, b -> l -> v\n'
            "create PubPage(b)\n"
            'link PubPage(b) -> l -> v, PersonPage(p) -> "Publication" -> PubPage(b)'
        )
        full = make_engine(data).bindings(parse(text).queries[0].where)
        plan = explain(text, data, counts=True).splitlines()
        assert plan[-2] == (
            "split: step 3 (b -> l -> v) runs once per distinct join value of b"
        )
        prefix = len({(row["p"], row["b"]) for row in full})
        joins = len({row["b"] for row in full})
        suffix = len({(row["b"], row["l"], row["v"]) for row in full})
        rows = int(plan[-1].split(", ")[-1].split()[0])
        assert plan[-1] == (
            f"split rows: {prefix} prefix, {joins} join values, {suffix} suffix, "
            f"{rows} to construction"
        )
        assert rows < len(full)
        # the split step (it binds "l, v") takes one row per join value
        assert plan[-3].split("l, v")[1].split()[0] == str(joins)
        assert explain(text, data).splitlines()[-1] == plan[-2]

    def test_block_that_does_not_split_explains_as_its_where_clause(self, graph):
        query = parse(
            "where Publications(x), x -> l -> v create P(x) link P(x) -> l -> v"
        ).queries[0]
        for counts in (False, True):
            block = explain(query, graph, counts=counts).splitlines()
            bare = explain(list(query.where), graph, counts=counts).splitlines()
            assert block[1:] == bare[1:]
            assert not any(line.startswith("split") for line in block)


class TestLinter:
    def test_clean_templates_have_no_errors(self):
        schema = SiteSchema.from_program(parse(NEWS_SITE_QUERY))
        report = _report(news_templates(), schema)
        assert report.ok
        assert "0 error(s)" in report.summary()

    def test_typo_detected(self):
        schema = SiteSchema.from_program(parse(HOMEPAGE_QUERY))
        templates = TemplateSet()
        templates.add("year", "<h1><SFMT Yearr></h1>")  # typo for Year
        templates.for_collection("YearPages", "year")
        report = _report(templates, schema)
        assert not report.ok
        assert report.errors[0].code == "TPL001"
        assert "Yearr" in str(report.errors[0])

    def test_multi_step_expression_checked(self):
        schema = SiteSchema.from_program(parse(HOMEPAGE_QUERY))
        templates = TemplateSet()
        # YearPage -Paper-> PaperPresentation exists; -Nope-> does not
        good = TemplateSet()
        good.add("year", "<SFMT Paper.abstractPage>")
        good.for_collection("YearPages", "year")
        assert _report(good, schema).ok
        bad = TemplateSet()
        bad.add("year", "<SFMT Nope.title>")
        bad.for_collection("YearPages", "year")
        assert not _report(bad, schema).ok

    def test_arc_variable_pages_are_unknowable_not_errors(self):
        schema = SiteSchema.from_program(parse(NEWS_SITE_QUERY))
        templates = TemplateSet()
        templates.add("article", "<SFMT anything_at_all>")
        templates.for_collection("ArticlePages", "article")
        report = _report(templates, schema)
        assert report.ok  # cannot prove it wrong
        assert report.by_code("TPL002")

    def test_loop_variables_tracked(self):
        schema = SiteSchema.from_program(parse(HOMEPAGE_QUERY))
        templates = TemplateSet()
        templates.add(
            "root", "<SFOR y IN YearPage><SFMT @y.Year></SFOR>"
        )
        templates.for_object("RootPage()", "root")
        assert _report(templates, schema).ok
        bad = TemplateSet()
        bad.add("root", "<SFOR y IN YearPage><SFMT @y.Yearr></SFOR>")
        bad.for_object("RootPage()", "root")
        assert not _report(bad, schema).ok

    def test_conditional_branches_linted(self):
        schema = SiteSchema.from_program(parse(HOMEPAGE_QUERY))
        templates = TemplateSet()
        templates.add("root", "<SIF YearPage>x<SELSE><SFMT Nope></SIF>")
        templates.for_object("RootPage()", "root")
        assert not _report(templates, schema).ok

    def test_object_specific_assignment_resolved(self):
        schema = SiteSchema.from_program(parse(HOMEPAGE_QUERY))
        templates = TemplateSet()
        templates.add("r", "<SFMT Oops>")
        templates.for_object("RootPage()", "r")
        report = _report(templates, schema)
        assert not report.ok
        assert "RootPage" in report.errors[0].message

    def test_findings_deduplicated(self):
        schema = SiteSchema.from_program(parse(HOMEPAGE_QUERY))
        templates = TemplateSet()
        templates.add("r", "<SFMT Oops><SFMT Oops>")
        templates.for_object("RootPage()", "r")
        report = _report(templates, schema)
        assert len(report.errors) == 1

    def test_homepage_templates_lint_clean(self):
        schema = SiteSchema.from_program(parse(HOMEPAGE_QUERY))
        assert _report(homepage_templates(), schema).ok


class TestLinterCornerCases:
    def _schema(self):
        return SiteSchema.from_program(parse(HOMEPAGE_QUERY))

    def test_nested_loops_track_both_variables(self):
        schema = self._schema()
        good = TemplateSet()
        good.add(
            "root",
            "<SFOR y IN YearPage>"
            "<SFOR p IN @y.Paper><SFMT @p.abstractPage></SFOR>"
            "</SFOR>",
        )
        good.for_object("RootPage()", "root")
        assert _report(good, schema).ok
        bad = TemplateSet()
        bad.add(
            "root",
            "<SFOR y IN YearPage>"
            "<SFOR p IN @y.Nope><SFMT @p.abstractPage></SFOR>"
            "</SFOR>",
        )
        bad.for_object("RootPage()", "root")
        report = _report(bad, schema)
        assert not report.ok
        assert "Nope" in str(report.errors[0])

    def test_conditional_inside_loop_uses_loop_variable(self):
        schema = self._schema()
        good = TemplateSet()
        good.add(
            "root",
            "<SFOR y IN YearPage><SIF @y.Year><SFMT @y.Year></SIF></SFOR>",
        )
        good.for_object("RootPage()", "root")
        assert _report(good, schema).ok
        bad = TemplateSet()
        bad.add(
            "root",
            "<SFOR y IN YearPage><SIF @y.Yearr>x</SIF></SFOR>",
        )
        bad.for_object("RootPage()", "root")
        assert not _report(bad, schema).ok

    def test_arc_variable_multi_step_is_unknowable(self):
        # PaperPresentation carries arc-variable link clauses, so a
        # multi-step expression through it cannot be refuted
        schema = self._schema()
        templates = TemplateSet()
        templates.add("p", "<SFMT anything.whatever.deeper>")
        templates.for_collection("Presentations", "p")
        report = _report(templates, schema)
        assert report.ok
        assert report.by_code("TPL002")

    def test_object_specific_assignment_overrides_collection(self):
        # YearPage() object template is linted against YearPage's own
        # edges even when the collection has a different template
        schema = self._schema()
        templates = TemplateSet()
        templates.add("generic", "<SFMT Year>")
        templates.for_collection("YearPages", "generic")
        templates.add("special", "<SFMT Yearr>")
        templates.for_object("YearPage()", "special")
        report = _report(templates, schema)
        assert not report.ok
        assert report.errors[0].subject == "special:Yearr"

    def test_findings_carry_line_numbers(self):
        schema = self._schema()
        templates = TemplateSet()
        templates.add("r", "<html>\n<p>fine</p>\n<SFMT Oops>\n</html>")
        templates.for_object("RootPage()", "r")
        report = _report(templates, schema)
        assert not report.ok
        finding = report.errors[0]
        assert finding.span.line == 3
        assert ":3:" in str(finding)
