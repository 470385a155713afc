"""Unit tests for the unified site analyzer (repro.analysis)."""

import importlib.util
import json
import os

import pytest

from repro.analysis import (
    Analyzer,
    DiagnosticReport,
    RULES,
    Severity,
    Span,
    Suppressions,
    analyze,
    audit,
    check_constraints,
    check_program,
    check_schema,
    check_templates,
    refute_static,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.diagnostics import make
from repro.core import SiteSchema
from repro.core.constraints import CheckResult
from repro.errors import SiteAnalysisError
from repro.graph import Oid
from repro.repository import ddl
from repro.struql import parse
from repro.struql.parser import _Parser
from repro.template import TemplateSet
from repro.workloads import HOMEPAGE_QUERY

DATA_DDL = """
collection Publications
collection Images

object "&p.1" {
  title: "Alpha"
  year: "1998"
  author: "Mary"
}

object "&p.2" {
  title: "Beta"
  year: "1997"
  author: "Dan"
}

object "&i.1" {
  url: "a.gif"
}

member Publications: "&p.1", "&p.2"
member Images: "&i.1"
"""

SITE_QUERY = """\
create Root()
where Publications(x), x -> "title" -> t
create Page(x)
link Root() -> "Paper" -> Page(x),
     Page(x) -> "Title" -> t
collect Pages(Page(x))
"""


@pytest.fixture(scope="module")
def graph():
    return ddl.loads(DATA_DDL, "test")


def _program(text):
    """Parse without scope validation, like the analyzer does."""
    program = _Parser(text).parse_program()
    program.source_text = text
    return program


def _codes(diagnostics):
    return sorted({d.code for d in diagnostics})


# ------------------------------------------------------------------ #
# the diagnostic model


class TestDiagnosticModel:
    def test_span_rendering(self):
        assert str(Span("a.struql", 3, 7)) == "a.struql:3:7"
        assert str(Span("a.struql", 3)) == "a.struql:3"
        assert str(Span("a.struql")) == "a.struql"
        assert str(Span()) == ""
        assert not Span()
        assert Span("f")

    def test_severity_defaults_from_registry(self):
        assert make("SQ001", "m").severity is Severity.ERROR
        assert make("SQ003", "m").severity is Severity.WARNING
        assert make("TPL002", "m").severity is Severity.INFO
        # unknown codes default to warning rather than crash
        assert make("XX999", "m").severity is Severity.WARNING

    def test_diagnostic_str_contains_span_and_code(self):
        diag = make("SQ001", "bad label", span=Span("q.struql", 2, 5))
        assert str(diag) == "q.struql:2:5: error[SQ001] bad label"

    def test_registry_is_complete(self):
        for family, count in (("SQ", 8), ("SCH", 4), ("TPL", 4),
                              ("CON", 5), ("AUD", 4)):
            members = [c for c in RULES if c.startswith(family)]
            assert len(members) == count, family
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.summary

    def test_report_dedup_ignores_span(self):
        report = DiagnosticReport()
        report.add(make("SQ001", "m", subject="s", span=Span("f", 1)))
        report.add(make("SQ001", "m", subject="s", span=Span("f", 9)))
        assert len(report.diagnostics) == 1

    def test_report_counts_and_exit_code(self):
        report = DiagnosticReport()
        report.add(make("SQ003", "w"))
        report.add(make("TPL002", "i"))
        assert report.ok and report.exit_code == 0
        report.add(make("SQ001", "e"))
        assert not report.ok and report.exit_code == 1
        assert report.summary() == "1 error(s), 1 warning(s), 1 note(s)"

    def test_sorted_orders_by_location_then_severity(self):
        report = DiagnosticReport()
        report.add(make("TPL002", "i", span=Span("b", 1)))
        report.add(make("SQ001", "e", span=Span("a", 9)))
        report.add(make("SQ003", "w", span=Span("a", 2)))
        assert [d.code for d in report.sorted()] == [
            "SQ003", "SQ001", "TPL002"
        ]

    def test_suppress_by_code_and_subject(self):
        report = DiagnosticReport()
        report.add(make("SQ001", "e1", subject="titel"))
        report.add(make("SQ003", "w1", subject="y"))
        report.add(make("SQ003", "w2", subject="z"))
        report.apply_suppressions(Suppressions(["SQ001", "SQ003:y"]))
        assert [d.subject for d in report.diagnostics] == ["z"]
        assert len(report.suppressed) == 2
        assert "2 suppressed" in report.summary()

    def test_suppressions_matching(self):
        specs = Suppressions([" SQ001 ", "SQ003: y ", ""])
        assert specs.matches(make("SQ001", "m", subject="anything"))
        assert specs.matches(make("SQ003", "m", subject="y"))
        assert not specs.matches(make("SQ003", "m", subject="z"))
        assert not Suppressions([])


# ------------------------------------------------------------------ #
# STRUQL query checks


class TestQueryChecks:
    def _check(self, text, graph=None):
        from repro.repository.summary import label_summary

        summary = label_summary(graph) if graph is not None else None
        return check_program(_program(text), summary, query_file="q")

    def test_unknown_label_is_error_with_suggestion(self, graph):
        diags, dead = self._check(SITE_QUERY.replace('"title"', '"titel"'), graph)
        errors = [d for d in diags if d.code == "SQ001"]
        assert errors and errors[0].severity is Severity.ERROR
        assert "did you mean 'title'?" in errors[0].message
        assert errors[0].span.line == 2
        assert dead  # the block cannot match anything

    def test_label_absent_from_collection_is_warning(self, graph):
        diags, dead = self._check(
            'where Images(i), i -> "title" -> t\ncreate P(i)\n'
            'link P(i) -> "T" -> t', graph
        )
        warnings = [d for d in diags if d.code == "SQ001"]
        assert warnings and warnings[0].severity is Severity.WARNING
        assert "no member of collection 'Images'" in warnings[0].message
        assert not dead

    def test_unknown_collection_kills_block(self, graph):
        diags, dead = self._check(
            'where Nothing(x)\ncreate P(x)\nlink P(x) -> "A" -> x\n'
            "collect Ps(P(x))", graph
        )
        assert "SQ007" in _codes(diags)
        assert "SCH002" in _codes(diags)  # link clause in dead block
        assert "SCH003" in _codes(diags)  # collect clause in dead block
        assert dead

    def test_arity_mismatch_reports_second_use(self, graph):
        diags, _ = self._check(
            SITE_QUERY.replace('Root() -> "Paper" -> Page(x)',
                               'Root() -> "Paper" -> Page()'), graph
        )
        errors = [d for d in diags if d.code == "SQ002"]
        assert len(errors) == 1
        assert "0 argument(s) here but 1 at line 3" in errors[0].message
        assert errors[0].span.line == 4

    def test_unused_variable_warns_with_span(self, graph):
        diags, _ = self._check(
            'where Publications(x), x -> "year" -> y\ncreate P(x)', graph
        )
        unused = [d for d in diags if d.code == "SQ003"]
        assert [d.subject for d in unused] == ["y"]
        assert unused[0].severity is Severity.WARNING
        assert unused[0].span.line == 1

    def test_variable_used_in_nested_block_is_not_unused(self, graph):
        diags, _ = self._check(
            'where Publications(x), x -> "year" -> y\ncreate P(x)\n'
            '{ where y = "1998" link P(x) -> "Y" -> y }', graph
        )
        assert "SQ003" not in _codes(diags)

    def test_unbound_variable_in_construction(self, graph):
        diags, _ = self._check(
            "where Publications(x)\ncreate P(x)\nlink P(x) -> \"A\" -> z",
            graph,
        )
        unbound = [d for d in diags if d.code == "SQ004"]
        assert [d.subject for d in unbound] == ["z"]
        assert unbound[0].severity is Severity.ERROR

    def test_unsatisfiable_equalities(self, graph):
        diags, dead = self._check(
            'where Publications(x), x -> "year" -> y, y = "1998", '
            'y = "1997"\ncreate P(x)\ncollect Ps(P(x))', graph
        )
        assert "SQ005" in _codes(diags)
        assert "SCH003" in _codes(diags)
        assert dead

    def test_equality_then_inequality_contradiction(self, graph):
        diags, _ = self._check(
            'where Publications(x), x -> "year" -> y, y = "1998", '
            'y != "1998"\ncreate P(x)', graph
        )
        assert "SQ005" in _codes(diags)

    def test_contradiction_inherited_into_nested_block(self, graph):
        diags, dead = self._check(
            'where Publications(x), x -> "year" -> y, y = "1998"\n'
            'create P(x)\n'
            '{ where y = "1997" link P(x) -> "Y" -> y }', graph
        )
        assert "SQ005" in _codes(diags)
        assert dead  # the nested block is dead, not the outer one

    def test_cartesian_product_warns(self, graph):
        diags, _ = self._check(
            "where Publications(x), Publications(y)\n"
            'create P(x)\nlink P(x) -> "Other" -> y', graph
        )
        assert "SQ006" in _codes(diags)

    def test_joined_conditions_do_not_warn(self, graph):
        diags, _ = self._check(SITE_QUERY, graph)
        assert "SQ006" not in _codes(diags)

    def test_inherited_variable_anchors_join(self, graph):
        # the nested block's conditions all touch inherited x: no product
        diags, _ = self._check(
            'where Publications(x), x -> "year" -> y\ncreate P(x)\n'
            '{ where x -> "title" -> t link P(x) -> "T" -> t }', graph
        )
        assert "SQ006" not in _codes(diags)

    def test_unknown_label_in_negation_is_warning(self, graph):
        diags, dead = self._check(
            'where Publications(x), not(x -> "bogus_label" -> "v")\n'
            "create P(x)", graph
        )
        warnings = [d for d in diags if d.code == "SQ001"]
        assert warnings and warnings[0].severity is Severity.WARNING
        assert "always true" in warnings[0].message
        assert not dead

    def test_unknown_path_leaf_label_is_warning(self, graph):
        diags, dead = self._check(
            'where Publications(x), x -> ("bogus_label" | "title")* -> v\n'
            'create P(x)\nlink P(x) -> "V" -> v', graph
        )
        warnings = [d for d in diags if d.code == "SQ001"]
        assert warnings and warnings[0].severity is Severity.WARNING
        assert not dead

    def test_without_summary_vocabulary_checks_are_skipped(self):
        diags, dead = self._check(SITE_QUERY.replace('"title"', '"titel"'))
        assert "SQ001" not in _codes(diags)
        assert not dead


# ------------------------------------------------------------------ #
# site-schema checks


class TestSchemaChecks:
    def _schema(self, text):
        return SiteSchema.from_program(parse(text))

    def test_clean_schema_has_no_findings(self):
        assert check_schema(self._schema(SITE_QUERY)) == []

    def test_unreachable_page_type(self):
        schema = self._schema(
            SITE_QUERY + "where Publications(o)\ncreate Orphan(o)\n"
            'link Orphan(o) -> "Out" -> o\ncollect Orphans(Orphan(o))'
        )
        diags = check_schema(schema, query_file="q")
        assert _codes(diags) == ["SCH001"]
        assert diags[0].subject == "Orphan"
        assert diags[0].span.line == 8

    def test_no_root_page_type(self):
        schema = self._schema(
            "where Publications(x)\ncreate P(x)\ncollect Ps(P(x))"
        )
        diags = check_schema(schema)
        assert _codes(diags) == ["SCH004"]

    def test_explicit_roots_rescue(self):
        schema = self._schema(
            'where Publications(x)\ncreate P(x)\nlink P(x) -> "Self" -> P(x)'
        )
        assert check_schema(schema, roots=["P()"]) == []

    def test_dead_block_edges_do_not_count(self):
        text = (
            "create Root()\n"
            "where Publications(x)\ncreate P(x)\n"
            'link Root() -> "Paper" -> P(x)'
        )
        schema = SiteSchema.from_program(parse(text))
        # the only edge into P comes from block Q2; if Q2 is dead, P is
        # unreachable
        live = check_schema(schema)
        assert live == []
        dead = check_schema(schema, dead_blocks=frozenset(["Q2"]))
        assert _codes(dead) == ["SCH001"]


# ------------------------------------------------------------------ #
# template checks


class TestTemplateChecks:
    def _schema(self):
        return SiteSchema.from_program(parse(SITE_QUERY))

    def test_typo_becomes_tpl001_error(self):
        templates = TemplateSet()
        templates.add("Pages", "<h1><SFMT Titel></h1>")
        templates.for_collection("Pages", "Pages")
        diags = check_templates(templates, self._schema())
        assert _codes(diags) == ["TPL001"]
        assert diags[0].severity is Severity.ERROR
        assert diags[0].span.file == "<template:Pages>"
        assert diags[0].span.line == 1

    def test_template_line_numbers_propagate(self):
        templates = TemplateSet()
        templates.add("Pages", "<html>\n<p>ok</p>\n<SFMT Titel>\n</html>")
        templates.for_collection("Pages", "Pages")
        files = {"Pages": "tpl/Pages.tmpl"}
        diags = check_templates(templates, self._schema(), files)
        assert diags[0].span.file == "tpl/Pages.tmpl"
        assert diags[0].span.line == 3

    def test_unassignable_template_is_tpl003(self):
        templates = TemplateSet()
        templates.add("x", "<SFMT Title>")
        templates.for_collection("Nowhere", "x")
        templates.add("y", "<SFMT Title>")
        templates.for_object("Ghost()", "y")
        diags = check_templates(templates, self._schema())
        assert _codes(diags) == ["TPL003"]
        assert sorted(d.subject for d in diags) == ["Ghost()", "Nowhere"]
        assert all(d.severity is Severity.WARNING for d in diags)

    def test_object_specific_assignment_is_not_tpl003(self):
        templates = TemplateSet()
        templates.add("r", "<SFMT Paper UL>")
        templates.for_object("Root()", "r")
        assert check_templates(templates, self._schema()) == []


# ------------------------------------------------------------------ #
# constraint checks


class TestConstraintChecks:
    def _schema(self):
        return SiteSchema.from_program(parse(SITE_QUERY))

    def _one(self, constraint, schema=None):
        diags = check_constraints(
            [constraint], schema or self._schema(),
            constraint_file="c.txt", lines=[7],
        )
        assert len(diags) == 1
        return diags[0]

    def test_verified_constraint_is_con002(self):
        diag = self._one(
            'forall X (Page(X) => exists Y (Root(Y) and Y -> "Paper" -> X))'
        )
        assert diag.code == "CON002"
        assert diag.severity is Severity.INFO
        assert diag.span.file == "c.txt" and diag.span.line == 7

    def test_refuted_constraint_is_con004(self):
        diag = self._one(
            'forall X (Page(X) => exists Y (Page(Y) and Y -> "Next" -> X))'
        )
        assert diag.code == "CON004"
        assert diag.severity is Severity.ERROR
        assert '"Next"' in diag.message

    def test_undecidable_constraint_is_con003(self):
        schema = SiteSchema.from_program(parse(HOMEPAGE_QUERY))
        diag = self._one(
            "forall X (Presentations(X) => exists Y (RootPage(Y) and "
            "Y -> * -> X))",
            schema,
        )
        assert diag.code == "CON003"
        assert diag.severity is Severity.WARNING

    def test_malformed_constraint_is_con001(self):
        diag = self._one("forall X (")
        assert diag.code == "CON001"
        assert diag.severity is Severity.ERROR

    def test_vacuous_class_is_con005(self):
        diag = self._one(
            'forall X (Nowhere(X) => exists Y (Root(Y) and Y -> "Paper" -> X))'
        )
        assert diag.code == "CON005"
        assert "'Nowhere'" in diag.message

    def test_constraint_lines_default_to_ordinal(self):
        diags = check_constraints(
            ["forall X (", "forall Y ("], self._schema()
        )
        assert [d.span.line for d in diags] == [1, 2]

    def test_refute_static_direct(self):
        schema = self._schema()
        assert refute_static(
            'forall X (Page(X) => exists Y (Page(Y) and Y -> "Next" -> X))',
            schema,
        )
        assert not refute_static(
            'forall X (Page(X) => exists Y (Root(Y) and Y -> "Paper" -> X))',
            schema,
        )
        # not the supported pattern: no refutation claimed
        assert not refute_static("exists X (Page(X))", schema)

    def test_refutation_respects_arc_variable_edges(self):
        # Root reaches Page over an arc-variable edge, which may carry
        # any label, so "Anything" cannot be refuted
        text = (
            "create Root()\n"
            "where Publications(x), x -> l -> v\ncreate Page(x)\n"
            "link Root() -> l -> Page(x)"
        )
        schema = SiteSchema.from_program(parse(text))
        assert not refute_static(
            'forall X (Page(X) => exists Y (Root(Y) and '
            'Y -> "Anything" -> X))',
            schema,
        )


# ------------------------------------------------------------------ #
# renderers


@pytest.fixture
def mixed_report():
    report = DiagnosticReport()
    report.add(make("SQ001", "unknown label 'titel'", subject="titel",
                    span=Span("q.struql", 2, 10), source="query"))
    report.add(make("SQ003", "variable y unused", subject="y",
                    span=Span("q.struql", 1, 24), source="query"))
    report.add(make("TPL002", "unknowable attribute", subject="A:x",
                    span=Span("A.tmpl", 3), source="template"))
    return report


class TestRenderers:
    def test_text(self, mixed_report):
        text = render_text(mixed_report)
        lines = text.splitlines()
        # sorted by file, then line: A.tmpl first, then q.struql
        assert lines[0] == "A.tmpl:3: info[TPL002] unknowable attribute"
        assert lines[1] == (
            "q.struql:1:24: warning[SQ003] variable y unused"
        )
        assert lines[-1] == "1 error(s), 1 warning(s), 1 note(s)"

    def test_text_verbose_shows_suppressed(self, mixed_report):
        mixed_report.apply_suppressions(Suppressions(["SQ003"]))
        assert "SQ003" not in render_text(mixed_report)
        verbose = render_text(mixed_report, verbose=True)
        assert "suppressed:" in verbose and "SQ003" in verbose

    def test_json(self, mixed_report):
        payload = json.loads(render_json(mixed_report))
        assert payload["errors"] == 1
        assert payload["warnings"] == 1
        assert payload["notes"] == 1
        assert payload["ok"] is False
        second = payload["diagnostics"][1]
        assert second["code"] == "SQ003"
        assert second["span"] == {"file": "q.struql", "line": 1, "column": 24}

    def test_sarif_structure(self, mixed_report):
        doc = json.loads(render_sarif(mixed_report))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["SQ001", "SQ003", "TPL002"]
        levels = [r["level"] for r in run["results"]]
        assert sorted(levels) == ["error", "note", "warning"]
        located = run["results"][1]["locations"][0]["physicalLocation"]
        assert located["artifactLocation"]["uri"] == "q.struql"
        assert located["region"]["startLine"] == 1
        assert located["region"]["startColumn"] == 24

    def test_sarif_omits_empty_regions(self):
        report = DiagnosticReport()
        report.add(make("SCH004", "no roots", span=Span("q")))
        doc = json.loads(render_sarif(report))
        location = doc["runs"][0]["results"][0]["locations"][0]
        assert "region" not in location["physicalLocation"]


# ------------------------------------------------------------------ #
# the Analyzer facade


class TestAnalyzer:
    def test_syntax_error_becomes_sq000(self, graph):
        report = analyze("where Publications(", data_graph=graph)
        assert report.codes() == ["SQ000"]
        assert report.diagnostics[0].span.line >= 1
        assert report.exit_code == 1

    def test_clean_specification(self, graph):
        templates = TemplateSet()
        templates.add("Pages", "<h2><SFMT Title></h2>")
        templates.for_collection("Pages", "Pages")
        report = analyze(SITE_QUERY, templates=templates, data_graph=graph)
        assert report.ok, render_text(report)

    def test_all_passes_contribute(self, graph):
        templates = TemplateSet()
        templates.add("Pages", "<SFMT Titel>")
        templates.for_collection("Pages", "Pages")
        report = analyze(
            SITE_QUERY.replace('"title"', '"titel"'),
            templates=templates,
            constraints=["forall X ("],
            data_graph=graph,
        )
        codes = report.codes()
        assert "SQ001" in codes      # query pass
        assert "SCH001" in codes     # schema pass (dead block kills Page)
        assert "TPL001" in codes     # template pass
        assert "CON001" in codes     # constraint pass

    def test_suppression_via_run(self, graph):
        analyzer = Analyzer(
            SITE_QUERY.replace('"title"', '"titel"'), data_graph=graph
        )
        report = analyzer.run(suppress=["SQ001", "SCH001", "SCH002", "SCH003"])
        assert report.ok
        assert len(report.suppressed) >= 4

    def test_pending_diagnostics_ride_along(self, graph):
        analyzer = Analyzer(SITE_QUERY, data_graph=graph)
        analyzer.pending.append(make("TPL004", "broken template"))
        report = analyzer.run()
        assert "TPL004" in report.codes()

    def test_without_data_graph_analysis_is_structural(self):
        report = analyze(SITE_QUERY.replace('"title"', '"titel"'))
        assert report.ok

    def test_for_definition_names_sources(self, graph):
        from repro.core import SiteDefinition

        definition = SiteDefinition("demo", SITE_QUERY, TemplateSet())
        analyzer = Analyzer.for_definition(definition, data_graph=graph)
        assert analyzer.query_file == "<demo.struql>"


def _demo_builder(graph, query=SITE_QUERY, constraints=()):
    from repro.core import SiteBuilder, SiteDefinition

    templates = TemplateSet()
    templates.add("Pages", "<h2><SFMT Title></h2>")
    templates.for_collection("Pages", "Pages")
    templates.add("root", "<SFMT Paper UL>")
    templates.for_object("Root()", "root")
    builder = SiteBuilder(graph)
    builder.define(
        SiteDefinition("demo", query, templates,
                       constraints=list(constraints))
    )
    return builder


class TestBuilderIntegration:
    def test_builder_analyze(self, graph):
        report = _demo_builder(graph).analyze("demo")
        assert isinstance(report, DiagnosticReport)
        assert report.ok

    def test_gate_passes_clean_site(self, graph):
        built = _demo_builder(graph).build("demo", gate=True)
        assert built.pages

    def test_gate_blocks_broken_site(self, graph):
        builder = _demo_builder(
            graph, query=SITE_QUERY.replace('"title"', '"titel"')
        )
        with pytest.raises(SiteAnalysisError) as info:
            builder.build("demo", gate=True)
        assert "site was not built" in str(info.value)
        assert not info.value.report.ok

    def test_ungated_build_still_works(self, graph):
        builder = _demo_builder(
            graph, query=SITE_QUERY.replace('"title"', '"titel"')
        )
        built = builder.build("demo")
        assert built.site_graph is not None


# ------------------------------------------------------------------ #
# the post-build audit, deduped against the static report


def _demo_site(graph):
    """A clean two-level build of ``SITE_QUERY`` to plant defects in."""
    built = _demo_builder(graph).build("demo")
    assert audit(built).diagnostics == []
    return built


class TestAuditBridge:
    def test_dangling_link_is_aud001(self, graph):
        built = _demo_site(graph)
        target = next(name for name in built.pages if name != "index.html")
        del built.pages[target]
        out = audit(built)
        assert out.codes() == ["AUD001"]
        assert out.diagnostics[0].severity is Severity.ERROR
        assert out.diagnostics[0].subject == f"index.html->{target}"
        assert out.diagnostics[0].span.file == "index.html"

    def test_unreachable_page_deduped_against_sch001(self, graph):
        built = _demo_site(graph)
        orphan = built.site_graph.add_node(Oid("Orphan(p1)"))
        built.site_graph.add_to_collection("Pages", orphan)
        out = audit(built)
        assert out.codes() == ["AUD002"]
        assert [d.subject for d in out.by_code("AUD002")] == ["Orphan(p1)"]
        static = DiagnosticReport()
        static.add(make("SCH001", "unreachable", subject="Orphan"))
        deduped = audit(built, static=static)
        assert deduped.diagnostics == []

    def test_empty_page_deduped_against_tpl001(self, graph):
        built = _demo_site(graph)
        built.pages["index.html"] = "<ul></ul>"
        out = audit(built)
        assert out.codes() == ["AUD003"]
        assert [d.subject for d in out.by_code("AUD003")] == ["index.html"]
        static = DiagnosticReport()
        static.add(make("TPL001", "typo", subject="Pages:Titel"))
        deduped = audit(built, static=static)
        assert deduped.diagnostics == []

    def test_violated_constraint_deduped_against_con004(self, graph):
        constraint = "forall X (Page(X))"
        built = _demo_site(graph)
        built.constraint_results = {
            constraint: CheckResult(holds=False, witness={"X": "p1"}),
            "other": CheckResult(holds=True),
        }
        out = audit(built)
        assert out.codes() == ["AUD004"]
        assert [d.subject for d in out.by_code("AUD004")] == [constraint]
        assert "counterexample" in out.diagnostics[0].message
        static = DiagnosticReport()
        static.add(make("CON004", "refuted", subject=constraint))
        deduped = audit(built, static=static)
        assert deduped.diagnostics == []

    def test_shared_suppression_mechanism(self, graph):
        built = _demo_site(graph)
        built.pages["index.html"] += '<a href="gone.html">x</a>'
        out = audit(built, suppress=["AUD001"])
        assert out.diagnostics == [] and len(out.suppressed) == 1


# ------------------------------------------------------------------ #
# the fixture corpus, through the CI driver


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER = os.path.join(REPO, "examples", "analyze_fixtures.py")
FIXTURES = os.path.join(REPO, "examples", "fixtures")


@pytest.fixture(scope="module")
def driver():
    spec = importlib.util.spec_from_file_location("analyze_fixtures", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFixtureCorpus:
    def test_clean_fixtures_have_zero_errors(self, driver):
        for name in sorted(os.listdir(os.path.join(FIXTURES, "clean"))):
            directory = os.path.join(FIXTURES, "clean", name)
            if not os.path.isdir(directory):
                continue
            report = driver.analyze_fixture(directory)
            assert report.ok, f"{name}: {render_text(report)}"

    @pytest.mark.parametrize(
        "name,code,line",
        [
            ("unknown_label", "SQ001", 3),
            ("skolem_arity", "SQ002", 6),
            ("unreachable_page", "SCH001", 4),
            ("template_typo", "TPL001", 2),
            ("template_syntax", "TPL004", 4),
            ("violated_constraint", "CON004", 2),
        ],
    )
    def test_broken_fixture_reports_planted_defect(self, driver, name, code, line):
        directory = os.path.join(FIXTURES, "broken", name)
        report = driver.analyze_fixture(directory)
        assert not report.ok
        matches = [d for d in report.by_code(code) if d.span.line == line]
        assert matches, f"{code}@{line} missing in: {render_text(report)}"

    def test_driver_expectations_all_pass(self, driver):
        for name in sorted(os.listdir(os.path.join(FIXTURES, "broken"))):
            directory = os.path.join(FIXTURES, "broken", name)
            if not os.path.isdir(directory):
                continue
            report = driver.analyze_fixture(directory)
            assert driver.check_broken(directory, report) == []

    def test_driver_main_writes_sarif(self, driver, tmp_path):
        assert driver.main(["analyze_fixtures.py", str(tmp_path)]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert "broken-unknown_label.sarif" in written
        assert "clean-homepage.sarif" in written
        doc = json.loads((tmp_path / "broken-template_typo.sarif").read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]
