"""Declarative data constraints: parser, checker, static DC0xx pass,
ingest gate, incremental re-checking, and the CLI surface."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    Analyzer,
    check_data_constraints,
    render_sarif,
    required_guaranteed,
)
from repro.constraints import (
    CheckCounters,
    ConstraintChecker,
    ConstraintPolicy,
    ConstraintSet,
    DataConstraint,
    IncrementalChecker,
    apply_constraint_gate,
    parse_constraints,
)
from repro.core.constraints import parse_constraint
from repro.core.schema import SiteSchema
from repro.errors import ConstraintError, ConstraintViolation, QuarantineExceeded
from repro.graph import Graph, Oid
from repro.graph.values import integer, string
from repro.mediator import Mediator
from repro.resilience import (
    QuarantineReport,
    ResiliencePolicy,
    ResilienceReport,
    WrapPolicy,
)
from repro.struql import parse
from repro.wrappers import BibtexWrapper
from repro.workloads.bibliography import HOMEPAGE_QUERY, bibliography_graph

SIX_KINDS = """
on Pubs {
  required title
  exclusive doi
  range year 1900 2100
  regexp doi "10\\..*"
  max_len title 100
  expression ( __subject__ -> "title" -> t )
}
"""


def pubs_graph():
    """Two members: p1 clean, p2 violating most constraints."""
    g = Graph()
    a = g.add_node(hint="p1")
    b = g.add_node(hint="p2")
    g.add_to_collection("Pubs", a)
    g.add_to_collection("Pubs", b)
    g.add_edge(a, "title", string("Alpha"))
    g.add_edge(a, "doi", string("10.1/x"))
    g.add_edge(a, "year", integer(1998))
    g.add_edge(b, "doi", string("10.1/x"))  # exclusive collision
    g.add_edge(b, "year", integer(2999))  # out of range
    return g, a, b


# ------------------------------------------------------------------ #
# parser


class TestParser:
    def test_all_six_kinds(self):
        cset = parse_constraints(SIX_KINDS, "rules.dc")
        assert cset.ok
        assert [c.kind for c in cset] == [
            "required", "exclusive", "range", "regexp", "max_len", "expression",
        ]
        assert all(c.collection == "Pubs" for c in cset)

    def test_spans_point_at_rule_keywords(self):
        cset = parse_constraints(SIX_KINDS, "rules.dc")
        lines = [c.line for c in cset]
        assert lines == [3, 4, 5, 6, 7, 8]
        assert all(c.column == 3 for c in cset)

    def test_error_recovery_keeps_later_rules(self):
        cset = parse_constraints(
            "on Pubs {\n  range year oops 2100\n  required title\n}"
        )
        assert len(cset.issues) == 1
        assert cset.issues[0].line == 2
        assert [c.kind for c in cset] == ["required"]

    def test_empty_range_is_an_issue(self):
        cset = parse_constraints("on Pubs { range year 2100 1900 }")
        assert any("empty range" in issue.message for issue in cset.issues)
        assert len(cset) == 0

    def test_bad_regexp_is_an_issue(self):
        cset = parse_constraints('on Pubs { regexp doi "(" }')
        assert any("bad pattern" in issue.message for issue in cset.issues)

    def test_expression_must_use_subject(self):
        cset = parse_constraints('on Pubs { expression ( x -> "title" -> t ) }')
        assert any("__subject__" in issue.message for issue in cset.issues)

    def test_lexer_error_becomes_issue_with_span(self):
        cset = parse_constraints('on Pubs { regexp doi "unterminated }')
        assert not cset.ok
        assert cset.issues[0].line >= 1

    def test_quoted_names(self):
        cset = parse_constraints('on "My Coll" { required "my label" }')
        assert cset.ok
        assert cset.constraints[0].collection == "My Coll"
        assert cset.constraints[0].label == "my label"

    def test_str_roundtrip_reads_naturally(self):
        cset = parse_constraints(SIX_KINDS)
        assert str(cset.constraints[2]) == "on Pubs: range year 1900 2100"

    def test_duplicate_keys_compare_equal(self):
        cset = parse_constraints(
            "on Pubs { required title }\non Pubs { required title }"
        )
        assert cset.constraints[0].key() == cset.constraints[1].key()


# ------------------------------------------------------------------ #
# checker


class TestChecker:
    def test_verdicts_per_kind(self):
        graph, a, b = pubs_graph()
        cset = parse_constraints(SIX_KINDS)
        violations = ConstraintChecker(graph, cset).check_all()
        subjects = {(v.constraint.kind, v.subject) for v in violations}
        assert ("required", b) in subjects
        assert ("exclusive", b) in subjects
        assert ("range", b) in subjects
        assert ("expression", b) in subjects
        assert all(subject is not a for _, subject in subjects)

    def test_exclusive_blames_all_but_canonical_holder(self):
        graph, a, b = pubs_graph()
        cset = parse_constraints("on Pubs { exclusive doi }")
        checker = ConstraintChecker(graph, cset)
        constraint = cset.constraints[0]
        assert checker.check_subject(constraint, a) is None
        violation = checker.check_subject(constraint, b)
        assert violation is not None and "not exclusive" in violation.message

    def test_value_refutation_on_clean_data(self):
        graph, a, b = pubs_graph()
        graph.remove_edge(b, "year", integer(2999))
        graph.add_edge(b, "year", integer(2001))
        cset = parse_constraints("on Pubs { range year 1900 2100 }")
        checker = ConstraintChecker(graph, cset)
        assert checker.refuted_on_data(cset.constraints[0])
        counters = checker.counters
        assert checker.check_all() == []
        assert counters.refuted == 1 and counters.checked == 0

    def test_exclusive_refutation_needs_all_unique(self):
        graph, a, b = pubs_graph()
        cset = parse_constraints("on Pubs { exclusive doi }")
        checker = ConstraintChecker(graph, cset)
        assert not checker.refuted_on_data(cset.constraints[0])

    def test_non_numeric_range_value_violates(self):
        g = Graph()
        a = g.add_node()
        g.add_to_collection("Pubs", a)
        g.add_edge(a, "year", string("about 1998"))
        cset = parse_constraints("on Pubs { range year 1900 2100 }")
        violations = ConstraintChecker(g, cset).check_all()
        assert len(violations) == 1 and "not numeric" in violations[0].message


# ------------------------------------------------------------------ #
# static DC0xx pass


def schema_for(query: str) -> SiteSchema:
    return SiteSchema.from_program(parse(query))


class TestStaticPass:
    def test_dc001_parse_issue_with_span(self):
        cset = parse_constraints("on Pubs {\n  range year oops 2100\n}", "f.dc")
        diags = check_data_constraints(cset)
        dc1 = [d for d in diags if d.code == "DC001"]
        assert len(dc1) == 1
        assert dc1[0].span.file == "f.dc"
        assert dc1[0].span.line == 2 and dc1[0].span.column > 0

    def test_dc002_unknown_collection(self):
        data = bibliography_graph(5, seed=1)
        cset = parse_constraints("on Ghosts { required title }")
        diags = check_data_constraints(cset, data_graph=data)
        assert [d.code for d in diags] == ["DC002"]

    def test_dc003_unknown_label(self):
        data = bibliography_graph(5, seed=1)
        cset = parse_constraints("on Publications { max_len nosuch 10 }")
        diags = check_data_constraints(cset, data_graph=data)
        assert [d.code for d in diags] == ["DC003"]

    def test_dc004_violation_counts_and_witness(self):
        data = bibliography_graph(5, seed=1)
        cset = parse_constraints("on Publications { required doi }")
        diags = check_data_constraints(cset, data_graph=data)
        assert [d.code for d in diags] == ["DC004"]
        assert "5 member(s)" in diags[0].message

    def test_dc005_schema_refutation_of_required(self):
        schema = schema_for(HOMEPAGE_QUERY)
        assert required_guaranteed(schema, "Presentations", "abstractPage")
        assert not required_guaranteed(schema, "YearPages", "nosuch")
        cset = parse_constraints("on Presentations { required abstractPage }")
        diags = check_data_constraints(cset, schema=schema)
        assert [d.code for d in diags] == ["DC005"]
        assert "mapping queries" in diags[0].message

    def test_dc005_guarded_edge_not_guaranteed(self):
        # YearPage's "Year" edge lives in a nested (guarded) block, but so
        # does the creation, so it IS guaranteed; a label from the outer
        # block attached conditionally is not.  Use a handmade query.
        schema = schema_for(
            """
            where Items(x)
            create Page(x)
            collect Pages(Page(x))
            {
              where x -> "extra" -> e
              link Page(x) -> "extra" -> e
            }
            """
        )
        assert not required_guaranteed(schema, "Pages", "extra")

    def test_dc005_value_index_refutation(self):
        data = bibliography_graph(5, seed=1)
        cset = parse_constraints("on Publications { range year 1900 2100 }")
        diags = check_data_constraints(cset, data_graph=data)
        assert [d.code for d in diags] == ["DC005"]
        assert "value index" in diags[0].message

    def test_dc006_dynamic(self):
        data = bibliography_graph(5, seed=1)
        cset = parse_constraints(
            'on Publications { expression ( __subject__ -> "title" -> t ) }'
        )
        diags = check_data_constraints(cset, data_graph=data)
        assert [d.code for d in diags] == ["DC006"]

    def test_dc007_duplicate(self):
        data = bibliography_graph(5, seed=1)
        cset = parse_constraints(
            "on Publications { required title }\n"
            "on Publications { required title }"
        )
        diags = check_data_constraints(cset, data_graph=data)
        assert [d.code for d in diags] == ["DC006", "DC007"]

    def test_analyzer_integration_and_suppression(self):
        data = bibliography_graph(5, seed=1)
        cset = parse_constraints("on Publications { required doi }", "f.dc")
        report = Analyzer(
            query=HOMEPAGE_QUERY, data_graph=data, data_constraints=cset
        ).run()
        assert [d.code for d in report.diagnostics if d.code == "DC004"]
        assert not report.ok
        suppressed = Analyzer(
            query=HOMEPAGE_QUERY, data_graph=data, data_constraints=cset
        ).run(suppress=["DC004"])
        assert not suppressed.by_code("DC004")
        assert suppressed.ok

    def test_analyzer_checks_constraints_even_on_bad_query(self):
        data = bibliography_graph(5, seed=1)
        cset = parse_constraints("on Publications { required doi }")
        report = Analyzer(
            query="where !!!", data_graph=data, data_constraints=cset
        ).run()
        assert report.by_code("SQ000")
        assert report.by_code("DC004")

    def test_sarif_rule_index_and_full_description(self):
        data = bibliography_graph(5, seed=1)
        cset = parse_constraints(
            "on Publications { required doi }\non Ghosts { required x }"
        )
        report = Analyzer(
            query=HOMEPAGE_QUERY, data_graph=data, data_constraints=cset
        ).run()
        sarif = json.loads(render_sarif(report))
        run = sarif["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        ids = [rule["id"] for rule in rules]
        for result in run["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]
        dc_rules = [r for r in rules if r["id"].startswith("DC")]
        assert dc_rules and all("fullDescription" in r for r in dc_rules)


# ------------------------------------------------------------------ #
# constraint parser spans (bugfix: ConstraintError carries line/column)


class TestConstraintErrorSpans:
    def test_parse_constraint_error_has_position(self):
        with pytest.raises(ConstraintError) as info:
            parse_constraint("forall X (Pubs(X) => exists Y (")
        assert info.value.line >= 1 and info.value.column >= 1

    def test_trailing_input_has_position(self):
        with pytest.raises(ConstraintError) as info:
            parse_constraint("forall X (A(X) => B(X)) garbage")
        assert info.value.column > 1

    def test_con001_diagnostic_gains_column(self):
        from repro.analysis import check_constraints

        schema = schema_for("create Root()\ncollect Roots(Root())")
        diags = check_constraints(
            ["forall X (Roots(X) => ("], schema, constraint_file="c.txt"
        )
        assert diags[0].code == "CON001"
        assert diags[0].span.column > 0


# ------------------------------------------------------------------ #
# ingest gate


class TestGate:
    def test_strict_policy_raises(self):
        graph, _, _ = pubs_graph()
        cset = parse_constraints("on Pubs { range year 1900 2100 }")
        policy = WrapPolicy.strict(constraints=ConstraintPolicy(cset))
        with pytest.raises(ConstraintViolation):
            apply_constraint_gate(graph, policy, QuarantineReport(), "src")

    def test_tolerant_policy_removes_and_reports(self):
        graph, a, b = pubs_graph()
        cset = parse_constraints("on Pubs { range year 1900 2100 }")
        policy = WrapPolicy.tolerant(constraints=ConstraintPolicy(cset))
        report = QuarantineReport(source="src")
        violations = apply_constraint_gate(graph, policy, report, "src")
        assert len(violations) == 1
        assert not graph.has_node(b) and graph.has_node(a)
        assert report.count == 1
        assert report.records[0].locator.startswith("Pubs:")
        assert "constraint violation" in report.records[0].error

    def test_budget_exceeded(self):
        graph, _, _ = pubs_graph()
        cset = parse_constraints("on Pubs { required doi }\non Pubs { required nope }")
        policy = WrapPolicy.tolerant(
            max_errors=1, constraints=ConstraintPolicy(cset)
        )
        with pytest.raises(QuarantineExceeded):
            apply_constraint_gate(graph, policy, QuarantineReport(), "src")

    def test_no_constraints_is_a_noop(self):
        graph, _, _ = pubs_graph()
        assert apply_constraint_gate(
            graph, WrapPolicy.tolerant(), QuarantineReport(), "src"
        ) == []

    def test_wrapper_threads_the_gate(self):
        bib = (
            "@article{ok, title={A}, author={B}, year={1998}, journal={J}}\n"
            "@article{bad, title={B}, author={C}, year={2999}, journal={J}}\n"
        )
        cset = parse_constraints("on Publications { range year 1900 2100 }")
        wrapper = BibtexWrapper(bib, source_name="bib")
        graph = wrapper.wrap(
            WrapPolicy.tolerant(constraints=ConstraintPolicy(cset))
        )
        assert len(graph.collection("Publications")) == 1
        assert wrapper.last_quarantine.count == 1
        record = wrapper.last_quarantine.records[0]
        assert "outside [1900, 2100]" in record.error
        assert "range year" in record.snippet

    def test_wrapper_strict_gate_raises(self):
        bib = "@article{bad, title={B}, author={C}, year={2999}, journal={J}}\n"
        cset = parse_constraints("on Publications { range year 1900 2100 }")
        with pytest.raises(ConstraintViolation):
            BibtexWrapper(bib).wrap(
                WrapPolicy.strict(constraints=ConstraintPolicy(cset))
            )


class TestMediatorGate:
    def test_cross_source_exclusive_caught_at_warehouse(self):
        # each source is internally exclusive; the collision is only
        # visible after integration
        bib_a = "@article{a1, title={A}, author={X}, year={1998}, journal={J}, url={http://dup}}\n"
        bib_b = "@article{b1, title={B}, author={Y}, year={1999}, journal={J}, url={http://dup}}\n"
        cset = parse_constraints("on Publications { exclusive url }")
        policy = ResiliencePolicy(
            wrap=WrapPolicy.tolerant(constraints=ConstraintPolicy(cset))
        )
        mediator = Mediator(policy=policy)
        mediator.add_source("a", BibtexWrapper(bib_a, source_name="a"))
        mediator.add_source("b", BibtexWrapper(bib_b, source_name="b"))
        mediator.import_source("a")
        mediator.import_source("b")
        warehouse = mediator.materialize("data", policy)
        report = mediator.last_report
        assert report.constraints["violated"] >= 1
        assert len(report.constraints["quarantined"]) == 1
        assert report.partial
        assert len(warehouse.collection("Publications")) == 1
        prov = Oid("mediation:provenance")
        labels = [label for label, _ in warehouse.out_edges(prov)]
        assert "constraintViolations" in labels
        assert "constraintQuarantined" in labels

    def test_resilience_report_folds_constraints(self, tmp_path):
        bib = "@article{bad, title={B}, author={C}, year={2999}, journal={J}}\n"
        cset = parse_constraints("on Publications { range year 1900 2100 }")
        policy = ResiliencePolicy(
            wrap=WrapPolicy.tolerant(constraints=ConstraintPolicy(cset))
        )
        mediator = Mediator(policy=policy)
        mediator.add_source("bib", BibtexWrapper(bib, source_name="bib"))
        mediator.import_source("bib")
        mediator.materialize("data", policy)
        report = ResilienceReport().record_mediation(mediator)
        assert report.constraints["checked"] >= 1
        assert any("constraints:" in line for line in report.summary_lines())
        path = tmp_path / "resilience.json"
        report.save(str(path))
        loaded = ResilienceReport.load(str(path))
        assert loaded.constraints == report.constraints


# ------------------------------------------------------------------ #
# incremental checking


def fresh_verdicts(graph, cset):
    checker = IncrementalChecker(graph, cset)
    checker.full_check()
    return checker.verdicts()


class TestIncremental:
    def test_one_edge_edit_rechecks_only_touched(self):
        graph = bibliography_graph(50, seed=3)
        cset = parse_constraints(
            "on Publications { required title\n  range year 1900 2100 }"
        )
        inc = IncrementalChecker(graph, cset)
        inc.full_check()
        total = inc.subject_count
        assert total == 100
        pub = graph.collection("Publications")[0]
        graph.add_edge(pub, "year", integer(1905))
        inc.recheck()
        assert inc.last_rechecked == 1
        assert inc.last_skipped == total - 1
        assert inc.verdicts() == fresh_verdicts(graph, cset)

    def test_counters_track_skips(self):
        graph = bibliography_graph(10, seed=3)
        cset = parse_constraints("on Publications { required title }")
        counters = CheckCounters()
        inc = IncrementalChecker(graph, cset, counters)
        inc.full_check()
        pub = graph.collection("Publications")[0]
        graph.add_edge(pub, "title", string("Another Title"))
        inc.recheck()
        assert counters.incremental_rechecked == 1
        assert counters.incremental_skipped == 9

    def test_exclusive_co_holders_reverdict(self):
        graph, a, b = pubs_graph()
        cset = parse_constraints("on Pubs { exclusive doi }")
        inc = IncrementalChecker(graph, cset)
        inc.full_check()
        assert len(inc.violations()) == 1
        # resolving the collision must clear BOTH holders' verdicts
        graph.remove_edge(b, "doi", string("10.1/x"))
        graph.add_edge(b, "doi", string("10.2/y"))
        inc.recheck()
        assert inc.violations() == []
        assert inc.verdicts() == fresh_verdicts(graph, cset)

    def test_membership_and_node_removal(self):
        graph, a, b = pubs_graph()
        cset = parse_constraints(SIX_KINDS.replace("Pubs", "Pubs"))
        inc = IncrementalChecker(graph, cset)
        inc.full_check()
        graph.remove_from_collection("Pubs", b)
        inc.recheck()
        assert inc.verdicts() == fresh_verdicts(graph, cset)
        graph.remove_node(a)
        inc.recheck()
        assert inc.verdicts() == fresh_verdicts(graph, cset)
        assert inc.subject_count == 0

    def test_expression_footprint_tracks_far_reads(self):
        # expression reads an edge two hops away; editing that far edge
        # must re-verdict the subject even though the subject's own
        # adjacency never changed
        g = Graph()
        a = g.add_node(hint="a")
        hub = g.add_node(hint="hub")
        g.add_to_collection("C", a)
        g.add_edge(a, "to", hub)
        g.add_edge(hub, "flag", string("on"))
        cset = parse_constraints(
            'on C { expression ( __subject__ -> "to" -> h, h -> "flag" -> "on" ) }'
        )
        inc = IncrementalChecker(g, cset)
        inc.full_check()
        assert inc.violations() == []
        g.remove_edge(hub, "flag", string("on"))
        g.add_edge(hub, "flag", string("off"))
        inc.recheck()
        assert len(inc.violations()) == 1
        assert inc.verdicts() == fresh_verdicts(g, cset)

    def test_coarse_fallback_on_truncated_log(self):
        graph = bibliography_graph(5, seed=3)
        cset = parse_constraints("on Publications { required title }")
        counters = CheckCounters()
        inc = IncrementalChecker(graph, cset, counters)
        inc.full_check()
        # overflow the bounded delta log
        scratch = graph.add_node(hint="scratch")
        for i in range(5000):
            graph.add_edge(scratch, "noise", integer(i))
        inc.recheck()
        assert counters.coarse_fallbacks == 1
        assert inc.verdicts() == fresh_verdicts(graph, cset)

    def test_no_op_recheck_skips_everything(self):
        graph = bibliography_graph(5, seed=3)
        cset = parse_constraints("on Publications { required title }")
        inc = IncrementalChecker(graph, cset)
        inc.full_check()
        inc.recheck()
        assert inc.last_rechecked == 0
        assert inc.last_skipped == 5


# ------------------------------------------------------------------ #
# property tests


@st.composite
def edit_scripts(draw):
    """A random stream of graph edits over a small two-collection world."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["add_edge", "remove_edge", "add_member", "remove_member",
                     "new_member", "remove_node"]
                ),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=1,
            max_size=12,
        )
    )


PROP_RULES = parse_constraints(
    """
    on C {
      required name
      exclusive tag
      range score 0 10
      expression ( __subject__ -> "name" -> n )
    }
    """
)


def apply_edit(graph, nodes, op, i, j):
    labels = ["name", "tag", "score"]
    label = labels[j % len(labels)]
    values = [string("v0"), string("v1"), integer(5), integer(50)]
    value = values[(i + j) % len(values)]
    node = nodes[i % len(nodes)]
    if op == "add_edge":
        if not graph.has_edge(node, label, value):
            graph.add_edge(node, label, value)
    elif op == "remove_edge":
        targets = graph.targets(node, label)
        if targets:
            graph.remove_edge(node, label, targets[j % len(targets)])
    elif op == "add_member":
        graph.add_to_collection("C", node)
    elif op == "remove_member":
        if graph.in_collection("C", node):
            graph.remove_from_collection("C", node)
    elif op == "new_member":
        fresh = graph.add_node()
        nodes.append(fresh)
        graph.add_to_collection("C", fresh)
        graph.add_edge(fresh, "name", string(f"n{len(nodes)}"))
    elif op == "remove_node":
        if len(nodes) > 1 and graph.has_node(node):
            graph.remove_node(node)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(script=edit_scripts())
    def test_incremental_equals_full_under_random_edits(self, script):
        graph = Graph()
        nodes = [graph.add_node(hint=f"n{i}") for i in range(4)]
        for i, node in enumerate(nodes):
            graph.add_to_collection("C", node)
            graph.add_edge(node, "name", string(f"name{i}"))
            graph.add_edge(node, "score", integer(i))
        inc = IncrementalChecker(graph, PROP_RULES)
        inc.full_check()
        for op, i, j in script:
            nodes = [n for n in nodes if graph.has_node(n)] or [graph.add_node()]
            apply_edit(graph, nodes, op, i, j)
            inc.recheck()
            assert inc.verdicts() == fresh_verdicts(graph, PROP_RULES)

    @settings(max_examples=40, deadline=None)
    @given(
        years=st.lists(
            st.integers(min_value=1800, max_value=2300), min_size=1, max_size=12
        )
    )
    def test_quarantine_admits_exactly_satisfying_records(self, years):
        entries = "\n".join(
            f"@article{{p{i}, title={{T{i}}}, author={{A}}, "
            f"year={{{year}}}, journal={{J}}}}"
            for i, year in enumerate(years)
        )
        cset = parse_constraints("on Publications { range year 1900 2100 }")
        wrapper = BibtexWrapper(entries, source_name="bib")
        graph = wrapper.wrap(
            WrapPolicy.tolerant(constraints=ConstraintPolicy(cset))
        )
        admitted = {
            graph.attribute(oid, "year").as_number()
            for oid in graph.collection("Publications")
        }
        expected = {float(y) for y in years if 1900 <= y <= 2100}
        assert admitted == expected
        quarantined = len([y for y in years if not 1900 <= y <= 2100])
        assert wrapper.last_quarantine.count == quarantined


# ------------------------------------------------------------------ #
# the seeded acceptance demo


class TestAcceptanceDemo:
    def test_analyze_refutes_and_flags_on_bibliography(self):
        data = bibliography_graph(40, seed=11)
        cset = parse_constraints(
            "on Presentations { required abstractPage }\n"
            "on Publications { required doi }\n"
            "on Publications { range year 1900 2100 }",
            "demo.dc",
        )
        report = Analyzer(
            query=HOMEPAGE_QUERY, data_graph=data, data_constraints=cset
        ).run()
        refuted = report.by_code("DC005")
        assert len(refuted) >= 2  # schema proof + value-index proof
        assert any("mapping queries" in d.message for d in refuted)
        assert report.by_code("DC004")  # required doi flagged

    def test_one_edge_edit_on_400_article_site(self):
        graph = bibliography_graph(400, seed=11)
        cset = parse_constraints(
            "on Publications {\n"
            "  required title\n"
            "  range year 1900 2100\n"
            "  exclusive postscript\n"
            "}"
        )
        inc = IncrementalChecker(graph, cset)
        inc.full_check()
        total = inc.subject_count
        assert total == 1200
        pub = graph.collection("Publications")[7]
        graph.add_edge(pub, "year", integer(1897))  # the 1-edge edit
        inc.recheck()
        # counter-verified: only delta-touched subjects re-checked
        assert inc.last_rechecked == 1
        assert inc.last_skipped == total - 1
        assert inc.verdicts() == fresh_verdicts(graph, cset)
        assert any(
            v.subject == pub and v.constraint.kind == "range"
            for v in inc.violations()
        )


# ------------------------------------------------------------------ #
# CLI


BIB_WITH_BAD_YEAR = """
@article{ok1, title={Alpha}, author={A}, year={1998}, journal={J}}
@article{bad, title={Beta}, author={B}, year={2999}, journal={J}}
@article{ok2, title={Gamma}, author={C}, year={2001}, journal={J}}
"""

DEMO_RULES = "on Publications {\n  range year 1900 2100\n}\n"


@pytest.fixture
def cli_workspace(tmp_path):
    (tmp_path / "pubs.bib").write_text(BIB_WITH_BAD_YEAR)
    (tmp_path / "rules.dc").write_text(DEMO_RULES)
    (tmp_path / "site.struql").write_text(
        "create Root()\n"
        'where Publications(x), x -> "title" -> t\n'
        "create Page(x)\n"
        'link Page(x) -> "title" -> t, Root() -> "Paper" -> Page(x)\n'
        "collect Pages(Page(x))\n"
    )
    return tmp_path


class TestCli:
    def test_ingest_quarantines_violators(self, cli_workspace, capsys):
        from repro.cli import main

        out = cli_workspace / "warehouse.ddl"
        code = main(
            [
                "ingest",
                "--source", f"bib=bibtex:{cli_workspace / 'pubs.bib'}",
                "--constraints", str(cli_workspace / "rules.dc"),
                "-o", str(out),
            ]
        )
        assert code == 1  # partial: a record was quarantined
        err = capsys.readouterr().err
        assert "constraints: checked=" in err
        assert "violated=1" in err
        from repro.repository import ddl

        warehouse = ddl.loads(out.read_text())
        assert len(warehouse.collection("Publications")) == 2

    def test_analyze_constraints_flag(self, cli_workspace, capsys):
        from repro.cli import main

        data = cli_workspace / "data.ddl"
        main(
            [
                "wrap", "bibtex", str(cli_workspace / "pubs.bib"),
                "-o", str(data),
            ]
        )
        code = main(
            [
                "analyze",
                "--query", str(cli_workspace / "site.struql"),
                "--data", str(data),
                "--constraints", str(cli_workspace / "rules.dc"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "DC004" in out and "range year" in out

    def test_stats_constraints_counters(self, cli_workspace, capsys):
        from repro.cli import main

        data = cli_workspace / "data.ddl"
        main(
            [
                "wrap", "bibtex", str(cli_workspace / "pubs.bib"),
                "-o", str(data),
            ]
        )
        capsys.readouterr()
        code = main(
            ["stats", str(data), "--constraints", str(cli_workspace / "rules.dc")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "constraints: checked=3 violated=1" in out
        assert "incremental-skipped=" in out
        assert "violated:" in out
