"""Unit tests for the fluent query builder (examples/query_builder.py)."""

import pytest

from repro.errors import StruqlSemanticError
from repro.graph import Oid
from repro.struql import evaluate, parse
from repro.struql.ast import (
    CollectionCond,
    ComparisonCond,
    Const,
    EdgeCond,
    NotCond,
    PathCond,
    SkolemTerm,
    Var,
)
from repro.workloads import bibliography_graph

from query_builder import (
    ProgramBuilder,
    alt,
    arc,
    const,
    label,
    seq,
    skolem,
    star,
    var,
)


class TestTermHelpers:
    def test_var(self):
        assert var("x") == Var("x")

    def test_const_wraps_python_values(self):
        assert const(1998).atom.value == 1998
        assert const("web").atom.value == "web"

    def test_skolem(self):
        term = skolem("YearPage", "y", 1998)
        assert term == SkolemTerm("YearPage", (Var("y"), const(1998)))

    def test_skolem_simple(self):
        assert skolem("Root") == SkolemTerm("Root", ())


class TestPathHelpers:
    def test_star_default_is_any_path(self):
        from repro.struql.ast import AnyLabel, Star

        assert star() == Star(AnyLabel())

    def test_seq_and_alt(self):
        from repro.struql.ast import Alternation, Concat, LabelIs

        assert seq("a", "b") == Concat((LabelIs("a"), LabelIs("b")))
        assert alt("a", "b") == Alternation((LabelIs("a"), LabelIs("b")))

    def test_star_of_label(self):
        from repro.struql.ast import LabelIs, Star

        assert star("next") == Star(LabelIs("next"))


class TestBuilding:
    def _homepage(self):
        b = ProgramBuilder()
        q = (
            b.query()
            .collection("Publications", "x")
            .edge("x", arc("l"), "v")
            .create(skolem("PaperPage", "x"))
            .link(skolem("PaperPage", "x"), arc("l"), "v")
            .collect("PaperPages", skolem("PaperPage", "x"))
        )
        (
            q.block()
            .edge("x", "year", "y")
            .create(skolem("YearPage", "y"))
            .link(skolem("YearPage", "y"), "Paper", skolem("PaperPage", "x"))
            .link(skolem("YearPage", "y"), "Year", "y")
            .collect("YearPages", skolem("YearPage", "y"))
        )
        return b

    def test_condition_types(self):
        b = ProgramBuilder()
        q = (
            b.query()
            .collection("C", "x")
            .edge("x", "a", "y")
            .path("x", star(), "z")
            .compare("y", "=", const(1998))
            .predicate("isImageFile", "z")
            .create(skolem("P", "x"))
        )
        query = b.build().queries[0]
        kinds = [type(c).__name__ for c in query.where]
        assert kinds == [
            "CollectionCond", "EdgeCond", "PathCond", "ComparisonCond",
            "PredicateCond",
        ]

    def test_negate(self):
        inner = ProgramBuilder().query().edge("x", "journal", "j")
        b = ProgramBuilder()
        b.query().collection("Pubs", "x").negate(*inner.conditions()).create(
            skolem("P", "x")
        )
        query = b.build().queries[0]
        assert isinstance(query.where[1], NotCond)

    def test_bad_operator(self):
        with pytest.raises(StruqlSemanticError):
            ProgramBuilder().query().compare("a", "~", "b")

    def test_unbound_variable_caught_at_build(self):
        b = ProgramBuilder()
        b.query().collection("C", "x").create(skolem("P", "zzz"))
        with pytest.raises(StruqlSemanticError):
            b.build()

    def test_blocks_named_depth_first(self):
        b = self._homepage()
        program = b.build()
        assert program.queries[0].name == "Q1"
        assert program.queries[0].blocks[0].name == "Q2"

    def test_text_round_trips_through_parser(self):
        b = self._homepage()
        text = b.text()
        reparsed = parse(text)
        built = b.build()
        assert reparsed.queries[0].where == built.queries[0].where
        assert reparsed.queries[0].blocks[0].link == built.queries[0].blocks[0].link

    def test_built_program_evaluates_like_parsed(self):
        data = bibliography_graph(8, seed=80)
        built_graph = evaluate(self._homepage().build(), data)
        parsed_graph = evaluate(parse(self._homepage().text()), data)
        assert built_graph.stats() == parsed_graph.stats()
        assert built_graph.has_node(Oid("YearPage(1998)")) == parsed_graph.has_node(
            Oid("YearPage(1998)")
        )

    def test_multiple_queries(self):
        b = ProgramBuilder()
        b.query().create(skolem("Root"))
        b.query().collection("C", "x").create(skolem("P", "x")).link(
            skolem("Root"), "p", skolem("P", "x")
        )
        program = b.build()
        assert len(program.queries) == 2
        assert program.skolem_functions() == ["Root", "P"]

    def test_link_constant_target(self):
        b = ProgramBuilder()
        b.query().collection("C", "x").create(skolem("P", "x")).link(
            skolem("P", "x"), "kind", const("page")
        )
        link = b.build().queries[0].link[0]
        assert isinstance(link.target, Const)

    def test_source_text_populated(self):
        program = self._homepage().build()
        assert program.line_count() > 0
