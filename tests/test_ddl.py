"""Unit tests for the data-definition language (repro.repository.ddl)."""

import pytest

from repro.errors import DDLSyntaxError
from repro.graph import AtomType, Graph, Oid, integer, string
from repro.repository import ddl

BASIC = """
# a comment
collection Publications {
  abstract: text
  postscript: postscript
}

object pub1 {
  title: "Strudel"
  year: 1998
  score: 4.5
  public: true
  abstract: "We describe..."
  related: ref pub2
}
object pub2 {
  title: "WebOQL"
}
member Publications: pub1, pub2
"""


class TestLoads:
    def test_nodes_created(self):
        graph = ddl.loads(BASIC)
        assert graph.has_node(Oid("pub1"))
        assert graph.has_node(Oid("pub2"))

    def test_collection_membership(self):
        graph = ddl.loads(BASIC)
        assert len(graph.collection("Publications")) == 2

    def test_number_typing(self):
        graph = ddl.loads(BASIC)
        year = graph.attribute(Oid("pub1"), "year")
        assert year.type is AtomType.INTEGER and year.value == 1998
        score = graph.attribute(Oid("pub1"), "score")
        assert score.type is AtomType.FLOAT

    def test_boolean(self):
        graph = ddl.loads(BASIC)
        assert graph.attribute(Oid("pub1"), "public").value is True

    def test_collection_default_applies(self):
        graph = ddl.loads(BASIC)
        abstract = graph.attribute(Oid("pub1"), "abstract")
        assert abstract.type is AtomType.TEXT_FILE

    def test_ref_edge(self):
        graph = ddl.loads(BASIC)
        assert graph.attribute(Oid("pub1"), "related") == Oid("pub2")

    def test_forward_reference_allowed(self):
        text = """
object a { next: ref b }
object b { name: "b" }
"""
        graph = ddl.loads(text)
        assert graph.attribute(Oid("a"), "next") == Oid("b")

    def test_explicit_type_overrides_default(self):
        text = """
collection C { val: integer }
object x { val: image "pic.gif" }
member C: x
"""
        graph = ddl.loads(text)
        assert graph.attribute(Oid("x"), "val").type is AtomType.IMAGE_FILE

    def test_quoted_names_round_trip_skolem_oids(self):
        text = 'object "YearPage(1998)" { v: 1 }'
        graph = ddl.loads(text)
        assert graph.has_node(Oid("YearPage(1998)"))

    def test_string_escapes(self):
        text = r'object a { v: "line\nbreak \"quoted\"" }'
        graph = ddl.loads(text)
        assert graph.attribute(Oid("a"), "v").value == 'line\nbreak "quoted"'


class TestLoadErrors:
    def test_dangling_ref(self):
        with pytest.raises(DDLSyntaxError):
            ddl.loads("object a { next: ref ghost }")

    def test_dangling_member(self):
        with pytest.raises(DDLSyntaxError):
            ddl.loads("member C: ghost")

    def test_bad_keyword(self):
        with pytest.raises(DDLSyntaxError):
            ddl.loads("banana a { }")

    def test_unterminated_string(self):
        with pytest.raises(DDLSyntaxError):
            ddl.loads('object a { v: "oops }')

    def test_unknown_type_in_defaults(self):
        with pytest.raises(DDLSyntaxError):
            ddl.loads("collection C { v: widget }")

    def test_missing_value(self):
        with pytest.raises(DDLSyntaxError):
            ddl.loads("object a { v: }")

    def test_error_carries_line_number(self):
        try:
            ddl.loads("object a {\n  v: @\n}")
        except DDLSyntaxError as error:
            assert error.line == 2
        else:  # pragma: no cover
            pytest.fail("expected DDLSyntaxError")


class TestDump:
    def _graph(self):
        graph = Graph()
        a = graph.add_node(Oid("a"))
        b = graph.add_node()  # anonymous: &1
        graph.add_edge(a, "title", string("hello world"))
        graph.add_edge(a, "year", integer(1998))
        graph.add_edge(a, "next", b)
        graph.add_edge(b, "weird label", string('va"lue'))
        graph.add_to_collection("Stuff", a)
        return graph

    def test_round_trip_structure(self):
        graph = self._graph()
        reloaded = ddl.loads(ddl.dumps(graph))
        assert reloaded.stats() == graph.stats()
        assert sorted(o.name for o in reloaded.nodes()) == sorted(
            o.name for o in graph.nodes()
        )

    def _ref_first_graph(self):
        """A node whose ref edge comes before its atom edge."""
        graph = Graph()
        a, b = graph.add_node(Oid("a")), graph.add_node(Oid("b"))
        graph.add_edge(a, "to", b)
        graph.add_edge(a, "name", string("alpha"))
        graph.add_to_collection("Pool", a)
        return graph

    def test_round_trip_edges(self):
        for graph in (self._graph(), self._ref_first_graph()):
            text = ddl.dumps(graph)
            reloaded = ddl.loads(text)
            original = {(s.name, l, str(t)) for s, l, t in graph.edges()}
            recovered = {(s.name, l, str(t)) for s, l, t in reloaded.edges()}
            assert original == recovered
            # edge order survives too: dumps is a fixed point of loads
            assert ddl.dumps(reloaded) == text

    def test_round_trip_types(self):
        graph = self._graph()
        reloaded = ddl.loads(ddl.dumps(graph))
        assert reloaded.attribute(Oid("a"), "year").type is AtomType.INTEGER

    def test_round_trip_collections(self):
        graph = self._graph()
        reloaded = ddl.loads(ddl.dumps(graph))
        assert [o.name for o in reloaded.collection("Stuff")] == ["a"]

    def test_dump_quotes_special_names(self):
        graph = Graph()
        graph.add_node(Oid("YearPage(1998)"))
        text = ddl.dumps(graph)
        assert '"YearPage(1998)"' in text

    def test_round_trip_newlines_in_values(self):
        graph = Graph()
        oid = graph.add_node(Oid("a"))
        graph.add_edge(oid, "text", string("two\nlines\tand a tab"))
        reloaded = ddl.loads(ddl.dumps(graph))
        assert reloaded.attribute(Oid("a"), "text").value == "two\nlines\tand a tab"
