"""Unit tests for the source wrappers (repro.wrappers)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WrapperError
from repro.graph import AtomType, Oid
from repro.wrappers import (
    BibtexWrapper,
    DdlWrapper,
    ForeignKey,
    HtmlSiteWrapper,
    RelationalWrapper,
    StructuredFileWrapper,
    Table,
    infer_atom,
    parse_bibtex,
)
from repro.wrappers import bibtex
from repro.repository import ddl
from repro.resilience.quarantine import WrapPolicy
from repro.workloads import generate_entries

from .reference_bibtex import ReferenceBibtexWrapper, reference_iter_bibtex

BIBTEX = """
@string{sigmod = "Proceedings of SIGMOD"}

@article{pub1,
  title = {A {Query} Language},
  author = {Mary Fernandez and Dan Suciu},
  journal = {TODS},
  year = 1997,
  month = sep,
  abstract = {Long text here.},
  postscript = {p/pub1.ps},
  url = {http://x.org/pub1}
}

@inproceedings{pub2,
  title = "Catching the Boat",
  author = {Mary Fernandez},
  booktitle = sigmod # ", 1998",
  year = {1998}
}

@comment{ignored stuff}
"""


class TestBibtexParser:
    def test_entry_count(self):
        entries = parse_bibtex(BIBTEX)
        assert len(entries) == 2

    def test_keys_and_types(self):
        entries = parse_bibtex(BIBTEX)
        assert entries[0][0] == "article" and entries[0][1] == "pub1"
        assert entries[1][0] == "inproceedings"

    def test_brace_stripping(self):
        fields = dict(parse_bibtex(BIBTEX)[0][2])
        assert fields["title"] == "A Query Language"

    def test_macro_expansion_and_concat(self):
        fields = dict(parse_bibtex(BIBTEX)[1][2])
        assert fields["booktitle"] == "Proceedings of SIGMOD, 1998"

    def test_month_macro(self):
        fields = dict(parse_bibtex(BIBTEX)[0][2])
        assert fields["month"] == "Sep"

    def test_unbalanced_braces(self):
        with pytest.raises(WrapperError):
            parse_bibtex("@article{x, title = {unclosed }")


def _good_then_broken(count):
    """``count`` generated entries, then a malformed one, then one more
    good entry; returns the text and the broken entry's line number."""
    good = generate_entries(count, seed=4)
    broken = "@article{broken,\n  title = ?oops\n}\n"
    tail = "\n@misc{after, title = {Still loaded}}\n"
    return good + broken + tail, good.count("\n") + 1


def _read_balanced_per_char(text, open_index):
    """The per-character scan ``_read_balanced`` replaced: the rules the
    delimiter-jumping version must keep."""
    opener = text[open_index]
    closer = "}" if opener == "{" else ")"
    depth = 0
    for index in range(open_index, len(text)):
        char = text[index]
        if char == opener:
            depth += 1
        elif char == closer:
            depth -= 1
            if depth == 0:
                return text[open_index + 1 : index], index + 1
    raise WrapperError("unbalanced braces in BibTeX entry")


HAND_WRITTEN_ENTRIES = [
    "@article{nested, title = {A {B {C} D} E}, note = {x(y}}",
    "@article(paren, title = {Uses (parens) inside}, year = 1998)",
    "@book(early, title = {x}, note = a ) trailing)",
    "@article{unclosed, title = {never closed }",
    "@article(unclosed, title = {(not closed}",
    "@misc{ok, title = {fine}}  @misc{x, note = {dangling)",
]


class TestBibtexScanning:
    def test_malformed_entry_line_when_raising(self):
        text, line = _good_then_broken(200)
        with pytest.raises(WrapperError) as caught:
            parse_bibtex(text)
        assert caught.value.locator == f"entry broken (line {line})"

    def test_malformed_entry_line_when_quarantined(self):
        text, line = _good_then_broken(200)
        wrapper = BibtexWrapper(text)
        graph = wrapper.wrap(WrapPolicy.tolerant())
        report = wrapper.last_quarantine
        assert [r.locator for r in report.records] == [f"entry broken (line {line})"]
        assert report.admitted == 201
        assert graph.has_node(Oid("after"))

    def test_clean_corpus_never_counts_lines(self, monkeypatch):
        """Line numbers are for error locators only; counting them per
        entry from the start of the text made wrapping quadratic."""

        def refuse(text, position):
            raise AssertionError("line counted for a well-formed entry")

        monkeypatch.setattr(bibtex, "_line_of", refuse)
        graph = BibtexWrapper(generate_entries(50, seed=1)).wrap()
        assert len(graph.collection("Publications")) == 50

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_delimiter_jumps_match_per_char_scan_on_generated(self, seed, monkeypatch):
        text = generate_entries(300, seed=seed)
        got = list(bibtex.iter_bibtex(text))
        monkeypatch.setattr(bibtex, "_read_balanced", _read_balanced_per_char)
        assert got == list(bibtex.iter_bibtex(text))

    @pytest.mark.parametrize("text", HAND_WRITTEN_ENTRIES)
    def test_delimiter_jumps_match_per_char_scan_by_hand(self, text, monkeypatch):
        def scan():
            failures = []
            entries = list(bibtex.iter_bibtex(
                text, on_error=lambda locator, error, snippet: failures.append(
                    (locator, str(error), snippet))))
            return entries, failures

        got = scan()
        monkeypatch.setattr(bibtex, "_read_balanced", _read_balanced_per_char)
        assert got == scan()

    def test_superscript_digit_value_is_quarantined(self):
        """``str.isdigit`` holds for superscripts that no digit run
        matches: such a value is a located fault, not a crash."""
        text = "@misc{a, note = {ok}}\n@misc{b, year = ²}\n"
        wrapper = BibtexWrapper(text)
        graph = wrapper.wrap(WrapPolicy.tolerant())
        report = wrapper.last_quarantine
        assert [r.locator for r in report.records] == ["entry b (line 2)"]
        assert "bad BibTeX value" in report.records[0].error
        assert report.admitted == 1
        assert graph.has_node(Oid("a"))

    def test_hand_written_delimiter_rules(self):
        nested, paren, early = parse_bibtex("\n".join(HAND_WRITTEN_ENTRIES[:3]))
        assert dict(nested[2]) == {"title": "A B C D E", "note": "x(y"}
        assert paren[1] == "paren"
        assert dict(paren[2]) == {"title": "Uses (parens) inside", "year": "1998"}
        # a "(" entry counts parens only: the first ")" at depth one ends it
        assert dict(early[2]) == {"title": "x", "note": "a"}
        for unbalanced in HAND_WRITTEN_ENTRIES[3:]:
            with pytest.raises(WrapperError, match="unbalanced"):
                parse_bibtex(unbalanced)


class TestBibtexWrapper:
    def test_collection(self):
        graph = BibtexWrapper(BIBTEX).wrap()
        assert graph.collection_cardinality("Publications") == 2

    def test_key_becomes_oid(self):
        graph = BibtexWrapper(BIBTEX).wrap()
        assert graph.has_node(Oid("pub1"))

    def test_field_typing(self):
        graph = BibtexWrapper(BIBTEX).wrap()
        pub1 = Oid("pub1")
        assert graph.attribute(pub1, "year").type is AtomType.INTEGER
        assert graph.attribute(pub1, "abstract").type is AtomType.TEXT_FILE
        assert graph.attribute(pub1, "postscript").type is AtomType.POSTSCRIPT_FILE
        assert graph.attribute(pub1, "url").type is AtomType.URL

    def test_authors_split(self):
        graph = BibtexWrapper(BIBTEX).wrap()
        authors = graph.targets(Oid("pub1"), "author")
        assert [str(a) for a in authors] == ["Mary Fernandez", "Dan Suciu"]

    def test_irregular_attributes(self):
        graph = BibtexWrapper(BIBTEX).wrap()
        assert graph.attribute(Oid("pub1"), "journal") is not None
        assert graph.attribute(Oid("pub2"), "journal") is None
        assert graph.attribute(Oid("pub2"), "booktitle") is not None

    def test_ordered_authors(self):
        graph = BibtexWrapper(BIBTEX, ordered_authors=True).wrap()
        authors = graph.targets(Oid("pub1"), "author")
        assert all(isinstance(a, Oid) for a in authors)
        orders = [graph.attribute(a, "order").value for a in authors]
        assert orders == [1, 2]

    def test_entry_type_attribute(self):
        graph = BibtexWrapper(BIBTEX).wrap()
        assert str(graph.attribute(Oid("pub1"), "type")) == "article"


# ---------------------------------------------------------------- #
# the compiled field scanner and the atom memo against the reference

_WS = st.sampled_from(["", " ", "  ", "\t", "\n", "\n  "])
#: values shared across labels, so one raw value is typed as an
#: integer, a URL, a file and a string in the same wrap
_SHARED = [
    "1998", " 1998 ", "12ab", "x", "", "Mary  Fernandez and Dan\tSuciu",
    "a\tb\n c", "Proceedings of\n  SIGMOD", "http://x.org/p", "papers/p.ps",
    "x(y", "²",
]
_INNER = st.one_of(
    st.sampled_from(_SHARED),
    st.text(alphabet="ab1 \t\n,#=", max_size=6),
)


@st.composite
def _piece(draw):
    kind = draw(st.sampled_from(["brace", "nested", "quote", "digits", "macro"]))
    inner = draw(_INNER)
    if kind == "brace":
        return "{" + inner + "}"
    if kind == "nested":
        return "{" + draw(_INNER) + "{" + inner + "}" + draw(_INNER) + "}"
    if kind == "quote":
        return '"' + draw(st.sampled_from(["", "{\"}", "{A}"])) + inner + '"'
    if kind == "digits":
        return draw(st.sampled_from(["1998", "7", "0042", "²"])) + draw(
            st.sampled_from(["", "", "abc"])
        )
    return draw(st.sampled_from(["jan", "SEP", "sig", "unknown", "x.y:z"]))


@st.composite
def _value(draw):
    pieces = draw(st.lists(_piece(), min_size=1, max_size=3))
    joined = pieces[0]
    for piece in pieces[1:]:
        joined += draw(_WS) + "#" + draw(_WS) + piece
    return joined


_FIELD_NAMES = [
    "title", "TITLE", "author", "Editor", "year", "Year", "volume", "number",
    "abstract", "postscript", "ps", "url", "note", "booktitle", "month", "type",
]
_MALFORMED = [
    "@article{broken,\n  title = ?oops\n}",
    "@article{unclosed, title = {never closed, year = 1999}",
    '@misc{q, note = "unterminated}',
    "@misc{nf, title {x}}",
    "@book(early, title = {x}, note = a ) trailing)",
]


@st.composite
def _entry(draw):
    kind = draw(st.sampled_from(["entry"] * 6 + ["string", "comment", "malformed"]))
    if kind == "malformed":
        return draw(st.sampled_from(_MALFORMED))
    if kind == "comment":
        return "@comment{" + draw(_INNER) + "}"
    opener, closer = draw(st.sampled_from(["{}", "()"]))
    if kind == "string":
        name = draw(st.sampled_from(["sig", "SIG", "unknown"]))
        return f"@string{opener}{name} ={draw(_WS)}{draw(_value())}{closer}"
    fields = []
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(_FIELD_NAMES))
        fields.append(f"{draw(_WS)}{name}{draw(_WS)}={draw(_WS)}{draw(_value())}")
    body = draw(st.sampled_from(["p1", "p2", "p3", "Key:9", ""]))
    if fields or draw(st.booleans()):
        body += "," + ",".join(fields) + draw(st.sampled_from(["", ",", " ,\n"]))
    entry_type = draw(st.sampled_from(["article", "InProceedings", "misc"]))
    return f"@{entry_type}{opener}{body}{draw(_WS)}{closer}"


_BIBTEX = st.lists(_entry(), max_size=6).flatmap(
    lambda entries: st.lists(
        st.sampled_from(["\n", "\n\n", " ", "\t"]),
        min_size=len(entries),
        max_size=len(entries),
    ).map(lambda gaps: "".join(g + e for g, e in zip(gaps, entries)))
)


def _scan(iterate, text):
    """Entries and ``(locator, message, snippet)`` faults of a tolerant
    scan, and the entries or the raised fault of a strict one."""
    faults = []
    tolerant = list(iterate(text, {}, lambda *fault: faults.append(
        (fault[0], str(fault[1]), fault[2]))))
    try:
        strict = list(iterate(text, {}))
    except WrapperError as error:
        strict = (error.locator, str(error))
    return tolerant, faults, strict


def _wraps(wrapper_class, text, ordered):
    """The ``ddl.dumps`` of a strict wrap (or its fault) and of a
    tolerant wrap with its quarantine."""
    try:
        strict = ddl.dumps(wrapper_class(text, ordered_authors=ordered).wrap())
    except WrapperError as error:
        strict = (error.locator, str(error))
    wrapper = wrapper_class(text, ordered_authors=ordered)
    tolerant = ddl.dumps(wrapper.wrap(WrapPolicy.tolerant()))
    report = wrapper.last_quarantine
    quarantined = [(r.locator, r.error, r.snippet) for r in report.records]
    return strict, tolerant, quarantined, report.admitted


@settings(max_examples=300, deadline=None)
@given(text=_BIBTEX, ordered=st.booleans())
def test_bibtex_matches_the_reference_parser_and_loader(text, ordered):
    assert _scan(bibtex.iter_bibtex, text) == _scan(reference_iter_bibtex, text)
    assert _wraps(BibtexWrapper, text, ordered) == _wraps(
        ReferenceBibtexWrapper, text, ordered
    )


def test_generated_corpus_matches_the_reference():
    text = generate_entries(300, seed=5)
    assert list(bibtex.iter_bibtex(text)) == list(reference_iter_bibtex(text))
    assert _wraps(BibtexWrapper, text, False) == _wraps(ReferenceBibtexWrapper, text, False)


def test_wrapper_keeps_no_atom_memo():
    wrapper = BibtexWrapper(generate_entries(20, seed=1))
    before = set(vars(wrapper))
    wrapper.wrap()
    assert set(vars(wrapper)) == before


class TestRelationalWrapper:
    def _tables(self):
        people = Table(
            "people",
            ["login", "name", "dept", "age"],
            [
                ["mff", "Mary", "d1", "35"],
                ["suciu", "Dan", "d1", ""],
                ["alon", "Alon", "d2", "33"],
            ],
        )
        depts = Table("depts", ["id", "title"], [["d1", "DB"], ["d2", "Web"]])
        return people, depts

    def test_rows_become_objects(self):
        people, _ = self._tables()
        graph = RelationalWrapper([people]).wrap()
        assert graph.collection_cardinality("people") == 3

    def test_key_column_names_oids(self):
        people, _ = self._tables()
        graph = RelationalWrapper([people], key_columns={"people": "login"}).wrap()
        assert graph.has_node(Oid("people:mff"))

    def test_empty_cell_is_missing_attribute(self):
        people, _ = self._tables()
        graph = RelationalWrapper([people], key_columns={"people": "login"}).wrap()
        assert graph.attribute(Oid("people:suciu"), "age") is None

    def test_type_inference(self):
        people, _ = self._tables()
        graph = RelationalWrapper([people], key_columns={"people": "login"}).wrap()
        assert graph.attribute(Oid("people:mff"), "age").type is AtomType.INTEGER

    def test_pinned_column_type(self):
        people, _ = self._tables()
        graph = RelationalWrapper(
            [people],
            key_columns={"people": "login"},
            column_types={"people.age": "string"},
        ).wrap()
        assert graph.attribute(Oid("people:mff"), "age").type is AtomType.STRING

    def test_foreign_keys(self):
        people, depts = self._tables()
        graph = RelationalWrapper(
            [people, depts],
            key_columns={"people": "login", "depts": "id"},
            foreign_keys={
                "people": [ForeignKey("dept", "depts", "id", "department")]
            },
        ).wrap()
        assert graph.attribute(Oid("people:mff"), "department") == Oid("depts:d1")
        assert graph.attribute(Oid("people:mff"), "dept") is None  # replaced

    def test_dangling_foreign_key_raises(self):
        people, _ = self._tables()
        with pytest.raises(WrapperError):
            RelationalWrapper(
                [people],
                key_columns={"people": "login"},
                foreign_keys={"people": [ForeignKey("dept", "depts", "id")]},
            ).wrap()

    def test_ragged_row_rejected(self):
        table = Table("t", ["a", "b"], [["only-one"]])
        with pytest.raises(WrapperError) as caught:
            RelationalWrapper([table]).wrap()
        assert caught.value.locator == "t row 1"

    def test_csv_parsing(self):
        table = Table.from_csv("t", "a,b\n1,x\n2,y\n")
        assert table.columns == ["a", "b"]
        assert len(table.rows) == 2

    def test_empty_csv_rejected(self):
        with pytest.raises(WrapperError):
            Table.from_csv("t", "")

    def test_infer_atom_kinds(self):
        assert infer_atom("12").type is AtomType.INTEGER
        assert infer_atom("1.5").type is AtomType.FLOAT
        assert infer_atom("true").type is AtomType.BOOLEAN
        assert infer_atom("http://x").type is AtomType.URL
        assert infer_atom("plain").type is AtomType.STRING


STRUCTURED = """
%collection Projects
%type budget integer
%id name

name: strudel
title: The Strudel Project
member: mff
member: suciu
budget: 100

# a comment
name: tsimmis
title: TSIMMIS
synopsis: Mediation with
  a continued line.
"""


class TestStructuredWrapper:
    def test_records_become_objects(self):
        graph = StructuredFileWrapper(STRUCTURED).wrap()
        assert graph.collection_cardinality("Projects") == 2

    def test_id_directive(self):
        graph = StructuredFileWrapper(STRUCTURED).wrap()
        assert graph.has_node(Oid("Projects:strudel"))

    def test_multivalued_keys(self):
        graph = StructuredFileWrapper(STRUCTURED).wrap()
        members = graph.targets(Oid("Projects:strudel"), "member")
        assert [str(m) for m in members] == ["mff", "suciu"]

    def test_type_directive(self):
        graph = StructuredFileWrapper(STRUCTURED).wrap()
        assert graph.attribute(Oid("Projects:strudel"), "budget").value == 100

    def test_continuation_lines(self):
        graph = StructuredFileWrapper(STRUCTURED).wrap()
        synopsis = graph.attribute(Oid("Projects:tsimmis"), "synopsis")
        assert str(synopsis) == "Mediation with a continued line."

    def test_missing_key_is_missing_attribute(self):
        graph = StructuredFileWrapper(STRUCTURED).wrap()
        assert graph.attribute(Oid("Projects:tsimmis"), "budget") is None

    def test_bad_directive(self):
        with pytest.raises(WrapperError):
            StructuredFileWrapper("%bogus\nname: x").wrap()

    def test_missing_colon(self):
        with pytest.raises(WrapperError):
            StructuredFileWrapper("just some words").wrap()

    def test_orphan_continuation(self):
        with pytest.raises(WrapperError):
            StructuredFileWrapper("  indented first line").wrap()


HTML_PAGES = {
    "index.html": """<html><head><title>Home</title>
<meta name="category" content="root"></head>
<body><h1>Welcome</h1><p>Intro text.</p>
<a href="sub/page.html">subpage</a>
<a href="http://elsewhere.org">external</a>
<img src="logo.gif"></body></html>""",
    "sub/page.html": """<html><head><title>Sub</title></head>
<body><h2>Section</h2><p>Body.</p>
<a href="../index.html">home</a></body></html>""",
}


class TestHtmlWrapper:
    def test_pages_become_objects(self):
        graph = HtmlSiteWrapper(HTML_PAGES).wrap()
        assert graph.collection_cardinality("Pages") == 2

    def test_title_and_headings(self):
        graph = HtmlSiteWrapper(HTML_PAGES).wrap()
        index = Oid("page:index.html")
        assert str(graph.attribute(index, "title")) == "Home"
        assert str(graph.attribute(index, "heading")) == "Welcome"

    def test_internal_links_become_edges(self):
        graph = HtmlSiteWrapper(HTML_PAGES).wrap()
        index = Oid("page:index.html")
        sub = Oid("page:sub/page.html")
        assert graph.attribute(index, "linksTo") == sub
        assert graph.attribute(sub, "linksTo") == index  # relative ../ resolved

    def test_external_links_become_urls(self):
        graph = HtmlSiteWrapper(HTML_PAGES).wrap()
        href = graph.attribute(Oid("page:index.html"), "href")
        assert href.type is AtomType.URL

    def test_images(self):
        graph = HtmlSiteWrapper(HTML_PAGES).wrap()
        image = graph.attribute(Oid("page:index.html"), "image")
        assert image.type is AtomType.IMAGE_FILE

    def test_meta_tags(self):
        graph = HtmlSiteWrapper(HTML_PAGES).wrap()
        meta = graph.attribute(Oid("page:index.html"), "meta-category")
        assert str(meta) == "root"

    def test_paragraph_text(self):
        graph = HtmlSiteWrapper(HTML_PAGES).wrap()
        text = graph.attribute(Oid("page:index.html"), "text")
        assert text.type is AtomType.TEXT_FILE


class TestDdlWrapper:
    def test_wrap(self):
        graph = DdlWrapper('object a { name: "x" }').wrap()
        assert graph.has_node(Oid("a"))
