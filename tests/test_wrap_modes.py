"""Strict and tolerant wraps walk the same record loop.

Every wrapper has one ``_wrap_into``; the only difference between the
modes is what ``Wrapper._fault`` does with a bad record -- raise or
quarantine.  So both modes must agree on clean input, name a bad
record by the same locator, and (for sources with record structure)
the tolerant graph must be the strict wrap of the source with the bad
record deleted -- also when any number of its records are bad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WrapperError
from repro.repository import ddl
from repro.resilience import WrapPolicy
from repro.wrappers import (
    BibtexWrapper,
    DdlWrapper,
    ForeignKey,
    HtmlSiteWrapper,
    RelationalWrapper,
    StructuredFileWrapper,
    Table,
    Wrapper,
    XmlWrapper,
)

SOURCE = "src"
#: well-formed records per kind
RECORDS = 8


@dataclass
class Kind:
    #: builds the wrapper for a list of record texts
    make: Callable[[List[str]], Wrapper]
    #: well-formed records
    records: List[str]
    #: one malformed record, as many lines long as a well-formed one,
    #: or None when the kind has no record faults
    bad: Optional[str]
    #: False when the whole source is one record (DDL)
    granular: bool = True
    #: a record that leaves the whole source unparsable, or None
    breaks_source: Optional[str] = None
    #: rows admitted beside the records (a table the records reference)
    referenced: int = 0


def _csv(records: List[str]) -> Wrapper:
    text = "\n".join(["id,title,year"] + records) + "\n"
    return RelationalWrapper([Table.from_csv("t", text)], source_name=SOURCE)


def _foreign_keys(records: List[str]) -> Wrapper:
    people = Table.from_csv("People", "id,name\na,Ann\nb,Bob\n")
    papers = Table.from_csv("Papers", "\n".join(["id,title,author"] + records) + "\n")
    return RelationalWrapper(
        [people, papers],
        key_columns={"People": "id", "Papers": "id"},
        foreign_keys={"Papers": [ForeignKey("author", "People", "id")]},
        source_name=SOURCE,
    )


DDL_BAD = 'object bad {\n  year 1999\n}'

KINDS = {
    "bibtex": Kind(
        make=lambda records: BibtexWrapper("".join(records), source_name=SOURCE),
        records=[
            f"@article{{p{i}, title = {{Title {i}}}, year = {1990 + i}}}\n"
            for i in range(RECORDS)
        ],
        bad="@article{bad, title = {never closed, year = 1999}\n",
    ),
    "csv": Kind(
        make=_csv,
        records=[f"p{i},Title {i},{1990 + i}" for i in range(RECORDS)],
        bad="ragged,row",
    ),
    "foreign-key": Kind(
        make=_foreign_keys,
        records=[f"p{i},Title {i},{'ab'[i % 2]}" for i in range(RECORDS)],
        # shares its key with records[0]: dropping it must keep that node
        bad="p0,Dangling,zz",
        referenced=2,
    ),
    "structured": Kind(
        make=lambda records: StructuredFileWrapper(
            "\n".join(records), source_name=SOURCE
        ),
        records=[
            f"name: p{i}\ntitle: Title {i}\nyear: {1990 + i}\n"
            for i in range(RECORDS)
        ],
        # the bad line is neither the record's first line nor its last
        bad="name: broken\nthis line has no separator\nyear: 1999\n",
    ),
    "xml": Kind(
        make=lambda records: XmlWrapper(
            "<pubs>\n" + "\n".join(records) + "\n</pubs>", source_name=SOURCE
        ),
        records=[
            f'<pub id="p{i}"><year>{1990 + i}</year></pub>' for i in range(RECORDS)
        ],
        bad="<pub><year>1999</pub>",
        # closes the root early: what follows is junk after the document
        breaks_source="</pubs>",
    ),
    "ddl": Kind(
        make=lambda records: DdlWrapper("\n".join(records), source_name=SOURCE),
        records=[f'object p{i} {{\n  year: {1990 + i}\n}}' for i in range(RECORDS)],
        bad=DDL_BAD,
        granular=False,
        breaks_source=DDL_BAD,
    ),
    "html": Kind(
        make=lambda records: HtmlSiteWrapper(
            {f"p{i}.html": text for i, text in enumerate(records)},
            source_name=SOURCE,
        ),
        records=[
            f"<html><title>Page {i}</title><h1>H{i}</h1>"
            f'<a href="p{i + 1}.html">next</a></html>'
            for i in range(RECORDS)
        ],
        # HTML has no record faults: any text scans as a page
        bad=None,
    ),
}

DIRTY = [name for name, kind in KINDS.items() if kind.bad is not None]
GRANULAR = [name for name in DIRTY if KINDS[name].granular]


def _with_bad(kind: Kind, record: Optional[str] = None) -> List[str]:
    record = kind.bad if record is None else record
    return kind.records[:1] + [record] + kind.records[1:]


@pytest.mark.parametrize("name", list(KINDS))
def test_clean_input_wraps_alike(name):
    kind = KINDS[name]
    strict = kind.make(kind.records)
    tolerant = kind.make(kind.records)
    expected = ddl.dumps(strict.wrap())
    assert ddl.dumps(tolerant.wrap(WrapPolicy.tolerant())) == expected
    records = len(kind.records) + kind.referenced if kind.granular else 1
    for wrapper in (strict, tolerant):
        assert wrapper.last_quarantine.admitted == records
        assert wrapper.last_quarantine.ok


@pytest.mark.parametrize("name", DIRTY)
def test_bad_record_has_one_locator(name):
    kind = KINDS[name]
    records = _with_bad(kind)
    with pytest.raises(WrapperError) as caught:
        kind.make(records).wrap()
    tolerant = kind.make(records)
    tolerant.wrap(WrapPolicy.tolerant())
    quarantined = [record.locator for record in tolerant.last_quarantine.records]
    assert quarantined == [caught.value.locator]
    assert caught.value.locator
    assert caught.value.source_name == SOURCE


@pytest.mark.parametrize("name", GRANULAR)
def test_tolerant_graph_is_strict_graph_without_the_record(name):
    kind = KINDS[name]
    tolerant = kind.make(_with_bad(kind))
    graph = tolerant.wrap(WrapPolicy.tolerant())
    assert ddl.dumps(graph) == ddl.dumps(kind.make(kind.records).wrap())
    assert tolerant.last_quarantine.admitted == len(kind.records) + kind.referenced


@pytest.mark.parametrize("name", GRANULAR)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_many_bad_records_are_each_quarantined_once(name, data):
    """N records with any subset of them bad: each bad one is
    quarantined once, under the locator a strict wrap gives it, and the
    tolerant graph is the strict graph of the good ones."""
    kind = KINDS[name]
    assert kind.bad.count("\n") == kind.records[0].count("\n")
    count = data.draw(st.integers(1, RECORDS), label="records")
    bad = data.draw(st.sets(st.integers(0, count - 1)), label="bad")

    def source(bad_ones):
        return [kind.bad if i in bad_ones else kind.records[i] for i in range(count)]

    tolerant = kind.make(source(bad))
    graph = tolerant.wrap(WrapPolicy.tolerant())
    report = tolerant.last_quarantine
    assert report.admitted + report.count == count + kind.referenced
    expected = []
    for index in sorted(bad):
        with pytest.raises(WrapperError) as caught:
            kind.make(source({index})).wrap()
        expected.append(caught.value.locator)
    assert [record.locator for record in report.records] == expected
    good = [kind.records[i] for i in range(count) if i not in bad]
    assert ddl.dumps(graph) == ddl.dumps(kind.make(good).wrap())


@pytest.mark.parametrize("name", ["xml", "ddl"])
def test_unparsable_document_wraps_nothing(name):
    kind = KINDS[name]
    wrapper = kind.make(_with_bad(kind, kind.breaks_source))
    graph = wrapper.wrap(WrapPolicy.tolerant())
    assert graph.node_count == 0
    assert wrapper.last_quarantine.admitted == 0
    assert wrapper.last_quarantine.records[0].locator.startswith("line ")


def test_structured_bad_line_is_located_by_its_own_line():
    kind = KINDS["structured"]
    with pytest.raises(WrapperError) as caught:
        kind.make(_with_bad(kind)).wrap()
    # records[0] is lines 1-4 (with the separating blank line); the bad
    # record starts at line 5, its bad line is line 6
    assert caught.value.locator == "line 6"


def test_entry_that_parses_but_will_not_load_raises_wrapper_error(monkeypatch):
    """A BibTeX entry whose translation fails raises a located
    ``WrapperError`` under a strict wrap, not the bare error."""
    from repro.wrappers import bibtex

    def refuse(label, raw):
        if raw == "poison":
            raise ValueError("cannot type this value")
        return original(label, raw)

    original = bibtex._typed_value
    monkeypatch.setattr(bibtex, "_typed_value", refuse)
    text = "@misc{ok, note = {fine}}\n@misc{p9, note = {poison}}\n"
    with pytest.raises(WrapperError) as caught:
        BibtexWrapper(text, source_name=SOURCE).wrap()
    assert caught.value.locator == "entry p9"
    assert isinstance(caught.value.cause, ValueError)
    wrapper = BibtexWrapper(text, source_name=SOURCE)
    wrapper.wrap(WrapPolicy.tolerant())
    assert [r.locator for r in wrapper.last_quarantine.records] == ["entry p9"]
    assert wrapper.last_quarantine.admitted == 1


@pytest.mark.parametrize(
    "name, error",
    [
        ("xml", "WrapperError: malformed XML: "),
        ("ddl", "DDLSyntaxError: "),
    ],
)
def test_whole_source_quarantine_record_names_the_parse_error(name, error):
    kind = KINDS[name]
    wrapper = kind.make(_with_bad(kind, kind.breaks_source))
    wrapper.wrap(WrapPolicy.tolerant())
    (record,) = wrapper.last_quarantine.records
    assert record.error.startswith(error)
