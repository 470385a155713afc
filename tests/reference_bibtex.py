"""Reference semantics for the BibTeX wrapper's field scanning and loading.

:func:`reference_iter_bibtex` and :class:`ReferenceBibtexWrapper` are the
parser and loader ``repro.wrappers.bibtex`` replaced with one compiled
match per field and one atom per distinct value.  They read one value
piece at a time, compile their patterns per call, collapse whitespace
with ``re.sub`` and build a new atom for every edge.  Slow and obviously
right, which is what a test oracle should be:

* a field is ``name = value``; a value is pieces joined by ``#``, each
  a ``{...}`` group (nested braces kept balanced, then stripped), a
  ``"..."`` string (braces inside may hide a quote), a run of digits,
  or a macro name (an unknown name stands for itself);
* after a value, a comma goes on to the next field and anything else
  ends the entry's fields;
* each field's value is typed by its lower-cased label, with every run
  of whitespace collapsed to one space and the ends stripped;
  ``author`` and ``editor`` split on `` and `` and keep each name's
  inner whitespace.

Entry scanning (``@type{...}``, delimiter balancing, error locators) is
shared with the wrapper; the per-character oracle of delimiter balancing
is in ``test_wrappers.py``.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import StrudelError, WrapperError
from repro.graph import Atom, AtomType, Graph, Oid, integer, string
from repro.graph import postscript_file, text_file, url
from repro.wrappers.bibtex import (
    _ENTRY_START,
    _FIELD_TYPES,
    _IDENT,
    _INTEGER_FIELDS,
    _MULTI_FIELDS,
    BibtexWrapper,
    _guess_key,
    _line_of,
    _read_balanced,
    _strip_braces,
)

Entry = Tuple[str, str, List[Tuple[str, str]]]


def reference_iter_bibtex(
    text: str,
    macros: Optional[Dict[str, str]] = None,
    on_error: Optional[Callable[[str, WrapperError, str], None]] = None,
) -> Iterator[Entry]:
    """``repro.wrappers.bibtex.iter_bibtex`` with the piece-at-a-time
    field parser."""
    if macros is None:
        macros = {}
    for month in "jan feb mar apr may jun jul aug sep oct nov dec".split():
        macros.setdefault(month, month.capitalize())
    position = 0
    while True:
        match = _ENTRY_START.search(text, position)
        if match is None:
            break
        entry_type = match.group(1).lower()
        try:
            body, position = _read_balanced(text, match.end() - 1)
            if entry_type in ("comment", "preamble"):
                continue
            if entry_type == "string":
                name, value = _parse_macro(body, macros)
                macros[name] = value
                continue
            key, fields = _parse_entry_body(body, macros)
        except WrapperError as error:
            key = _guess_key(text, match.end() - 1)
            named = f"entry {key} " if key else "entry "
            locator = f"{named}(line {_line_of(text, match.start())})"
            if on_error is None:
                raise WrapperError(
                    error.base_message, locator=locator, cause=error
                ) from error
            next_at = text.find("@", match.end())
            end = next_at if next_at >= 0 else len(text)
            on_error(locator, error, text[match.start() : end].strip())
            position = end
            continue
        yield entry_type, key, fields


def _parse_macro(body: str, macros: Dict[str, str]) -> Tuple[str, str]:
    match = re.match(r"\s*([A-Za-z_][A-Za-z0-9_\-]*)\s*=\s*", body)
    if match is None:
        raise WrapperError(f"bad @string body: {body[:40]!r}")
    value, _ = _parse_value(body, match.end(), macros)
    return match.group(1).lower(), value


def _parse_entry_body(
    body: str, macros: Dict[str, str]
) -> Tuple[str, List[Tuple[str, str]]]:
    comma = body.find(",")
    if comma < 0:
        return body.strip(), []
    key = body[:comma].strip()
    fields: List[Tuple[str, str]] = []
    position = comma + 1
    while position < len(body):
        match = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_\-]*)\s*=\s*").match(body, position)
        if match is None:
            remaining = body[position:].strip()
            if remaining and remaining != ",":
                raise WrapperError(f"bad BibTeX field near {remaining[:40]!r}")
            break
        name = match.group(1).lower()
        value, position = _parse_value(body, match.end(), macros)
        fields.append((name, value))
        comma_match = re.compile(r"\s*,").match(body, position)
        if comma_match is None:
            break
        position = comma_match.end()
    return key, fields


def _parse_value(body: str, position: int, macros: Dict[str, str]) -> Tuple[str, int]:
    """Parse a field value: concatenation of pieces joined by ``#``."""
    pieces: List[str] = []
    while True:
        while position < len(body) and body[position].isspace():
            position += 1
        if position >= len(body):
            break
        char = body[position]
        if char == "{":
            piece, position = _read_balanced(body, position)
            pieces.append(_strip_braces(piece))
        elif char == '"':
            end = position + 1
            depth = 0
            while end < len(body):
                if body[end] == "{":
                    depth += 1
                elif body[end] == "}":
                    depth -= 1
                elif body[end] == '"' and depth == 0:
                    break
                end += 1
            if end >= len(body):
                raise WrapperError("unterminated quoted BibTeX value")
            pieces.append(_strip_braces(body[position + 1 : end]))
            position = end + 1
        elif re.match(r"\d", char):
            # not str.isdigit(): that also holds for superscripts, which
            # no digit run matches; they fall to the macro-name test
            match = re.compile(r"\d+").match(body, position)
            assert match is not None
            pieces.append(match.group(0))
            position = match.end()
        else:
            match = _IDENT.match(body, position)
            if match is None:
                raise WrapperError(f"bad BibTeX value near {body[position:][:40]!r}")
            name = match.group(0).lower()
            pieces.append(macros.get(name, name))
            position = match.end()
        hash_match = re.compile(r"\s*#").match(body, position)
        if hash_match is None:
            break
        position = hash_match.end()
    return "".join(pieces), position


class ReferenceBibtexWrapper(BibtexWrapper):
    """A :class:`BibtexWrapper` that parses with
    :func:`reference_iter_bibtex` and builds a fresh atom for every
    edge, through the same record path (``Wrapper._fault``)."""

    def _wrap_into(self, graph: Graph) -> None:
        graph.create_collection(self.collection)
        report = self.last_quarantine
        entries = list(reference_iter_bibtex(self.text, {}, self._fault))
        for entry_type, key, fields in entries:
            try:
                self._add_reference_entry(graph, entry_type, key, fields)
            except (StrudelError, ValueError) as error:
                self._fault(f"entry {key or '?'}", error)
                continue
            report.admitted += 1

    def _add_reference_entry(
        self, graph: Graph, entry_type: str, key: str, fields: List[Tuple[str, str]]
    ) -> None:
        oid = graph.add_node(Oid(key) if key else None, hint="bib")
        graph.add_edge(oid, "type", string(entry_type))
        if key:
            graph.add_edge(oid, "key", string(key))
        for name, raw in fields:
            label = name.lower()
            if label in _MULTI_FIELDS:
                self._add_reference_people(graph, oid, label, raw)
                continue
            graph.add_edge(oid, label, _typed_value(label, raw))
        graph.add_to_collection(self.collection, oid)

    def _add_reference_people(self, graph: Graph, oid: Oid, label: str, raw: str) -> None:
        people = [p.strip() for p in re.split(r"\s+and\s+", raw) if p.strip()]
        for order, person in enumerate(people, start=1):
            if self.ordered_authors:
                person_oid = graph.add_node(hint=label)
                graph.add_edge(person_oid, "name", string(person))
                graph.add_edge(person_oid, "order", integer(order))
                graph.add_edge(oid, label, person_oid)
            else:
                graph.add_edge(oid, label, string(person))


def _typed_value(label: str, raw: str) -> Atom:
    cleaned = re.sub(r"\s+", " ", raw).strip()
    if label in _INTEGER_FIELDS and cleaned.isdigit():
        return integer(int(cleaned))
    flavour = _FIELD_TYPES.get(label)
    if flavour is AtomType.TEXT_FILE:
        return text_file(cleaned)
    if flavour is AtomType.POSTSCRIPT_FILE:
        return postscript_file(cleaned)
    if flavour is AtomType.URL:
        return url(cleaned)
    return string(cleaned)
