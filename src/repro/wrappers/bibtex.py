"""BibTeX wrapper: bibliography files -> data graph.

This is the wrapper behind the paper's running example (section 2.3):
"the wrapper converts BibTeX files into a STRUDEL data graph", producing
objects in a ``Publications`` collection whose attribute sets differ per
entry -- exactly the irregularity section 6.3 discusses (``month``
present on one entry and not another, ``journal`` vs. ``booktitle``).

Supported BibTeX subset:

* entries ``@type{key, field = value, ...}`` with ``{...}``, ``"..."``,
  bare-number and macro-reference values; nested braces are balanced;
* ``@string{name = "..."}`` macros, referenced by bare identifiers and
  concatenated with ``#``;
* ``@comment`` and ``@preamble`` entries are skipped;
* the ``author`` and ``editor`` fields are split on `` and `` into
  multiple edges, each carrying an ``authorOrder`` companion object when
  ``ordered_authors`` is set (the integer-key idiom of section 6.3).

Field typing: ``year``, ``volume`` and ``number`` become INTEGER atoms
when they look numeric; ``abstract`` becomes a TEXT_FILE atom;
``postscript``/``ps`` POSTSCRIPT_FILE; ``url`` URL; everything else
STRING.  The entry type is exposed as the ``type`` attribute and the
citation key as ``key``.

The common field -- one brace group, number or macro name, then a comma
-- is read by one compiled match; every other field falls back to the
piece loop.  A wrap types each distinct ``(label, value)`` once.  The
piece-at-a-time parser and loader these replaced are the test oracle
``tests/reference_bibtex.py``.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import StrudelError, WrapperError
from ..graph import (
    Atom,
    AtomType,
    Graph,
    Oid,
    integer,
    postscript_file,
    string,
    text_file,
    url,
)
from .base import Wrapper

#: Default collection for wrapped entries.
PUBLICATIONS = "Publications"

_ENTRY_START = re.compile(r"@\s*([A-Za-z]+)\s*[{(]")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_:\-./+]*")
_NAME_EQUALS = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_\-]*)\s*=\s*")
#: a whole ``name = value`` field whose value is one brace group with
#: no nested braces, a run of digits or a macro name, and which a comma
#: or the end of the body follows; any other field is read piece by
#: piece from the same position (:func:`_parse_value`)
_FIELD = re.compile(
    _NAME_EQUALS.pattern
    + rf"(?:\{{([^{{}}]*)\}}|(\d+)|({_IDENT.pattern}))"
    + r"(?=\s*(?:,|\Z))"
)
_COMMA = re.compile(r"\s*,")
_HASH = re.compile(r"\s*#")
_DIGITS = re.compile(r"\d+")
_AND = re.compile(r"\s+and\s+")
_KEY = re.compile(r"\s*([^,\s{}()\"]+)\s*,")
#: the delimiters a ``{`` group and a ``(`` group count, respectively
_BRACES = re.compile(r"[{}]")
_PARENS = re.compile(r"[()]")

_FIELD_TYPES = {
    "abstract": AtomType.TEXT_FILE,
    "postscript": AtomType.POSTSCRIPT_FILE,
    "ps": AtomType.POSTSCRIPT_FILE,
    "url": AtomType.URL,
}
_INTEGER_FIELDS = frozenset({"year", "volume", "number"})
_MULTI_FIELDS = frozenset({"author", "editor"})


class BibtexWrapper(Wrapper):
    """Wraps BibTeX text.

    Parameters
    ----------
    text:
        The BibTeX source.
    collection:
        Collection name for the entries (default ``Publications``).
    ordered_authors:
        When true, each author edge target becomes a small object with
        ``name`` and ``order`` attributes instead of a bare string --
        the paper's "associating an integer key with each author"
        solution for ordered lists in an unordered model.
    """

    source_kind = "bibtex"

    def __init__(
        self,
        text: str,
        collection: str = PUBLICATIONS,
        ordered_authors: bool = False,
        source_name: str = "",
    ) -> None:
        super().__init__(source_name)
        self.text = text
        self.collection = collection
        self.ordered_authors = ordered_authors

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "BibtexWrapper":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(handle.read(), source_name=path, **kwargs)

    # ------------------------------------------------------------ #

    def _wrap_into(self, graph: Graph) -> None:
        """A malformed entry is a fault at ``entry KEY (line N)`` and the
        parser resumes at the next ``@``; one that parses but will not
        load is a fault at ``entry KEY``, reported after every parse
        fault."""
        graph.create_collection(self.collection)
        report = self.last_quarantine
        # parsing every entry before the first write is about 5% faster
        # than interleaving the two (2000 generated entries)
        entries = list(iter_bibtex(self.text, {}, self._fault))
        # (label, raw value) -> its atom: a repeated booktitle, year or
        # author is typed once, and its edges share one object
        atoms: Dict[Tuple[str, str], Atom] = {}
        for entry_type, key, fields in entries:
            try:
                self._add_entry(graph, entry_type, key, fields, atoms)
            except (StrudelError, ValueError) as error:
                self._fault(f"entry {key or '?'}", error)
                continue
            report.admitted += 1

    def _add_entry(
        self,
        graph: Graph,
        entry_type: str,
        key: str,
        fields: List[Tuple[str, str]],
        atoms: Dict[Tuple[str, str], Atom],
    ) -> None:
        oid = graph.add_node(Oid(key) if key else None, hint="bib")
        graph.add_edge(oid, "type", string(entry_type))
        if key:
            graph.add_edge(oid, "key", string(key))
        add_edge = graph.add_edge
        for label, raw in fields:
            if label in _MULTI_FIELDS:
                self._add_people(graph, oid, label, raw, atoms)
                continue
            atom = atoms.get((label, raw))
            if atom is None:
                atom = atoms[label, raw] = _typed_value(label, raw)
            add_edge(oid, label, atom)
        graph.add_to_collection(self.collection, oid)

    def _add_people(
        self,
        graph: Graph,
        oid: Oid,
        label: str,
        raw: str,
        atoms: Dict[Tuple[str, str], Atom],
    ) -> None:
        # a person's name keeps its inner whitespace: its atom is
        # memoized under the (label, name) of the people field, which no
        # typed value shares
        people = [p.strip() for p in _AND.split(raw) if p.strip()]
        for order, person in enumerate(people, start=1):
            name = atoms.get((label, person))
            if name is None:
                name = atoms[label, person] = string(person)
            if self.ordered_authors:
                person_oid = graph.add_node(hint=label)
                graph.add_edge(person_oid, "name", name)
                graph.add_edge(person_oid, "order", integer(order))
                graph.add_edge(oid, label, person_oid)
            else:
                graph.add_edge(oid, label, name)


def _typed_value(label: str, raw: str) -> Atom:
    # str.split() splits on exactly the characters ``\s`` matches
    cleaned = " ".join(raw.split())
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


# -------------------------------------------------------------------- #
# parser


def parse_bibtex(
    text: str, macros: Optional[Dict[str, str]] = None
) -> List[Tuple[str, str, List[Tuple[str, str]]]]:
    """Parse BibTeX text into ``(entry_type, key, [(field, value), ...])``.

    ``macros`` accumulates ``@string`` definitions; month abbreviations
    (``jan`` .. ``dec``) are predefined.  The first malformed entry
    raises a :class:`~repro.errors.WrapperError` whose locator names the
    entry and its line; :func:`iter_bibtex` with ``on_error`` is the
    tolerant variant.
    """
    return list(iter_bibtex(text, macros))


def _line_of(text: str, position: int) -> int:
    return text.count("\n", 0, position) + 1


def _guess_key(text: str, brace_index: int) -> str:
    """The citation key following the opening brace, best effort."""
    match = _KEY.match(text, brace_index + 1)
    return match.group(1) if match else ""


def iter_bibtex(
    text: str,
    macros: Optional[Dict[str, str]] = None,
    on_error: Optional[Callable[[str, WrapperError, str], None]] = None,
) -> Iterator[Tuple[str, str, List[Tuple[str, str]]]]:
    """Yield parsed entries one at a time.

    Without ``on_error`` the first malformed entry raises (with a
    locator).  With it, the failure is reported as
    ``on_error(locator, error, raw_snippet)`` and scanning resumes at
    the next ``@`` -- the recovery that makes per-record quarantine
    possible for a format with no record separators.
    """
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
            # counted from the start only on failure: per entry it would
            # make wrapping quadratic in the file length
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


def _read_balanced(text: str, open_index: int) -> Tuple[str, int]:
    """Read a ``{...}`` or ``(...)`` group starting at ``open_index``;
    returns (inner text, index just past the closer)."""
    opener = text[open_index]
    delimiters = _BRACES if opener == "{" else _PARENS
    depth = 0
    for match in delimiters.finditer(text, open_index):
        if match.group() == opener:
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return text[open_index + 1 : match.start()], match.end()
    raise WrapperError("unbalanced braces in BibTeX entry")


def _parse_macro(body: str, macros: Dict[str, str]) -> Tuple[str, str]:
    match = _NAME_EQUALS.match(body)
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
    end = len(body)
    while position < end:
        match = _FIELD.match(body, position)
        if match is not None:
            name, braced, digits, macro = match.groups()
            if braced is not None:
                value = braced
            elif digits is not None:
                value = digits
            else:
                macro = macro.lower()
                value = macros.get(macro, macro)
            position = match.end()
        else:
            match = _NAME_EQUALS.match(body, position)
            if match is None:
                remaining = body[position:].strip()
                if remaining and remaining != ",":
                    raise WrapperError(f"bad BibTeX field near {remaining[:40]!r}")
                break
            name = match.group(1)
            value, position = _parse_value(body, match.end(), macros)
        fields.append((name.lower(), value))
        comma_match = _COMMA.match(body, position)
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
        else:
            match = _DIGITS.match(body, position)
            if match is not None:
                pieces.append(match.group(0))
            else:
                match = _IDENT.match(body, position)
                if match is None:
                    raise WrapperError(f"bad BibTeX value near {body[position:][:40]!r}")
                name = match.group(0).lower()
                pieces.append(macros.get(name, name))
            position = match.end()
        hash_match = _HASH.match(body, position)
        if hash_match is None:
            break
        position = hash_match.end()
    return "".join(pieces), position


def _strip_braces(text: str) -> str:
    """Remove protective braces BibTeX uses for capitalization."""
    return text.replace("{", "").replace("}", "")
