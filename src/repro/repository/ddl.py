"""Strudel's data-definition language (DDL).

"Data is exchanged between the data repository and external sources in a
common data definition language, in the style of OEM's" (paper section
2.1).  This module implements a line-oriented, human-readable DDL with a
loader and a dumper that round-trip exactly.

Grammar (``#`` starts a comment, blank lines are ignored)::

    graph      ::= statement*
    statement  ::= "collection" name [ "{" default* "}" ]
                 | "object" name "{" attribute* "}"
                 | "member" name ":" name ("," name)*
    default    ::= label ":" typename          # per-collection value typing
    attribute  ::= label ":" value
    value      ::= string                      # typed by defaults, else STRING
                 | typename string             # explicit atomic type
                 | integer | float | "true" | "false"
                 | "ref" name                  # edge to another node

Names and labels are bare identifiers (``[A-Za-z_][A-Za-z0-9_.-]*``) or
double-quoted strings with backslash escapes -- quoting lets Skolem-term
oids like ``YearPage(1998)`` round-trip.  Collection *default* directives
reproduce the paper's "collection directive specifies the default types of
attribute values that would otherwise be interpreted as strings"; they are
hints, not constraints, and an explicit typename on a value overrides
them.
"""

from __future__ import annotations

import hashlib
import io
import re
from typing import Dict, Iterator, List, Optional, TextIO, Tuple, Union

from ..errors import DDLSyntaxError
from ..graph import Atom, AtomType, Graph, Oid, parse_typed_value

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")
_NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?")
_TYPE_NAMES = frozenset(t.value for t in AtomType)

Token = Tuple[str, str, int]  # (kind, text, line)


def _tokenize(text: str) -> Iterator[Token]:
    """Yield (kind, text, line) tokens; kinds: ident, string, number, punct."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        position = 0
        length = len(line)
        while position < length:
            char = line[position]
            if char in " \t":
                position += 1
                continue
            if char == "#":
                break
            if char == '"':
                value, position = _read_string(line, position, line_no)
                yield "string", value, line_no
                continue
            match = _NUMBER.match(line, position)
            if match and (char.isdigit() or char == "-"):
                yield "number", match.group(0), line_no
                position = match.end()
                continue
            match = _IDENT.match(line, position)
            if match:
                yield "ident", match.group(0), line_no
                position = match.end()
                continue
            if char in "{}:,":
                yield "punct", char, line_no
                position += 1
                continue
            raise DDLSyntaxError(f"unexpected character {char!r}", line_no)


def _read_string(line: str, position: int, line_no: int) -> Tuple[str, int]:
    """Read a double-quoted string starting at ``position``; returns (value, end)."""
    out: List[str] = []
    index = position + 1
    while index < len(line):
        char = line[index]
        if char == "\\":
            if index + 1 >= len(line):
                raise DDLSyntaxError("dangling backslash in string", line_no)
            escape = line[index + 1]
            out.append({"n": "\n", "t": "\t"}.get(escape, escape))
            index += 2
            continue
        if char == '"':
            return "".join(out), index + 1
        out.append(char)
        index += 1
    raise DDLSyntaxError("unterminated string", line_no)


class _TokenStream:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self) -> Union[Token, None]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise DDLSyntaxError("unexpected end of input")
        self._index += 1
        return token

    def expect(self, kind: str, text: str = "") -> Token:
        token = self.next()
        if token[0] != kind or (text and token[1] != text):
            want = text or kind
            raise DDLSyntaxError(f"expected {want!r}, got {token[1]!r}", token[2])
        return token

    def match(self, kind: str, text: str = "") -> bool:
        token = self.peek()
        if token is None or token[0] != kind or (text and token[1] != text):
            return False
        self._index += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.peek() is None


def loads(text: str, name: str = "") -> Graph:
    """Parse DDL text into a fresh :class:`~repro.graph.Graph`.

    Forward references are allowed: ``ref`` targets and ``member`` lists
    may mention objects defined later in the file.  Every object is
    registered, in statement order, before any statement is read, so
    each edge and membership is added where it is written.
    """
    tokens = list(_tokenize(text))
    stream = _TokenStream(tokens)
    graph = Graph(name)
    for object_name in _object_names(tokens):
        graph.add_node(Oid(object_name))
    defaults: Dict[str, Dict[str, str]] = {}

    while not stream.exhausted:
        kind, word, line = stream.next()
        if kind != "ident" or word not in ("collection", "object", "member"):
            raise DDLSyntaxError(f"expected a statement keyword, got {word!r}", line)
        if word == "collection":
            _parse_collection(stream, graph, defaults)
        elif word == "object":
            _parse_object(stream, graph, defaults)
        else:
            _parse_member(stream, graph)
    return graph


def _object_names(tokens: List[Token]) -> Iterator[str]:
    """The names of the ``object`` statements, in order.  In DDL that
    parses, only an object statement puts a name and ``{`` after the
    word ``object``."""
    for keyword, name, brace in zip(tokens, tokens[1:], tokens[2:]):
        if (
            keyword[:2] == ("ident", "object")
            and name[0] in ("ident", "string")
            and brace[:2] == ("punct", "{")
        ):
            yield name[1]


def _existing(graph: Graph, name: str, line: int, what: str) -> Oid:
    oid = Oid(name)
    if not graph.has_node(oid):
        raise DDLSyntaxError(f"{what} {name!r}", line)
    return oid


def _parse_name(stream: _TokenStream) -> Tuple[str, int]:
    token = stream.next()
    if token[0] not in ("ident", "string"):
        raise DDLSyntaxError(f"expected a name, got {token[1]!r}", token[2])
    return token[1], token[2]


def _parse_collection(
    stream: _TokenStream, graph: Graph, defaults: Dict[str, Dict[str, str]]
) -> None:
    name, _ = _parse_name(stream)
    graph.create_collection(name)
    collection_defaults = defaults.setdefault(name, {})
    if not stream.match("punct", "{"):
        return
    while not stream.match("punct", "}"):
        label, _ = _parse_name(stream)
        stream.expect("punct", ":")
        type_token = stream.next()
        if type_token[0] != "ident" or type_token[1] not in _TYPE_NAMES:
            raise DDLSyntaxError(
                f"unknown type name {type_token[1]!r} in collection defaults",
                type_token[2],
            )
        collection_defaults[label] = type_token[1]


def _parse_object(
    stream: _TokenStream, graph: Graph, defaults: Dict[str, Dict[str, str]]
) -> None:
    name, _ = _parse_name(stream)
    oid = Oid(name)
    stream.expect("punct", "{")
    while not stream.match("punct", "}"):
        label, _ = _parse_name(stream)
        stream.expect("punct", ":")
        token = stream.next()
        if token[0] == "ident" and token[1] == "ref":
            target_name, target_line = _parse_name(stream)
            target = _existing(graph, target_name, target_line, "ref to undefined object")
        else:
            target = _parse_value(stream, token, graph, defaults, oid, label)
        graph.add_edge(oid, label, target)


def _parse_value(
    stream: _TokenStream,
    token: Token,
    graph: Graph,
    defaults: Dict[str, Dict[str, str]],
    oid: Oid,
    label: str,
) -> Atom:
    kind, text, line = token
    if kind == "number":
        if "." in text or "e" in text or "E" in text:
            return Atom(AtomType.FLOAT, float(text))
        return Atom(AtomType.INTEGER, int(text))
    if kind == "ident" and text in ("true", "false"):
        return Atom(AtomType.BOOLEAN, text == "true")
    if kind == "ident" and text in _TYPE_NAMES:
        payload = stream.next()
        if payload[0] != "string":
            raise DDLSyntaxError(
                f"expected a quoted payload after type {text!r}", payload[2]
            )
        return parse_typed_value(text, payload[1])
    if kind == "string":
        default_type = _default_type_for(graph, defaults, oid, label)
        if default_type:
            return parse_typed_value(default_type, text)
        return Atom(AtomType.STRING, text)
    raise DDLSyntaxError(f"expected a value, got {text!r}", line)


def _default_type_for(
    graph: Graph, defaults: Dict[str, Dict[str, str]], oid: Oid, label: str
) -> str:
    """Find a collection default type for (object, label), if any.

    Because ``member`` statements may come later in the file, we also fall
    back to *any* collection declaring a default for this label when the
    object's memberships are not yet known.  This keeps the loader
    single-pass while matching the paper's "directives are not
    constraints" spirit.
    """
    for coll in graph.collections_of(oid):
        declared = defaults.get(coll, {}).get(label)
        if declared:
            return declared
    for collection_defaults in defaults.values():
        declared = collection_defaults.get(label)
        if declared:
            return declared
    return ""


def _parse_member(stream: _TokenStream, graph: Graph) -> None:
    coll, _ = _parse_name(stream)
    stream.expect("punct", ":")
    while True:
        member_name, line = _parse_name(stream)
        member = _existing(graph, member_name, line, "member refers to undefined object")
        graph.add_to_collection(coll, member)
        if not stream.match("punct", ","):
            break


def load(stream: TextIO, name: str = "") -> Graph:
    """Parse DDL from an open text stream."""
    return loads(stream.read(), name)


def _quote(name: str) -> str:
    """Quote a name when it is not a bare identifier."""
    if _IDENT.fullmatch(name):
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _render_atom(atom: Atom) -> str:
    if atom.type is AtomType.INTEGER:
        return str(atom.value)
    if atom.type is AtomType.FLOAT:
        return repr(float(atom.value))
    if atom.type is AtomType.BOOLEAN:
        return "true" if atom.value else "false"
    payload = str(atom.value).replace("\\", "\\\\").replace('"', '\\"')
    payload = payload.replace("\n", "\\n").replace("\t", "\\t")
    if atom.type is AtomType.STRING:
        return f'"{payload}"'
    return f'{atom.type.value} "{payload}"'


def dumps(graph: Graph) -> str:
    """Serialize a graph to DDL text.

    The dump is deterministic given the graph's insertion order and
    ``loads(dumps(g))`` reproduces ``g`` exactly (nodes, edges,
    collections), except for Skolem memoization, which is not part of the
    exchanged data.
    """
    out = io.StringIO()
    for coll in graph.collection_names():
        out.write(f"collection {_quote(coll)}\n")
    if graph.collection_names():
        out.write("\n")
    for oid in graph.nodes():
        out.write(f"object {_quote(oid.name)} {{\n")
        for label, target in graph.out_edges(oid):
            if isinstance(target, Oid):
                out.write(f"  {_quote(label)}: ref {_quote(target.name)}\n")
            else:
                out.write(f"  {_quote(label)}: {_render_atom(target)}\n")
        out.write("}\n")
    for coll in graph.collection_names():
        members = graph.collection(coll)
        if members:
            rendered = ", ".join(_quote(m.name) for m in members)
            out.write(f"member {_quote(coll)}: {rendered}\n")
    return out.getvalue()


def dump(graph: Graph, stream: TextIO) -> None:
    """Serialize a graph to an open text stream."""
    stream.write(dumps(graph))


# -------------------------------------------------------------------- #
# integrity checksums
#
# The header is a DDL comment, so dumps carrying one still load in any
# reader of the plain grammar; readers that know the prefix can detect
# truncated or corrupted files before parsing.

CHECKSUM_PREFIX = "# repro-checksum: sha256="


def checksum(text: str) -> str:
    """Hex sha256 of the DDL body."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def with_checksum(text: str) -> str:
    """Prefix DDL text with its integrity header."""
    return f"{CHECKSUM_PREFIX}{checksum(text)}\n{text}"


def split_checksum(text: str) -> Tuple[Optional[str], str]:
    """Split a dump into (declared checksum or ``None``, body)."""
    if text.startswith(CHECKSUM_PREFIX):
        header, _, body = text.partition("\n")
        return header[len(CHECKSUM_PREFIX):].strip(), body
    return None, text
