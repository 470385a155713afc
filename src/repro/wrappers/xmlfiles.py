"""XML wrapper: element trees -> data graph.

The paper's data model "was introduced to manage semistructured data"
[1, 6] -- the lineage that became XML within a year of publication.
This wrapper closes the loop: XML documents map onto the labeled-graph
model with no impedance at all.

Mapping:

* every element becomes a node;
* an element's XML attributes become STRING-atom edges named after the
  attribute;
* non-blank element text becomes a ``text`` edge (STRING atom);
* a child element becomes an edge labeled with the child's tag, pointing
  at the child's node -- repeated tags give multi-valued attributes, in
  document order;
* elements matching ``collection_tags`` (default: the children of the
  document root) are put in a collection named after their tag, so
  ``<bibliography><pub>...`` yields a ``pub`` collection;
* an element attribute named by ``id_attribute`` (default ``id``) names
  the node's oid (prefixed with the tag), making cross-documents
  references stable.

Leaf elements (no children, no XML attributes) are *flattened*: instead
of a node wrapping one text atom, the parent gets an edge straight to
the atom -- ``<year>1998</year>`` becomes ``year -> 1998`` just like the
BibTeX wrapper produces, with numeric-looking text typed as numbers.

Records: each child of the document root is one record.  A document
that parses is wrapped whole.  One that does not is split at its root's
children, and each is parsed alone inside the document's own prolog and
root start tag (so namespaces and entities still apply): a bad record is
a fault at ``line N`` and the others are wrapped as if it had been
deleted.  The envelope -- the document with its records cut out -- must
parse too; a broken envelope is one fault for the whole source.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ElementTree
from typing import List, Optional, Sequence, Tuple

from ..errors import WrapperError
from ..graph import Atom, AtomType, Graph, Oid
from .base import Wrapper
from .relational import infer_atom

#: the markup the record splitter steps over: comments, CDATA sections,
#: processing instructions and a DOCTYPE may hold text that looks like
#: a tag; the last alternative is a start, end or empty-element tag
_MARKUP = re.compile(
    r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<\?.*?\?>|<!DOCTYPE[^\[>]*(?:\[.*?\]\s*)?>"
    r"|<(/?)([^\s/>!?]+)((?:[^>\"']|\"[^\"]*\"|'[^']*')*)>",
    re.S,
)
#: what stands in for a record while the envelope is parsed
_PLACEHOLDER = "<_/>"


class XmlWrapper(Wrapper):
    """Wraps one XML document."""

    source_kind = "xml"

    def __init__(
        self,
        text: str,
        collection_tags: Optional[Sequence[str]] = None,
        id_attribute: str = "id",
        source_name: str = "",
    ) -> None:
        super().__init__(source_name)
        self.text = text
        self.collection_tags = (
            list(collection_tags) if collection_tags is not None else None
        )
        self.id_attribute = id_attribute

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "XmlWrapper":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(handle.read(), source_name=path, **kwargs)

    # ------------------------------------------------------------ #

    def _wrap_into(self, graph: Graph) -> None:
        """Each child of the root is one record; a bad one is a fault at
        ``line N``, and a broken envelope a fault at ``line N`` (or
        ``source``) that wraps nothing."""
        try:
            root = ElementTree.fromstring(self.text)
        except ElementTree.ParseError as error:
            root = self._records_that_parse(error)
            if root is None:
                return
        collection_tags = self.collection_tags
        if collection_tags is None:
            collection_tags = sorted({child.tag for child in root})
        for tag in collection_tags:
            graph.create_collection(tag)
        self._element_node(graph, root, set(collection_tags))
        self.last_quarantine.admitted += len(root)

    def _records_that_parse(
        self, error: ElementTree.ParseError
    ) -> Optional[ElementTree.Element]:
        """The root of a document that does not parse, holding the
        records that parse alone; every other record is faulted.  None
        when the envelope is broken: then ``error``, the document's own
        parse error, faults the whole source."""
        text = self.text
        root_start_end, close, spans = _split_records(text)
        # the envelope keeps every line where it was
        pieces: List[str] = []
        previous = 0
        for start, end in spans:
            pieces += [text[previous:start], _PLACEHOLDER, "\n" * text.count("\n", start, end)]
            previous = end
        pieces.append(text[previous:])
        try:
            root = ElementTree.fromstring("".join(pieces)) if close else None
        except ElementTree.ParseError:
            root = None
        if root is None or len(root) != len(spans):
            self._fault_at(error, text)
            return None
        prefix = text[:root_start_end]
        faults = len(self.last_quarantine.records)
        records: List[ElementTree.Element] = []
        for start, end in spans:
            try:
                records.append(ElementTree.fromstring(prefix + text[start:end] + close)[0])
            except ElementTree.ParseError as record_error:
                # parse it again where it stands, for the line and column
                blank = re.sub(r"[^\n]", " ", text[root_start_end:start])
                try:
                    ElementTree.fromstring(prefix + blank + text[start:end] + close)
                except ElementTree.ParseError as located:
                    record_error = located
                self._fault_at(record_error, text[start:end])
        if len(self.last_quarantine.records) == faults:
            # every record parses alone, so the document's fault lies
            # between them, where the splitter did not look
            self._fault_at(error, text)
            return None
        root[:] = records
        return root

    def _fault_at(self, error: ElementTree.ParseError, snippet: str) -> None:
        line, _ = getattr(error, "position", (0, 0))
        self._fault(
            f"line {line}" if line else "source",
            WrapperError(f"malformed XML: {error}", cause=error),
            snippet,
        )

    def _element_node(self, graph: Graph, element, collection_tags) -> Oid:
        identifier = element.get(self.id_attribute)
        if identifier:
            oid = graph.add_node(Oid(f"{element.tag}:{identifier}"))
        else:
            oid = graph.add_node(hint=element.tag)
        for name, value in element.attrib.items():
            graph.add_edge(oid, name, infer_atom(value))
        text = (element.text or "").strip()
        if text:
            graph.add_edge(oid, "text", Atom(AtomType.STRING, text))
        for child in element:
            if _is_leaf(child):
                value = (child.text or "").strip()
                graph.add_edge(oid, child.tag, infer_atom(value))
            else:
                child_oid = self._element_node(graph, child, collection_tags)
                graph.add_edge(oid, child.tag, child_oid)
            if child.tag in collection_tags:
                target = graph.targets(oid, child.tag)[-1]
                if isinstance(target, Oid):
                    graph.add_to_collection(child.tag, target)
        return oid


def _split_records(text: str) -> Tuple[int, str, List[Tuple[int, int]]]:
    """Where the root's start tag ends, the root's end tag (empty when
    there is no root start tag), and the ``(start, end)`` of each root
    child, found by counting tags; a child ends at the end tag that
    balances its own name, or at the end of the text.  The scan stops at
    the first end tag outside a child: what follows it is not a record."""
    root_name = None
    root_start_end = 0
    spans: List[Tuple[int, int]] = []
    record: Optional[Tuple[str, int]] = None
    open_records = 0
    for match in _MARKUP.finditer(text):
        closing, name, rest = match.groups()
        if name is None:
            continue
        empty = rest.endswith("/")
        if record is not None:
            if name == record[0] and not empty:
                open_records += -1 if closing else 1
                if open_records == 0:
                    spans.append((record[1], match.end()))
                    record = None
        elif closing:
            break
        elif root_name is None:
            root_name, root_start_end = name, match.end()
            if empty:
                break
        elif empty:
            spans.append((match.start(), match.end()))
        else:
            record, open_records = (name, match.start()), 1
    if record is not None:
        spans.append((record[1], len(text)))
    return root_start_end, f"</{root_name}>" if root_name else "", spans


def _is_leaf(element) -> bool:
    return len(element) == 0 and not element.attrib
