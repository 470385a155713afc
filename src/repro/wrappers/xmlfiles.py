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
"""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from typing import Optional, Sequence

from ..errors import WrapperError
from ..graph import Atom, AtomType, Graph, Oid
from .base import Wrapper
from .relational import infer_atom


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
        """The document is one record: a parse error is a fault at
        ``line N`` (or ``source``) and nothing is wrapped."""
        try:
            root = ElementTree.fromstring(self.text)
        except ElementTree.ParseError as error:
            line, _ = getattr(error, "position", (0, 0))
            self._fault(
                f"line {line}" if line else "source",
                WrapperError(f"malformed XML: {error}", cause=error),
                self.text,
            )
            return
        collection_tags = self.collection_tags
        if collection_tags is None:
            collection_tags = sorted({child.tag for child in root})
        for tag in collection_tags:
            graph.create_collection(tag)
        self._element_node(graph, root, set(collection_tags))
        self.last_quarantine.admitted += 1

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


def _is_leaf(element) -> bool:
    return len(element) == 0 and not element.attrib
