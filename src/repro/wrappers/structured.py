"""Structured-file wrapper: key/value record files -> data graph.

The AT&T site used "structured files that contain project data" (paper
section 5.1).  The format here is the classic record-jar style:

* records are separated by blank lines;
* each line is ``key: value``; repeating a key makes the attribute
  multi-valued; long values continue on lines indented with whitespace;
* ``%collection Name`` sets the collection for subsequent records;
* ``%type key typename`` declares a DDL atom type for a key;
* ``%id key`` names the field whose value becomes the record's oid
  (prefixed with the collection name);
* ``#`` at line start is a comment.

Missing keys simply produce no edge, so irregular records translate
directly into semistructured objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import StrudelError, WrapperError
from ..graph import Graph, Oid, parse_typed_value, string
from .base import Wrapper


class StructuredFileWrapper(Wrapper):
    """Wraps record-jar text into a graph."""

    source_kind = "structured"

    def __init__(
        self, text: str, default_collection: str = "Records", source_name: str = ""
    ) -> None:
        super().__init__(source_name)
        self.text = text
        self.default_collection = default_collection

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "StructuredFileWrapper":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(handle.read(), source_name=path, **kwargs)

    # ------------------------------------------------------------ #

    def _wrap_into(self, graph: Graph) -> None:
        """A bad directive or a bad line is a fault at ``line N``; the
        rest of a bad line's record is skipped up to the next blank
        line.  A record whose values will not load is a fault at
        ``record at line N``, its first line."""
        collection = self.default_collection
        types: Dict[str, str] = {}
        id_key = ""
        record: List[Tuple[str, str]] = []
        record_start = 0
        skipping = False  # after a bad line: discard until the next blank line

        def flush() -> None:
            if not record:
                return
            try:
                self._add_record(graph, collection, types, id_key, record)
            except (StrudelError, ValueError) as error:
                snippet = "\n".join(f"{k}: {v}" for k, v in record)
                self._fault(f"record at line {record_start}", error, snippet)
            else:
                self.last_quarantine.admitted += 1
            record.clear()

        for line_no, line in enumerate(self.text.splitlines(), start=1):
            if line.startswith("#"):
                continue
            if not line.strip():
                skipping = False
                flush()
                continue
            if skipping:
                continue
            if line.startswith("%"):
                flush()
                try:
                    collection, id_key = self._directive(line, collection, types, id_key)
                except WrapperError as error:
                    self._fault(f"line {line_no}", error, line.strip())
                continue
            if line[0].isspace():
                if record:
                    key, value = record[-1]
                    record[-1] = (key, value + " " + line.strip())
                    continue
                problem = "continuation line with no record"
            elif ":" in line:
                if not record:
                    record_start = line_no
                key, _, value = line.partition(":")
                record.append((key.strip(), value.strip()))
                continue
            else:
                problem = f"expected 'key: value': {line.strip()!r}"
            snippet = "\n".join([f"{k}: {v}" for k, v in record] + [line.strip()])
            record.clear()
            skipping = True
            self._fault(f"line {line_no}", WrapperError(problem), snippet)
        flush()

    def _directive(
        self,
        line: str,
        collection: str,
        types: Dict[str, str],
        id_key: str,
    ) -> Tuple[str, str]:
        words = line[1:].split()
        if not words:
            raise WrapperError("empty directive")
        name = words[0].lower()
        if name == "collection" and len(words) == 2:
            return words[1], id_key
        if name == "type" and len(words) == 3:
            types[words[1]] = words[2]
            return collection, id_key
        if name == "id" and len(words) == 2:
            return collection, words[1]
        raise WrapperError(f"bad directive: {line!r}")

    def _add_record(
        self,
        graph: Graph,
        collection: str,
        types: Dict[str, str],
        id_key: str,
        fields: List[Tuple[str, str]],
    ) -> None:
        oid: Optional[Oid] = None
        if id_key:
            for key, value in fields:
                if key == id_key and value:
                    oid = Oid(f"{collection}:{value}")
                    break
        # every value is parsed before the first write, so a record that
        # will not load leaves nothing behind
        atoms = [
            (key, parse_typed_value(types[key], value) if key in types else string(value))
            for key, value in fields
        ]
        node = graph.add_node(oid, hint=collection.lower())
        for key, atom in atoms:
            graph.add_edge(node, key, atom)
        graph.add_to_collection(collection, node)
