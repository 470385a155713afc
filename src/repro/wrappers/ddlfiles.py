"""DDL wrapper: Strudel data-definition-language files -> data graph.

"Other information is stored in files in STRUDEL's data definition
language" (paper section 5.1) -- personal data like addresses, projects
and professional activities in the mff homepage example.  The wrapper is
a thin adapter over :mod:`repro.repository.ddl` so that DDL files plug
into the same mediation pipeline as every other source.
"""

from __future__ import annotations

from ..errors import StrudelError
from ..graph import Graph
from ..repository import ddl
from .base import Wrapper


class DdlWrapper(Wrapper):
    """Wraps DDL text."""

    source_kind = "ddl"

    def __init__(self, text: str, source_name: str = "") -> None:
        super().__init__(source_name)
        self.text = text

    @classmethod
    def from_file(cls, path: str) -> "DdlWrapper":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(handle.read(), source_name=path)

    def _wrap_into(self, graph: Graph) -> None:
        """The file is one record: an error while loading it is a fault
        at ``line N`` (or ``source``) and nothing is wrapped."""
        try:
            loaded = ddl.loads(self.text, self.source_name)
        except (StrudelError, ValueError) as error:
            line = getattr(error, "line", 0)
            self._fault(f"line {line}" if line else "source", error, self.text)
            return
        graph.merge(loaded)
        self.last_quarantine.admitted += 1
