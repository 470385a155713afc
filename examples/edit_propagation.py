"""Propagating page edits back to the underlying data.

Section 5.2: "Both the CNN team and [the] Web site design firm indicated
... that they would need to edit both the structure and content of the
generated pages and that these changes should be propagated
automatically back into the HTML templates, site-definition query, or
underlying data."

This module implements the *data* direction of that request for content
edits: a user edits an atomic value shown on a generated page; we trace
the site-graph edge carrying that value back through the site-definition
query to the data-graph edge(s) it was copied from, rewrite them, and
let the :class:`~repro.core.maintenance.SiteMaintainer` refresh the
site.  (Template and query edits remain out of scope, as in the paper --
they are the site builder's artifacts, not data.)

Tracing uses the same machinery as incremental evaluation: a site edge
``F(args) -L-> value`` corresponds to a site-schema edge whose guard
conjunction we evaluate with the Skolem formals bound to ``args``; a
where-clause edge condition whose variables produced the link's label
and target pinpoints the originating data edge.  Edits are refused --
never guessed -- when the value is not a copy of a data edge (constants,
Skolem targets) or when the trace is ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.incremental import DynamicSite, NodeInstance
from repro.core.maintenance import SiteMaintainer
from repro.core.schema import SchemaEdge
from repro.errors import StrudelError
from repro.graph import Atom, Oid, Target, atoms_equal, from_python
from repro.struql.ast import EdgeCond, Var
from repro.struql.eval import Binding, link_label


class PropagationError(StrudelError):
    """The edit could not be traced to exactly one kind of data origin."""


@dataclass(frozen=True)
class DataOrigin:
    """A data-graph edge that produced the edited site value."""

    source: Oid
    label: str
    value: Target

    def __str__(self) -> str:
        return f"{self.source} -{self.label}-> {self.value!r}"


@dataclass
class PropagationResult:
    """What one edit did."""

    origins_rewritten: List[DataOrigin] = field(default_factory=list)
    new_value: Optional[Atom] = None
    site_rebuilt: bool = False


class EditPropagator:
    """Traces and applies content edits for one maintained site."""

    def __init__(self, maintainer: SiteMaintainer) -> None:
        self.maintainer = maintainer
        self._dynamic = DynamicSite(
            maintainer.program, maintainer.data_graph, cache=False
        )

    # ------------------------------------------------------------ #
    # tracing

    def instance_for(self, oid: Oid) -> Optional[NodeInstance]:
        """The NodeInstance whose Skolem term materializes as ``oid`` in
        the maintained site graph."""
        site_graph = self.maintainer.site_graph
        term = site_graph.skolems.term(oid)
        if term is None or not site_graph.has_node(oid):
            return None
        return NodeInstance(*term)

    def trace(
        self, page_oid: Oid, label: str, value: Union[Atom, object]
    ) -> List[DataOrigin]:
        """All data edges whose value was copied into
        ``page_oid -label-> value`` by the site definition."""
        if not isinstance(value, Atom):
            value = from_python(value)
        instance = self.instance_for(page_oid)
        if instance is None:
            raise PropagationError(
                f"{page_oid} is not a Skolem-created page of this site"
            )
        origins: Dict[DataOrigin, None] = {}
        for schema_edge in self._dynamic.schema.edges_from(instance.function):
            link = schema_edge.link
            assert link is not None
            if not isinstance(link.target, Var):
                continue  # constants and Skolem targets are not data copies
            for row in self._dynamic.edge_rows(schema_edge, instance):
                if link_label(link, row) != label:
                    continue
                bound = row.get(link.target.name)
                if not isinstance(bound, Atom) or not atoms_equal(bound, value):
                    continue
                origin = self._origin_from_row(schema_edge, link.target.name, row)
                if origin is not None:
                    origins[origin] = None
        return list(origins)

    @staticmethod
    def _origin_from_row(
        schema_edge: SchemaEdge, value_var: str, row: Binding
    ) -> Optional[DataOrigin]:
        """Find the where-clause edge condition that bound the value
        variable; its matched data edge is the origin."""
        for condition in schema_edge.conditions:
            if not isinstance(condition, EdgeCond):
                continue
            if not isinstance(condition.target, Var):
                continue
            if condition.target.name != value_var:
                continue
            source = row.get(condition.source.name)
            if not isinstance(source, Oid):
                continue
            if isinstance(condition.label, str):
                edge_label: Optional[str] = condition.label
            else:
                bound = row.get(condition.label.name)
                edge_label = bound if isinstance(bound, str) else (
                    bound.as_string() if isinstance(bound, Atom) else None
                )
            value = row.get(value_var)
            if edge_label is not None and value is not None and not isinstance(value, Oid):
                atom = value if isinstance(value, Atom) else from_python(value)
                return DataOrigin(source=source, label=edge_label, value=atom)
        return None

    # ------------------------------------------------------------ #
    # applying

    def apply(
        self,
        page_oid: Oid,
        label: str,
        old_value: Union[Atom, object],
        new_value: Union[Atom, object],
    ) -> PropagationResult:
        """Rewrite the data origin(s) of one displayed value and refresh
        the site.  Raises :class:`PropagationError` when the value has no
        data origin (it is a query constant or structural link)."""
        if not isinstance(old_value, Atom):
            old_value = from_python(old_value)
        if not isinstance(new_value, Atom):
            new_value = from_python(new_value)
        origins = self.trace(page_oid, label, old_value)
        if not origins:
            raise PropagationError(
                f"{page_oid} -{label}-> {old_value!r} does not originate "
                "from a data edge; edit the query or templates instead"
            )
        data = self.maintainer.data_graph
        for origin in origins:
            data.remove_edge(origin.source, origin.label, origin.value)
            replaced = new_value
            if isinstance(origin.value, Atom) and origin.value.type is not new_value.type:
                # keep the original flavour (e.g. TEXT_FILE) for same-kind edits
                if isinstance(new_value.value, str) and isinstance(
                    origin.value.value, str
                ):
                    replaced = Atom(origin.value.type, new_value.value)
            data.add_edge(origin.source, origin.label, replaced)
        # value rewrites are delete+insert: rebuild through the maintainer
        self.maintainer.rebuild()
        return PropagationResult(
            origins_rewritten=origins,
            new_value=new_value,
            site_rebuilt=True,
        )
