"""The relational/maximal-schema baseline for experiment E8.

Section 6.3 argues semistructured beats relational for Strudel's data:
"Modeling irregular data in an object-oriented model would require either
building an artificial class hierarchy ... or constructing a maximal
schema, where each object has all attributes.  Furthermore, handling
attribute values of different types would be cumbersome."

This module *builds* that maximal-schema encoding from a graph collection
and measures its costs:

* ``null_cells`` / ``null_fraction`` -- cells wasted on padding;
* ``overflow_tables`` -- multi-valued attributes need a side table each
  (1NF), with their row counts;
* ``type_conflicts`` -- columns whose values span several atomic kinds
  (the "address is a string here, a structure there" problem);
* ``schema_migrations`` -- processing objects in arrival order, how many
  times an ALTER TABLE (new column) would have been required after the
  initial load; the graph model's count is 0 by definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph import Atom, Graph, Oid


@dataclass
class MaximalSchemaReport:
    """Costs of the NULL-padded relational encoding of one collection."""

    collection: str
    rows: int = 0
    columns: List[str] = field(default_factory=list)
    null_cells: int = 0
    filled_cells: int = 0
    #: multi-valued attribute -> side-table row count
    overflow_tables: Dict[str, int] = field(default_factory=dict)
    #: column -> set of atomic kinds observed (>1 means a conflict)
    column_kinds: Dict[str, List[str]] = field(default_factory=dict)
    schema_migrations: int = 0
    #: columns present when the schema was first declared (first object)
    initial_columns: int = 0

    @property
    def total_cells(self) -> int:
        return self.rows * len(self.columns)

    @property
    def null_fraction(self) -> float:
        return self.null_cells / self.total_cells if self.total_cells else 0.0

    @property
    def type_conflicts(self) -> List[str]:
        return sorted(
            column for column, kinds in self.column_kinds.items() if len(kinds) > 1
        )

    def as_row(self) -> Dict[str, object]:
        return {
            "collection": self.collection,
            "rows": self.rows,
            "columns": len(self.columns),
            "null %": round(100 * self.null_fraction, 1),
            "overflow tables": len(self.overflow_tables),
            "type conflicts": len(self.type_conflicts),
            "migrations": self.schema_migrations,
        }


def maximal_schema(graph: Graph, collection: str) -> MaximalSchemaReport:
    """Encode a collection relationally and report the costs.

    Objects are processed in collection (insertion) order, simulating the
    paper's iterative wrapper development: the schema is declared from
    the first object, and every attribute that first appears later is one
    schema migration.
    """
    report = MaximalSchemaReport(collection=collection)
    members = graph.collection(collection)
    report.rows = len(members)
    known_columns: Dict[str, None] = {}
    for position, member in enumerate(members):
        labels = graph.labels_of(member)
        for label in labels:
            if label not in known_columns:
                known_columns[label] = None
                if position == 0:
                    report.initial_columns += 1
                else:
                    report.schema_migrations += 1
    report.columns = list(known_columns)

    for member in members:
        member_labels = set(graph.labels_of(member))
        for column in report.columns:
            if column not in member_labels:
                report.null_cells += 1
                continue
            targets = graph.targets(member, column)
            report.filled_cells += 1
            if len(targets) > 1:
                report.overflow_tables[column] = (
                    report.overflow_tables.get(column, 0) + len(targets)
                )
            kinds = report.column_kinds.setdefault(column, [])
            for target in targets:
                kind = target.type.value if isinstance(target, Atom) else "ref"
                if kind not in kinds:
                    kinds.append(kind)
    return report


@dataclass
class GraphModelReport:
    """The semistructured side of the E8 comparison (same units)."""

    collection: str
    objects: int = 0
    edges: int = 0
    schema_migrations: int = 0  # by definition: no schema to migrate

    def as_row(self) -> Dict[str, object]:
        return {
            "collection": self.collection,
            "objects": self.objects,
            "edges": self.edges,
            "null %": 0.0,
            "overflow tables": 0,
            "migrations": self.schema_migrations,
        }


def graph_model(graph: Graph, collection: str) -> GraphModelReport:
    """Measure the graph encoding of the same collection: it stores only
    the edges that exist -- no padding, no side tables, no migrations."""
    report = GraphModelReport(collection=collection)
    for member in graph.collection(collection):
        report.objects += 1
        report.edges += sum(1 for _ in graph.out_edges(member))
    return report
