"""Schema extraction for semistructured graphs.

Semistructured data has no a-priori schema, but a *posteriori* schema --
which collections exist, which attributes their members carry, how
irregular the attribute sets are -- is still queryable ("our query
language ... can also query the schema", paper section 2.1) and is what
the graph's schema index (``labels()``, ``collection_names()``) holds.

:func:`summarize` computes a :class:`GraphSchema`: per-collection
attribute statistics plus irregularity measures.  The irregularity
numbers drive experiment E8 (semistructured vs. relational modelling,
paper section 6.3): a relational encoding would need the *maximal schema*
(every attribute on every row), so ``null_fraction`` is exactly the
fraction of wasted cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .graph import Graph
from .oid import Oid
from .values import Atom


@dataclass
class AttributeStats:
    """Usage statistics of one attribute within one collection."""

    name: str
    #: members of the collection carrying the attribute at least once
    present_on: int = 0
    #: total number of edges with this label out of collection members
    occurrences: int = 0
    #: distinct atom types (and "object" for node targets) observed
    value_kinds: List[str] = field(default_factory=list)

    def note(self, target: object) -> None:
        kind = target.type.value if isinstance(target, Atom) else "object"
        if kind not in self.value_kinds:
            self.value_kinds.append(kind)

    @property
    def is_multivalued(self) -> bool:
        return self.occurrences > self.present_on

    @property
    def is_type_heterogeneous(self) -> bool:
        """True when the same attribute carries values of different kinds
        on different objects (the "address is a string here, a structure
        there" irregularity of section 6.3)."""
        return len(self.value_kinds) > 1


@dataclass
class CollectionSchema:
    """The observed schema of one collection."""

    name: str
    size: int
    attributes: Dict[str, AttributeStats]

    @property
    def null_fraction(self) -> float:
        """Fraction of cells that would be NULL in the maximal-schema table.

        0.0 means the collection is perfectly regular (a clean relation);
        values near 1.0 mean members share almost no attributes.
        """
        if not self.attributes or not self.size:
            return 0.0
        cells = self.size * len(self.attributes)
        filled = sum(a.present_on for a in self.attributes.values())
        return 1.0 - filled / cells

    @property
    def irregular_attributes(self) -> List[str]:
        """Attributes absent from at least one member (sorted)."""
        return sorted(
            name for name, a in self.attributes.items() if a.present_on < self.size
        )


@dataclass
class GraphSchema:
    """Observed schema of a whole graph: one entry per collection, plus the
    global label and collection-name lists (the schema index contents)."""

    labels: List[str]
    collection_names: List[str]
    collections: Dict[str, CollectionSchema]

    def collection_schema(self, name: str) -> CollectionSchema:
        return self.collections[name]

    @property
    def overall_null_fraction(self) -> float:
        """Size-weighted mean null fraction across collections."""
        weighted = 0.0
        total = 0
        for schema in self.collections.values():
            weighted += schema.null_fraction * schema.size
            total += schema.size
        return weighted / total if total else 0.0


def summarize(graph: Graph) -> GraphSchema:
    """Compute the observed schema of ``graph``.

    Only collection members are profiled per collection; the global label
    list covers every edge regardless of membership.
    """
    collections: Dict[str, CollectionSchema] = {}
    for coll_name in graph.collection_names():
        members = graph.collection(coll_name)
        attributes: Dict[str, AttributeStats] = {}
        for member in members:
            _profile_member(graph, member, attributes)
        collections[coll_name] = CollectionSchema(
            name=coll_name, size=len(members), attributes=attributes
        )
    return GraphSchema(
        labels=graph.labels(),
        collection_names=graph.collection_names(),
        collections=collections,
    )


def _profile_member(graph: Graph, member: Oid, attributes: Dict[str, AttributeStats]) -> None:
    seen_here: Dict[str, None] = {}
    for label, target in graph.out_edges(member):
        stats = attributes.setdefault(label, AttributeStats(name=label))
        stats.occurrences += 1
        stats.note(target)
        if label not in seen_here:
            seen_here[label] = None
            stats.present_on += 1
