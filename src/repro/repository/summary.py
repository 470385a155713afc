"""Dataguide-style label summaries for static query checking.

The paper's repository "fully indexes both the schema and the data ...
one index contains the names of all the collections and attributes in
the graph" (section 2.1).  A :class:`LabelSummary` snapshots exactly that
schema index -- the *set* of edge labels and collection names, plus the
labels leaving each collection's members -- which is all the site
analyzer needs to type-check a STRUQL query without touching extents.

Like :class:`~repro.repository.indexes.IndexStatistics`, summaries are
stamped with the graph's mutation epoch; :func:`label_summary` caches one
summary per graph and rebuilds it only when the epoch moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet

from ..graph import Graph


@dataclass(frozen=True)
class LabelSummary:
    """The label/collection vocabulary of one data graph."""

    #: every edge label in the graph.
    labels: FrozenSet[str] = frozenset()
    #: every collection name.
    collections: FrozenSet[str] = frozenset()
    #: labels leaving members of each collection (dataguide narrowing:
    #: ``Publications(x), x -> "title" -> t`` is checked against the
    #: labels actually found on Publications members, not the graph).
    collection_labels: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: graph epoch at snapshot time (-1 for hand-built summaries).
    epoch: int = -1

    @classmethod
    def from_graph(cls, graph: Graph) -> "LabelSummary":
        collection_labels: Dict[str, FrozenSet[str]] = {}
        for name in graph.collection_names():
            labels: set = set()
            for oid in graph.collection(name):
                labels.update(graph.labels_of(oid))
            collection_labels[name] = frozenset(labels)
        return cls(
            labels=frozenset(graph.labels()),
            collections=frozenset(graph.collection_names()),
            collection_labels=collection_labels,
            epoch=graph.epoch,
        )


def label_summary(graph: Graph) -> LabelSummary:
    """The (cached) label summary of a graph.

    The cache lives on the graph object and is keyed by its mutation
    epoch, mirroring the statistics cache in
    :func:`~repro.repository.indexes.graph_statistics`.
    """
    cached = getattr(graph, "_label_summary_cache", None)
    if cached is not None and cached.epoch == graph.epoch:
        return cached
    summary = LabelSummary.from_graph(graph)
    graph._label_summary_cache = summary
    return summary
