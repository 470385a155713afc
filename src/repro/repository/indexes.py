"""Index statistics over a fully-indexed graph.

The graph itself maintains the physical indexes (label extents, reverse
adjacency / global value index, collection extents) incrementally; this
module takes *statistical snapshots* of them for two consumers:

* the STRUQL optimizer, which orders where-clause conditions by estimated
  cardinality (:class:`IndexStatistics` supplies the estimates);
* the repository catalog, which records per-graph size summaries.

The paper (section 2.1): "Without schema information, we fully index both
the schema and the data ... one index contains the names of all the
collections and attributes in the graph; other indexes contain the
extensions for each collection and attribute.  In addition, indexes on
atomic values are global to the graph."
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import RepositoryError
from ..graph import Atom, Graph
from ..graph.delta import GraphDelta


@dataclass
class IndexStatistics:
    """Cardinality statistics snapshotted from a graph's indexes.

    All estimates are exact counts at snapshot time; the optimizer treats
    them as estimates because the graph may since have grown.  Snapshots
    taken from a graph are stamped with the graph's mutation ``epoch`` so
    downstream caches (plans, catalogs) can tell whether they are stale.
    """

    node_count: int = 0
    edge_count: int = 0
    label_cardinality: Dict[str, int] = field(default_factory=dict)
    collection_cardinality: Dict[str, int] = field(default_factory=dict)
    distinct_atoms: int = 0
    #: per-label count of distinct atomic targets (selectivity of value tests)
    label_distinct_values: Dict[str, int] = field(default_factory=dict)
    #: graph epoch at snapshot time (-1 for hand-built statistics)
    epoch: int = -1
    #: identity of the snapshotted graph (0 for hand-built statistics)
    graph_key: int = 0

    @classmethod
    def from_graph(cls, graph: Graph) -> "IndexStatistics":
        """Full-scan snapshot: recount everything from the raw indexes.

        O(edges) -- kept as the ground truth that :meth:`snapshot` (the
        incremental fast path) is property-tested against, and as the
        seed's cold-construction baseline in the benchmarks.
        """
        label_distinct: Dict[str, int] = {}
        for label in graph.labels():
            values = {t for _, t in graph.edges_with_label(label) if isinstance(t, Atom)}
            label_distinct[label] = len(values)
        return cls(
            node_count=graph.node_count,
            edge_count=graph.edge_count,
            label_cardinality={l: graph.label_cardinality(l) for l in graph.labels()},
            collection_cardinality={
                c: graph.collection_cardinality(c) for c in graph.collection_names()
            },
            distinct_atoms=sum(1 for _ in graph.atoms()),
            label_distinct_values=label_distinct,
            epoch=graph.epoch,
            graph_key=id(graph),
        )

    @classmethod
    def snapshot(cls, graph: Graph) -> "IndexStatistics":
        """O(labels + collections) snapshot from the graph's incremental
        counters; agrees exactly with :meth:`from_graph`."""
        labels = graph.labels()
        return cls(
            node_count=graph.node_count,
            edge_count=graph.edge_count,
            label_cardinality={l: graph.label_cardinality(l) for l in labels},
            collection_cardinality={
                c: graph.collection_cardinality(c) for c in graph.collection_names()
            },
            distinct_atoms=graph.distinct_atom_count,
            label_distinct_values={
                l: graph.label_value_cardinality(l) for l in labels
            },
            epoch=graph.epoch,
            graph_key=id(graph),
        )

    def advance(self, graph: Graph, delta: GraphDelta) -> "IndexStatistics":
        """A new snapshot derived from this one by applying a delta.

        Only the labels and collections the delta touched are re-read
        from the graph's incremental counters -- O(|delta|) work instead
        of :meth:`snapshot`'s O(labels + collections).  Agrees exactly
        with a fresh :meth:`snapshot` (property-tested).
        """
        label_cardinality = dict(self.label_cardinality)
        label_distinct = dict(self.label_distinct_values)
        for label in delta.labels():
            cardinality = graph.label_cardinality(label)
            if cardinality > 0:
                label_cardinality[label] = cardinality
                label_distinct[label] = graph.label_value_cardinality(label)
            else:
                label_cardinality.pop(label, None)
                label_distinct.pop(label, None)
        collection_cardinality = dict(self.collection_cardinality)
        for name in delta.collections():
            collection_cardinality[name] = graph.collection_cardinality(name)
        return IndexStatistics(
            node_count=graph.node_count,
            edge_count=graph.edge_count,
            label_cardinality=label_cardinality,
            collection_cardinality=collection_cardinality,
            distinct_atoms=graph.distinct_atom_count,
            label_distinct_values=label_distinct,
            epoch=graph.epoch,
            graph_key=id(graph),
        )

    def fingerprint(self) -> Tuple[int, int]:
        """Identity of this snapshot for plan-cache keys.

        Graph-stamped snapshots compare equal exactly when they describe
        the same graph at the same epoch; hand-built statistics fall back
        to object identity (never shared, never falsely equal).
        """
        if self.epoch >= 0 and self.graph_key:
            return (self.graph_key, self.epoch)
        return (id(self), -1)

    # -------------------------------------------------------------- #
    # estimates used by the optimizer

    def estimate_label_extent(self, label: str) -> int:
        """Expected number of ``(source, target)`` pairs for a known label."""
        return self.label_cardinality.get(label, 0)

    def estimate_any_label_extent(self) -> int:
        """Extent when the label is unknown (arc variable or wildcard)."""
        return self.edge_count

    def estimate_collection(self, name: str) -> int:
        """Expected membership of a collection."""
        return self.collection_cardinality.get(name, 0)

    def estimate_value_lookup(self, label: str = "") -> int:
        """Expected matches for an equality test on an atomic value.

        With a known label: extent / distinct-values (classic uniformity
        assumption); otherwise edges / distinct atoms across the graph.
        """
        if label:
            extent = self.label_cardinality.get(label, 0)
            distinct = self.label_distinct_values.get(label, 0)
            return max(1, extent // distinct) if distinct else extent
        if self.distinct_atoms:
            return max(1, self.edge_count // self.distinct_atoms)
        return self.edge_count

    def average_out_degree(self) -> float:
        """Mean out-degree, the branching factor for path expansion."""
        return self.edge_count / self.node_count if self.node_count else 0.0

    def average_in_degree(self) -> float:
        """Mean in-degree over every edge target (nodes *and* atoms) --
        the branching factor for reverse path expansion, which walks the
        reverse adjacency index."""
        targets = self.node_count + self.distinct_atoms
        return self.edge_count / targets if targets else 0.0


#: process-wide refresh counters, surfaced by ``repro stats``
_refresh_counters = {"stats_full_snapshots": 0, "stats_delta_refreshes": 0}
_refresh_counters_lock = Lock()

#: serializes snapshot refreshes (concurrent engines over shared graphs:
#: exactly one thread recomputes after a mutation, the rest reuse it)
_stats_provider_lock = Lock()


def statistics_refresh_counters() -> Dict[str, int]:
    """How statistics snapshots were refreshed so far in this process:
    ``stats_delta_refreshes`` advanced an existing snapshot by a delta
    (O(|delta|)); ``stats_full_snapshots`` re-read every counter."""
    with _refresh_counters_lock:
        return dict(_refresh_counters)


def graph_statistics(graph: Graph) -> IndexStatistics:
    """The shared, epoch-stamped statistics provider.

    Returns the graph's cached snapshot when the graph has not mutated
    since it was taken (same epoch).  After a mutation, the stale
    snapshot is *advanced* by the graph's delta log (O(|delta|), the
    common add-edge case touches one label) when the log still reaches
    back to the snapshot's epoch; only when it does not -- or no
    snapshot exists -- is a full O(labels + collections) snapshot
    taken.  Every consumer -- the query engine, EXPLAIN, the repository
    catalog -- goes through this function, so they all see the same
    estimates and an unchanged graph is never re-scanned.

    Thread-safe: the fresh-snapshot fast path is a lock-free read of an
    immutable snapshot; refreshes after a mutation are serialized, so N
    worker engines sharing a graph pay for one recount, not N.
    """
    cached = graph._stats_cache
    if isinstance(cached, IndexStatistics) and cached.epoch == graph.epoch:
        return cached
    with _stats_provider_lock:
        # re-check: another thread may have refreshed while we waited
        cached = graph._stats_cache
        if isinstance(cached, IndexStatistics) and cached.epoch == graph.epoch:
            return cached
        stats: Optional[IndexStatistics] = None
        if isinstance(cached, IndexStatistics) and cached.graph_key == id(graph):
            delta = graph.delta_since(cached.epoch)
            if delta is not None:
                stats = cached.advance(graph, delta)
                with _refresh_counters_lock:
                    _refresh_counters["stats_delta_refreshes"] += 1
        if stats is None:
            stats = IndexStatistics.snapshot(graph)
            with _refresh_counters_lock:
                _refresh_counters["stats_full_snapshots"] += 1
        graph._stats_cache = stats
        return stats


@dataclass
class SchemaIndex:
    """The schema index: names of all collections and attributes.

    STRUQL arc variables query this ("our query language ... can also
    query the schema"), and the site builder's tooling lists it.
    """

    labels: List[str]
    collections: List[str]

    @classmethod
    def from_graph(cls, graph: Graph) -> "SchemaIndex":
        return cls(labels=graph.labels(), collections=graph.collection_names())

    def advanced(self, delta: GraphDelta) -> Optional["SchemaIndex"]:
        """A new index patched by an additions-only delta, or ``None``.

        Edge/node/membership removals can retire a label from the
        schema, which would require consulting the graph to know -- in
        that case return ``None`` and let the caller rebuild.  Additions
        are replayed in mutation order, so the name lists match
        :meth:`from_graph` exactly (including order).
        """
        if delta.has_removals:
            return None
        known_labels = set(self.labels)
        labels = list(self.labels)
        for _, label, _ in delta.edges_added:
            if label not in known_labels:
                known_labels.add(label)
                labels.append(label)
        known_collections = set(self.collections)
        collections = list(self.collections)
        for name in delta.collections_created:
            if name not in known_collections:
                known_collections.add(name)
                collections.append(name)
        return SchemaIndex(labels=labels, collections=collections)

    def has_label(self, label: str) -> bool:
        return label in self.labels

    def has_collection(self, name: str) -> bool:
        return name in self.collections


def graph_schema_index(graph: Graph) -> SchemaIndex:
    """The graph's schema index, cached on the graph per mutation epoch.

    A stale entry is first *patched* from the graph's delta log (the
    common add-edge/add-collection case appends at most one name); only
    removals -- which can retire a label -- or a truncated log force a
    rebuild from the raw indexes.
    """
    cached = graph._schema_cache
    if cached is not None:
        epoch, index = cached
        if epoch == graph.epoch:
            return index
        delta = graph.delta_since(epoch)
        patched = index.advanced(delta) if delta is not None else None
        if patched is not None:
            graph._schema_cache = (graph.epoch, patched)
            return patched
    index = SchemaIndex.from_graph(graph)
    graph._schema_cache = (graph.epoch, index)
    return index


class RepositoryCatalog:
    """The half of the repository interface shared by both backends:
    the write contract and the catalog.  Subclasses provide ``store``,
    ``fetch`` and ``graph_names``."""

    @contextmanager
    def rebuild(self, name: str) -> Iterator[Graph]:
        """Yield an empty in-memory graph and :meth:`store` it as the
        next generation of ``name`` if the block exits cleanly; on an
        exception the previous generation stays current."""
        if not name:
            raise RepositoryError("graph name must be non-empty")
        graph = Graph(name)
        yield graph
        self.store(name, graph)  # type: ignore[attr-defined]

    def statistics(self, name: str) -> IndexStatistics:
        """Index statistics for a stored graph (optimizer input), served
        from the graph's epoch-stamped snapshot: an unchanged graph is
        never re-scanned."""
        return graph_statistics(self.fetch(name))  # type: ignore[attr-defined]

    def schema_index(self, name: str) -> SchemaIndex:
        """The schema index (collection and attribute names) of a graph."""
        return graph_schema_index(self.fetch(name))  # type: ignore[attr-defined]

    def catalog(self) -> Dict[str, Dict[str, int]]:
        """Size summary of every stored graph."""
        return {
            name: self.fetch(name).stats()  # type: ignore[attr-defined]
            for name in self.graph_names()  # type: ignore[attr-defined]
        }
