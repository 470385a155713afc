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
from typing import Dict, Iterator, Tuple

from ..errors import RepositoryError
from ..graph import Graph
from ..graph.graph import cache_tokens


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
    #: the snapshotted graph's ``token``; hand-built statistics draw a
    #: fresh one from the same counter, so they never share a cache key
    graph_key: int = field(default_factory=cache_tokens.__next__)

    @classmethod
    def snapshot(cls, graph: Graph) -> "IndexStatistics":
        """O(labels + collections) snapshot from the graph's incremental
        counters; agrees exactly with an O(edges) recount of the raw
        indexes (property-tested)."""
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
            graph_key=graph.token,
        )

    def fingerprint(self) -> Tuple[int, int]:
        """Identity of this snapshot for plan-cache keys: equal exactly
        when two snapshots describe the same graph at the same epoch
        (hand-built statistics carry a token of their own)."""
        return (self.graph_key, self.epoch)

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


#: serializes snapshot refreshes (concurrent engines over shared graphs:
#: exactly one thread recomputes after a mutation, the rest reuse it)
_stats_provider_lock = Lock()


def graph_statistics(graph: Graph) -> IndexStatistics:
    """The shared, epoch-stamped statistics provider.

    Returns the graph's cached snapshot when the graph has not mutated
    since it was taken (same epoch); otherwise takes one
    O(labels + collections) :meth:`IndexStatistics.snapshot` of the
    graph's incremental counters and caches it for the new epoch.
    Every consumer -- the query engine, EXPLAIN, the repository
    catalog -- goes through this function, so they all see the same
    estimates and an unchanged graph is never re-read.

    Thread-safe: the fresh-snapshot fast path is a lock-free read of an
    immutable snapshot; refreshes after a mutation are serialized, so N
    worker engines sharing a graph pay for one snapshot, not N.
    """
    cached = graph._stats_cache
    if isinstance(cached, IndexStatistics) and cached.epoch == graph.epoch:
        return cached
    with _stats_provider_lock:
        # re-check: another thread may have refreshed while we waited
        cached = graph._stats_cache
        if isinstance(cached, IndexStatistics) and cached.epoch == graph.epoch:
            return cached
        stats = IndexStatistics.snapshot(graph)
        graph._stats_cache = stats
        return stats


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

    def catalog(self) -> Dict[str, Dict[str, int]]:
        """Size summary of every stored graph."""
        return {
            name: self.fetch(name).stats()  # type: ignore[attr-defined]
            for name in self.graph_names()  # type: ignore[attr-defined]
        }
