"""Read dependencies: what a cached result read, and which edits stale it.

A cached result is stale only if the graph changed *where the result
looked*.  Two kinds of read are recorded:

* a :class:`Footprint` -- the semantic dependence set of one STRUQL
  evaluation: which ``(source, label)`` adjacency lists it read, which
  label extents and collections it scanned, which atomic values it
  probed in the reverse index;
* what one page render, or one ``EMBED`` component of it, read,
  recorded through a :class:`RecordingView` of the graph it rendered
  from: the nodes it read itself and the key of every component it
  embedded, so a render that read a stale component's key is stale.

A :class:`DependencyIndex` inverts both kinds, keyed by the cached
result they belong to, and answers :meth:`DependencyIndex.affected`
with the keys a :class:`~repro.graph.delta.GraphDelta` can have changed
-- in time proportional to the delta, not the number of cached results
-- or :data:`COARSE` when the bounded delta log no longer reaches back.
It is the one place that matches deltas against reads and the one place
that decides the truncated-log fallback; click-time expansions, served
pages, selectively regenerated pages, the maintained site graph and
incremental constraint verdicts all ask it.

The footprint is *semantic*, not physical: it is recorded from the
bound/unbound pattern of each condition, not from the index the
operator probes: it names what the query depends on, not how the
operator found it.  A coercing value probe is recorded as the
constant's :func:`~repro.graph.values.coercion_probes` spellings, so it
is exact only relative to that probe set: no finite set holds every atom
a constant can match (``"1998.0"``, ``"1998.00"``, ... all equal
``1998``), and an edit to an unlisted spelling is not seen (ROADMAP
item 2).

Sound over-approximations used (each errs toward invalidating):

* a regular-path condition depends on its whole label alphabet (any
  edge with a label the path can traverse), not just the reachable
  subgraph;
* a wildcard anywhere (``true``, a label predicate, a both-unbound
  path) marks the footprint ``all_edges`` -- any edge or node change
  affects it;
* a render depends on every node it read, as a whole: any change to
  the node's out-edges or memberships, or its creation or removal.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    AbstractSet, Dict, Hashable, Iterable, Iterator, List, Optional, Set,
    Tuple, Union,
)

from ..graph import Atom, Graph, Oid
from ..graph.delta import GraphDelta
from .ast import Alternation, AnyLabel, Concat, LabelIs, LabelPredicate, PathExpr, Star

#: A reverse-index probe key: the probed target plus the label filter
#: (``None`` = any label).
ProbeKey = Tuple[Union[Oid, Atom], Optional[str]]


def path_alphabet(expr: PathExpr) -> Optional[Set[str]]:
    """The set of labels a path expression can traverse.

    ``None`` means the alphabet is unbounded (``true`` or a label
    predicate appears) and the dependence must be treated as all edges.
    """
    if isinstance(expr, LabelIs):
        return {expr.label}
    if isinstance(expr, (AnyLabel, LabelPredicate)):
        return None
    if isinstance(expr, (Concat, Alternation)):
        parts = expr.parts if isinstance(expr, Concat) else expr.options
        labels: Set[str] = set()
        for part in parts:
            inner = path_alphabet(part)
            if inner is None:
                return None
            labels |= inner
        return labels
    if isinstance(expr, Star):
        return path_alphabet(expr.inner)
    return None  # unknown node type: be conservative


class Footprint:
    """The dependence set of one evaluation (or one cached entry).

    Mutable: the engine appends to it while evaluating; consumers
    freeze it implicitly by not evaluating into it again.
    """

    __slots__ = (
        "edge_reads",
        "oid_reads_all",
        "label_scans",
        "collection_scans",
        "membership_reads",
        "value_probes",
        "node_checks",
        "all_edges",
    )

    def __init__(self) -> None:
        #: read ``targets(source, label)`` -- one adjacency list
        self.edge_reads: Set[Tuple[Oid, str]] = set()
        #: read *all* out-edges of a node (arc-variable conditions)
        self.oid_reads_all: Set[Oid] = set()
        #: scanned a whole label extent
        self.label_scans: Set[str] = set()
        #: scanned a whole collection
        self.collection_scans: Set[str] = set()
        #: probed one membership ``oid in collection``
        self.membership_reads: Set[Tuple[str, Oid]] = set()
        #: probed the reverse index for a value under a label filter
        self.value_probes: Set[ProbeKey] = set()
        #: tested existence of a node (paths: zero-length matches)
        self.node_checks: Set[Oid] = set()
        #: scanned everything -- any structural change invalidates
        self.all_edges = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.all_edges:
            return "<Footprint all-edges>"
        return (
            f"<Footprint {len(self.edge_reads)} edge reads, "
            f"{len(self.oid_reads_all)} oid reads, "
            f"{len(self.label_scans)} label scans, "
            f"{len(self.collection_scans)} collection scans, "
            f"{len(self.value_probes)} value probes>"
        )


#: The footprint slots a :class:`DependencyIndex` inverts item by item.
_SLOTS = tuple(slot for slot in Footprint.__slots__ if slot != "all_edges")

#: What one cached result read: a footprint, or a render's nodes and keys.
Reads = Union[Footprint, AbstractSet[Hashable]]


class _Coarse:
    __slots__ = ()

    def __repr__(self) -> str:
        return "COARSE"


#: :meth:`DependencyIndex.affected`'s answer when the delta log was
#: truncated: nothing is provably current, every key must be recomputed.
COARSE = _Coarse()


class Stale(set):
    """The keys :meth:`DependencyIndex.affected` found stale, together
    with the delta that staled them (consumers report its size)."""

    __slots__ = ("delta",)

    def __init__(self, keys: Iterable[Hashable], delta: GraphDelta) -> None:
        super().__init__(keys)
        self.delta = delta


def changed_nodes(delta: GraphDelta) -> Set[Oid]:
    """The nodes whose own state ``delta`` changed: sources of changed
    edges, added and removed nodes, re-collected members.  A render that
    read none of them produces the same bytes."""
    nodes = delta.touched_oids()
    nodes.update(delta.nodes_added)
    return nodes


class DependencyIndex:
    """Inverted index from what cached results read to their keys.

    ``add(key, reads)`` records the reads of the result cached under
    ``key``; ``affected(graph, since_epoch)`` answers which keys the
    graph's changes since that epoch can have staled.  Results that read
    nothing are kept (they count in ``len``) but are never stale.
    """

    def __init__(self) -> None:
        self._reads: Dict[Hashable, Reads] = {}
        self._by_slot: Dict[str, Dict[object, Set[Hashable]]] = {
            slot: {} for slot in _SLOTS
        }
        self._all_edges: Set[Hashable] = set()
        self._by_node: Dict[Hashable, Set[Hashable]] = {}

    def __len__(self) -> int:
        return len(self._reads)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._reads

    def add(self, key: Hashable, reads: Reads) -> None:
        """Record what the result cached under ``key`` read, replacing
        any earlier record.  ``reads`` must not change afterwards."""
        if key in self._reads:
            self.discard(key)
        self._reads[key] = reads
        for table, items in self._tables(reads):
            for item in items:
                keys = table.get(item)
                if keys is None:
                    table[item] = {key}
                else:
                    keys.add(key)
        if isinstance(reads, Footprint) and reads.all_edges:
            self._all_edges.add(key)

    def discard(self, key: Hashable) -> None:
        """Forget ``key`` (its cached result was dropped)."""
        reads = self._reads.pop(key, None)
        if reads is None:
            return
        for table, items in self._tables(reads):
            for item in items:
                keys = table[item]
                keys.discard(key)
                if not keys:
                    del table[item]
        self._all_edges.discard(key)

    def _tables(self, reads: Reads) -> List[Tuple[Dict, AbstractSet]]:
        """The (inverted table, read items) pairs ``reads`` fills."""
        if not isinstance(reads, Footprint):
            return [(self._by_node, reads)]
        return [
            (table, getattr(reads, slot))
            for slot, table in self._by_slot.items()
            if getattr(reads, slot)
        ]

    # ------------------------------------------------------------ #

    def affected(
        self, graph: Graph, since_epoch: int
    ) -> Union[Stale, _Coarse]:
        """The keys whose results ``graph``'s changes since
        ``since_epoch`` can have changed, or :data:`COARSE` when the
        delta log no longer reaches back (always sound to recompute
        everything then).  A key left out is guaranteed byte-exact."""
        delta = graph.delta_since(since_epoch)
        if delta is None:
            return COARSE
        return Stale(self._match(delta), delta)

    def readers(self, reads: Iterable[Hashable]) -> Set[Hashable]:
        """The keys whose recorded render read any of ``reads``."""
        by_node = self._by_node
        found: Set[Hashable] = set()
        for read in reads:
            keys = by_node.get(read)
            if keys:
                found |= keys
        return found

    def _match(self, delta: GraphDelta) -> Set[Hashable]:
        stale: Set[Hashable] = set()
        if self._all_edges and (
            delta.edges_added or delta.edges_removed
            or delta.nodes_added or delta.nodes_removed
        ):
            stale |= self._all_edges
        tables = self._by_slot
        node_checks = tables["node_checks"]
        if node_checks:
            for oid in delta.nodes_added + delta.nodes_removed:
                stale.update(node_checks.get(oid, ()))
        edge_reads = tables["edge_reads"]
        oid_reads_all = tables["oid_reads_all"]
        label_scans = tables["label_scans"]
        value_probes = tables["value_probes"]
        if edge_reads or oid_reads_all or label_scans or value_probes:
            for source, label, target in delta.edge_changes():
                stale.update(label_scans.get(label, ()))
                stale.update(oid_reads_all.get(source, ()))
                stale.update(edge_reads.get((source, label), ()))
                stale.update(value_probes.get((target, label), ()))
                stale.update(value_probes.get((target, None), ()))
        collection_scans = tables["collection_scans"]
        membership_reads = tables["membership_reads"]
        if collection_scans or membership_reads:
            for name, oid in delta.member_changes():
                stale.update(collection_scans.get(name, ()))
                stale.update(membership_reads.get((name, oid), ()))
        if self._by_node:
            stale |= self.readers(changed_nodes(delta))
        return stale


class RecordingView:
    """A graph view that records what a page render reads.

    The node-keyed accessors that template selection, rendering and
    root resolution use add their node to the set opened by the
    innermost :meth:`recording` block; a caching renderer adds the key
    of each cached component it embeds with :meth:`_note`.  Everything
    else forwards to the wrapped graph untouched.  Renders that need no
    read sets (a plain :class:`~repro.template.HtmlGenerator` build) use
    the graph itself and pay nothing.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._reads: Optional[Set[Hashable]] = None

    @contextmanager
    def recording(self) -> Iterator[Set[Hashable]]:
        """Collect the reads made inside the block into the yielded set.

        A nested block collects its own reads only: the enclosing
        recording does not see them."""
        previous = self._reads
        self._reads = reads = set()
        try:
            yield reads
        finally:
            self._reads = previous

    def _note(self, read: Hashable) -> None:
        if self._reads is not None:
            self._reads.add(read)

    def targets(self, oid: Oid, label: str):
        self._note(oid)
        return self._graph.targets(oid, label)

    def attribute(self, oid: Oid, label: str):
        self._note(oid)
        return self._graph.attribute(oid, label)

    def out_edges(self, oid: Oid):
        self._note(oid)
        return self._graph.out_edges(oid)

    def labels_of(self, oid: Oid):
        self._note(oid)
        return self._graph.labels_of(oid)

    def has_node(self, oid: Oid) -> bool:
        self._note(oid)
        return self._graph.has_node(oid)

    def collections_of(self, oid: Oid) -> List[str]:
        self._note(oid)
        return self._graph.collections_of(oid)

    def in_collection(self, name: str, oid: Oid) -> bool:
        self._note(oid)
        return self._graph.in_collection(name, oid)

    def __getattr__(self, name: str):
        return getattr(self._graph, name)
