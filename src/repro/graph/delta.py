"""Structured mutation deltas: what changed in a graph, per epoch.

The bare mutation ``epoch`` counter (PR 1) tells consumers *that* a graph
changed, which forces every derived cache -- click-time expansions,
compiled plans, statistics snapshots, served pages -- to be flushed
wholesale on any edit.  This module records *what* changed, so a
consumer that also knows what it *read* (a
:class:`~repro.struql.footprint.Footprint`) can invalidate only the
entries the edit can possibly affect.

Two pieces:

* :class:`DeltaLog` -- a bounded ring of per-mutation records the
  :class:`~repro.graph.graph.Graph` appends to alongside every epoch
  bump.  Bounded so an arbitrarily long-lived graph never grows an
  unbounded history; when a consumer asks for a delta older than the
  ring reaches, the answer is ``None`` and the consumer must fall back
  to coarse invalidation (always sound).
* :class:`GraphDelta` -- the aggregation of the records between two
  epochs: edges and nodes added/removed, collection memberships
  changed.  Consumers intersect it with read footprints.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set, Tuple, Union

from .oid import Oid
from .values import Atom

Target = Union[Oid, Atom]
Edge = Tuple[Oid, str, Target]

#: Record kinds in the log: slot 1 of a ``(epoch, kind, a, b, c)`` record.
EDGE_ADD = 0  #: ``a -b-> c`` was added
EDGE_REMOVE = 1  #: ``a -b-> c`` was removed
NODE_ADD = 2  #: node ``a`` was added
NODE_REMOVE = 3  #: node ``a`` was removed
MEMBER_ADD = 4  #: node ``b`` joined collection ``a``
MEMBER_REMOVE = 5  #: node ``b`` left collection ``a``
COLLECTION_CREATE = 6  #: collection ``a`` was created


#: One log record: ``(epoch, kind, a, b, c)``.
Record = Tuple[int, int, object, object, object]


class GraphDelta:
    """Every structural change between ``base_epoch`` (exclusive) and
    ``epoch`` (inclusive) of one graph.

    The lists are in mutation order and *not* net effects: an edge added
    and then removed appears in both lists.  That is exactly what
    footprint intersection needs -- any entry that read either state
    must be invalidated.
    """

    __slots__ = (
        "base_epoch", "epoch",
        "edges_added", "edges_removed",
        "nodes_added", "nodes_removed",
        "members_added", "members_removed",
        "collections_created",
    )

    def __init__(self, base_epoch: int, epoch: int) -> None:
        self.base_epoch = base_epoch
        self.epoch = epoch
        self.edges_added: List[Edge] = []
        self.edges_removed: List[Edge] = []
        self.nodes_added: List[Oid] = []
        self.nodes_removed: List[Oid] = []
        self.members_added: List[Tuple[str, Oid]] = []
        self.members_removed: List[Tuple[str, Oid]] = []
        self.collections_created: List[str] = []

    # ------------------------------------------------------------ #
    # summaries

    @property
    def empty(self) -> bool:
        return not (
            self.edges_added or self.edges_removed
            or self.nodes_added or self.nodes_removed
            or self.members_added or self.members_removed
            or self.collections_created
        )

    @property
    def has_removals(self) -> bool:
        """True when any edge, node, or membership was removed --
        the non-monotone case several consumers treat conservatively."""
        return bool(self.edges_removed or self.nodes_removed or self.members_removed)

    def edge_changes(self) -> List[Edge]:
        """Added then removed edges, in one list."""
        return self.edges_added + self.edges_removed

    def member_changes(self) -> List[Tuple[str, Oid]]:
        return self.members_added + self.members_removed

    def touched_oids(self) -> Set[Oid]:
        """Oids whose *own* state changed: sources of changed edges,
        removed nodes, and re-collected members.  (Targets of changed
        edges are not included -- their out-edges did not change.)"""
        touched: Set[Oid] = {source for source, _, _ in self.edges_added}
        touched.update(source for source, _, _ in self.edges_removed)
        touched.update(self.nodes_removed)
        touched.update(oid for _, oid in self.members_added)
        touched.update(oid for _, oid in self.members_removed)
        return touched

    def size(self) -> int:
        """Number of individual mutations aggregated."""
        return (
            len(self.edges_added) + len(self.edges_removed)
            + len(self.nodes_added) + len(self.nodes_removed)
            + len(self.members_added) + len(self.members_removed)
            + len(self.collections_created)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GraphDelta epochs ({self.base_epoch}, {self.epoch}]: "
            f"+{len(self.edges_added)}/-{len(self.edges_removed)} edges, "
            f"+{len(self.nodes_added)}/-{len(self.nodes_removed)} nodes, "
            f"+{len(self.members_added)}/-{len(self.members_removed)} members>"
        )


class DeltaLog:
    """A bounded ring of per-mutation records.

    Each record is an ``(epoch, kind, a, b, c)`` tuple (see the kind
    constants above; unused slots are ``None``), appended by
    :meth:`record` in epoch order; several records may share an epoch.
    ``since(epoch)`` aggregates everything newer than ``epoch`` into a
    :class:`GraphDelta`, or returns ``None`` when the ring no longer
    reaches back that far (the consumer must then invalidate coarsely).

    A graph write appends one record, so :meth:`record` is the ring's
    own C-level ``deque.append``: no Python frame per write.  The deque
    holds one record more than the window.  Once it is full, its oldest
    record has left the window -- it is the most recently evicted one --
    and its epoch is the floor: every mutation with an epoch at or below
    the floor may be missing from the window.
    """

    __slots__ = ("maxlen", "_records", "record")

    def __init__(self, maxlen: int = 4096) -> None:
        self.maxlen = maxlen
        self._records: Deque[Record] = deque(maxlen=maxlen + 1)
        #: append one ``(epoch, kind, a, b, c)`` record; a full ring
        #: drops its oldest record in the same C call
        self.record = self._records.append

    # ``record`` is bound to this log's own deque: a pickled or copied
    # log must bind it to its new deque, never share the original's
    def __getstate__(self) -> Tuple[int, List[Record]]:
        return self.maxlen, list(self._records)

    def __setstate__(self, state: Tuple[int, List[Record]]) -> None:
        maxlen, records = state
        self.__init__(maxlen)  # type: ignore[misc]
        self._records.extend(records)

    def since(self, epoch: int, current_epoch: int) -> Optional[GraphDelta]:
        """The aggregated delta for mutations with epoch > ``epoch``.

        ``None`` when the log has evicted records newer than ``epoch``
        (the delta would be incomplete).  An up-to-date consumer gets an
        empty delta.
        """
        records = self._records
        if len(records) > self.maxlen and epoch < records[0][0]:
            return None
        delta = GraphDelta(epoch, current_epoch)
        # records are in epoch order: walk back from the newest, so the
        # cost is the delta's size, not the ring's
        newer = []
        for record in reversed(records):
            if record[0] <= epoch:
                break
            newer.append(record)
        for _, kind, a, b, c in reversed(newer):
            if kind == EDGE_ADD:
                delta.edges_added.append((a, b, c))  # type: ignore[arg-type]
            elif kind == EDGE_REMOVE:
                delta.edges_removed.append((a, b, c))  # type: ignore[arg-type]
            elif kind == NODE_ADD:
                delta.nodes_added.append(a)  # type: ignore[arg-type]
            elif kind == NODE_REMOVE:
                delta.nodes_removed.append(a)  # type: ignore[arg-type]
            elif kind == MEMBER_ADD:
                delta.members_added.append((a, b))  # type: ignore[arg-type]
            elif kind == MEMBER_REMOVE:
                delta.members_removed.append((a, b))  # type: ignore[arg-type]
            else:
                delta.collections_created.append(a)  # type: ignore[arg-type]
        return delta

    def __len__(self) -> int:
        """Records in the window (the evicted floor record is not one)."""
        return min(len(self._records), self.maxlen)
