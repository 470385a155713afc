"""The labeled directed graph at the heart of every Strudel component.

"In every level of the STRUDEL system, the data model is a labeled,
directed graph" (paper section 2.1).  The same :class:`Graph` class stores
wrapper outputs, the mediated *data graph*, and query-produced *site
graphs*.

The model, following OEM:

* the database is a set of objects connected by directed edges labeled
  with string-valued attribute names;
* objects are *nodes* (identified by an :class:`~repro.graph.oid.Oid`) or
  *atomic values* (:class:`~repro.graph.values.Atom`);
* objects are grouped into named *collections*; an object may belong to
  several collections, and members of one collection may have different
  attribute sets (this is what "semistructured" buys us);
* edges form a set: adding the same ``(source, label, target)`` twice is
  a no-op; within one ``(source, label)`` the distinct targets keep
  insertion order, which the template ORDER directive can override.

Because the repository cannot rely on schema information to lay data out,
the graph *fully indexes both the schema and the data* (section 2.1): it
maintains, incrementally, a label extent index, a reverse-adjacency index
(which doubles as the global atomic-value index), and collection extents.
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..errors import GraphError, UnknownObjectError
from .delta import (
    COLLECTION_CREATE,
    EDGE_ADD,
    EDGE_REMOVE,
    MEMBER_ADD,
    MEMBER_REMOVE,
    NODE_ADD,
    NODE_REMOVE,
    DeltaLog,
    GraphDelta,
)
from .oid import Oid, OidAllocator, SkolemRegistry
from .values import Atom, from_python

#: An edge target: an internal node or an atomic value.
Target = Union[Oid, Atom]

#: A fully-specified edge.
Edge = Tuple[Oid, str, Target]

_intern = sys.intern

#: Process-unique tokens for graphs of both backends (and hand-built
#: statistics): derived-state caches key on ``(token, epoch)``.  Unlike
#: ``id()``, a token is never reused after its graph is freed.
cache_tokens = itertools.count(1)


class Graph:
    """A labeled directed multigraph with named collections and full indexes.

    All mutation goes through :meth:`add_node`, :meth:`add_edge`,
    :meth:`remove_edge`, :meth:`remove_node` and the collection methods, so
    the three indexes (forward adjacency, reverse adjacency / value index,
    label extents) never go stale.

    The graph owns an :class:`OidAllocator` for anonymous nodes and a
    :class:`SkolemRegistry` so that composed STRUQL queries adding to the
    same graph agree on Skolem identity.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.token = next(cache_tokens)
        self._out: Dict[Oid, Dict[str, List[Target]]] = {}
        self._in: Dict[Target, Dict[Tuple[Oid, str], None]] = {}
        self._by_label: Dict[str, Dict[Tuple[Oid, Target], None]] = {}
        self._collections: Dict[str, Dict[Oid, None]] = {}
        self._edge_count = 0
        self._epoch = 0
        #: per-label edge counts keyed by atomic target (optimizer statistic)
        self._label_values: Dict[str, Dict[Atom, int]] = {}
        self._distinct_atoms = 0
        #: epoch-stamped IndexStatistics snapshot, owned by repository.indexes
        self._stats_cache: Optional[object] = None
        #: bounded structured mutation history, one record per epoch bump
        self._delta_log = DeltaLog()
        self.allocator = OidAllocator()
        self.skolems = SkolemRegistry()

    @property
    def epoch(self) -> int:
        """Mutation counter: bumped on every structural change.

        Consumers (statistics snapshots, compiled-plan caches) stamp
        their derived state with the epoch they observed; an unchanged
        epoch guarantees the graph has not been mutated since.
        """
        return self._epoch

    def delta_since(self, epoch: int) -> Optional[GraphDelta]:
        """Everything that changed after ``epoch``, or ``None``.

        ``None`` means the bounded delta log no longer reaches back that
        far; the caller must fall back to coarse (flush-everything)
        invalidation, which is always sound.
        """
        return self._delta_log.since(epoch, self._epoch)

    # ------------------------------------------------------------------ #
    # nodes

    def add_node(self, oid: Optional[Oid] = None, hint: str = "") -> Oid:
        """Add a node and return its oid.

        With no ``oid`` a fresh anonymous one is allocated (``hint`` makes
        dumps readable).  Re-adding an existing node is a no-op, so wrapper
        code can be written idempotently.
        """
        if oid is None:
            oid = self.allocator.fresh(hint)
        if oid not in self._out:
            self._out[oid] = {}
            self._epoch += 1
            self._delta_log.record((self._epoch, NODE_ADD, oid, None, None))
        return oid

    def skolem(self, function: str, *args: object) -> Oid:
        """Apply a Skolem function and ensure the resulting node exists.

        Arguments may be oids, atoms, or plain Python values (which are
        wrapped as atoms).  ``graph.skolem("YearPage", 1998)`` twice yields
        the same node.
        """
        wrapped = tuple(a if isinstance(a, Oid) else from_python(a) for a in args)
        oid = self.skolems.apply(function, wrapped)
        return self.add_node(oid)

    def has_node(self, oid: Oid) -> bool:
        return oid in self._out

    def nodes(self) -> Iterator[Oid]:
        """All node oids, in insertion order."""
        return iter(self._out)

    @property
    def node_count(self) -> int:
        return len(self._out)

    def remove_node(self, oid: Oid) -> None:
        """Remove a node together with all its incident edges.

        Collection memberships are dropped too.  Unknown oids raise
        :class:`UnknownObjectError`.
        """
        if oid not in self._out:
            raise UnknownObjectError(oid)
        for label, targets in list(self._out[oid].items()):
            for target in list(targets):
                self.remove_edge(oid, label, target)
        for source, label in list(self._in.get(oid, {})):
            self.remove_edge(source, label, oid)
        self._in.pop(oid, None)
        del self._out[oid]
        dropped_from = [
            name for name, members in self._collections.items() if oid in members
        ]
        for name in dropped_from:
            del self._collections[name][oid]
        self._epoch += 1
        self._delta_log.record((self._epoch, NODE_REMOVE, oid, None, None))
        for name in dropped_from:
            self._delta_log.record((self._epoch, MEMBER_REMOVE, name, oid, None))

    # ------------------------------------------------------------------ #
    # edges

    def add_edge(self, source: Oid, label: str, target: object) -> Target:
        """Add edge ``source -label-> target``; returns the stored target.

        ``target`` may be an oid (which must exist), an :class:`Atom`, or a
        plain Python value which is wrapped via
        :func:`~repro.graph.values.from_python`.  Duplicate edges are
        ignored (set semantics).  An unknown source is reported first,
        then an unknown target oid, then a bad label.
        """
        out = self._out
        by_label = out.get(source)
        if by_label is None:
            raise UnknownObjectError(source)
        if target.__class__ is Atom:
            stored: Target = target
            atom = True
        elif target.__class__ is Oid or isinstance(target, Oid):
            if target not in out:
                raise UnknownObjectError(target)
            stored = target
            atom = False
        else:
            stored = target if isinstance(target, Atom) else from_python(target)
            atom = True
        if not (label.__class__ is str or isinstance(label, str)) or not label:
            raise GraphError(f"edge label must be a non-empty string, got {label!r}")
        # Intern at load time: a site graph repeats a small label
        # vocabulary across millions of edges, and interning makes every
        # downstream label compare/hash (index probes, NFA label tests)
        # an identity check on a shared object.
        label = _intern(label)

        pair = (source, stored)
        label_extent = self._by_label.get(label)
        if label_extent is None:
            label_extent = self._by_label[label] = {}
        elif pair in label_extent:
            return stored
        label_extent[pair] = None
        targets = by_label.get(label)
        if targets is None:
            by_label[label] = [stored]
        else:
            targets.append(stored)
        incoming = self._in.get(stored)
        if incoming is None:
            incoming = self._in[stored] = {}
            if atom:
                self._distinct_atoms += 1
        incoming[(source, label)] = None
        if atom:
            values = self._label_values.get(label)
            if values is None:
                self._label_values[label] = {stored: 1}
            else:
                values[stored] = values.get(stored, 0) + 1
        self._edge_count += 1
        self._epoch += 1
        self._delta_log.record((self._epoch, EDGE_ADD, source, label, stored))
        return stored

    def remove_edge(self, source: Oid, label: str, target: Target) -> None:
        """Remove one edge; raises GraphError if it is not present."""
        targets = self._out.get(source, {}).get(label)
        if not targets or target not in targets:
            raise GraphError(f"no edge {source} -{label}-> {target!r}")
        targets.remove(target)
        if not targets:
            del self._out[source][label]
        incoming = self._in.get(target)
        if incoming is not None:
            incoming.pop((source, label), None)
            if not incoming:
                del self._in[target]
                if isinstance(target, Atom):
                    self._distinct_atoms -= 1
        extent = self._by_label.get(label)
        if extent is not None:
            extent.pop((source, target), None)
            if not extent:
                del self._by_label[label]
        if isinstance(target, Atom):
            values = self._label_values.get(label)
            if values is not None:
                count = values.get(target, 0)
                if count <= 1:
                    values.pop(target, None)
                    if not values:
                        del self._label_values[label]
                else:
                    values[target] = count - 1
        self._edge_count -= 1
        self._epoch += 1
        self._delta_log.record((self._epoch, EDGE_REMOVE, source, label, target))

    def has_edge(self, source: Oid, label: str, target: Target) -> bool:
        return (source, target) in self._by_label.get(label, {})

    def edges(self) -> Iterator[Edge]:
        """All edges as ``(source, label, target)`` triples."""
        for source, by_label in self._out.items():
            for label, targets in by_label.items():
                for target in targets:
                    yield source, label, target

    @property
    def edge_count(self) -> int:
        return self._edge_count

    # ------------------------------------------------------------------ #
    # navigation

    def out_edges(self, oid: Oid) -> Iterator[Tuple[str, Target]]:
        """Outgoing ``(label, target)`` pairs of a node."""
        if oid not in self._out:
            raise UnknownObjectError(oid)
        for label, targets in self._out[oid].items():
            for target in targets:
                yield label, target

    def labels_of(self, oid: Oid) -> List[str]:
        """The attribute names present on a node, in insertion order."""
        if oid not in self._out:
            raise UnknownObjectError(oid)
        return list(self._out[oid])

    def targets(self, oid: Oid, label: str) -> List[Target]:
        """All targets of ``oid -label->``, in insertion order."""
        if oid not in self._out:
            raise UnknownObjectError(oid)
        return list(self._out[oid].get(label, ()))

    def attribute(self, oid: Oid, label: str) -> Optional[Target]:
        """The first target of ``oid -label->``, or None if absent.

        Convenience accessor for single-valued attributes; multi-valued
        attributes should use :meth:`targets`.
        """
        targets = self._out.get(oid, {}).get(label)
        return targets[0] if targets else None

    def in_edges(self, target: Target) -> Iterator[Tuple[Oid, str]]:
        """Incoming ``(source, label)`` pairs of a node or atom."""
        return iter(self._in.get(target, {}))

    def edges_with_label(self, label: str) -> Iterator[Tuple[Oid, Target]]:
        """The extent of one label: all ``(source, target)`` pairs.

        Backed by the label index; this is the workhorse of the STRUQL
        evaluator.
        """
        return iter(self._by_label.get(label, {}))

    def labels(self) -> List[str]:
        """All edge labels present in the graph (the "attribute schema")."""
        return list(self._by_label)

    def label_cardinality(self, label: str) -> int:
        """Number of edges carrying ``label`` (optimizer statistic)."""
        return len(self._by_label.get(label, {}))

    def label_value_cardinality(self, label: str) -> int:
        """Distinct atomic targets under ``label`` (optimizer statistic).

        Maintained incrementally alongside the label extent, so a
        statistics snapshot never needs to rescan the edges.
        """
        return len(self._label_values.get(label, ()))

    def label_atoms(self, label: str) -> Iterator[Tuple[Atom, int]]:
        """The per-label value index: every distinct atomic target under
        ``label`` with its edge count.

        Maintained incrementally alongside the label extent.  The
        data-constraint checker uses it to *refute* value-shaped
        constraints (range/regexp/max_len/exclusive) without visiting a
        single collection member: if every value under the label passes,
        no member can hold a failing one.
        """
        return iter(self._label_values.get(label, {}).items())

    @property
    def distinct_atom_count(self) -> int:
        """Number of distinct atomic values appearing as edge targets."""
        return self._distinct_atoms

    def atoms(self) -> Iterator[Atom]:
        """All distinct atomic values appearing as edge targets."""
        for target in self._in:
            if isinstance(target, Atom):
                yield target

    def sources_of_value(self, atom: Atom) -> Iterator[Tuple[Oid, str]]:
        """Global value index: where does this atom appear?

        Yields ``(source, label)`` for every edge whose target equals the
        atom exactly (no coercion; coercing lookups are the evaluator's
        job).
        """
        return iter(self._in.get(atom, {}))

    def reachable(
        self, start: Oid, via: Optional[Set[str]] = None, include_atoms: bool = False
    ) -> List[Target]:
        """Objects reachable from ``start`` (inclusive), breadth first.

        ``via`` restricts traversal to a set of labels; by default all
        labels are followed.  Atoms terminate paths and are included only
        when ``include_atoms`` is set.
        """
        if start not in self._out:
            raise UnknownObjectError(start)
        seen: Dict[Target, None] = {start: None}
        queue: List[Oid] = [start]
        while queue:
            current = queue.pop(0)
            for label, target in self.out_edges(current):
                if via is not None and label not in via:
                    continue
                if target in seen:
                    continue
                seen[target] = None
                if isinstance(target, Oid):
                    queue.append(target)
        if include_atoms:
            return list(seen)
        return [t for t in seen if isinstance(t, Oid)]

    # ------------------------------------------------------------------ #
    # collections

    def create_collection(self, name: str) -> None:
        """Declare an (initially empty) named collection; idempotent."""
        if name not in self._collections:
            self._collections[name] = {}
            self._epoch += 1
            self._delta_log.record((self._epoch, COLLECTION_CREATE, name, None, None))

    def add_to_collection(self, name: str, oid: Oid) -> None:
        """Add a node to a collection, creating the collection if needed."""
        if oid not in self._out:
            raise UnknownObjectError(oid)
        if name not in self._collections:
            self.create_collection(name)
        members = self._collections[name]
        if oid not in members:
            members[oid] = None
            self._epoch += 1
            self._delta_log.record((self._epoch, MEMBER_ADD, name, oid, None))

    def remove_from_collection(self, name: str, oid: Oid) -> None:
        members = self._collections.get(name)
        if members is None or oid not in members:
            raise GraphError(f"{oid} is not in collection {name!r}")
        del members[oid]
        self._epoch += 1
        self._delta_log.record((self._epoch, MEMBER_REMOVE, name, oid, None))

    def collection(self, name: str) -> List[Oid]:
        """Members of a collection (empty list if it does not exist)."""
        return list(self._collections.get(name, {}))

    def has_collection(self, name: str) -> bool:
        return name in self._collections

    def in_collection(self, name: str, oid: Oid) -> bool:
        return oid in self._collections.get(name, {})

    def collection_names(self) -> List[str]:
        """All collection names (part of the queryable schema)."""
        return list(self._collections)

    def collections_of(self, oid: Oid) -> List[str]:
        """Names of the collections a node belongs to."""
        return [name for name, members in self._collections.items() if oid in members]

    def collection_cardinality(self, name: str) -> int:
        return len(self._collections.get(name, {}))

    # ------------------------------------------------------------------ #
    # whole-graph operations

    def copy(self, name: str = "") -> "Graph":
        """A deep structural copy sharing no mutable state.

        Skolem memoization is copied too, so further queries composed onto
        the copy keep agreeing with terms created so far.
        """
        clone = Graph(name or self.name)
        for oid in self._out:
            clone.add_node(oid)
        for source, label, target in self.edges():
            clone.add_edge(source, label, target)
        for coll, members in self._collections.items():
            clone.create_collection(coll)
            for oid in members:
                clone.add_to_collection(coll, oid)
        for function, args, oid in self.skolems.terms():
            clone.skolems.apply(function, args)
        clone.allocator.reserve_past(_max_anonymous(self._out))
        return clone

    def merge(self, other: "Graph", collection_prefix: str = "") -> Dict[Oid, Oid]:
        """Union another graph into this one, renaming clashing oids.

        Anonymous oids of ``other`` are re-allocated here to avoid
        collisions; Skolem-named and wrapper-named oids are kept verbatim
        (Skolem identity is global by design).  Returns the oid rename map
        (identity entries included) so callers can relocate references.

        ``collection_prefix`` optionally prefixes ``other``'s collection
        names, which the mediator uses to keep per-source extents apart.
        """
        rename: Dict[Oid, Oid] = {}
        for oid in other.nodes():
            if oid.name.startswith("&") and self.has_node(oid):
                rename[oid] = self.add_node(hint="m")
            else:
                rename[oid] = self.add_node(oid)
        for source, label, target in other.edges():
            new_target: Target = rename[target] if isinstance(target, Oid) else target
            self.add_edge(rename[source], label, new_target)
        for coll in other.collection_names():
            name = collection_prefix + coll
            self.create_collection(name)
            for member in other.collection(coll):
                self.add_to_collection(name, rename[member])
        for function, args, _ in other.skolems.terms():
            mapped = tuple(rename.get(a, a) if isinstance(a, Oid) else a for a in args)
            self.skolems.apply(function, mapped)
        self.allocator.reserve_past(_max_anonymous(self._out))
        return rename

    def stats(self) -> Dict[str, int]:
        """Size summary used by benchmarks and the repository catalog."""
        return {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "labels": len(self._by_label),
            "collections": len(self._collections),
            "atoms": self._distinct_atoms,
        }

    def __repr__(self) -> str:
        label = self.name or "graph"
        return f"<Graph {label}: {self.node_count} nodes, {self.edge_count} edges>"


def _max_anonymous(nodes: Iterable[Oid]) -> int:
    """Highest numeric suffix among anonymous oids (``&7`` or ``&pub.7``)."""
    highest = 0
    for oid in nodes:
        if not oid.name.startswith("&"):
            continue
        tail = oid.name[1:].rsplit(".", 1)[-1]
        if tail.isdigit():
            highest = max(highest, int(tail))
    return highest
